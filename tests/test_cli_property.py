"""A seeded property gate over the accepted command line.

Hypothesis draws commands over every command, kind and family, degrees
m = 1..7, radii and exactness degrees in range, intervals near 0, near the
exp limit, tiny and far off, both formats and `--out`. Every command must
either succeed cleanly or refuse cleanly:

- exit 0, with no warning but the p < m one, strict JSON (no NaN or
  infinity) and CSV cells that are never infinite (a NaN order is a
  study's "no order here");
- or exit 2 or 3, with one `error:` or `numerical failure:` line on
  stderr, nothing on stdout and the `--out` file untouched;

and a second run of the same command writes the same bytes.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from splineqi import cli
from splineqi.applications import KINDS
from splineqi.knots import FAMILIES

INTERVALS = [
    ("0", "1"),
    ("-1e-05", "1e-05"),            # about 0
    ("1e-300", "1e-299"),           # tiny and near 0
    ("0", "1e-12"),                 # tiny
    ("700", "709"),                 # near the exp limit
    ("0", "709.7"),
    ("700", "700.00000001"),        # short and far from 0
    ("1000000", "1000001"),
    ("-1e+100", "1e+100"),          # long
]
SIZES = ["4,8", "8,16", "6,12,24"]
SENTINEL = "left as it was\n"


@st.composite
def commands(draw):
    """One accepted command line: its argv, and whether it writes --out."""
    command = draw(st.sampled_from(cli.COMMANDS))
    m = draw(st.integers(1, 7))
    argv = [command, "--m", str(m)]
    kind = "nearbest"
    if command not in ("nearbest", "audit"):
        kind = draw(st.sampled_from(KINDS))
        argv += ["--kind", kind]
    if kind == "nearbest" or cli._KINDS[kind].takes_p:
        p = draw(st.integers(1, m + 2))
        argv += ["--p", str(p)]
        if kind == "nearbest":
            argv += ["--q", str(draw(st.integers(0, min(m, p + 1))))]
    family = draw(st.sampled_from(FAMILIES))
    argv += ["--family", family]
    if family in ("arithmetic", "geometric"):
        argv += ["--ratio", draw(st.sampled_from(["0.5", "1.5", "20", "100"]))]
    elif family == "random":
        argv += ["--seed", str(draw(st.integers(0, 3)))]
    a, b = draw(st.sampled_from(INTERVALS))
    argv += ["--a", a, "--b", b]
    if command in ("convergence", "diffmat"):
        argv += ["--sizes", draw(st.sampled_from(SIZES))]
    else:
        argv += ["--n", str(draw(st.integers(2, 16)))]
    if command in ("convergence", "diffmat", "quad"):
        f = draw(st.sampled_from([None, "sin", "exp", "runge"]))
        argv += [] if f is None else ["--f", f]
    if command != "audit":
        argv += ["--fmt", draw(st.sampled_from(cli.FORMATS))]
    if command == "nearbest" and draw(st.booleans()):
        argv.append("--audit")
    return argv, draw(st.booleans())


def _run(argv, out):
    """Exit code, stdout, stderr, the warnings' texts and the --out file."""
    if out is not None:
        out.write_text(SENTINEL, encoding="utf-8")
        argv = [*argv, "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    seen = [f"{w.category.__name__}: {w.message}" for w in caught]
    written = None if out is None else out.read_text(encoding="utf-8")
    return code, stdout.getvalue(), stderr.getvalue(), seen, written


def _strict_json(line):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(line, parse_constant=refuse)


def _check_output(argv, text):
    """Strict JSON, and CSV cells that are never infinite."""
    fmt = argv[argv.index("--fmt") + 1] if "--fmt" in argv else "csv"
    for line in text.splitlines():
        if fmt == "json" or line.startswith("{"):
            _strict_json(line)
        else:
            cells = line.split(",")
            assert not {"inf", "-inf"} & set(cells), line


@settings(max_examples=300)
@given(commands())
def test_every_accepted_command_succeeds_or_refuses_cleanly(case):
    argv, to_file = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.txt" if to_file else None
        first = _run(argv, out)
        assert _run(argv, out) == first, argv
    code, stdout, stderr, seen, written = first
    m = int(argv[argv.index("--m") + 1])
    p = int(argv[argv.index("--p") + 1]) if "--p" in argv else None
    allowed = [] if p is None or p >= m else [
        f"UserWarning: p={p} below degree {m}: interior norm bound not guaranteed"]
    assert set(seen) <= set(allowed), (argv, seen)
    if code == 0:
        assert stderr == "", argv
        if to_file:
            assert stdout == "", argv
            stdout = written
        assert stdout, argv
        _check_output(argv, stdout)
    else:
        assert code in (2, 3), (argv, code)
        prefix = "error: " if code == 2 else "numerical failure: "
        lines = stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), (argv, stderr)
        assert stdout == "", argv
        assert written in (None, SENTINEL), argv
