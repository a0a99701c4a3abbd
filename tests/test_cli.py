"""Command line surface: config handling, table output, exit codes."""

import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cli_sweep import EDGES, SCALE
from splineqi.applications import KINDS
from splineqi import cli
from splineqi.cli import COMMANDS, RunConfig, main, parse_config_file, run


# the environment of a subprocess that imports the package from this checkout
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))}


def run_to_text(cfg):
    sink = io.StringIO()
    assert run(cfg, sink) == 0
    return sink.getvalue()


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestRunConfig:
    def test_record_round_trip(self):
        record = {"command": "convergence", "kind": "dqi", "m": 3, "f": "exp",
                  "sizes": (8, 16), "family": "geometric", "ratio": 1.5}
        cfg = RunConfig(**record)
        cfg.validate()
        assert {key: getattr(cfg, key) for key in record} == record

    def test_unknown_key_rejected(self, capsys):
        # main's options and config files name fields only; the class
        # itself refuses any other keyword
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["norms", "--degree", "3"])
        assert "unrecognized arguments: --degree" in capsys.readouterr().err
        with pytest.raises(TypeError, match="degree"):
            RunConfig(command="norms", degree=3).validate()

    def test_command_required(self):
        with pytest.raises(TypeError, match="command"):
            RunConfig(kind="q2star").validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"command": "launch"},
            {"kind": "cubic"},
            {"fmt": "xml"},
            {"family": "chebyshev"},
            {"m": 0},
            {"n": 1},
            {"q": -1},
            {"p": 0},
            {"sizes": ()},
            {"sizes": (1, 8)},
            {"a": 1.0, "b": 0.0},
            {"ratio": -2.0},
            {"f": "tan"},
            {"audit": True},  # only valid with the nearbest command
        ],
    )
    def test_validation_failures(self, overrides):
        with pytest.raises(ValueError):
            RunConfig(**{"command": "norms", **overrides}).validate()


class TestConfigFile:
    def test_parse_and_coerce(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# study setup\n"
            "kind = q2star\n"
            "m = 3        # degree\n"
            "a = 0.0\n"
            "b = 2.5\n"
            "audit = false\n"
            "sizes = 8, 16, 32\n"
            "\n"
            "f = runge\n"
        )
        entries = parse_config_file(str(path))
        assert entries == {
            "kind": "q2star",
            "m": 3,
            "a": 0.0,
            "b": 2.5,
            "audit": False,
            "sizes": (8, 16, 32),
            "f": "runge",
        }
        cfg = RunConfig(command="convergence", **entries)
        cfg.validate()
        assert cfg.m == 3 and cfg.sizes == (8, 16, 32)

    def test_unknown_key_with_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("degree = 3\n")
        with pytest.raises(ValueError, match=r"bad\.cfg:1: unknown key"):
            parse_config_file(str(path))

    def test_command_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("command = norms\n")
        with pytest.raises(ValueError, match="comes from the CLI"):
            parse_config_file(str(path))

    def test_bad_value_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("kind = q2star\nm = three\n")
        with pytest.raises(ValueError, match=r"bad\.cfg:2: bad value for 'm'"):
            parse_config_file(str(path))

    def test_missing_separator(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        with pytest.raises(ValueError, match="expected key=value"):
            parse_config_file(str(path))

    def test_missing_file(self):
        with pytest.raises(ValueError, match="cannot read config file"):
            parse_config_file("/nonexistent/run.cfg")


class TestKeySchema:
    """Every RunConfig key but the command is a --key option of each command
    and a config-file key, and one text reads to one value through both."""

    KEYS = [key for key in RunConfig._fields if key != "command"]
    # a text for each key and the value it reads to, none of them a default
    VALUES = {
        "kind": ("qp2star", "qp2star"),
        "m": ("3", 3),
        "p": ("4", 4),
        "q": ("1", 1),
        "family": ("geometric", "geometric"),
        "a": ("-0.5", -0.5),
        "b": ("2.5", 2.5),
        "n": ("20", 20),
        "ratio": ("1.5", 1.5),
        "seed": ("7", 7),
        "f": ("runge", "runge"),
        "sizes": ("8, 16", (8, 16)),
        "out": ("x.csv", "x.csv"),
        "fmt": ("json", "json"),
        "audit": ("true", True),
    }

    def test_every_key_has_a_value(self):
        assert sorted(self.VALUES) == sorted(self.KEYS)

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("key", KEYS)
    def test_option_and_config_key_read_alike(self, key, command, tmp_path, capsys):
        text, value = self.VALUES[key]
        parser = cli.build_parser()
        option = ["--audit"] if key == "audit" else [f"--{key}", text]
        if key == "audit" and command != "nearbest":
            with pytest.raises(SystemExit):
                parser.parse_args([command, *option])
            assert "unrecognized arguments: --audit" in capsys.readouterr().err
            return
        # p = 2 lets every command validate, the near-best ones included
        from_option = cli._config_from_args(parser.parse_args([command, "--p", "2", *option]))
        path = tmp_path / "run.cfg"
        path.write_text(f"p = 2\n{key} = {text}\n")
        assert parse_config_file(str(path))[key] == value
        from_file = cli._config_from_args(parser.parse_args([command, "--config", str(path)]))
        assert getattr(from_option, key) == value != getattr(RunConfig(command), key)
        assert from_option == from_file


class TestRunNorms:
    def test_uniform_quadratic_summary(self):
        cfg = RunConfig(command="norms", m=2, n=50)
        header, rows = parse_csv(run_to_text(cfg))
        assert header[:4] == ["kind", "m", "p", "q"]
        row = rows[0]
        assert row["kind"] == "q2star" and row["p"] == "1" and row["q"] == "2"
        assert float(row["nu1_interior"]) == pytest.approx(1.5, abs=1e-12)
        assert float(row["nu1_all"]) == pytest.approx(2.0, abs=1e-12)
        assert float(row["bound"]) == 3.0
        assert row["ok"] == "true"

    def test_wide_stencil_norm(self):
        cfg = RunConfig(command="norms", kind="qp2star", p=2, m=2, n=50)
        _, rows = parse_csv(run_to_text(cfg))
        assert float(rows[0]["nu1_interior"]) == pytest.approx(1.125, abs=1e-12)
        assert rows[0]["ok"] == "true"

    def test_derivative_kind_has_no_operator(self):
        cfg = RunConfig(command="norms", kind="dqi")
        with pytest.raises(ValueError, match="stencil operator"):
            run(cfg, io.StringIO())


class TestRunNearbest:
    def test_uniform_summary_row(self):
        cfg = RunConfig(command="nearbest", m=2, p=2, n=50)
        header, rows = parse_csv(run_to_text(cfg))
        row = rows[0]
        assert row["kind"] == "nearbest"
        assert row["p"] == "2" and row["q"] == "2"
        assert float(row["nu1_star"]) == pytest.approx(1.125, abs=1e-9)
        assert float(row["bound"]) == 3.0
        assert row["all_certified"] == "true"

    def test_audit_appends_json_lines(self):
        cfg = RunConfig(command="nearbest", m=2, p=2, n=10, audit=True)
        text = run_to_text(cfg)
        lines = text.strip().split("\n")
        records = [json.loads(line) for line in lines[2:]]
        assert len(records) == 10 + 2  # spline space dimension
        assert records[0]["certificate"] == "n/a"
        assert all("value" in rec for rec in records)

    def test_json_format_embeds_audit(self):
        cfg = RunConfig(command="nearbest", m=2, p=2, n=10, audit=True, fmt="json")
        payload = json.loads(run_to_text(cfg))
        assert set(payload) == {"columns", "rows", "audit"}
        assert payload["rows"][0]["nu1_star"] == pytest.approx(1.125, abs=1e-9)
        assert payload["rows"][0]["all_certified"] is True
        assert len(payload["audit"]) == 12

    def test_interpolation_only_is_uncertified(self):
        cfg = RunConfig(command="nearbest", m=2, p=2, q=0, n=10)
        _, rows = parse_csv(run_to_text(cfg))
        assert rows[0]["all_certified"] == "n/a"
        assert float(rows[0]["nu1_star"]) == pytest.approx(1.0, abs=1e-9)

    def test_requires_radius(self):
        cfg = RunConfig(command="nearbest", m=2, n=10)
        with pytest.raises(ValueError, match="requires --p"):
            run(cfg, io.StringIO())

    def test_no_bound_for_q_above_two(self, capsys):
        # (m+1)/(m-1) comes from the qp2star weights, which are exact only to
        # degree 2; here the near-best optimum exceeds it
        config = ["--m", "4", "--p", "4", "--q", "4", "--family", "random",
                  "--n", "40", "--seed", "6"]
        assert main(["nearbest", *config]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert float(rows[0]["nu1_star"]) > 5 / 3
        assert rows[0]["bound"] == ""
        assert main(["norms", "--kind", "nearbest", *config]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert float(rows[0]["nu1_interior"]) > 5 / 3
        assert rows[0]["bound"] == "" and rows[0]["ok"] == ""
        assert main(["norms", "--kind", "nearbest", *config, "--fmt", "json"]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["bound"] is None and row["ok"] is None

    @pytest.mark.filterwarnings("ignore:p=1 below degree 3")
    @pytest.mark.parametrize("config,nu1_above", [
        # (m+1)/(m-1) needs p >= m; here nu1 exceeds it (2.104 > 2.0)
        pytest.param(["--m", "3", "--p", "1", "--q", "2", "--n", "40", "--family", "random",
                      "--seed", "0"], 2.0, id="m3-p1-q2"),
        # and m >= 2: for m = 1 it has no value, although the operator builds
        *[pytest.param(["--m", "1", "--p", str(p), "--q", str(q), "--n", "8"], None,
                       id=f"m1-p{p}-q{q}") for p in (1, 2) for q in (0, 1)],
    ])
    def test_no_bound_below_proven_range(self, capsys, config, nu1_above):
        assert main(["norms", "--kind", "nearbest", *config]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        if nu1_above is not None:
            assert float(rows[0]["nu1_interior"]) > nu1_above
        assert rows[0]["bound"] == "" and rows[0]["ok"] == ""
        assert main(["norms", "--kind", "nearbest", *config, "--fmt", "json"]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["bound"] is None and row["ok"] is None
        assert main(["nearbest", *config]) == 0
        assert parse_csv(capsys.readouterr().out)[1][0]["bound"] == ""
        assert main(["nearbest", *config, "--fmt", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["rows"][0]["bound"] is None

    def test_audit_solves_each_lp_once(self, capsys, monkeypatch):
        import splineqi.nearbest as nb

        calls = {"assemble_constraints": [], "solve_l1": [], "_build_three_point_table": [],
                 "_solve_full_windows": [], "_assemble": [], "_lp_windows": []}

        def counting(name):
            inner = getattr(nb, name)

            def wrapper(*args, **kwargs):
                result = inner(*args, **kwargs)
                if name == "_solve_full_windows":
                    calls[name] += args[3].tolist()  # the batch's centers
                elif name == "_assemble":
                    # an int center is one window, an array a chunk of them
                    calls[name].append(np.asarray(args[1]).tolist())
                elif name == "_build_three_point_table":
                    p = args[1]  # the table's rows are the full windows p, p+1, ...
                    calls[name].append(list(range(p, p + len(result.knot))))
                else:
                    calls[name].append(args[1] if len(args) > 1 else args[0].center)
                return result

            return wrapper

        for name in calls:
            monkeypatch.setattr(nb, name, counting(name))
        for command in (["nearbest", "--audit"], ["audit"]):
            for seen in calls.values():
                seen.clear()
            assert main([*command, "--m", "3", "--p", "3", "--n", "20"]) == 0
            # dimension 23: one LP for each index but the two extremes; the
            # truncated windows 1, 2, 20, 21 one by one, the full windows
            # 3 .. 19 in the batch, and the q = 2 certificates of all of them
            # in one table, built once, which reads the normalized sites and
            # assembles no system; each system is assembled once, and the
            # audit prints the V and b that were solved, from one band
            assert calls["solve_l1"] == [1, 2, 20, 21], command
            assert calls["assemble_constraints"] == [1, 2, 20, 21], command
            assert calls["_solve_full_windows"] == list(range(3, 20)), command
            assert calls["_build_three_point_table"] == [list(range(3, 20))], command
            full = list(range(3, 20))
            assert calls["_assemble"] == [1, 2, full, 20, 21], command
            assert calls["_lp_windows"] == [3], command

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_audit_streams_its_records(self, fmt):
        """--audit holds no list of records: its traced peak stays within
        1.2x that of the audit command on the same space (5.0 MB in CSV and
        9.2 MB in JSON, against 2.5 MB, when it held them)."""
        class Discard:
            def write(self, text):
                return len(text)

        def peak(cfg):
            tracemalloc.start()
            try:
                assert run(cfg, Discard()) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        cfg = RunConfig(command="audit", m=3, p=3, q=2, family="random", n=2000, seed=1)
        audited = cfg._replace(command="nearbest", audit=True, fmt=fmt)
        run(audited, Discard())  # once untraced, so neither pays a first-use cost
        assert peak(audited) <= 1.2 * peak(cfg)

    def test_audit_lines_match_audit_command(self, capsys):
        config = ["--m", "3", "--p", "3", "--n", "20", "--family", "random",
                  "--seed", "3"]
        assert main(["nearbest", "--audit", *config]) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        assert main(["audit", *config]) == 0
        assert "".join(lines[2:]) == capsys.readouterr().out


class TestNearbestSummary:
    """The summary row reads the build's nu1_star and the knot condition of
    each full window; it must keep the build's interior rule and the
    certificates' verdicts, and print what ``--audit`` prints above its
    records."""

    @pytest.mark.parametrize("family,ratio,m,p,q,n", [
        *[("random", 1.0, 3, 3, q, 20) for q in range(4)],
        ("geometric", 1.3, 2, 3, 2, 16),  # failing certificates
        ("arithmetic", 5.0, 3, 2, 2, 16),  # p < m, warned about
        ("uniform", 1.0, 3, 4, 2, 4),  # no full window
    ])
    def test_summary_without_audit_formats_no_record(self, capsys, monkeypatch,
                                                     family, ratio, m, p, q, n):
        def refuse(*args, **kwargs):
            raise AssertionError("iter_lp_audit called without --audit")

        argv = ["nearbest", "--m", str(m), "--p", str(p), "--q", str(q), "--n", str(n),
                "--family", family, "--ratio", repr(ratio), "--seed", "2"]
        for fmt in cli.FORMATS:
            command = [*argv, "--fmt", fmt]
            with warnings.catch_warnings(record=True) as audit_warnings:
                warnings.simplefilter("always")
                assert main([*command, "--audit"]) == 0
            audited = capsys.readouterr().out
            with monkeypatch.context() as patch, \
                    warnings.catch_warnings(record=True) as plain_warnings:
                warnings.simplefilter("always")
                patch.setattr(cli, "iter_lp_audit", refuse)
                assert main(command) == 0
            plain = capsys.readouterr().out
            if fmt == "csv":
                assert plain == "".join(line for line in audited.splitlines(keepends=True)
                                        if not line.startswith("{"))
            else:
                payload = json.loads(audited)
                del payload["audit"]
                assert plain == json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
            assert [str(w.message) for w in plain_warnings] == [
                str(w.message) for w in audit_warnings]
            expected = [] if p >= m else [
                f"p={p} below degree {m}: interior norm bound not guaranteed"]
            assert [str(w.message) for w in plain_warnings] == expected

    @pytest.mark.filterwarnings("ignore:p=")
    def test_summary_matches_build_and_certificates(self, capsys):
        from conftest import space_from
        from splineqi import build_nearbest_qi, watson_certificate

        seen = set()
        for family, ratio, seed, m, p, q, n in [
            ("uniform", 1.0, 0, 3, 3, 2, 12),
            ("arithmetic", 5.0, 0, 3, 2, 2, 16),  # p < m
            ("geometric", 1.3, 0, 2, 3, 2, 16),  # p > m, failing certificates
            ("random", 1.0, 3, 4, 4, 0, 14),
            ("random", 1.0, 4, 3, 5, 1, 12),  # p > m
            ("geometric", 2.0, 0, 2, 2, 1, 10),
            ("arithmetic", 3.0, 0, 3, 1, 2, 12),  # p < m
            ("uniform", 1.0, 0, 3, 4, 2, 4),  # empty interior, no full window
        ]:
            argv = ["nearbest", "--m", str(m), "--p", str(p), "--q", str(q), "--n", str(n),
                    "--family", family, "--ratio", repr(ratio), "--seed", str(seed)]
            assert main(argv) == 0
            row = parse_csv(capsys.readouterr().out)[1][0]
            space = space_from(family, m, n, seed=seed, ratio=ratio)
            nu1 = build_nearbest_qi(space, p, q).nu1_star
            assert row["nu1_star"] == ("" if nu1 is None else repr(nu1)), argv
            full = range(p, space.dimension - p)
            if q == 2 and len(full) > 0:
                certified = all(watson_certificate(space, i, p).passes for i in full)
                assert row["all_certified"] == str(certified).lower(), argv
            else:
                assert row["all_certified"] == "n/a", argv
            seen |= {row["all_certified"], "interior" if row["nu1_star"] else "empty"}
        assert seen == {"true", "false", "n/a", "interior", "empty"}

    @pytest.mark.parametrize("argv", [
        ["--m", "4", "--p", "4", "--n", "40", "--family", "geometric", "--ratio", "16"],
        ["--m", "5", "--p", "5", "--q", "5", "--n", "40", "--family", "random",
         "--seed", "1"],
        ["--m", "5", "--p", "5", "--n", "20", "--family", "geometric", "--ratio", "100"],
        ["--m", "5", "--p", "10", "--q", "5", "--n", "40", "--family", "random",
         "--seed", "1"],
        ["--m", "7", "--p", "8", "--q", "3", "--n", "12", "--family", "geometric",
         "--ratio", "100"],
        ["--m", "7", "--p", "8", "--q", "3", "--n", "40", "--family", "geometric",
         "--ratio", "100"],
    ])
    def test_graded_and_high_exactness_builds_succeed(self, capsys, argv):
        # the first two once stopped with "phase-1 objective unbounded" at a
        # phase-1 objective of rounding size; under a cold two-phase solve the
        # third's weights missed the constraints by 1.3e-8 and the fourth hit
        # that phase-1 exit at index 42. In the last two, six normalized sites
        # agree to about 9 digits and the warm-started simplex drifted to
        # weights that missed the constraints by 6.7e-2 (truncated window 6)
        # and 1.7e-1 (full window 34, refused by the batch); the enumerated
        # weights, which now stand, meet them. At n = 12 no window is interior.
        assert main(["nearbest", *argv]) == 0
        row = parse_csv(capsys.readouterr().out)[1][0]
        assert row["nu1_star"] == "" if row["n"] == "12" else float(row["nu1_star"]) >= 1.0

    def test_tiny_span_builds_without_nan(self):
        # window span 2e-69 at index 1: a_5 and L**5 both underflow, so a_5 /
        # L**5 would read 0/0, and the build would exit 3 with "weights miss
        # the constraints by nan". The right-hand side is formed from the knot
        # differences scaled by 1/L, so no power of L is taken. Run in a
        # subprocess under -W error::RuntimeWarning, so any warning fails.
        argv = ["nearbest", "--m", "5", "--p", "5", "--q", "5", "--n", "40",
                "--family", "geometric", "--ratio", "100"]
        code = "import sys; from splineqi.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code,
                               *argv], capture_output=True, text=True, env=SRC_ENV, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        row = parse_csv(proc.stdout)[1][0]
        assert 1.0 <= float(row["nu1_star"]) < 1.1

    @pytest.mark.parametrize("command", [["nearbest", "--audit"], ["audit"]])
    def test_tiny_windows_audit_without_warnings(self, command):
        # windows down to about 1e-150 wide: the certificate's raw Vandermonde
        # determinants underflowed to 0/0 there. Run in a subprocess under
        # -W error::RuntimeWarning, so any warning fails the command.
        argv = [*command, "--m", "5", "--p", "5", "--n", "80", "--family", "geometric",
                "--ratio", "100"]
        code = "import sys; from splineqi.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code,
                               *argv], capture_output=True, text=True, env=SRC_ENV, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert len(proc.stdout.splitlines()) >= 84

    def test_graded_sweep_builds_or_refuses(self, capsys):
        # every accepted nearbest command on geometric 100 up to m = 5 builds
        # (exit 0) or refuses its arguments (exit 2); none fails numerically
        # (exit 3) or warns. Windows there shrink to about 1e-69.
        failed = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # p below the degree
            warnings.simplefilter("error", RuntimeWarning)
            for m in range(1, 6):
                for p in range(1, m + 2):
                    for q in range(min(m, 2 * p) + 1):
                        for n in (12, 40):
                            argv = ["nearbest", "--m", str(m), "--p", str(p), "--q", str(q),
                                    "--n", str(n), "--family", "geometric", "--ratio", "100"]
                            if main(argv) not in (0, 2):
                                failed.append(" ".join(argv))
        capsys.readouterr()
        assert not failed


class TestRunStudies:
    def test_convergence_third_order(self):
        cfg = RunConfig(command="convergence", m=2, f="sin", sizes=(16, 32, 64))
        header, rows = parse_csv(run_to_text(cfg))
        assert [r["n"] for r in rows] == ["16", "32", "64"]
        fitted = float(rows[-1]["fitted_order"])
        assert 2.5 <= fitted <= 3.5
        assert rows[0]["order_running"] == "nan"

    @pytest.mark.parametrize("kind", KINDS)
    def test_convergence_reports_each_kinds_p_and_q(self, kind):
        # the p and q a row reports are those the operator is built with
        p = None if kind in ("dqi", "q2star") else 2
        cfg = RunConfig(command="convergence", kind=kind, m=2, p=p, q=1, sizes=(8, 16))
        _, rows = parse_csv(run_to_text(cfg))
        want = {"dqi": ("", ""), "q2star": ("1", "2"), "qp2star": ("2", "2"),
                "nearbest": ("2", "1")}[kind]
        assert all((row["p"], row["q"]) == want for row in rows)

    def test_convergence_defaults_to_sin(self):
        cfg = RunConfig(command="convergence", m=2, sizes=(8, 16))
        _, rows = parse_csv(run_to_text(cfg))
        assert rows[0]["f"] == "sin"

    def test_derivative_operator_study(self):
        cfg = RunConfig(command="convergence", kind="dqi", m=3, f="exp",
                        sizes=(8, 16, 32))
        _, rows = parse_csv(run_to_text(cfg))
        fitted = float(rows[-1]["fitted_order"])
        assert 3.5 <= fitted <= 4.5

    def test_diffmat_second_order(self):
        cfg = RunConfig(command="diffmat", m=2, sizes=(16, 32, 64))
        _, rows = parse_csv(run_to_text(cfg))
        fitted = float(rows[-1]["fitted_order"])
        assert 1.5 <= fitted <= 2.5
        for row in rows:
            assert float(row["err_all"]) >= float(row["err_interior"]) - 1e-15

    @pytest.mark.parametrize("command", ["convergence", "diffmat"])
    def test_json_is_strict_with_null_for_nan(self, command):
        # the first row has no running order: NaN in CSV, null in JSON
        def refuse(name):
            raise AssertionError(f"{name} is not JSON")

        cfg = RunConfig(command=command, m=2, sizes=(8, 16), fmt="json")
        payload = json.loads(run_to_text(cfg), parse_constant=refuse)
        assert [row["order_running"] is None for row in payload["rows"]] == [True, False]
        _, rows = parse_csv(run_to_text(cfg._replace(fmt="csv")))
        assert rows[0]["order_running"] == "nan"


class TestRunQuad:
    def test_node_table_without_function(self):
        cfg = RunConfig(command="quad", m=2, n=8)
        header, rows = parse_csv(run_to_text(cfg))
        assert header == ["j", "theta", "weight"]
        assert len(rows) == 10
        total = sum(float(r["weight"]) for r in rows)
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_integral_summary(self):
        cfg = RunConfig(command="quad", m=2, n=32, f="sin", a=0.0, b=1.0)
        _, rows = parse_csv(run_to_text(cfg))
        row = rows[0]
        assert float(row["exact"]) == pytest.approx(1.0 - math.cos(1.0), rel=1e-12)
        assert float(row["abs_error"]) <= 1e-6
        assert abs(float(row["integral"]) - float(row["exact"])) == pytest.approx(
            float(row["abs_error"]), abs=1e-15
        )


class TestRunAudit:
    def test_pure_json_lines(self):
        cfg = RunConfig(command="audit", m=2, p=2, n=10)
        text = run_to_text(cfg)
        records = [json.loads(line) for line in text.strip().split("\n")]
        assert len(records) == 12
        assert [rec["i"] for rec in records] == list(range(12))
        for rec in records:
            assert rec["certificate"] in ("pass", "fail", "n/a")


# extra arguments each command needs to run on a small space
_STUDY_ARGS = {
    "norms": [],
    "quad": [],
    "convergence": ["--sizes", "8,16"],
    "diffmat": ["--sizes", "8,16"],
}


class TestOffsetRadiusRule:
    """Every command maps its config to an operator through one recipe, so
    every command takes or refuses --p alike."""

    @pytest.mark.parametrize("command", sorted(_STUDY_ARGS))
    def test_p_with_q2star_refused(self, capsys, command):
        argv = [command, "--kind", "q2star", "--p", "2", "--m", "3"]
        assert main(argv + _STUDY_ARGS[command]) == 2
        assert "does not take an offset radius" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(_STUDY_ARGS))
    def test_qp2star_without_p_refused(self, capsys, command):
        argv = [command, "--kind", "qp2star", "--m", "3"]
        assert main(argv + _STUDY_ARGS[command]) == 2
        assert "requires --p" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["nearbest", "audit"])
    def test_nearbest_commands_without_p_refused(self, capsys, command):
        assert main([command, "--m", "3"]) == 2
        assert "requires --p" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["norms", "quad", "diffmat"])
    def test_dqi_refused_where_a_stencil_is_needed(self, capsys, command):
        assert main([command, "--kind", "dqi", "--m", "3"]) == 2
        assert "stencil operator" in capsys.readouterr().err


class TestMain:
    def test_basic_invocation(self, capsys):
        assert main(["norms", "--m", "2", "--n", "50"]) == 0
        out = capsys.readouterr().out
        header, rows = parse_csv(out)
        assert "nu1_interior" in header
        assert float(rows[0]["nu1_interior"]) == pytest.approx(1.5, abs=1e-12)

    def test_diffmat_end_abscissa_on_interval(self, capsys):
        # the Greville recurrence once rounded the last abscissa just past b
        argv = ["diffmat", "--kind", "qp2star", "--m", "3", "--p", "3",
                "--sizes", "96,192,384,768", "--family", "arithmetic",
                "--ratio", "3.886578985942352", "--a=-0.9325781732149063",
                "--b=1.372744145131636"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 5

    @pytest.mark.parametrize("value", ["-1e-05", "-2.5E+00", "-7"])
    def test_negative_float_values(self, capsys, value):
        # argparse takes "-1e-05" for an option unless it is joined with "="
        base = ["norms", "--m", "2", "--n", "8", "--b", "1e-3"]
        assert main([*base, f"--a={value}"]) == 0
        joined = capsys.readouterr().out
        assert main([*base, "--a", value]) == 0
        assert capsys.readouterr().out == joined
        assert main(["norms", "--m", "2", "--n", "8", "--a", "-9", "--b", value]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert float(rows[0]["b"]) == float(value)

    @pytest.mark.parametrize("n", ["55", "60"])
    def test_unrepresentable_partition_exit_2(self, capsys, n):
        argv = ["norms", "--m", "3", "--family", "geometric", "--ratio", "2",
                "--a", "0.25", "--b", "1.25", "--n", n]
        assert main(argv) == 2
        assert "cannot be represented in float64" in capsys.readouterr().err

    def test_overflowing_geometric_partition_exit_2(self, capsys):
        argv = ["norms", "--m", "3", "--family", "geometric", "--ratio", "1e10",
                "--n", "100"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "cannot be represented in float64" in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("argv, cause", [
        (["--b", "inf"], "need finite interval ends, got a=0.0, b=inf"),
        (["--a", "-1.7e308", "--b", "1.7e308", "--family", "random"],
         "the length b - a of [-1.7e+308, 1.7e+308] overflows float64"),
        (["--family", "arithmetic", "--ratio", "1e308"], "the sum of its step weights overflows"),
        (["--family", "geometric", "--ratio", "inf"], "need a finite ratio > 0, got inf"),
        (["--family", "random", "--seed", "-1"], "the random family needs a seed >= 0, got -1"),
        # a knot sum that overflows comes with a centered second moment that does
        (["--a", "1e308", "--b", "1.5e308"],
         "the centered second moments of [1e+308, 1.5e+308] overflow float64"),
        (["--a=-1e308", "--b=-0.5e308"],
         "the centered second moments of [-1e+308, -5e+307] overflow float64"),
    ])
    def test_unbuildable_partition_exit_2_with_its_cause(self, capsys, argv, cause):
        assert main(["norms", *argv]) == 2
        err = capsys.readouterr().err
        assert cause in err
        assert "RuntimeWarning" not in err and "resolution" not in err

    @pytest.mark.parametrize("argv", SCALE, ids=" ".join)
    def test_long_interval_matches_unit_interval_or_refuses(self, capsys, argv):
        # the weights depend only on ratios of site differences, so on a long
        # interval a command prints the nu1 it prints on [0, 1] or refuses the
        # overflow; any warning, uncaught error or numerical failure fails
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 2), err
        assert "nan" not in out
        if code == 2:
            assert "overflow float64" in err
        elif argv[0] in ("norms", "nearbest"):
            ends = {"--a": "0", "--b": "1"}
            assert main([ends.get(key, value) for key, value in zip(["", *argv], argv)]) == 0
            header, (row,) = parse_csv(out)
            _, (unit,) = parse_csv(capsys.readouterr().out)
            for key in (key for key in header if key.startswith("nu1")):
                assert float(row[key]) == pytest.approx(float(unit[key]), rel=1e-12, abs=0)

    @pytest.mark.parametrize("argv", EDGES, ids=" ".join)
    def test_edge_command_runs_clean_or_refuses(self, capsys, argv):
        # exp past its float64 range, an exp integral or derivative that
        # overflows it and underflowing centered second moments are refused;
        # coinciding normalized sites warn nothing; an audit is strict JSON,
        # without NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        out, err = capsys.readouterr()
        if code == 2:
            assert out == ""
            assert err in ("error: exp overflows float64 on [0.0, 800.0]\n",
                           "error: the quadrature estimate overflows float64\n",
                           "error: the derivative overflows float64\n",
                           "error: the centered second moments of [0.0, 1.0] underflow float64\n")
        else:
            assert (code, err) == (0, "")
            assert "nan" not in out.lower()
            for line in out.splitlines() if argv[0] == "audit" else ():
                json.loads(line, parse_constant=lambda name: pytest.fail(f"{name} in {line}"))

    @pytest.mark.parametrize("f, b, code", [("exp", "709.782712893384", 0),
                                            ("exp", "709.7827128933841", 2),
                                            ("sin", "800", 0), ("runge", "800", 0)])
    def test_exp_is_refused_past_its_range(self, capsys, f, b, code):
        assert main(["convergence", "--kind", "dqi", "--m", "3", "--sizes", "8,16",
                     "--b", b, "--f", f]) == code
        err = capsys.readouterr().err
        assert (err == f"error: exp overflows float64 on [0.0, {b}]\n") == (code == 2)

    def test_module_run_without_warnings(self):
        # the package once imported the CLI, so runpy warned that
        # splineqi.cli was in sys.modules before `-m splineqi.cli` ran it
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                               "splineqi.cli", "norms", "--m", "3", "--n", "8"],
                              capture_output=True, text=True, env=SRC_ENV, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        code = "import sys, splineqi; print('splineqi.cli' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=SRC_ENV, timeout=120)
        assert proc.stdout == "False\n", proc.stderr

    def test_commands_do_not_import_numpy_ma(self):
        # np.unique's first call imports numpy.ma, about 8 ms of a command's
        # start; no command calls it, so a fresh process never pays that
        code = ("import io, sys, contextlib; from splineqi.cli import main\n"
                "for argv in sys.argv[1:]:\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        assert main(argv.split()) == 0, argv\n"
                "print('numpy.ma' in sys.modules)")
        commands = ["convergence --kind q2star --m 2 --sizes 16,32", "diffmat --m 2 --sizes 8,16",
                    "quad --m 2 --n 20", "norms --m 3 --n 8",
                    "nearbest --audit --m 2 --p 2 --n 24", "audit --m 2 --p 2 --n 20"]
        proc = subprocess.run([sys.executable, "-c", code, *commands], capture_output=True,
                              text=True, env=SRC_ENV, timeout=120)
        assert proc.stdout == "False\n", proc.stderr

    def test_repeated_runs_identical(self, capsys):
        argv = ["nearbest", "--m", "2", "--p", "2", "--n", "20",
                "--family", "random", "--seed", "7", "--audit"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first  # sanity: produced output

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["quad", "--m", "3", "--n", "12", "--f", "runge"]
        assert main(argv) == 0
        streamed = capsys.readouterr().out
        target = tmp_path / "quad.csv"
        assert main(argv + ["--out", str(target)]) == 0
        assert target.read_text() == streamed

    def test_config_file_with_overrides(self, capsys, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text("m = 2\nn = 50\nkind = qp2star\np = 2\n")
        assert main(["norms", "--config", str(path)]) == 0
        base = capsys.readouterr().out
        _, rows = parse_csv(base)
        assert float(rows[0]["nu1_interior"]) == pytest.approx(1.125, abs=1e-12)
        assert main(["norms", "--config", str(path), "--p", "3"]) == 0
        overridden = capsys.readouterr().out
        assert overridden != base

    def test_json_output(self, capsys):
        assert main(["norms", "--m", "2", "--n", "50", "--fmt", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["nu1_interior"] == pytest.approx(1.5, abs=1e-12)
        assert payload["rows"][0]["ok"] is True

    def test_validation_failure_exits_2(self, capsys):
        assert main(["norms", "--m", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_sizes_exits_2(self, capsys):
        assert main(["convergence", "--sizes", "8,big"]) == 2
        err = capsys.readouterr().err
        assert "sizes" in err

    @pytest.mark.parametrize(
        "key, text", [("m", "three"), ("a", "zero"), ("seed", "1.5"), ("sizes", "8,big")]
    )
    def test_malformed_value_names_its_key(self, capsys, tmp_path, key, text):
        # the command line and a config file read a key's text alike and
        # refuse it alike, through main's exit-2 path
        assert main(["norms", f"--{key}", text]) == 2
        from_option = capsys.readouterr().err
        assert from_option.startswith(f"error: --{key}: bad value for {key!r}: ")
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {text}\n")
        assert main(["norms", "--config", str(path)]) == 2
        from_file = capsys.readouterr().err
        assert from_file == from_option.replace(f"--{key}:", f"{path}:1:")

    def test_malformed_flag_in_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("audit = maybe\n")
        assert main(["nearbest", "--p", "2", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:1: bad value for 'audit': expected true or false\n")

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        assert main(["norms", "--out", str(target)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_failed_run_leaves_out_file_alone(self, capsys, tmp_path, monkeypatch):
        import splineqi.nearbest as nb

        def explode(*args, **kwargs):
            raise RuntimeError("synthetic simplex failure")

        target = tmp_path / "kept.csv"
        target.write_text("earlier results\n")
        assert main(["norms", "--m", "0", "--out", str(target)]) == 2
        monkeypatch.setattr(nb, "solve_standard_form", explode)
        assert main(["nearbest", "--m", "2", "--p", "2", "--n", "6", "--out", str(target)]) == 3
        assert target.read_text() == "earlier results\n"
        capsys.readouterr()

    def test_numerical_failure_exits_3(self, capsys, monkeypatch):
        import splineqi.nearbest as nb

        def explode(*args, **kwargs):
            raise RuntimeError("synthetic simplex failure")

        monkeypatch.setattr(nb, "solve_standard_form", explode)
        assert main(["nearbest", "--m", "2", "--p", "2", "--n", "10"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert "index 1" in err

    def test_a_window_past_the_support_bound_exits_2(self, capsys):
        # C(25, 8) supports in the widest window: refused before any solve
        assert main(["nearbest", "--m", "7", "--p", "12", "--q", "7", "--n", "60"]) == 2
        assert capsys.readouterr() == ("", "error: a window of 25 sites has C(25, 8) = 1081575 "
                                       "supports, more than the 1048576 the near-best LP "
                                       "enumerates\n")

    @pytest.mark.parametrize("command", [
        ["audit"], ["nearbest", "--audit"], ["nearbest", "--audit", "--fmt", "json"]])
    def test_a_missed_row_exits_3_and_writes_no_record(self, capsys, monkeypatch, command):
        import splineqi.nearbest as nb

        cheapest = nb._cheapest_supports

        def off_by_1e3(x, rhs):
            # the optimal supports, with weights that miss the sum row by 1e-3
            support, weights = cheapest(x, rhs)
            return support, weights * (1.0 + 1e-3)

        monkeypatch.setattr(nb, "_cheapest_supports", off_by_1e3)
        assert main([*command, "--m", "2", "--p", "2", "--n", "10"]) == 3
        out, err = capsys.readouterr()
        # every LP is solved before the first byte is written
        assert out == ""
        assert err == ("numerical failure: near-best build failed at index 1: "
                       "l1 solve at index 1: weights miss the constraints by 1.0e-03\n")

    def test_cached_parser_matches_fresh_parsers(self, capsys, monkeypatch):
        import splineqi.cli as cli

        commands = [
            ["norms", "--m", "3", "--n", "20", "--family", "geometric", "--ratio", "2"],
            ["nearbest", "--audit", "--m", "2", "--p", "2", "--n", "12"],
            ["norms", "--kind", "bogus"],
            ["quad", "--m", "2", "--n", "16", "--f", "runge"],
            ["norms", "--m", "3", "--n", "20", "--family", "geometric", "--ratio", "2"],
        ]

        def run_all():
            seen = []
            for argv in commands:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                out = capsys.readouterr()
                seen.append((code, out.out, out.err))
            return seen

        cached = run_all()
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert run_all() == cached
        assert [code for code, _, _ in cached] == [0, 0, 2, 0, 0]

    def test_unknown_choice_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["norms", "--kind", "bogus"])
        with pytest.raises(SystemExit):
            main(["frobnicate"])
