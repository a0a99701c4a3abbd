"""Command line front end.

Subcommands map onto the library surface: operator norm summaries, near-best
LP sweeps with optional per-index audit records, convergence and
differentiation studies, and quadrature tables. Output is CSV (default) or a
single JSON object; the audit stream is JSON lines. All output is
deterministic for a fixed configuration, including the random partition
family, so runs can be diffed byte for byte.

Exit codes: 0 success, 2 configuration or validation error (among them a
near-best window with more supports than the LP enumerates), 3 numerical
failure (near-best weights that miss their exactness rows, or singular
linear algebra).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from typing import IO, Iterable, NamedTuple

import numpy as np

from .applications import (
    _KINDS,
    BUILTIN_FUNCTIONS,
    KINDS,
    OperatorRecipe,
    convergence_study,
    differentiation_study,
    operator_recipe,
    quadrature_from_qi,
)
from .bspline import SplineSpace
from .knots import FAMILIES, PartitionSpec, generate_partition
from .nearbest import iter_lp_audit, knot_condition
from .quasi_interp import KIND_NEARBEST, norm_upper_bound

__all__ = ["RunConfig", "parse_config_file", "run", "main"]

# commands defined by p and q alone: they always build the near-best operator
_NEARBEST_COMMANDS = ("nearbest", "audit")
FORMATS = ("csv", "json")
DEFAULT_SIZES = (16, 32, 64, 128)


class RunConfig(NamedTuple):
    """One run, fully specified."""

    command: str
    kind: str = "q2star"
    m: int = 2
    p: int | None = None
    q: int = 2
    family: str = "uniform"
    a: float = 0.0
    b: float = 1.0
    n: int = 16
    ratio: float = 1.0
    seed: int = 0
    f: str | None = None
    sizes: tuple[int, ...] = DEFAULT_SIZES
    out: str | None = None
    fmt: str = "csv"
    audit: bool = False

    def validate(self) -> None:
        for key, allowed in {"command": COMMANDS, **_CHOICES}.items():
            value = getattr(self, key)
            if value not in allowed:
                raise ValueError(f"{key} must be one of {allowed}, got {value!r}")
        if self.m < 1:
            raise ValueError(f"degree must be >= 1, got {self.m}")
        if self.n < 2:
            raise ValueError(f"need at least 2 subintervals, got {self.n}")
        if self.q < 0:
            raise ValueError(f"exactness degree must be >= 0, got {self.q}")
        if self.p is not None and self.p < 1:
            raise ValueError(f"offset radius must be >= 1, got {self.p}")
        if self.p is None and (_KINDS[self.kind].takes_p or self.command in _NEARBEST_COMMANDS):
            raise ValueError(f"{self.command} with kind {self.kind!r} requires --p")
        if not self.sizes or any(s < 2 for s in self.sizes):
            raise ValueError(f"sizes must be integers >= 2, got {self.sizes}")
        if not self.b > self.a:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")
        if self.ratio <= 0.0:
            raise ValueError(f"ratio must be positive, got {self.ratio}")
        if self.f is not None and self.f not in BUILTIN_FUNCTIONS:
            raise ValueError(
                f"unknown test function {self.f!r}; available: "
                f"{sorted(BUILTIN_FUNCTIONS)}"
            )
        if self.f == "exp" and self.b > math.log(sys.float_info.max):
            raise ValueError(f"exp overflows float64 on [{self.a}, {self.b}]")
        if self.audit and self.command != "nearbest":
            raise ValueError("the audit flag only applies to the nearbest command")


# every RunConfig key but the command: a --key option and a config-file key
_KEYS = tuple(key for key in RunConfig._fields if key != "command")
# the allowed values of the keys that have a fixed set, in validate's order
_CHOICES = {"kind": KINDS, "fmt": FORMATS, "family": FAMILIES}


def _sizes(text: str) -> tuple[int, ...]:
    return tuple(int(tok.strip()) for tok in text.split(","))


def _flag(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return text.lower() == "true"


# how a key's text is read, from the command line or a config file; str for the rest
_READERS = {
    "m": int, "p": int, "q": int, "n": int, "seed": int,
    "a": float, "b": float, "ratio": float,
    "sizes": _sizes, "audit": _flag,
}
_FLOAT_FLAGS = {f"--{key}" for key, reader in _READERS.items() if reader is float}


def _read(where: str, key: str, text: str):
    try:
        return _READERS.get(key, str)(text)
    except ValueError as exc:
        raise ValueError(f"{where}: bad value for {key!r}: {exc}") from exc


def parse_config_file(path: str) -> dict:
    """key=value lines; '#' starts a comment; keys must be RunConfig fields.

    The command itself always comes from the command line.
    """
    entries: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = key.strip(), value.strip()
        if key == "command":
            raise ValueError(f"{path}:{lineno}: the command comes from the CLI")
        if key not in _KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        entries[key] = _read(f"{path}:{lineno}", key, value)
    return entries


# ---------------------------------------------------------------------------
# output helpers


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _json_cell(value):
    """A cell as JSON has it: NaN and infinities are not JSON numbers, so null."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _emit_table(
    cfg: RunConfig,
    sink: IO[str],
    columns: list[str],
    rows: list[list],
    audit_records: list[dict] | None = None,
) -> None:
    if cfg.fmt == "json":
        payload: dict = {
            "columns": list(columns),
            "rows": [dict(zip(columns, map(_json_cell, row))) for row in rows],
        }
        if audit_records is not None:
            payload["audit"] = audit_records
        sink.write(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")
        return
    sink.write(",".join(columns) + "\n")
    for row in rows:
        sink.write(",".join(_cell(v) for v in row) + "\n")
    if audit_records is not None:
        for record in audit_records:
            sink.write(json.dumps(record, sort_keys=True) + "\n")


def _prefix_columns(
    cfg: RunConfig, recipe: OperatorRecipe, with_n: bool
) -> tuple[list[str], list]:
    p_out, q_out = recipe.reported_pq
    cols = ["kind", "m", "p", "q", "family", "a", "b"]
    vals: list = [cfg.kind, cfg.m, p_out, q_out, cfg.family, cfg.a, cfg.b]
    if with_n:
        cols.append("n")
        vals.append(cfg.n)
    cols += ["ratio", "seed"]
    vals += [cfg.ratio, cfg.seed]
    return cols, vals


# ---------------------------------------------------------------------------
# subcommand handlers


def _partition(cfg: RunConfig) -> PartitionSpec:
    """The single partition of the config, and the template of the studies."""
    return PartitionSpec(
        family=cfg.family, a=cfg.a, b=cfg.b, n=cfg.n, ratio=cfg.ratio, seed=cfg.seed
    )


def _recipe(cfg: RunConfig) -> OperatorRecipe:
    return operator_recipe(cfg.kind, cfg.p, cfg.q)


def _space(cfg: RunConfig) -> SplineSpace:
    return SplineSpace.from_knots(generate_partition(_partition(cfg), cfg.m))


def _run_norms(cfg: RunConfig, sink: IO[str]) -> None:
    recipe = _recipe(cfg)
    qi = recipe.build(_space(cfg))
    nu_interior = norm_upper_bound(qi, interior_only=True)
    nu_all = norm_upper_bound(qi)
    bound = recipe.bound(cfg.m)
    ok = None if bound is None else bool(nu_interior <= bound + 1e-12)
    cols, vals = _prefix_columns(cfg, recipe, with_n=True)
    cols += ["nu1_interior", "nu1_all", "bound", "ok"]
    vals += [float(nu_interior), float(nu_all), bound, ok]
    _emit_table(cfg, sink, cols, [vals])


def _run_nearbest(cfg: RunConfig, sink: IO[str]) -> None:
    recipe = _recipe(cfg)
    space = _space(cfg)
    if cfg.audit:
        records = list(iter_lp_audit(space, cfg.p, cfg.q))
        # the build's nu1_star: the largest optimum over interior stencils
        nu1_star = max((r["value"] for r in records if not r["boundary"]), default=None)
    else:
        records, nu1_star = None, recipe.build(space).nu1_star
    # the q = 2 certificate of each full window is its knot condition
    full = range(cfg.p, space.dimension - cfg.p) if cfg.q == 2 else ()
    certified = all(knot_condition(space, i, cfg.p) for i in full) if full else "n/a"
    cols, vals = _prefix_columns(cfg, recipe, with_n=True)
    cols += ["nu1_star", "bound", "all_certified"]
    vals += [nu1_star, recipe.bound(cfg.m), certified]
    _emit_table(cfg, sink, cols, [vals], audit_records=records)


def _run_quad(cfg: RunConfig, sink: IO[str]) -> None:
    recipe = _recipe(cfg)
    rule = quadrature_from_qi(recipe.build(_space(cfg)))
    if cfg.f is None:
        cols = ["j", "theta", "weight"]
        rows = [[j, float(x), float(w)]
                for j, (x, w) in enumerate(zip(rule.nodes, rule.weights))]
        _emit_table(cfg, sink, cols, rows)
        return
    f = BUILTIN_FUNCTIONS[cfg.f]
    assert f.integral is not None
    estimate = rule.integrate_fn(f.value)
    exact = float(f.integral(cfg.a, cfg.b))
    cols, vals = _prefix_columns(cfg, recipe, with_n=True)
    cols += ["f", "integral", "exact", "abs_error"]
    vals += [f.name, float(estimate), exact, abs(estimate - exact)]
    _emit_table(cfg, sink, cols, [vals])


# each study, called through this module's name so that a wrapper set on it
# is seen, and the error columns of its rows
_STUDIES = {
    "convergence": (lambda *args: convergence_study(*args), ("error",)),
    "diffmat": (lambda *args: differentiation_study(*args), ("err_interior", "err_all")),
}


def _run_study(cfg: RunConfig, sink: IO[str]) -> None:
    study, errors = _STUDIES[cfg.command]
    f = BUILTIN_FUNCTIONS[cfg.f or "sin"]
    recipe = _recipe(cfg)
    report = study(recipe, f, cfg.sizes, _partition(cfg), cfg.m)
    prefix_cols, prefix_vals = _prefix_columns(cfg, recipe, with_n=False)
    cols = prefix_cols + ["f", "n", "h_max", *errors, "order_running", "fitted_order"]
    rows = [
        prefix_vals
        + [f.name, r.n, r.h_max, *r.errors, r.order_running, report.fitted_order]
        for r in report.rows
    ]
    _emit_table(cfg, sink, cols, rows)


def _run_audit(cfg: RunConfig, sink: IO[str]) -> None:
    for record in iter_lp_audit(_space(cfg), cfg.p, cfg.q):
        sink.write(json.dumps(record, sort_keys=True) + "\n")


_COMMANDS = {
    "norms": (_run_norms, "operator norm upper bound vs the theoretical bound"),
    "nearbest": (_run_nearbest, "near-best LP sweep summary"),
    "convergence": (_run_study, "error decay study across partition sizes"),
    "quad": (_run_quad, "quadrature weights or an integral estimate"),
    "diffmat": (_run_study, "differentiation matrix error study"),
    "audit": (_run_audit, "per-index LP audit records as JSON lines"),
}
COMMANDS = tuple(_COMMANDS)


def run(cfg: RunConfig, sink: IO[str]) -> int:
    cfg.validate()
    if cfg.command in _NEARBEST_COMMANDS:
        cfg = cfg._replace(kind=KIND_NEARBEST)
    _COMMANDS[cfg.command][0](cfg, sink)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


_HELP = {
    "m": "spline degree",
    "p": "stencil offset radius",
    "q": "polynomial exactness degree",
    "n": "number of subintervals",
    "ratio": "grading ratio for arithmetic/geometric families",
    "f": "test function name",
    "sizes": "comma-separated subinterval counts for studies",
    "out": "write output to this file",
    "audit": "append per-index JSONL audit records",
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command; its options are the keys, as text for `_read`."""
    parser = argparse.ArgumentParser(
        prog="splineqi",
        description="spline quasi-interpolant studies on non-uniform partitions",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="key=value config file")
        for key in _KEYS:
            if _READERS.get(key) is not _flag:
                sp.add_argument(f"--{key}", choices=_CHOICES.get(key), help=_HELP.get(key))
            elif name == "nearbest":
                sp.add_argument(f"--{key}", action="store_const", const="true",
                                help=_HELP[key])
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process: parsing leaves it as
    it was, and building it costs milliseconds per call."""
    return build_parser()


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    entries = {} if args.config is None else parse_config_file(args.config)
    for key in _KEYS:
        text = getattr(args, key, None)
        if text is not None:
            entries[key] = _read(f"--{key}", key, text)
    return RunConfig(command=args.command, **entries)


def main(argv: Iterable[str] | None = None) -> int:
    tokens: list[str] = []
    # --a -1e-05 -> --a=-1e-05: argparse takes -1e-05 alone for an option
    for tok in sys.argv[1:] if argv is None else argv:
        if tokens and tokens[-1] in _FLOAT_FLAGS and not tok.startswith("--"):
            tokens[-1] += f"={tok}"
        else:
            tokens.append(tok)
    args = _parser().parse_args(tokens)
    try:
        cfg = _config_from_args(args)
        if cfg.out is None:
            return run(cfg, sys.stdout)
        # the file is written once the run has succeeded, so a run that
        # fails leaves it as it was
        sink = io.StringIO()
        code = run(cfg, sink)
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(sink.getvalue())
        except OSError as exc:
            raise ValueError(f"cannot write {cfg.out}: {exc}") from exc
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
