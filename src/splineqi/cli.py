"""Command line front end.

Subcommands map onto the library surface: operator norm summaries, near-best
LP sweeps with optional per-index audit records, convergence and
differentiation studies, and quadrature tables. Output is CSV (default) or a
single JSON object; the audit stream is JSON lines. All output is
deterministic for a fixed configuration, including the random partition
family, so runs can be diffed byte for byte.

Exit codes: 0 success, 2 configuration or validation error, 3 numerical
failure (simplex breakdown or singular linear algebra).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from typing import IO, Iterable

import numpy as np

from .applications import (
    BUILTIN_FUNCTIONS,
    convergence_study,
    differentiation_study,
    operator_recipe,
    quadrature_from_qi,
)
from .bspline import SplineSpace
from .knots import FAMILIES, PartitionSpec, generate_partition
from .nearbest import iter_lp_audit
from .quasi_interp import (
    KIND_DQI,
    KIND_NEARBEST,
    KIND_Q2STAR,
    KIND_QP2STAR,
    norm_upper_bound,
    theoretical_bound,
)

COMMANDS = ("norms", "nearbest", "convergence", "quad", "diffmat", "audit")
# commands defined by p and q alone: they always build the near-best operator
_NEARBEST_COMMANDS = ("nearbest", "audit")
KINDS = (KIND_DQI, KIND_Q2STAR, KIND_QP2STAR, KIND_NEARBEST)
FORMATS = ("csv", "json")
DEFAULT_SIZES = (16, 32, 64, 128)

_INT_KEYS = {"m", "p", "q", "n", "seed"}
_FLOAT_KEYS = {"a", "b", "ratio"}
_FLOAT_FLAGS = {f"--{key}" for key in _FLOAT_KEYS}
_BOOL_KEYS = {"audit"}


@dataclass(frozen=True)
class RunConfig:
    """One run, fully specified; round-trips through a plain dict."""

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

    def to_record(self) -> dict:
        record = asdict(self)
        record["sizes"] = list(self.sizes)
        return record

    @classmethod
    def from_record(cls, record: dict) -> "RunConfig":
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(record) - names)
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        if "command" not in record:
            raise ValueError("config record needs a 'command' entry")
        data = dict(record)
        if "sizes" in data:
            data["sizes"] = tuple(int(v) for v in data["sizes"])
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise ValueError(f"command must be one of {COMMANDS}, got {self.command!r}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.fmt not in FORMATS:
            raise ValueError(f"fmt must be one of {FORMATS}, got {self.fmt!r}")
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.m < 1:
            raise ValueError(f"degree must be >= 1, got {self.m}")
        if self.n < 2:
            raise ValueError(f"need at least 2 subintervals, got {self.n}")
        if self.q < 0:
            raise ValueError(f"exactness degree must be >= 0, got {self.q}")
        if self.p is not None and self.p < 1:
            raise ValueError(f"offset radius must be >= 1, got {self.p}")
        if self.p is None and (
            self.kind in (KIND_QP2STAR, KIND_NEARBEST) or self.command in _NEARBEST_COMMANDS
        ):
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
        if self.audit and self.command != "nearbest":
            raise ValueError("the audit flag only applies to the nearbest command")


def parse_config_file(path: str) -> dict:
    """key=value lines; '#' starts a comment; keys must be RunConfig fields.

    The command itself always comes from the command line.
    """
    names = {f.name for f in fields(RunConfig)}
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
        if key not in names:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        entries[key] = _coerce(path, lineno, key, value)
    return entries


def _coerce(path: str, lineno: int, key: str, value: str):
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _BOOL_KEYS:
            if value.lower() not in ("true", "false"):
                raise ValueError("expected true or false")
            return value.lower() == "true"
        if key == "sizes":
            return tuple(int(tok.strip()) for tok in value.split(","))
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return value


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
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        if audit_records is not None:
            payload["audit"] = audit_records
        sink.write(json.dumps(payload, sort_keys=True) + "\n")
        return
    sink.write(",".join(columns) + "\n")
    for row in rows:
        sink.write(",".join(_cell(v) for v in row) + "\n")
    if audit_records is not None:
        for record in audit_records:
            sink.write(json.dumps(record, sort_keys=True) + "\n")


def _effective_pq(cfg: RunConfig):
    if cfg.kind == KIND_DQI:
        return "", ""
    if cfg.kind == KIND_Q2STAR:
        return 1, 2
    if cfg.kind == KIND_QP2STAR:
        return cfg.p, 2
    return cfg.p, cfg.q


def _prefix_columns(cfg: RunConfig, with_n: bool) -> tuple[list[str], list]:
    p_out, q_out = _effective_pq(cfg)
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


def _recipe(cfg: RunConfig):
    return operator_recipe(cfg.kind, cfg.p, cfg.q)


def _space(cfg: RunConfig) -> SplineSpace:
    return SplineSpace.from_knots(generate_partition(_partition(cfg), cfg.m))


def _operator(cfg: RunConfig):
    return _recipe(cfg).build(_space(cfg))


def _bound(cfg: RunConfig) -> float | None:
    """The kind's interior norm bound. None for near-best with q >= 3 or
    p < m: (m+1)/(m-1) rests on the qp2star weights, which are not exact
    beyond degree 2 and need p >= m."""
    if cfg.kind == KIND_NEARBEST and (cfg.q > 2 or cfg.p < cfg.m):
        return None
    return theoretical_bound(cfg.kind, cfg.m)


def _run_norms(cfg: RunConfig, sink: IO[str]) -> None:
    qi = _operator(cfg)
    nu_interior = norm_upper_bound(qi, interior_only=True)
    nu_all = norm_upper_bound(qi)
    bound = _bound(cfg)
    ok = None if bound is None else bool(nu_interior <= bound + 1e-12)
    cols, vals = _prefix_columns(cfg, with_n=True)
    cols += ["nu1_interior", "nu1_all", "bound", "ok"]
    vals += [float(nu_interior), float(nu_all), bound, ok]
    _emit_table(cfg, sink, cols, [vals])


def _run_nearbest(cfg: RunConfig, sink: IO[str]) -> None:
    records = list(iter_lp_audit(_space(cfg), cfg.p, cfg.q))
    # the build's nu1_star: the largest optimum over interior stencils
    interior = [r["value"] for r in records if not r["boundary"]]
    verdicts = [r["certificate"] == "pass" for r in records if r["certificate"] != "n/a"]
    cols, vals = _prefix_columns(cfg, with_n=True)
    cols += ["nu1_star", "bound", "all_certified"]
    vals += [max(interior, default=None), _bound(cfg), all(verdicts) if verdicts else "n/a"]
    _emit_table(cfg, sink, cols, [vals], audit_records=records if cfg.audit else None)


def _run_convergence(cfg: RunConfig, sink: IO[str]) -> None:
    f = BUILTIN_FUNCTIONS[cfg.f or "sin"]
    report = convergence_study(_recipe(cfg), f, cfg.sizes, _partition(cfg), cfg.m)
    prefix_cols, prefix_vals = _prefix_columns(cfg, with_n=False)
    cols = prefix_cols + ["f", "n", "h_max", "error", "order_running", "fitted_order"]
    rows = [
        prefix_vals
        + [f.name, r.n, r.h_max, r.error, r.order_running, report.fitted_order]
        for r in report.rows
    ]
    _emit_table(cfg, sink, cols, rows)


def _run_quad(cfg: RunConfig, sink: IO[str]) -> None:
    rule = quadrature_from_qi(_operator(cfg))
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
    cols, vals = _prefix_columns(cfg, with_n=True)
    cols += ["f", "integral", "exact", "abs_error"]
    vals += [f.name, float(estimate), exact, abs(estimate - exact)]
    _emit_table(cfg, sink, cols, [vals])


def _run_diffmat(cfg: RunConfig, sink: IO[str]) -> None:
    f = BUILTIN_FUNCTIONS[cfg.f or "sin"]
    report = differentiation_study(_recipe(cfg), f, cfg.sizes, _partition(cfg), cfg.m)
    prefix_cols, prefix_vals = _prefix_columns(cfg, with_n=False)
    cols = prefix_cols + [
        "f", "n", "h_max", "err_interior", "err_all", "order_running", "fitted_order",
    ]
    rows = [
        prefix_vals
        + [f.name, r.n, r.h_max, r.err_interior, r.err_all, r.order_running,
           report.fitted_order]
        for r in report.rows
    ]
    _emit_table(cfg, sink, cols, rows)


def _run_audit(cfg: RunConfig, sink: IO[str]) -> None:
    # collected first: a failed LP leaves stdout empty
    for record in list(iter_lp_audit(_space(cfg), cfg.p, cfg.q)):
        sink.write(json.dumps(record, sort_keys=True) + "\n")


_HANDLERS = {
    "norms": _run_norms,
    "nearbest": _run_nearbest,
    "convergence": _run_convergence,
    "quad": _run_quad,
    "diffmat": _run_diffmat,
    "audit": _run_audit,
}


def run(cfg: RunConfig, sink: IO[str]) -> int:
    cfg.validate()
    if cfg.command in _NEARBEST_COMMANDS:
        cfg = replace(cfg, kind=KIND_NEARBEST)
    _HANDLERS[cfg.command](cfg, sink)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", default=None, help="key=value config file")
    sp.add_argument("--kind", choices=KINDS, default=None)
    sp.add_argument("--m", type=int, default=None, help="spline degree")
    sp.add_argument("--p", type=int, default=None, help="stencil offset radius")
    sp.add_argument("--q", type=int, default=None, help="polynomial exactness degree")
    sp.add_argument("--family", choices=FAMILIES, default=None)
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--b", type=float, default=None)
    sp.add_argument("--n", type=int, default=None, help="number of subintervals")
    sp.add_argument("--ratio", type=float, default=None,
                    help="grading ratio for arithmetic/geometric families")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--f", default=None, help="test function name")
    sp.add_argument("--sizes", default=None,
                    help="comma-separated subinterval counts for studies")
    sp.add_argument("--out", default=None, help="write output to this file")
    sp.add_argument("--fmt", choices=FORMATS, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splineqi",
        description="spline quasi-interpolant studies on non-uniform partitions",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    helps = {
        "norms": "operator norm upper bound vs the theoretical bound",
        "nearbest": "near-best LP sweep summary",
        "convergence": "error decay study across partition sizes",
        "quad": "quadrature weights or an integral estimate",
        "diffmat": "differentiation matrix error study",
        "audit": "per-index LP audit records as JSON lines",
    }
    for name in COMMANDS:
        sp = sub.add_parser(name, help=helps[name])
        _add_common(sp)
        if name == "nearbest":
            sp.add_argument("--audit", action="store_true", default=None,
                            help="append per-index JSONL audit records")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    entries: dict = {}
    if args.config is not None:
        entries = parse_config_file(args.config)
    for name in ("kind", "m", "p", "q", "family", "a", "b", "n", "ratio",
                 "seed", "f", "out", "fmt"):
        value = getattr(args, name)
        if value is not None:
            entries[name] = value
    if args.sizes is not None:
        try:
            entries["sizes"] = tuple(int(tok.strip()) for tok in args.sizes.split(","))
        except ValueError:
            raise ValueError(
                f"invalid sizes {args.sizes!r}: expected comma-separated integers"
            ) from None
    audit = getattr(args, "audit", None)
    if audit is not None:
        entries["audit"] = bool(audit)
    return RunConfig.from_record({"command": args.command, **entries})


def main(argv: Iterable[str] | None = None) -> int:
    parser = build_parser()
    tokens: list[str] = []
    # --a -1e-05 -> --a=-1e-05: argparse takes -1e-05 alone for an option
    for tok in sys.argv[1:] if argv is None else argv:
        if tokens and tokens[-1] in _FLOAT_FLAGS and not tok.startswith("--"):
            tokens[-1] += f"={tok}"
        else:
            tokens.append(tok)
    args = parser.parse_args(tokens)
    try:
        cfg = _config_from_args(args)
        if cfg.out is not None:
            try:
                with open(cfg.out, "w", encoding="utf-8") as sink:
                    return run(cfg, sink)
            except OSError as exc:
                raise ValueError(f"cannot write {cfg.out}: {exc}") from exc
        return run(cfg, sys.stdout)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
