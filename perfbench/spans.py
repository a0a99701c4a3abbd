"""Spans around calls into splineqi's layers, and the per-layer figures.

The tracer replaces a layer's public function wherever a caller looks it up:
every splineqi module namespace that holds the function object gets the
wrapper (so `splineqi.nearbest.solve_standard_form` and
`splineqi.simplex.solve_standard_form` are both wrapped), and classmethods
are wrapped on their class. Nothing in the package changes; `uninstall`
puts every original back.

A span is [name, start_ns, end_ns, parent, phase, attrs]. A span ends
before its attributes are taken, and attributes that cost more than a
lookup are kept as thunks and evaluated by `resolve` after the timing, so
of the tracer's own work the spans hold only the wrappers' calls.
Spans stay in memory and are written as JSON lines when the run ends. A
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

MODULES = ("knots", "bspline", "quasi_interp", "nearbest", "simplex", "applications", "cli")
CLI_COMMANDS = ("convergence", "diffmat", "quad", "norms", "nearbest", "audit")


def _dim(x) -> dict:
    return {"idx": x.dimension}


def _deriv_order(args, kwargs) -> int:
    return int(args[2] if len(args) > 2 else kwargs.get("derivative_order", 0))


def _full_window_certified(system) -> bool:
    """Whether the LP sits at a q = 2 full window where the knot condition
    holds, read from the raw Greville sites the system carries."""
    p = system.p
    if system.q != 2 or tuple(system.offsets) != tuple(range(-p, p + 1)):
        return False
    s = system.sites
    mid = s[0] + s[2 * p]
    tol = 1e-12 * max(1.0, abs(s[0]), abs(s[2 * p]))
    return bool(s[p - 1] + s[p] <= mid + tol and mid <= s[p] + s[p + 1] + tol)


# (module, attribute, attrs(args, kwargs, result) or None). The attrs give the
# work a call did: indices, points, LPs, rows or pivots.
TARGETS = (
    ("knots", "generate_partition", lambda a, k, r: _dim(r)),
    ("knots", "make_clamped_knots", None),
    ("knots", "greville_grid", lambda a, k, r: _dim(a[0])),
    ("bspline", "SplineSpace.from_knots", None),
    ("bspline", "eval_spline", lambda a, k, r: {"pts": 1, "deriv": _deriv_order(a, k)}),
    ("bspline", "eval_basis", None),
    ("bspline", "eval_basis_derivative", lambda a, k, r: {"pts": 1}),
    ("quasi_interp", "build_q2star", lambda a, k, r: _dim(a[0])),
    ("quasi_interp", "build_qp2star", lambda a, k, r: _dim(a[0])),
    ("quasi_interp", "greville_samples", lambda a, k, r: {"pts": a[0].dimension}),
    ("quasi_interp", "apply_qi", lambda a, k, r: _dim(a[0].space)),
    ("quasi_interp", "apply_dqi", lambda a, k, r: _dim(a[0])),
    ("quasi_interp", "norm_upper_bound", None),
    ("nearbest", "build_nearbest_qi", lambda a, k, r: _dim(a[0])),
    ("nearbest", "assemble_constraints", lambda a, k, r: {"lps": 1}),
    ("nearbest", "solve_l1",
     lambda a, k, r: {"lps": 1, "certified": functools.partial(_full_window_certified, a[0])}),
    ("nearbest", "build_watson_form", None),
    ("nearbest", "knot_condition", None),
    ("nearbest", "watson_certificate", lambda a, k, r: {"idx": 1}),
    ("nearbest", "iter_lp_audit", "generator"),
    ("simplex", "solve_standard_form", lambda a, k, r: {"lps": 1, "pivots": r.iterations}),
    ("applications", "quadrature_from_qi", lambda a, k, r: _dim(a[0].space)),
    ("applications", "differentiation_matrix", lambda a, k, r: _dim(a[0].space)),
    ("applications", "convergence_study", lambda a, k, r: {"rows": len(r.rows)}),
    ("applications", "differentiation_study", lambda a, k, r: {"rows": len(r.rows)}),
    ("applications", "evaluation_grid", None),
    ("applications", "operator_recipe", None),
    ("cli", "main", "cli"),
    ("cli", "run", None),
)


class Tracer:
    """Holds the spans of one run and the patches that produce them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "round"
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.phase, None])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> list:
        span = self.spans[idx]
        span[2] = perf_counter_ns()
        self.stack.pop()
        return span

    def resolve(self) -> None:
        """Evaluate the attributes deferred as thunks during the timing."""
        for span in self.spans:
            for key, value in (span[5] or {}).items():
                if callable(value):
                    span[5][key] = value()

    def _wrap(self, name: str, fn, attrs):
        tracer = self

        if attrs == "generator":
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # one span per record produced, so the consumer's own work
                # between records is not charged to the generator
                gen = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer._close(idx)[5] = {"records": 0}
                        return
                    except BaseException:
                        tracer._close(idx)
                        raise
                    tracer._close(idx)[5] = {"records": 1}
                    yield item
            return gen_wrapper

        if attrs == "cli":
            @functools.wraps(fn)
            def cli_wrapper(argv=None):
                argv = list(argv) if argv is not None else sys.argv[1:]
                sink = sys.stdout
                before = sink.tell() if sink.seekable() else 0
                idx = tracer._open(name)
                try:
                    rc = fn(argv)
                except BaseException:
                    tracer._close(idx)
                    raise
                span = tracer._close(idx)
                after = sink.tell() if sink.seekable() else before
                span[5] = {"command": argv[0], "bytes": after - before}
                return rc
            return cli_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx)
                raise
            span = tracer._close(idx)
            if attrs:
                span[5] = attrs(args, kwargs, result)
            return result
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self, lib) -> None:
        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "splineqi" or name.startswith("splineqi."))]
        for modname, attr, attrs in TARGETS:
            module = getattr(lib, modname)
            name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                wrapped = classmethod(self._wrap(name, original.__func__, attrs))
                setattr(cls, meth, wrapped)
                self._undo.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, attrs)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapped)
                        self._undo.append((ns, key, original))

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, phase, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "phase": phase, "attrs": attrs}) + "\n")


# -- figures -------------------------------------------------------------------


class _Stats:
    """Durations and attribute sums of the spans of one phase selection."""

    def __init__(self, spans, phases) -> None:
        chosen = [i for i, s in enumerate(spans) if s[4] in phases]
        self.dur: dict = defaultdict(float)
        self.count: dict = defaultdict(int)
        self.attr: dict = defaultdict(float)
        self.self_s: dict = defaultdict(float)
        child_time: dict = defaultdict(float)
        for i in chosen:
            name, start, end, parent, _, attrs = spans[i]
            d = (end - start) / 1e9
            if parent >= 0:
                child_time[parent] += d
            key = name
            if name == "bspline.eval_spline":
                key = name + (".deriv" if attrs and attrs["deriv"] > 0 else ".value")
            if name == "cli.main" and attrs:
                key = f"cli.main.{attrs['command']}"
            for k in {key, name}:
                self.dur[k] += d
                self.count[k] += 1
                for a, v in (attrs or {}).items():
                    if isinstance(v, (int, float)):
                        self.attr[(k, a)] += v
        for i in chosen:
            name, start, end = spans[i][:3]
            self.self_s[name.split(".")[0]] += (end - start) / 1e9 - child_time[i]

    def per(self, key, attr, scale=1e6):
        units = self.attr[(key, attr)] if attr else self.count[key]
        return self.dur[key] * scale / units if units else None


# metric name -> (span key, unit attribute or None for per call, scale)
RATES = {
    "knots.partition_us_per_index": ("knots.generate_partition", "idx", 1e6),
    "knots.grid_us_per_index": ("knots.greville_grid", "idx", 1e6),
    "bspline.eval_us_per_point": ("bspline.eval_spline.value", None, 1e6),
    "bspline.deriv_eval_us_per_point": ("bspline.eval_spline.deriv", None, 1e6),
    "bspline.basis_deriv_us_per_point": ("bspline.eval_basis_derivative", None, 1e6),
    "quasi_interp.build_us_per_index.q2star": ("quasi_interp.build_q2star", "idx", 1e6),
    "quasi_interp.build_us_per_index.qp2star": ("quasi_interp.build_qp2star", "idx", 1e6),
    "quasi_interp.apply_us_per_index": ("quasi_interp.apply_qi", "idx", 1e6),
    "quasi_interp.samples_us_per_point": ("quasi_interp.greville_samples", "pts", 1e6),
    "quasi_interp.dqi_us_per_index": ("quasi_interp.apply_dqi", "idx", 1e6),
    "nearbest.build_us_per_index": ("nearbest.build_nearbest_qi", "idx", 1e6),
    "nearbest.assemble_us_per_lp": ("nearbest.assemble_constraints", None, 1e6),
    "nearbest.certificate_us_per_index": ("nearbest.watson_certificate", None, 1e6),
    "nearbest.audit_us_per_index": ("nearbest.iter_lp_audit", "records", 1e6),
    "simplex.solve_us_per_lp": ("simplex.solve_standard_form", None, 1e6),
    "applications.quadrature_us_per_index": ("applications.quadrature_from_qi", "idx", 1e6),
    "applications.diffmat_us_per_index": ("applications.differentiation_matrix", "idx", 1e6),
    "applications.convergence_ms_per_row": ("applications.convergence_study", "rows", 1e3),
}
# the sizes at which the probe measures each per-index figure; the dense
# differentiation matrix and the LP stop where memory or time runs out
PROBE_SIZES = {name: ("n1e3", "n1e4", "n1e5") for name in (
    "knots.partition_us_per_index", "knots.grid_us_per_index",
    "bspline.eval_us_per_point", "bspline.deriv_eval_us_per_point",
    "bspline.basis_deriv_us_per_point",
    "quasi_interp.build_us_per_index.q2star", "quasi_interp.build_us_per_index.qp2star",
    "quasi_interp.apply_us_per_index", "quasi_interp.samples_us_per_point",
    "quasi_interp.dqi_us_per_index", "applications.quadrature_us_per_index",
)}
PROBE_SIZES.update({name: ("n1e3", "n1e4") for name in (
    "nearbest.build_us_per_index", "nearbest.assemble_us_per_lp",
    "nearbest.certificate_us_per_index", "simplex.solve_us_per_lp",
)})
PROBE_SIZES.update({"applications.diffmat_us_per_index": ("n1e3",),
                    "nearbest.audit_us_per_index": ("n1e3",)})


def _unit(name: str) -> str:
    """The time unit in a rate's name: "us" in "grid_us_per_index"."""
    return next(part.split("_")[-3] for part in name.split(".") if "_per_" in part)


def metric_table() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    table = [(name, _unit(name)) for name in RATES]
    table += [
        ("nearbest.lp_calls", "count"),
        ("nearbest.lp_certified_ratio", "ratio"),
        ("simplex.pivots_per_lp", "count"),
        ("applications.diffmat_mb", "MB"),
    ]
    table += [(f"cli.{c}_ms", "ms") for c in CLI_COMMANDS]
    table += [("cli.self_ms_per_command", "ms"), ("cli.stdout_bytes", "bytes")]
    table += [(f"{m}.self_s", "s") for m in MODULES]
    for name, sizes in PROBE_SIZES.items():
        table += [(f"{name}.{s}", _unit(name)) for s in sizes]
    return table


def _figures(st: _Stats) -> dict:
    """Un-suffixed figures from one selection of spans; None where the
    selection holds no call that defines the figure."""
    out = {name: st.per(key, attr, scale) for name, (key, attr, scale) in RATES.items()}
    lps = st.count["nearbest.solve_l1"]
    out["nearbest.lp_calls"] = lps if lps else None
    out["nearbest.lp_certified_ratio"] = st.attr[("nearbest.solve_l1", "certified")] / lps if lps else None
    solves = st.count["simplex.solve_standard_form"]
    out["simplex.pivots_per_lp"] = (
        st.attr[("simplex.solve_standard_form", "pivots")] / solves if solves else None)
    calls = st.count["cli.main"]
    for c in CLI_COMMANDS:
        out[f"cli.{c}_ms"] = st.per(f"cli.main.{c}", None, 1e3)
    out["cli.self_ms_per_command"] = st.self_s["cli"] * 1e3 / calls if calls else None
    out["cli.stdout_bytes"] = st.attr[("cli.main", "bytes")] / calls if calls else None
    entered = {k.split(".")[0] for k, c in st.count.items() if c}
    for m in MODULES:
        out[f"{m}.self_s"] = st.self_s[m] if m in entered else None
    return out


def per_layer_metrics(spans) -> tuple[dict, list[str]]:
    """Figures of the workload's round, falling back to the probe for every
    figure the round gives none of; returns the metrics and the fallbacks."""
    phases = {s[4] for s in spans}
    probe_phases = {p for p in phases if p.startswith("probe.")}
    round_fig = _figures(_Stats(spans, {"round"}))
    probe_fig = _figures(_Stats(spans, probe_phases))
    metrics, fell_back = {}, []
    units = dict(metric_table())
    for name, value in round_fig.items():
        if value is None:
            value = probe_fig[name]
            fell_back.append(name)
        metrics[name] = {"value": float(value) if value is not None else None, "unit": units[name]}
    for name, sizes in PROBE_SIZES.items():
        key, attr, scale = RATES[name]
        for size in sizes:
            st = _Stats(spans, {f"probe.{size}"})
            value = st.per(key, attr, scale)
            metrics[f"{name}.{size}"] = {"value": value, "unit": units[f"{name}.{size}"]}
    return metrics, fell_back
