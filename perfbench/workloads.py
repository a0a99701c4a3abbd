"""The benchmark's workloads: seeded inputs, one operation, and its checks.

A workload lists the operations of one round. Which operations a round
holds (family, degree and size of each) is fixed by the workload's design
table, so every seed gives the same mix of work; the seed only draws the
data: interval, grading, random partition seed, test functions and
evaluation points. Operations call the package through module attributes
(`lib.nearbest.build_nearbest_qi`), so a tracer that patches those
attributes sees every call.

Each workload has `inputs`, `run` (the timed operation), `digest` (what the
checks need, taken after the operation and outside its timing) and `check`
(independent checks, returning a list of failures).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import tracemalloc

import numpy as np

import oracles

FAMILIES = ("random", "geometric", "arithmetic")
# Operations per round. With distinct costs, 0.5 * 35 and 0.9 * 35 fall in
# the middle of one operation's group of samples, not on the step between
# two, so the median and the 90th percentile do not jump with noise.
ROUND = 35
# Each workload's `round_s` is the time of one round in reference-speed
# seconds, measured with this code; a run times --seconds / round_s whole
# rounds (at least run.MIN_ROUNDS), so it does the same work on any machine
# and at any speed.


def _graded_spec(lib, rng, family: str, n: int, a: float, b: float):
    """A partition of [a, b] whose grading is seeded but never so strong that
    its smallest step approaches the resolution of float64."""
    if family == "geometric":
        ratio = float(10.0 ** rng.uniform(1.0, 3.0)) ** (1.0 / (n - 1))
    elif family == "arithmetic":
        ratio = float(rng.uniform(2.0, 20.0))
    else:
        ratio = 1.0
    seed = int(rng.integers(2**31))
    return lib.knots.PartitionSpec(family=family, a=a, b=b, n=n, ratio=ratio, seed=seed)


def _sizes(count: int, lo: int, hi: int, skew: float) -> list[int]:
    """Sizes from lo to hi, dense at the small end, one per operation."""
    if count == 1:
        return [lo]
    return [round(lo * (hi / lo) ** ((k / (count - 1)) ** skew)) for k in range(count)]


def _interval(rng) -> tuple[float, float]:
    a = float(rng.uniform(-1.0, 0.5))
    return a, a + float(rng.uniform(1.0, 3.0))


def _nu1_interior(qi, m: int, p: int, n: int) -> float:
    lo, hi = oracles.interior_range(m, p, n)
    return max(float(np.abs(st.weights).sum()) for st in qi.stencils[lo : hi + 1])


def _sampled_stencils(qi, rng, count: int):
    dim = len(qi.stencils)
    picks = sorted(set(int(i) for i in rng.integers(0, dim, size=count)) | {0, 1, dim - 2, dim - 1})
    return [(i, tuple(qi.stencils[i].offsets), np.array(qi.stencils[i].weights)) for i in picks]


def _close(x, y, tol) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(y))


# ---------------------------------------------------------------------------


class ApproxLarge:
    """Build q2star and qp2star on one large graded partition, apply both to
    Greville samples of three functions, evaluate, and integrate."""

    name = "approx_large"
    round_s = 4.8
    VALUES, DERIVS = 100, 10

    def inputs(self, lib, seed: int, smoke: bool) -> list[dict]:
        rng = np.random.default_rng([seed, 1])
        count, lo, hi = (6, 40, 120) if smoke else (ROUND, 1000, 20000)
        out = []
        for k, n in enumerate(_sizes(count, lo, hi, 3.8)):
            family, m = FAMILIES[k % 3], 2 + (k // 3) % 3
            a, b = _interval(rng)
            spec = _graded_spec(lib, rng, family, n, a, b)
            quad = [float(c) for c in rng.uniform(-1.0, 1.0, 3)]
            omega, phase = float(rng.uniform(2.0, 6.0)), float(rng.uniform(0.0, 2 * math.pi))
            kappa, x0 = float(rng.uniform(5.0, 50.0)), float(rng.uniform(a, b))
            out.append({
                "m": m, "a": a, "b": b,
                "kv": lib.knots.generate_partition(spec, m),
                "quad": quad, "omega": omega, "phase": phase, "kappa": kappa, "x0": x0,
                "fns": [
                    lambda x, c=quad: c[0] + c[1] * x + c[2] * x * x,
                    lambda x, w=omega, f=phase: math.sin(w * x + f),
                    lambda x, s=kappa, z=x0: 1.0 / (1.0 + s * (x - z) ** 2),
                ],
                "xv": [float(x) for x in rng.uniform(a, b, self.VALUES)],
                "xd": [float(x) for x in rng.uniform(a, b, self.DERIVS)],
                "pick": int(rng.integers(2**31)),
            })
        return out

    def run(self, lib, inp):
        space = lib.bspline.SplineSpace.from_knots(inp["kv"])
        m = inp["m"]
        operators = [lib.quasi_interp.build_qp2star(space, m), lib.quasi_interp.build_q2star(space)]
        samples = [lib.quasi_interp.greville_samples(space, fn) for fn in inp["fns"]]
        splines = []
        for qi in operators:
            for s in samples:
                g = lib.quasi_interp.apply_qi(qi, s)
                splines.append((g.coefficients, [g(x) for x in inp["xv"]], [g(x, 1) for x in inp["xd"]]))
        integrals = []
        for qi in operators:
            rule = lib.applications.quadrature_from_qi(qi)
            integrals.append([rule.integrate(s) for s in samples])
        return {"operators": operators, "splines": splines, "integrals": integrals}

    def digest(self, inp, out) -> dict:
        rng = np.random.default_rng(inp["pick"])
        kv = inp["kv"]
        return {
            "splines": out["splines"],
            "integrals": out["integrals"],
            "operators": [
                (qi.kind, qi.p, _nu1_interior(qi, kv.degree, qi.p, kv.n), _sampled_stencils(qi, rng, 30))
                for qi in out["operators"]
            ],
        }

    def check(self, inp, d) -> list[str]:
        bad = []
        kv, m, a, b = inp["kv"], inp["m"], inp["a"], inp["b"]
        t = np.asarray(kv.t)
        theta = oracles.greville(t, m)
        hmax, hmin = float(np.diff(t).max()), float(np.diff(t)[np.diff(t) > 0].min())
        xv, xd = np.array(inp["xv"]), np.array(inp["xd"])
        c = inp["quad"]
        quad_v = c[0] + c[1] * xv + c[2] * xv**2
        quad_d = c[1] + 2 * c[2] * xd
        exact = [
            oracles.integral_poly(c, a, b),
            oracles.integral_sin(inp["omega"], inp["phase"], a, b),
            oracles.integral_bump(inp["kappa"], inp["x0"], a, b),
        ]
        tag = f"{self.name} m={m} n={kv.n}"
        for k, (coeffs, vals, ders) in enumerate(d["splines"]):
            kind = ("qp2star", "q2star")[k // 3]
            fn = k % 3
            coeffs, vals, ders = np.asarray(coeffs), np.array(vals), np.array(ders)
            scale = max(1.0, float(np.abs(coeffs).max()))
            own_v = oracles.de_boor(t, coeffs, m, xv)
            own_d = oracles.de_boor(t, coeffs, m, xd, derivative=1)
            if np.abs(own_v - vals).max() > 1e-12 * scale:
                bad.append(f"{tag} {kind} f{fn}: values differ from de Boor")
            if np.abs(own_d - ders).max() > 1e-12 * scale * m / hmin:
                bad.append(f"{tag} {kind} f{fn}: derivatives differ from de Boor")
            if fn == 0:
                if np.abs(vals - quad_v).max() > 1e-10 * scale:
                    bad.append(f"{tag} {kind}: quadratic not reproduced")
                if np.abs(ders - quad_d).max() > 1e-10 * scale * m / hmin:
                    bad.append(f"{tag} {kind}: quadratic derivative not reproduced")
            if fn == 1:
                err = np.abs(vals - np.sin(inp["omega"] * xv + inp["phase"])).max()
                if err > (hmax * inp["omega"]) ** 3:
                    bad.append(f"{tag} {kind}: sin error {err:.2e} above (h omega)^3")
        for r, row in enumerate(d["integrals"]):
            kind = ("qp2star", "q2star")[r]
            if not _close(row[0], exact[0], 1e-10):
                bad.append(f"{tag} {kind}: quadrature of a quadratic is not exact")
            if abs(row[1] - exact[1]) > (b - a) * (hmax * inp["omega"]) ** 3:
                bad.append(f"{tag} {kind}: sin integral off by {abs(row[1] - exact[1]):.2e}")
            if abs(row[2] - exact[2]) > (b - a) * (hmax * math.sqrt(inp["kappa"])) ** 3:
                bad.append(f"{tag} {kind}: bump integral off by {abs(row[2] - exact[2]):.2e}")
        for kind, p, nu1, stencils in d["operators"]:
            if nu1 > oracles.norm_bound(kind, m) + 1e-9:
                bad.append(f"{tag} {kind}: interior nu1 {nu1} above the bound")
            for i, offsets, weights in stencils:
                res = oracles.exactness_residual(theta, t, m, i, offsets, weights, 2)
                if res > 1e-9:
                    bad.append(f"{tag} {kind} i={i}: exactness residual {res:.1e}")
        return bad


# ---------------------------------------------------------------------------


class NearbestGraded:
    """Near-best (l1-minimal, q = 2, p = m) operator on a graded partition,
    certificates at every full-window index, and for every fourth operation
    the per-index LP audit."""

    name = "nearbest_graded"
    round_s = 1.6

    def inputs(self, lib, seed: int, smoke: bool) -> list[dict]:
        rng = np.random.default_rng([seed, 2])
        count, lo, hi = (6, 12, 24) if smoke else (ROUND, 20, 320)
        out = []
        for k, n in enumerate(_sizes(count, lo, hi, 1.5)):
            family, m = FAMILIES[k % 3], 2 + (k // 3) % 3
            a, b = _interval(rng)
            spec = _graded_spec(lib, rng, family, n, a, b)
            out.append({"m": m, "kv": lib.knots.generate_partition(spec, m),
                        "audit": k % 4 == 3, "pick": int(rng.integers(2**31))})
        return out

    def run(self, lib, inp):
        space = lib.bspline.SplineSpace.from_knots(inp["kv"])
        p = inp["m"]
        qi = lib.nearbest.build_nearbest_qi(space, p, 2)
        certs = [lib.nearbest.watson_certificate(space, i, p) for i in range(p, space.dimension - p)]
        audit = list(lib.nearbest.iter_lp_audit(space, p, 2)) if inp["audit"] else None
        return {"qi": qi, "certs": certs, "audit": audit}

    def digest(self, inp, out) -> dict:
        qi = out["qi"]
        return {
            "stencils": [(st.i, tuple(st.offsets), np.array(st.weights)) for st in qi.stencils],
            "lp_values": list(qi.lp_values),
            "nu1_star": qi.nu1_star,
            "passes": [c.passes for c in out["certs"]],
            "audit": out["audit"],
        }

    def check(self, inp, d) -> list[str]:
        bad = []
        kv, m = inp["kv"], inp["m"]
        p, n = m, kv.n
        t = np.asarray(kv.t)
        theta = oracles.greville(t, m)
        dim = len(theta)
        tag = f"{self.name} m={m} n={n}"
        lo, hi = oracles.interior_range(m, p, n)
        stencils, values = d["stencils"], d["lp_values"]
        own_nu1 = max(float(np.abs(w).sum()) for _, _, w in stencils[lo : hi + 1])
        if not _close(own_nu1, d["nu1_star"], 1e-12):
            bad.append(f"{tag}: nu1_star {d['nu1_star']} differs from the weights' {own_nu1}")
        if d["nu1_star"] > oracles.norm_bound("nearbest", m) + 1e-9:
            bad.append(f"{tag}: nu1_star {d['nu1_star']} above the bound")
        for (i, offsets, w), value in zip(stencils, values):
            if not _close(float(np.abs(w).sum()), value, 1e-12):
                bad.append(f"{tag} i={i}: LP value differs from the weights' l1 norm")
            res = oracles.exactness_residual(theta, t, m, i, offsets, w, 2)
            if res > 1e-9:
                bad.append(f"{tag} i={i}: exactness residual {res:.1e}")
        rng = np.random.default_rng(inp["pick"])
        for i in sorted(set(int(i) for i in rng.integers(1, dim - 1, size=6))):
            offsets = stencils[i][1]
            V, rhs = oracles.normalized_system(theta, t, m, i, offsets, 2)
            best = oracles.l1_min_vertices(V, rhs)
            if not _close(values[i], best, 1e-9):
                bad.append(f"{tag} i={i}: LP value {values[i]} but vertex minimum {best}")
            if p <= i <= dim - 1 - p:
                closed = oracles.three_point_l1(theta, t, m, i, p)
                if values[i] > closed * (1 + 1e-9):
                    bad.append(f"{tag} i={i}: LP value above the three-point l1 {closed}")
                if oracles.knot_condition_margin(theta, i, p) > 1e-9 and not _close(values[i], closed, 1e-9):
                    bad.append(f"{tag} i={i}: knot condition holds but LP {values[i]} != {closed}")
        for i, passed in zip(range(p, dim - p), d["passes"]):
            margin = oracles.knot_condition_margin(theta, i, p)
            if abs(margin) > 1e-9 and passed != (margin > 0):
                bad.append(f"{tag} i={i}: certificate {passed} but knot-condition margin {margin:.2e}")
        if d["audit"] is not None:
            bad += _check_audit(tag, d["audit"], dim, values)
        return bad


def _check_audit(tag: str, records, dim: int, values=None) -> list[str]:
    bad = []
    if [r["i"] for r in records] != list(range(dim)):
        return [f"{tag}: audit records do not cover indices 0..{dim - 1}"]
    for r in records:
        if values is not None and not _close(r["value"], values[r["i"]], 1e-12):
            bad.append(f"{tag} i={r['i']}: audit value differs from the operator's")
        if not _close(float(np.abs(r["weights"]).sum()), r["value"], 1e-12):
            bad.append(f"{tag} i={r['i']}: audit weights do not sum to its value")
        if "closed_form_value" in r:
            if r["value"] > r["closed_form_value"] * (1 + 1e-9):
                bad.append(f"{tag} i={r['i']}: audit LP value above the closed form")
            if r["knot_condition"] and abs(r["gap"]) > 1e-9 * r["value"]:
                bad.append(f"{tag} i={r['i']}: knot condition holds but gap {r['gap']:.1e}")
            if (r["certificate"] == "pass") != bool(r["knot_condition"]):
                bad.append(f"{tag} i={r['i']}: certificate and knot condition disagree")
    return bad


# ---------------------------------------------------------------------------


def run_cli(lib, argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call with its stdout captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        try:
            rc = lib.cli.main(argv)
        except SystemExit as exc:  # argparse exits on arguments it rejects
            rc = exc.code
    return rc, sink.getvalue()


class CliStudies:
    """One `splineqi` command per operation, run in this process: studies
    across small spaces, each operator built once and used once."""

    name = "cli_studies"
    round_s = 2.0

    def inputs(self, lib, seed: int, smoke: bool) -> list[dict]:
        rng = np.random.default_rng([seed, 3])

        def graded(family, n_max):
            if family == "geometric":
                ratio = float(10.0 ** rng.uniform(0.5, 1.5)) ** (1.0 / n_max)
            elif family == "arithmetic":
                ratio = float(rng.uniform(2.0, 8.0))
            else:
                return ["--family", "random", "--seed", str(int(rng.integers(2**31)))]
            return ["--family", family, "--ratio", repr(ratio)]

        def interval():
            a, b = _interval(rng)
            # joined with "=": argparse reads "--a -1e-05" as two options
            return [f"--a={a!r}", f"--b={b!r}"]

        cmds = []
        # Arithmetic grading keeps the ratio h_n / h_1 fixed along the ladder,
        # and exp keeps f''' away from 0: with sin the sup error moves between
        # regions and the fitted order of a q = 2 kind ranged from 2.5 to 5.
        sizes = (16, 32, 64, 128)
        for kind in ("dqi", "qp2star", "nearbest"):
            for m in (2,) if smoke else (2, 3, 4):
                argv = ["convergence", "--kind", kind, "--m", str(m),
                        "--sizes", ",".join(map(str, sizes)), "--f", "exp"]
                argv += graded("arithmetic", sizes[-1]) + interval()
                if kind != "dqi":
                    argv += ["--p", str(m)]
                cmds.append(argv)
        # degree 2 only: with m >= 3 the end Greville sites can round outside
        # [a, b] on some intervals and diffmat then fails (see CHANGES.md)
        for kind, p, top in (("qp2star", 2, 1024), ("qp2star", 3, 768), ("q2star", None, 512),
                             ("qp2star", 4, 896)):
            top = 256 if smoke else top
            ladder = ",".join(str(top >> s) for s in (3, 2, 1, 0))
            argv = ["diffmat", "--kind", kind, "--m", "2", "--sizes", ladder]
            argv += graded("arithmetic", top) + interval()
            if p is not None:
                argv += ["--p", str(p)]
            cmds.append(argv)
        for k, (kind, n) in enumerate((("q2star", 400), ("qp2star", 320), ("nearbest", 160),
                                       ("q2star", 120), ("qp2star", 80), ("nearbest", 60))):
            m = 2 + k % 3
            argv = ["quad", "--kind", kind, "--m", str(m), "--n", str(12 if smoke else n),
                    "--f", ("sin", "exp", "runge")[k % 3], "--fmt", ("csv", "json")[k % 2]]
            argv += graded("random", n) + interval()
            if kind != "q2star":
                argv += ["--p", str(m)]
            cmds.append(argv)
        for k, (kind, n) in enumerate((("q2star", 600), ("qp2star", 500), ("nearbest", 140),
                                       ("q2star", 200), ("qp2star", 150), ("nearbest", 70))):
            m = 2 + k % 3
            n = 12 if smoke else n
            argv = ["norms", "--kind", kind, "--m", str(m), "--n", str(n),
                    "--fmt", ("csv", "json")[k % 2]]
            argv += graded(FAMILIES[k % 3], n) + interval()
            if kind != "q2star":
                argv += ["--p", str(m)]
            cmds.append(argv)
        for k, n in enumerate((40, 60, 80, 100, 120)):
            m = 2 + k % 3
            n = 16 if smoke else n
            argv = ["nearbest", "--audit", "--m", str(m), "--p", str(m), "--n", str(n),
                    "--fmt", ("csv", "json")[k % 2]]
            cmds.append(argv + graded(FAMILIES[k % 3], n) + interval())
        for k, n in enumerate((30, 45, 60, 75, 90)):
            m = 2 + k % 3
            n = 16 if smoke else n
            argv = ["audit", "--m", str(m), "--p", str(m), "--n", str(n)]
            cmds.append(argv + graded(FAMILIES[(k + 1) % 3], n) + interval())
        assert smoke or len(cmds) == ROUND
        return [{"argv": argv} for argv in cmds]

    def run(self, lib, inp):
        return run_cli(lib, inp["argv"])

    def digest(self, inp, out) -> dict:
        rc, text = out
        return {"rc": rc, "text": text}

    @staticmethod
    def fingerprint(out) -> str:
        return hashlib.sha256(out[1].encode()).hexdigest()

    def check(self, inp, d) -> list[str]:
        argv = inp["argv"]
        tag = f"{self.name} `{' '.join(argv)}`"
        if d["rc"] != 0:
            return [f"{tag}: exit code {d['rc']}"]
        opts = {}
        for k, tok in enumerate(argv[1:], 1):
            if "=" in tok:
                key, value = tok[2:].split("=", 1)
                opts[key] = value
            elif k + 1 < len(argv) and not argv[k + 1].startswith("--"):
                opts[tok[2:]] = argv[k + 1]
        m = int(opts["m"])
        text = d["text"]
        try:
            if argv[0] == "audit":
                return _check_audit(tag, [json.loads(line) for line in text.splitlines()],
                                    int(opts["n"]) + m)
            lines = text.splitlines()
            if opts.get("fmt") == "json":
                payload = json.loads(text)
                rows, audit = payload["rows"], payload.get("audit")
            else:
                table = [ln for ln in lines if not ln.startswith("{")]
                rows = list(csv.DictReader(io.StringIO("\n".join(table) + "\n")))
                audit = [json.loads(ln) for ln in lines if ln.startswith("{")] or None
            return self._check_rows(tag, argv, opts, m, rows, audit)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"{tag}: output does not parse: {exc!r}"]

    @staticmethod
    def _check_rows(tag, argv, opts, m, rows, audit) -> list[str]:
        num = lambda row, key: float(row[key])  # noqa: E731 - csv cells are text
        bad = []
        if argv[0] == "convergence":
            want = m + 1 if opts["kind"] == "dqi" else 3
            got = num(rows[-1], "fitted_order")
            if not abs(got - want) <= 0.3:
                bad.append(f"{tag}: fitted order {got:.3f}, expected about {want}")
            errs = [num(r, "error") for r in rows]
            if not all(e2 < e1 for e1, e2 in zip(errs, errs[1:])):
                bad.append(f"{tag}: errors do not decrease: {errs}")
        elif argv[0] == "diffmat":
            got = num(rows[-1], "fitted_order")
            if not 1.8 <= got <= 4.5:
                bad.append(f"{tag}: interior fitted order {got:.3f}, expected about 2")
            if any(num(r, "err_interior") > num(r, "err_all") for r in rows):
                bad.append(f"{tag}: interior error above the full-range error")
        elif argv[0] == "quad":
            row = rows[0]
            a, b = float(opts["a"]), float(opts["b"])
            exact = oracles.BUILTIN_INTEGRALS[opts["f"]](a, b)
            if not _close(num(row, "exact"), exact, 1e-12):
                bad.append(f"{tag}: exact column {row['exact']} but closed form {exact}")
            err = abs(num(row, "integral") - exact)
            # a rule exact on P_2 errs by O(h^3 max|f'''|) per unit length; the
            # random family's longest step is below 2 (b - a) / n
            h = 2 * (b - a) / int(opts["n"])
            f3 = {"sin": 1.0, "exp": math.exp(b), "runge": 600.0}[opts["f"]]
            if not _close(num(row, "abs_error"), err, 1e-9) or err > (b - a) * h**3 * f3:
                bad.append(f"{tag}: quadrature error {err:.2e}")
        elif argv[0] == "norms":
            row = rows[0]
            bound = oracles.norm_bound(opts["kind"], m)
            if num(row, "nu1_interior") > bound + 1e-9 or str(row["ok"]).lower() != "true":
                bad.append(f"{tag}: interior nu1 {row['nu1_interior']} above {bound}")
            if not _close(num(row, "bound"), bound, 1e-12):
                bad.append(f"{tag}: bound column {row['bound']} but {bound} expected")
        elif argv[0] == "nearbest":
            row = rows[0]
            if num(row, "nu1_star") > oracles.norm_bound("nearbest", m) + 1e-9:
                bad.append(f"{tag}: nu1_star {row['nu1_star']} above the bound")
            if audit is None:
                bad.append(f"{tag}: no audit records")
            else:
                bad += _check_audit(tag, audit, int(opts["n"]) + m)
        return bad


WORKLOADS = {w.name: w for w in (ApproxLarge(), NearbestGraded(), CliStudies())}


# ---------------------------------------------------------------------------


def _probe_space(lib, seed: int, n: int, m: int = 3):
    """The probe's random space of degree m on n subintervals, and its rng."""
    rng = np.random.default_rng([seed, 4, n])
    spec = lib.knots.PartitionSpec(family="random", a=0.0, b=1.0, n=n, seed=int(rng.integers(2**31)))
    return lib.bspline.SplineSpace.from_knots(lib.knots.generate_partition(spec, m)), rng


def probe_layers(lib, seed: int, n: int, with_lp: bool, with_dense: bool) -> None:
    """Call each layer once on one random cubic space of n subintervals, so
    the traced run has per-index figures at fixed sizes."""
    m = 3
    space, rng = _probe_space(lib, seed, n, m)
    lib.quasi_interp.build_q2star(space)
    qi = lib.quasi_interp.build_qp2star(space, m)
    samples = lib.quasi_interp.greville_samples(space, math.sin)
    g = lib.quasi_interp.apply_qi(qi, samples)
    xs = [float(x) for x in rng.uniform(0.0, 1.0, 300)]
    for x in xs:
        g(x)
    for x in xs[: 20 if n >= 10**5 else 60]:
        g(x, 1)
    for x in xs:
        lib.bspline.eval_basis_derivative(space, x)
    lib.quasi_interp.apply_dqi(space, lambda x: [math.sin(x + k * math.pi / 2) for k in range(m + 1)])
    lib.applications.quadrature_from_qi(qi)
    if with_dense:
        lib.applications.differentiation_matrix(qi)
    if with_lp:
        lib.nearbest.build_nearbest_qi(space, m, 2)
        for i in range(m, space.dimension - m):
            lib.nearbest.watson_certificate(space, i, m)
    if with_dense:
        for _ in lib.nearbest.iter_lp_audit(space, m, 2):
            pass


def diffmat_peak_mb(lib, seed: int, n: int) -> float:
    """Peak of the memory traced while `differentiation_matrix` builds the
    matrix of the probe's cubic qp2star operator on n subintervals: the
    returned matrix and nodes plus every temporary the call allocates.
    numpy reports its buffers to tracemalloc, so dense and sparse layouts
    are measured alike."""
    qi = lib.quasi_interp.build_qp2star(_probe_space(lib, seed, n)[0], 3)
    tracemalloc.start()
    try:
        lib.applications.differentiation_matrix(qi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def probe_cli(lib, seed: int) -> None:
    """One small call of each CLI command the cli_studies workload uses."""
    for argv in (["convergence", "--kind", "qp2star", "--m", "3", "--p", "3", "--sizes", "8,16,32"],
                 ["diffmat", "--kind", "qp2star", "--m", "2", "--p", "2", "--sizes", "32,64,128"],
                 ["quad", "--kind", "q2star", "--m", "2", "--n", "64", "--f", "sin"],
                 ["norms", "--kind", "qp2star", "--m", "3", "--p", "3", "--n", "64"],
                 ["nearbest", "--audit", "--m", "2", "--p", "2", "--n", "24", "--seed", str(seed)],
                 ["audit", "--m", "2", "--p", "2", "--n", "24", "--family", "random",
                  "--seed", str(seed)]):
        run_cli(lib, argv)
