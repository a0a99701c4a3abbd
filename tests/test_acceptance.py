"""Acceptance gate: the ten headline guarantees, one test and one verdict line
each. Tolerances are part of the contract; do not loosen them to make a run
pass. Each test prints `[acceptance] ACk <label>: PASS|FAIL` and the same
lines are echoed in the terminal summary."""

import math

import numpy as np

from conftest import ACCEPTANCE_LINES, partition_battery, space_from
from oracles import greville_loop, l1_min_enumerate, three_point_certificate_mp
from splineqi import (
    BUILTIN_FUNCTIONS,
    PartitionSpec,
    assemble_constraints,
    build_nearbest_qi,
    build_q2star,
    build_qp2star,
    convergence_study,
    differentiation_matrix,
    differentiation_study,
    eval_basis,
    operator_recipe,
    quadrature_from_qi,
    solve_l1,
    watson_certificate,
)
from splineqi.cli import main


def _check(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def _stencil_moment(space, st, r):
    sites = space.greville[[st.i + s for s in st.offsets]]
    return float(st.weights @ sites**r)


def test_ac01_polynomial_exactness():
    # interval kept away from zero so targets support true relative error
    worst = 0.0
    for m in range(2, 7):
        rng = np.random.default_rng(100 + m)
        for _ in range(50):
            n = int(rng.integers(6, 16))
            sp = space_from("random", m=m, n=n, seed=int(rng.integers(2**31 - 1)),
                            a=0.25, b=1.75)
            moments = greville_loop(sp.knots.t, m)[1]
            theta = sp.greville
            for qi in (build_q2star(sp), build_qp2star(sp, m)):
                for st in qi.stencils:
                    for r in range(3):
                        target = moments[st.i, r]
                        err = abs(_stencil_moment(sp, st, r) - target) / abs(target)
                        worst = max(worst, err)
            for i in range(sp.dimension):
                a = sp.central_moments[i]
                for k in range(m + 1):
                    got = sum(
                        a[l] * math.comb(k, l) * theta[i] ** (k - l)
                        for l in range(k + 1)
                    )
                    worst = max(worst, abs(got - moments[i, k]) / abs(moments[i, k]))
    _check("AC1 polynomial exactness", worst <= 1e-9, f"worst rel err {worst:.2e}")


def test_ac02_narrow_stencil_norm_bound():
    violations = 0
    spaces_checked = 0
    worst_ratio = 0.0
    for m in range(2, 7):
        bound = float((m + 4) // 2)
        for sp in partition_battery(m, random_count=200):
            qi = build_q2star(sp)
            nu = max(
                float(np.abs(st.weights).sum())
                for st in qi.stencils
                if qi.interior_lo <= st.i <= qi.interior_hi
            )
            worst_ratio = max(worst_ratio, nu / bound)
            if nu > bound:
                violations += 1
            spaces_checked += 1
    _check(
        "AC2 interior norm bound floor((m+4)/2)",
        violations == 0 and spaces_checked >= 5 * 204,
        f"{spaces_checked} partitions, worst nu/bound {worst_ratio:.3f}",
    )


def test_ac03_wide_stencil_norm_bound():
    violations = 0
    cells = 0
    worst_ratio = 0.0
    for m in range(2, 7):
        bound = (m + 1) / (m - 1) + 1e-12
        battery = list(partition_battery(m, random_count=200))
        for p in (m, m + 1, m + 2):
            for sp in battery:
                qi = build_qp2star(sp, p)
                nu = max(
                    float(np.abs(st.weights).sum())
                    for st in qi.stencils
                    if qi.interior_lo <= st.i <= qi.interior_hi
                )
                worst_ratio = max(worst_ratio, nu / bound)
                if nu > bound:
                    violations += 1
                cells += 1
    _check(
        "AC3 wide-stencil norm bound (m+1)/(m-1)",
        violations == 0 and cells >= 5 * 3 * 204,
        f"{cells} cells, worst nu/bound {worst_ratio:.3f}",
    )


def test_ac04_uniform_certification():
    sp = space_from("uniform", m=2, n=50)
    dim = sp.dimension
    wide = build_qp2star(sp, 2)
    worst_gap = 0.0
    certified = True
    for i in range(2, dim - 2):
        lp = solve_l1(assemble_constraints(sp, i, 2, 2)).value
        worst_gap = max(worst_gap, abs(lp - float(np.abs(wide.stencils[i].weights).sum())))
        # the package's verdict, and the mpmath dual vector's bound
        _, largest = three_point_certificate_mp(sp.greville, i, 2)
        certified = certified and watson_certificate(sp, i, 2).passes and largest <= 1.0 + 1e-12
    near = build_nearbest_qi(sp, 2)
    value_ok = abs(near.nu1_star - 9.0 / 8.0) <= 1e-9
    _check(
        "AC4 uniform near-best certification",
        worst_gap <= 1e-8 and certified and value_ok,
        f"worst LP gap {worst_gap:.2e}, nu1*={near.nu1_star!r}",
    )


def test_ac05_lp_matches_enumeration():
    rng = np.random.default_rng(505)
    worst = 0.0
    for trial in range(50):
        m = 2 + trial % 2
        n = int(rng.integers(7, 14))
        sp = space_from("random", m=m, n=n, seed=int(rng.integers(2**31 - 1)))
        dim = sp.dimension
        for i in (2, dim // 2, dim - 3):
            system = assemble_constraints(sp, i, 2, 2)
            lp = solve_l1(system).value
            brute = l1_min_enumerate(system.matrix, system.rhs)
            worst = max(worst, abs(lp - brute))
    _check("AC5 near-best LP vs enumeration oracle", worst <= 1e-8,
           f"worst |lp - brute| {worst:.2e}")


def test_ac06_convergence_orders():
    template = PartitionSpec(family="uniform", a=0.0, b=1.0, n=16)
    sizes = (16, 32, 64, 128)
    narrow = convergence_study(
        operator_recipe("q2star"), BUILTIN_FUNCTIONS["sin"], sizes, template, 2
    )
    derivative = convergence_study(
        operator_recipe("dqi"), BUILTIN_FUNCTIONS["exp"], sizes, template, 3
    )
    ok = abs(narrow.fitted_order - 3.0) <= 0.3 and abs(derivative.fitted_order - 4.0) <= 0.3
    _check(
        "AC6 convergence orders 3.0 / 4.0",
        ok,
        f"fitted {narrow.fitted_order:.3f} and {derivative.fitted_order:.3f}",
    )


def test_ac07_quadrature_exactness():
    a, b = 0.0, 1.5
    spaces = [
        space_from("uniform", m=2, n=20, a=a, b=b),
        space_from("random", m=2, n=17, seed=71, a=a, b=b),
        space_from("random", m=2, n=23, seed=72, a=a, b=b),
        space_from("random", m=2, n=11, seed=73, a=a, b=b),
        space_from("geometric", m=2, n=18, ratio=2.0, a=a, b=b),
    ]
    worst_p2 = worst_ident = 0.0
    for sp in spaces:
        rule = quadrature_from_qi(build_q2star(sp))
        for r in range(3):
            exact = (b ** (r + 1) - a ** (r + 1)) / (r + 1)
            got = rule.integrate_fn(lambda x, r=r: x**r)
            worst_p2 = max(worst_p2, abs(got - exact) / abs(exact))
        worst_ident = max(worst_ident, abs(rule.weights.sum() - (b - a)))
        first = float(rule.weights @ rule.nodes)
        worst_ident = max(worst_ident, abs(first - (b * b - a * a) / 2.0))
    uniform_rule = quadrature_from_qi(build_q2star(spaces[0]))
    cubic_err = abs(uniform_rule.integrate_fn(lambda x: x**3) - b**4 / 4.0) / (b**4 / 4.0)
    ok = worst_p2 <= 1e-12 and cubic_err <= 1e-12 and worst_ident <= 1e-10
    _check(
        "AC7 quadrature exactness and identities",
        ok,
        f"P2 rel {worst_p2:.2e}, uniform cubic rel {cubic_err:.2e}, "
        f"identities {worst_ident:.2e}",
    )


def test_ac08_differentiation():
    worst_exact = 0.0
    for sp in (
        space_from("random", m=2, n=14, seed=9),
        space_from("geometric", m=3, n=12, ratio=1.7),
    ):
        D = differentiation_matrix(build_q2star(sp))
        theta = sp.greville
        worst_exact = max(
            worst_exact,
            float(np.abs(D.apply(np.ones(sp.dimension))).max()),
            float(np.abs(D.apply(theta) - 1.0).max()),
            float(np.abs(D.apply(theta**2) - 2.0 * theta).max()),
        )
    report = differentiation_study(
        operator_recipe("q2star"),
        BUILTIN_FUNCTIONS["sin"],
        (16, 32, 64, 128),
        PartitionSpec(family="uniform", a=0.0, b=1.0, n=16),
        2,
    )
    ok = worst_exact <= 1e-9 and abs(report.fitted_order - 2.0) <= 0.3
    _check(
        "AC8 differentiation exactness and order",
        ok,
        f"P2 err {worst_exact:.2e}, fitted {report.fitted_order:.3f}",
    )


def test_ac09_basis_substrate():
    worst_unity = worst_marsden = worst_integral = 0.0
    for m in range(2, 7):
        for sp in partition_battery(m, random_count=200):
            kv = sp.knots
            moments = greville_loop(kv.t, m)[1]
            pts = np.unique(np.concatenate([
                np.linspace(kv.a, kv.b, 25),
                kv.t[m : m + kv.n + 1],
            ]))
            for x in pts:
                first, vals = eval_basis(sp, float(x))
                worst_unity = max(worst_unity, abs(float(vals.sum()) - 1.0))
                window = moments[first : first + m + 1]
                for l in range(m + 1):
                    got = float(window[:, l] @ vals)
                    scale = max(1.0, abs(x) ** l)
                    worst_marsden = max(worst_marsden, abs(got - x**l) / scale)
            total = quadrature_from_qi(build_q2star(sp)).weights.sum()
            worst_integral = max(worst_integral, abs(total - (kv.b - kv.a)))
    ok = worst_unity <= 1e-10 and worst_marsden <= 1e-10 and worst_integral <= 1e-10
    _check(
        "AC9 partition of unity / monomial reproduction / integrals",
        ok,
        f"unity {worst_unity:.2e}, marsden {worst_marsden:.2e}, "
        f"integral {worst_integral:.2e}",
    )


def test_ac10_cli_determinism(capsys, tmp_path):
    argvs = [
        ["norms", "--family", "random", "--seed", "11", "--m", "3", "--n", "30"],
        ["nearbest", "--m", "2", "--p", "2", "--n", "20", "--family", "random",
         "--seed", "5", "--audit"],
        ["convergence", "--m", "2", "--f", "sin", "--sizes", "8,16,32",
         "--fmt", "json"],
        ["audit", "--m", "2", "--p", "2", "--family", "geometric",
         "--ratio", "2.0", "--n", "12"],
        ["quad", "--m", "2", "--n", "9", "--family", "random", "--seed", "3"],
    ]
    ok = True
    for argv in argvs:
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        ok = ok and first == second and bool(first)
    f1, f2 = tmp_path / "one.csv", tmp_path / "two.csv"
    argv = ["nearbest", "--m", "2", "--p", "2", "--n", "15", "--family",
            "random", "--seed", "13", "--audit"]
    assert main(argv + ["--out", str(f1)]) == 0
    assert main(argv + ["--out", str(f2)]) == 0
    ok = ok and f1.read_bytes() == f2.read_bytes() and f1.read_bytes()
    _check("AC10 byte-identical repeated runs", bool(ok))
