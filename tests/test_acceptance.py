"""Acceptance suite: solver-correctness and oracle-equivalence checks.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and
asserts its criterion at the stated tolerance.  All randomness is
seeded; every suite stays within desk-scale runtime.
"""

import numpy as np
import pytest

from avekit import analysis as an
from avekit import linalg as la
from avekit import problems as pr
from avekit.newton import newton_solve
from avekit.oracle import enumerate_solutions, unique_solution
from avekit.report import Status
from avekit.sge import sge_solve

from conftest import random_matrix, rng

CLASSES = ("norm_lt_half", "irreducible_half", "sdd_two_thirds", "tridiag_abs_sym")
PER_CLASS = 500
MATCH_RTOL = 1e-8


def _report(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def _matches(z, z_ref):
    return np.abs(z - z_ref).max() <= MATCH_RTOL * (1.0 + np.abs(z_ref).max())


@pytest.fixture(scope="module")
def class_suites():
    """500 seeded instances per condition class, n in 2..8, b from random z,
    with the enumeration oracle's unique solution attached."""
    suites = {}
    for c_idx, cls in enumerate(CLASSES):
        instances = []
        for i in range(PER_CLASS):
            n = 2 + i % 7
            problem, z_true = pr.random_instance(cls, n, 100_000 * c_idx + i)
            z_ref = unique_solution(problem)
            instances.append((problem, z_true, z_ref))
        suites[cls] = instances
    return suites


def test_criterion_1_sge_matches_oracle(class_suites):
    failures = 0
    for cls in CLASSES:
        for problem, _z_true, z_ref in class_suites[cls]:
            if not _matches(sge_solve(problem).z, z_ref):
                failures += 1
    _report(
        1,
        f"direct elimination matches the oracle on {PER_CLASS} instances "
        f"per condition class (tolerance {MATCH_RTOL}*(1+|z|))",
        failures == 0,
        f"{failures} mismatches",
    )


def test_criterion_2_newton_iteration_bound(class_suites):
    g = rng(2024)
    failures = 0
    for cls in CLASSES:
        for problem, _z_true, z_ref in class_suites[cls]:
            start = g.choice([-1.0, 1.0], size=problem.n)
            report = newton_solve(problem, start=start)
            ok = (
                report.status == Status.CONVERGED
                and report.iterations <= problem.n + 1
                and _matches(report.z, z_ref)
            )
            failures += not ok
    _report(
        2,
        "full-step Newton converges within n+1 iterations to the oracle "
        "solution from random starting signatures",
        failures == 0,
        f"{failures} failures",
    )


def test_criterion_3_norm_below_third_contracts():
    failures = 0
    for i in range(200):
        n = 2 + i % 4
        problem, _ = pr.random_instance("norm_lt_third", n, 50_000 + i)
        norm = la.infinity_norm(problem.a)
        assert 0.2 <= norm < 1.0 / 3.0
        z_star = unique_solution(problem)
        slack = 1e-12 * (1.0 + np.abs(z_star).max())
        for start in an.signature_stack(n):
            report = newton_solve(problem, start=start, max_iter=2**n + 2)
            if report.status != Status.CONVERGED:
                failures += 1
                continue
            errs = [np.abs(it - z_star).max() for it in report.newton_trace.iterates]
            if not all(b <= a + slack for a, b in zip(errs, errs[1:])):
                failures += 1
    _report(
        3,
        "norm below 1/3: every starting signature converges with "
        "non-increasing error |z_k - z*|",
        failures == 0,
        f"{failures} failures over 200 instances x all 2^n starts",
    )


def test_criterion_4a_trap_instance():
    problem, _ = pr.sge_trap_instance(0.01)
    z_ref = unique_solution(problem)
    oracle_ok = np.abs(z_ref - np.array([0.005, 1.0])).max() <= 1e-12
    report = sge_solve(problem)
    first_pick = report.elimination_trace[0]
    sge_misled = first_pick.index == 0 and first_pick.sign == -1
    newton_ok = True
    for start in an.signature_stack(2):
        r = newton_solve(problem, start=start)
        newton_ok &= r.status == Status.CONVERGED and _matches(r.z, z_ref)
    _report(
        4,
        "(a) trap instance: elimination picks -1 on the dominant entry "
        "while the solution is (0.005, 1); Newton converges from all 4 starts",
        oracle_ok and sge_misled and newton_ok,
    )


def test_criterion_4b_circulant_instance():
    problem = pr.newton_cycle_instance()
    z_ref = unique_solution(problem)
    expected = np.full(3, 8.0 / 3.0)
    cycles, converges = 0, 0
    exact = True
    for start in an.signature_stack(3):
        report = newton_solve(problem, start=start)
        if abs(start.sum()) == 3:
            converges += report.status == Status.CONVERGED
            exact &= np.abs(report.z - expected).max() <= 1e-12
        else:
            cycles += report.status == Status.CYCLE
    sge_ok = _matches(sge_solve(problem).z, z_ref)
    _report(
        4,
        "(b) circulant 5/8: Newton cycles from all 6 mixed starts, converges "
        "from uniform starts to (8/3, 8/3, 8/3) within 1e-12; elimination "
        "matches the oracle",
        cycles == 6 and converges == 2 and exact and sge_ok,
        f"cycles={cycles}, uniform-converged={converges}",
    )


def test_criterion_5_inflated_identity_sharpness():
    problem = pr.AveProblem(pr.inflated_identity(0.01, 2), np.array([-1.0, -1.0]))
    report = sge_solve(problem)
    designated = np.full(2, 100.0)  # z = -b/eps in the positive orthant
    picked_minus = bool((report.signs == -1).all())
    mismatch = not _matches(report.z, designated)
    _report(
        5,
        "(1+eps)I with b = (-1,-1): elimination picks sign -1 and misses "
        "the designated solution (100, 100)",
        picked_minus and mismatch,
    )


def test_criterion_6_radius_norm_bound_and_invariance():
    g = rng(66)
    bound_failures = 0
    invariance_failures = 0
    for i in range(200):
        n = 2 + i % 5
        a = random_matrix(60_000 + i, n)
        r = an.rho_sr_enum(a)
        if r > min(la.infinity_norm(a), la.one_norm(a)) + 1e-9:
            bound_failures += 1
        for _ in range(20):
            s1 = np.diag(g.choice([-1.0, 1.0], size=n))
            s2 = np.diag(g.choice([-1.0, 1.0], size=n))
            if abs(an.rho_sr_enum(s1 @ a @ s2) - r) > 1e-9:
                invariance_failures += 1
    _report(
        6,
        "sign-real radius bounded by inf- and one-norms and invariant "
        "under signature scalings (200 matrices x 20 signature pairs)",
        bound_failures == 0 and invariance_failures == 0,
        f"bound={bound_failures}, invariance={invariance_failures}",
    )


def test_criterion_7_uniqueness_equivalences():
    # 100 matrices per side of the threshold; right-hand sides are half
    # uniform, half planted via b = (S - A)u with u > 0, which guarantees
    # the multiply-covered cones are probed when some orthant carries the
    # minority determinant sign.
    g = rng(77)
    failures = 0
    for i in range(100):
        n = 2 + i % 4
        base = random_matrix(70_000 + i, n)
        r = an.rho_sr_enum(base)

        def sides(a):
            for k in range(50):
                if k % 2 == 0:
                    yield g.uniform(-1.0, 1.0, size=n)
                else:
                    s = g.choice([-1.0, 1.0], size=n)
                    yield (np.diag(s) - a) @ g.uniform(0.1, 1.0, size=n)

        below = base * (0.85 / r)
        ok_below = an.det_positive_all_signatures(below) and all(
            len(enumerate_solutions(pr.AveProblem(below, b)).solutions) == 1
            for b in sides(below)
        )
        above = base * (1.25 / r)
        ok_above = not an.det_positive_all_signatures(above) and any(
            len(enumerate_solutions(pr.AveProblem(above, b)).solutions) != 1
            for b in sides(above)
        )
        failures += not (ok_below and ok_above)
    _report(
        7,
        "radius below 1 <=> all determinants positive <=> unique solutions "
        "(100 matrices per side, 50 right-hand sides each)",
        failures == 0,
        f"{failures} failures",
    )


def test_criterion_8_inverse_diagonal_dominance():
    failures = 0
    for i in range(300):
        n = 2 + i % 7
        a = pr.gen_class("norm_lt_half", n, 80_000 + i)
        failures += not an.inverse_is_sdd_positive_diag(a)
    for i in range(300):
        n = 2 + i % 7
        a = pr.gen_class("irreducible_half", n, 81_000 + i)
        failures += not an.inverse_is_sdd_positive_diag(a)
    _report(
        8,
        "(I - A)^{-1} strictly diagonally dominant with positive diagonal "
        "(300 small-norm + 300 irreducible-at-1/2 instances)",
        failures == 0,
        f"{failures} failures",
    )


def test_criterion_9_neq_empty_under_conditions(class_suites):
    failures = 0
    for cls in CLASSES:
        for problem, z_true, _z_ref in class_suites[cls]:
            if an.neq_set(problem.b, z_true) != []:
                failures += 1
    _report(
        9,
        "maximal-|b| signs agree with the solution under every condition "
        f"class ({PER_CLASS} instances each)",
        failures == 0,
        f"{failures} nonempty sets",
    )


def test_criterion_10_cross_estimator_agreement():
    tol = 1e-8
    worst = 0.0
    for i in range(200):
        n = 2 + i % 5
        a = random_matrix(90_000 + i, n)
        gap = abs(an.rho_sr_enum(a, tol=1e-10) - an.rho_sr_bisect(a, tol=tol))
        worst = max(worst, gap)
    _report(
        10,
        "enumeration and bisection estimates of the sign-real radius agree "
        "within 2e-8 on 200 random matrices",
        worst <= 2 * tol,
        f"worst gap {worst:.3e}",
    )


def test_criterion_11_converged_answers_are_solutions():
    # Unconstrained instances on both sides of ||A||_inf = 1: at nu = 0.9
    # the oracle runs its certified path, at 1.5 and 2.0 its det sweep.
    # Several solutions may exist; a converged answer must be one of them.
    wrong = {"sge": 0, "newton": 0}
    unverified = {"sge": 0, "newton": 0}
    certified = 0
    for nu in (0.9, 1.5, 2.0):
        for seed in range(300):
            problem, _z = pr.random_instance("unconstrained", 2 + seed % 7, seed, nu=nu)
            certified += an._price_certified(problem.a)
            solutions = [z for _sig, z in enumerate_solutions(problem).solutions]
            for name, report in (("sge", sge_solve(problem)), ("newton", newton_solve(problem))):
                if report.status == Status.UNVERIFIED:
                    unverified[name] += 1
                elif report.status == Status.CONVERGED:
                    wrong[name] += not any(
                        np.abs(report.z - z).max() <= MATCH_RTOL * np.abs(z).max()
                        for z in solutions)
    _report(
        11,
        "no converged SGE or Newton answer lies farther than 1e-8 relative from "
        "every oracle solution (900 unconstrained instances, nu = 0.9, 1.5, 2.0)",
        wrong == {"sge": 0, "newton": 0} and certified == 300,
        f"wrong {wrong}, unverified {unverified}, oracle certified {certified}",
    )
