"""Metamorphic relations of the solve paths.

If z solves z - A|z| = b, then for a permutation P, a diagonal sign
matrix D and a power of two 2^k:

- Pz solves (P A P^T, P b), since |Pz| = P|z|;
- Dz solves (D A, D b), since |Dz| = |z|;
- 2^k z solves (A, 2^k b), since |2^k z| = 2^k |z|.

SGE picks its pivots from the entries of b, which P and D only reorder or
flip, and every scaling by 2^k is exact, so those answers must match bit
for bit.  Newton and the oracle factor the transformed matrix with
LAPACK's own pivot order, so their answers must match to rounding.  The
two witnesses keep their failures under the same transformations.
"""

import numpy as np
import pytest

from avekit import problems as pr
from avekit.newton import newton_solve
from avekit.oracle import enumerate_solutions
from avekit.report import Status
from avekit.sge import sge_solve

GUARANTEED = ["norm_lt_half", "irreducible_half", "sdd_two_thirds", "tridiag_abs_sym"]


def instances(cls):
    """40 instances of cls, n = 2..8, each with a seeded permutation p and
    row signs d."""
    for i in range(40):
        problem, _z = pr.random_instance(cls, 2 + i % 7, 500 + i)
        rng = np.random.default_rng(i)
        yield problem, rng.permutation(problem.n), rng.choice([-1.0, 1.0], problem.n)


def permuted(problem, p):
    return pr.AveProblem(problem.a[np.ix_(p, p)], problem.b[p])


def signed(problem, d):
    return pr.AveProblem(d[:, None] * problem.a, d * problem.b)


def scaled(problem, k):
    return pr.AveProblem(problem.a, np.ldexp(problem.b, k))


def newton(problem, start=None):
    report = newton_solve(problem, start=start)
    return report.status, report.z


def oracle(problem):
    """The oracle's solution count, as its status, and its first solution."""
    solutions = enumerate_solutions(problem).solutions
    return len(solutions), solutions[0][1]


@pytest.mark.parametrize("cls", GUARANTEED)
def test_sge_follows_permutation_and_signs_bitwise(cls):
    for problem, p, d in instances(cls):
        z = sge_solve(problem).z
        assert np.array_equal(sge_solve(permuted(problem, p)).z, z[p])
        assert np.array_equal(sge_solve(signed(problem, d)).z, d * z)


@pytest.mark.parametrize("solve", [newton, oracle])
@pytest.mark.parametrize("cls", GUARANTEED)
def test_newton_and_oracle_follow_permutation_and_signs(cls, solve):
    for problem, p, d in instances(cls):
        status, z = solve(problem)
        for transformed, expected in ((permuted(problem, p), z[p]), (signed(problem, d), d * z)):
            got_status, got = solve(transformed)
            assert got_status == status
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(z).max()


@pytest.mark.parametrize("solve", [sge_solve, newton_solve])
@pytest.mark.parametrize("cls", GUARANTEED)
def test_power_of_two_scaling_is_bitwise(cls, solve):
    for problem, _p, _d in instances(cls):
        z = solve(problem).z
        for k in (-80, -40, 40, 200):
            assert np.array_equal(solve(scaled(problem, k)).z, np.ldexp(z, k))


def test_sge_trap_stays_wrong_under_permutation_and_signs():
    # SGE pins the wrong sign on the trap and leaves a residual of 4.95e-5.
    problem, z_true = pr.sge_trap_instance(0.01)
    z = sge_solve(problem).z
    cases = [(permuted(problem, [1, 0]), lambda v: v[[1, 0]])]
    for d in ([1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]):
        d = np.array(d)
        cases.append((signed(problem, d), lambda v, d=d: d * v))
    for transformed, transform in cases:
        got = sge_solve(transformed).z
        assert np.array_equal(got, transform(z))
        assert pr.residual(transformed, got) > 1e-5
        assert np.abs(newton(transformed)[1] - transform(z_true)).max() <= 1e-12


@pytest.mark.parametrize("p", [[1, 2, 0], [2, 1, 0]])
def test_newton_cycle_survives_permutation(p):
    problem = pr.newton_cycle_instance()
    start = np.array([1.0, -1.0, 1.0])
    assert newton(problem, start)[0] == Status.CYCLE
    assert newton(permuted(problem, p), start[p])[0] == Status.CYCLE
