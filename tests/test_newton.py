import numpy as np
import pytest

from avekit import analysis as an
from avekit import newton
from avekit import oracle
from avekit import problems as pr
from avekit.errors import SingularMatrix
from avekit.linalg import lu_factor, lu_solve
from avekit.newton import newton_solve
from avekit.report import Status

from conftest import rng


class TestResidual:
    def test_exact_solution(self):
        problem, z = pr.sge_trap_instance(0.01)
        assert pr.residual(problem, z) <= 1e-12 * (1 + np.abs(problem.b).max())

    def test_zero_guess(self):
        problem = pr.AveProblem(0.2 * np.eye(2), np.array([3.0, -4.0]))
        assert pr.residual(problem, np.zeros(2)) == 4.0


class TestNewtonSolve:
    def test_circulant_positive_start(self):
        problem = pr.newton_cycle_instance()
        report = newton_solve(problem, start=np.ones(3))
        assert report.status == Status.CONVERGED
        assert report.iterations <= 2
        assert report.z == pytest.approx(np.full(3, 8.0 / 3.0), rel=1e-13)

    def test_circulant_mixed_start_cycles(self):
        problem = pr.newton_cycle_instance()
        report = newton_solve(problem, start=np.array([1.0, -1.0, 1.0]))
        assert report.status == Status.CYCLE

    def test_circulant_all_mixed_starts_cycle(self):
        problem = pr.newton_cycle_instance()
        cycled = 0
        for s in an.signature_stack(3):
            report = newton_solve(problem, start=s)
            if abs(s.sum()) == 3:
                assert report.status == Status.CONVERGED
            else:
                assert report.status == Status.CYCLE
                cycled += 1
        assert cycled == 6

    def test_trap_converges_from_all_starts(self):
        problem, z_true = pr.sge_trap_instance(0.01)
        for s in an.signature_stack(2):
            report = newton_solve(problem, start=s)
            assert report.status == Status.CONVERGED
            assert report.z == pytest.approx(z_true, abs=1e-12)

    def test_zero_matrix_one_iteration(self):
        b = np.array([1.0, -2.0])
        report = newton_solve(pr.AveProblem(np.zeros((2, 2)), b), start=-np.ones(2))
        assert report.status == Status.CONVERGED
        assert report.iterations == 1
        assert np.array_equal(report.z, b)
        # The second solve repeats the first iterate bitwise: the stationary
        # exit, which records no synthetic confirming entry.
        trace = report.newton_trace
        assert [s.tolist() for s in trace.signatures] == [[-1, -1], [1, -1], [1, -1]]
        assert len(trace.iterates) == 2
        assert all(np.array_equal(z, b) for z in trace.iterates)
        assert trace.residuals == [0.0, 0.0]

    def test_default_start_is_rhs_signature(self):
        problem, _ = pr.random_instance("norm_lt_half", 4, 12)
        by_default = newton_solve(problem)
        by_b = newton_solve(problem, start=problem.b)
        assert np.array_equal(by_default.z, by_b.z)
        assert by_default.iterations == by_b.iterations

    def test_singular_system_detected(self):
        problem = pr.AveProblem(np.array([[1.0]]), np.array([1.0]))
        report = newton_solve(problem, start=np.array([1.0]))
        assert report.status == Status.SINGULAR
        assert report.z is None

    def test_max_iter_validation(self):
        problem, _ = pr.random_instance("norm_lt_half", 3, 1)
        with pytest.raises(ValueError):
            newton_solve(problem, max_iter=0)

    @pytest.mark.parametrize(
        "cls", ["norm_lt_half", "irreducible_half", "sdd_two_thirds", "tridiag_abs_sym"]
    )
    def test_iteration_bound_under_conditions(self, cls):
        g = rng(99)
        for i in range(50):
            n = 2 + i % 7
            problem, _ = pr.random_instance(cls, n, 7000 + i)
            start = g.choice([-1.0, 1.0], size=n)
            report = newton_solve(problem, start=start)
            assert report.status == Status.CONVERGED
            assert report.iterations <= n + 1
            z_ref = oracle.unique_solution(problem)
            assert np.abs(report.z - z_ref).max() <= 1e-8 * (1 + np.abs(z_ref).max())

    @pytest.mark.parametrize(
        "cls", ["norm_lt_half", "irreducible_half", "sdd_two_thirds", "tridiag_abs_sym"]
    )
    def test_beyond_one_panel_reaches_known_z(self, cls):
        # n = 150 spans more than one elimination panel of lu_factor.
        problem, z_true = pr.random_instance(cls, 150, 15)
        report = newton_solve(problem)
        assert report.status == Status.CONVERGED
        assert report.iterations <= problem.n + 1
        assert np.abs(report.z - z_true).max() <= 1e-8 * (1.0 + np.abs(z_true).max())

    def test_monotone_error_below_one_third(self):
        for i in range(20):
            n = 2 + i % 4
            problem, _ = pr.random_instance("norm_lt_third", n, 600 + i)
            start = rng(i).uniform(-5, 5, size=n)
            report = newton_solve(problem, start=start, max_iter=50)
            assert report.status == Status.CONVERGED
            z_star = oracle.unique_solution(problem)
            errs = [np.abs(it - z_star).max() for it in report.newton_trace.iterates]
            slack = 1e-12 * (1 + np.abs(z_star).max())
            assert all(b <= a + slack for a, b in zip(errs, errs[1:]))


class TestNewtonTrace:
    def test_deterministic(self):
        problem, _ = pr.random_instance("sdd_two_thirds", 5, 21)
        start = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        r1 = newton_solve(problem, start=start)
        r2 = newton_solve(problem, start=start)
        assert len(r1.newton_trace.iterates) == len(r2.newton_trace.iterates)
        for a, b in zip(r1.newton_trace.iterates, r2.newton_trace.iterates):
            assert np.array_equal(a, b)
        for a, b in zip(r1.newton_trace.signatures, r2.newton_trace.signatures):
            assert np.array_equal(a, b)

    def test_converged_trace_repeats_fixed_point(self):
        problem, _ = pr.random_instance("norm_lt_half", 4, 8)
        report = newton_solve(problem)
        assert report.status == Status.CONVERGED
        trace = report.newton_trace
        assert np.array_equal(trace.signatures[-1], trace.signatures[-2])
        z = trace.iterates[-1]
        assert np.abs(trace.iterates[-1] - trace.iterates[-2]).max() <= 1e-12 * (
            1 + np.abs(z).max()
        )

    def test_cycle_matches_non_adjacent_signature(self):
        report = newton_solve(
            pr.newton_cycle_instance(), start=np.array([1.0, -1.0, 1.0])
        )
        sigs = report.newton_trace.signatures
        assert not np.array_equal(sigs[-1], sigs[-2])
        assert any(np.array_equal(sigs[-1], s) for s in sigs[:-2])

    def test_iterates_solve_their_signature_system(self):
        problem, _ = pr.random_instance("tridiag_abs_sym", 5, 31)
        trace = newton_solve(problem, start=np.ones(5)).newton_trace
        n = problem.n
        for sig, z in zip(trace.signatures, trace.iterates):
            system = np.eye(n) - problem.a * sig[None, :].astype(float)
            assert np.abs(system @ z - problem.b).max() <= 1e-10 * (
                1 + np.abs(problem.b).max() + np.abs(z).max()
            )

    def test_fixed_point_signature_implies_solution(self):
        problem, _ = pr.random_instance("norm_lt_half", 5, 44)
        report = newton_solve(problem)
        s_final = report.newton_trace.signatures[-1]
        system = np.eye(5) - problem.a * s_final[None, :].astype(float)
        z = lu_solve(lu_factor(system), problem.b)
        assert np.array_equal(an.signature_of(z), s_final)
        assert pr.residual(problem, z) <= 1e-10 * (1 + np.abs(problem.b).max())


GUARANTEED = ("norm_lt_half", "irreducible_half", "sdd_two_thirds", "tridiag_abs_sym")


def newton_by_fresh_lu(problem, start=None):
    """newton_solve's walk with a fresh lu_factor of I - A S_k at every
    step: (status, iterations, signatures, z)."""
    n = problem.n
    s = an.signature_of(problem.b if start is None else start)
    signatures, iterates = [s], []
    for step in range(1, n + 2):
        try:
            z = lu_solve(lu_factor(np.eye(n) - problem.a * s[None, :]), problem.b)
        except SingularMatrix:
            return Status.SINGULAR, step - 1, signatures, iterates[-1] if iterates else None
        stationary = bool(iterates) and np.array_equal(z, iterates[-1])
        iterates.append(z)
        s_new = an.signature_of(z)
        signatures.append(s_new)
        if np.array_equal(s_new, s):
            return Status.CONVERGED, step - 1 if stationary else step, signatures, z
        if any(np.array_equal(s_new, t) for t in signatures[:-1]):
            return Status.CYCLE, step, signatures, z
        s = s_new
    return Status.MAX_ITERATIONS, n + 1, signatures, z


def assert_walks_alike(report, reference, bound):
    """Same status, iteration count and signature sequence as the
    reference walk, and z within ``bound`` * (1 + |z_ref|_inf)."""
    status, iterations, signatures, z = reference
    assert report.status == status
    assert report.iterations == iterations
    assert [t.tolist() for t in report.newton_trace.signatures] == [t.tolist() for t in signatures]
    if z is None:
        assert report.z is None
    else:
        assert np.abs(report.z - z).max() <= bound * (1.0 + np.abs(z).max())


@pytest.fixture
def factorizations(monkeypatch):
    """The orders of the matrices newton_solve passes to lu_factor."""
    orders = []

    def counted(a):
        orders.append(np.shape(a)[0])
        return lu_factor(a)

    monkeypatch.setattr(newton, "lu_factor", counted)
    return orders


def fresh_steps(report, n):
    """Steps of a run that refactor under the rule of newton's docstring,
    given its signatures and no failed capacitance matrix."""
    signatures = report.newton_trace.signatures
    steps = len(report.newton_trace.iterates)
    base, fresh = signatures[0], 1
    for s in signatures[1:steps]:
        if np.count_nonzero(s != base) * newton._UPDATE_SHARE > n:
            base, fresh = s, fresh + 1
    return fresh


class TestRankUpdate:
    """Steps that update the last fresh factorization walk like a fresh
    factorization at every step.  The guaranteed classes are well
    conditioned (||A||_inf <= 2/3 or |A| tridiagonal with norm < 1), so
    a z within 1e-13 relative of the reference is rounding."""

    @pytest.mark.parametrize("cls", GUARANTEED)
    @pytest.mark.parametrize("n", [150, 300])
    def test_walks_like_a_fresh_factorization_per_step(self, cls, n, factorizations):
        problem, _ = pr.random_instance(cls, n, 1)
        updated = 0
        for start in (None, rng(n).choice([-1.0, 1.0], size=n), -problem.b):
            factorizations.clear()
            report = newton_solve(problem, start=start)
            assert_walks_alike(report, newton_by_fresh_lu(problem, start), 1e-13)
            big = [m for m in factorizations if m == n]
            assert len(big) == fresh_steps(report, n)
            updated += len(factorizations) - len(big)
        assert updated >= 1

    @pytest.mark.parametrize("cls", GUARANTEED)
    def test_one_factorization_per_solve(self, cls, factorizations):
        problem, z_true = pr.random_instance(cls, 150, 15)
        report = newton_solve(problem)
        assert report.status == Status.CONVERGED
        assert factorizations.count(150) == 1
        assert np.abs(report.z - z_true).max() <= 1e-8 * (1.0 + np.abs(z_true).max())

    def test_flips_on_zero_columns_end_in_the_stationary_exit(self, factorizations):
        # Half the columns of A are zero and the start is wrong on exactly
        # those: step 1 already solves the problem, step 2 flips n / 2
        # signs, all on zero columns, and reproduces it bitwise.
        n = 40
        g = rng(5)
        a = g.uniform(-0.4, 0.4, (n, n)) / n
        a[:, ::2] = 0.0
        z_star = g.uniform(0.1, 1.0, n) * g.choice([-1.0, 1.0], size=n)
        problem = pr.from_solution(a, z_star)
        start = an.signature_of(z_star).astype(float)
        start[::2] *= -1.0
        report = newton_solve(problem, start=start)
        assert_walks_alike(report, newton_by_fresh_lu(problem, start), 0.0)
        trace = report.newton_trace
        assert report.status == Status.CONVERGED and report.iterations == 1
        assert len(trace.iterates) == 2 and np.array_equal(trace.iterates[0], trace.iterates[1])
        assert np.count_nonzero(trace.signatures[1] != trace.signatures[0]) == n // 2
        assert factorizations == [n]

    @staticmethod
    def embedded(block, b_block, n=16):
        """The 2 x 2 problem (block, b_block) beside 0.1 I with b = 1 there,
        at an n where a step flipping one sign updates."""
        a = np.zeros((n, n))
        a[:2, :2] = block
        a[2:, 2:] = 0.1 * np.eye(n - 2)
        b = np.ones(n)
        b[:2] = b_block
        return pr.AveProblem(a, b)

    def test_failed_capacitance_refactors(self, factorizations):
        # Step 2 flips s_0: its system has pivots 0.01 and about 1e-13,
        # above the threshold 2e-14, but the capacitance matrix, det over
        # the base's det, is about 5e-16 and fails its own.  The fresh
        # factorization decides the step, which converges.
        problem = self.embedded(np.array([[0.99, 1.0 - 1e-13], [-0.01, 0.0]]), [-2.5, -3.0])
        start = np.ones(16)
        start[:2] = -1.0
        report = newton_solve(problem, start=start)
        assert_walks_alike(report, newton_by_fresh_lu(problem, start), 0.0)
        assert report.status == Status.CONVERGED and report.iterations == 2
        assert factorizations == [16, 1, 16]

    def test_singular_capacitance_leaves_singular_to_the_fresh_factorization(self, factorizations):
        # Step 2 flips s_0 of a = 1, whose system 1 - 1 is singular: the
        # capacitance matrix is exactly 0 and the fresh factorization
        # reports the singularity, after one good step.
        problem = self.embedded(np.array([[1.0, 0.0], [0.0, 0.1]]), [1.0, 1.0])
        start = np.ones(16)
        start[0] = -1.0
        report = newton_solve(problem, start=start)
        assert_walks_alike(report, newton_by_fresh_lu(problem, start), 0.0)
        assert report.status == Status.SINGULAR and report.iterations == 1
        assert factorizations == [16, 1, 16]

    @pytest.mark.parametrize("eps", [1e-8, 1e-10])
    def test_refinement_step_recovers_an_ill_conditioned_base(self, eps, factorizations):
        # The base I - A S_0 = [[1, 1], [1, 1 + eps]] is nearly singular:
        # y_b is about (1/eps)(1, -1), so step 2 flips s_1, and its own
        # system [[1, -1], [1, 1 - eps]] is well conditioned.  The update
        # y_b - Y C^-1 y_b[J] cancels terms of size 1/eps and is off by
        # about 2e-16 / eps relative; the refinement step restores z.
        problem = self.embedded(np.array([[0.0, -1.0], [-1.0, -eps]]), [1.0, 0.0])
        report = newton_solve(problem, start=np.ones(16))
        assert_walks_alike(report, newton_by_fresh_lu(problem, np.ones(16)), 1e-12)
        assert report.status == Status.CONVERGED and report.iterations == 2
        assert factorizations == [16, 1]
