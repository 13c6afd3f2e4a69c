import numpy as np
import pytest

from avekit import analysis as an
from avekit import oracle
from avekit import problems as pr
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
