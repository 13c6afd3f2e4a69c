import numpy as np
import pytest

from avekit import analysis as an
from avekit import problems as pr
from avekit import oracle
from avekit.errors import PivotBreakdown
from avekit.linalg import infinity_norm, pivot_threshold
from avekit.report import Status
from avekit.sge import _eliminate_inplace, max_abs_indices, sge_solve

from conftest import rng


def eliminate(a, b, k, s):
    """Copy (a, b) and eliminate index k with sign s through the SGE kernel."""
    a, b = a.copy(), b.copy()
    _eliminate_inplace(a, b, k, s, pivot_threshold(a))
    return a, b


class TestElimStep:
    def test_worked_example(self):
        # Hand evaluation: factor 1/(1 - 1/4) = 4/3 drives both updates.
        a, b = eliminate(np.array([[0.25, 0.0], [0.5, 0.25]]), np.array([1.0, 1.0]), 0, 1)
        assert a == pytest.approx(np.array([[0.0, 0.0], [0.0, 0.25]]))
        assert b == pytest.approx([4.0 / 3.0, 5.0 / 3.0])

    def test_zero_matrix_is_noop(self):
        b0 = np.array([3.0, -1.0])
        a, b = eliminate(np.zeros((2, 2)), b0, 1, -1)
        assert np.array_equal(a, np.zeros((2, 2)))
        assert np.array_equal(b, b0)

    def test_unit_diagonal_breaks_down(self):
        with pytest.raises(PivotBreakdown):
            eliminate(np.array([[1.0]]), np.array([2.0]), 0, 1)

    def test_eliminated_columns_stay_zero(self):
        problem, _ = pr.random_instance("norm_lt_half", 5, 11)
        a, b = problem.a, problem.b
        for k in range(4):
            s = 1 if b[k] >= 0 else -1
            a, b = eliminate(a, b, k, s)
            for done in range(k + 1):
                assert np.array_equal(a[:, done], np.zeros(5))


class TestSgeSolve:
    def test_scaled_identity(self):
        problem = pr.AveProblem(0.25 * np.eye(2), np.array([1.0, -2.0]))
        report = sge_solve(problem)
        assert report.z == pytest.approx([4.0 / 3.0, -1.6], abs=1e-12)
        assert report.residual <= 1e-12
        assert report.guaranteed

    def test_zero_matrix(self):
        b = np.array([0.3, -0.7, 0.0])
        report = sge_solve(pr.AveProblem(np.zeros((3, 3)), b))
        assert np.array_equal(report.z, b)

    def test_zero_rhs_gives_zero(self):
        problem = pr.AveProblem(rng(3).uniform(-0.1, 0.1, (4, 4)), np.zeros(4))
        report = sge_solve(problem)
        assert np.array_equal(report.z, np.zeros(4))

    def test_trap_instance_goes_astray(self):
        problem, z_true = pr.sge_trap_instance(0.01)
        report = sge_solve(problem)
        assert report.signs[0] == -1  # first pick, disagreeing with z_true > 0
        mismatch = np.abs(report.z - z_true).max() > 1e-8 * (1 + np.abs(z_true).max())
        assert report.residual > 1e-6 or mismatch
        assert not report.guaranteed

    def test_inflated_identity_picks_wrong_orthant(self):
        problem = pr.AveProblem(pr.inflated_identity(0.01, 2), -np.ones(2))
        report = sge_solve(problem)
        assert np.array_equal(report.signs, [-1, -1])
        z_designated = np.full(2, 100.0)  # -b/eps
        assert np.abs(report.z - z_designated).max() > 1.0

    def test_circulant_solved(self):
        problem = pr.newton_cycle_instance()
        report = sge_solve(problem)
        assert report.z == pytest.approx(np.full(3, 8.0 / 3.0), rel=1e-13)
        assert report.residual <= 1e-12

    @pytest.mark.parametrize(
        "cls", ["norm_lt_half", "irreducible_half", "sdd_two_thirds", "tridiag_abs_sym"]
    )
    def test_matches_oracle_under_conditions(self, cls):
        for i in range(50):
            n = 2 + i % 7
            problem, z_true = pr.random_instance(cls, n, 9000 + i)
            report = sge_solve(problem)
            z_ref = oracle.unique_solution(problem)
            tol = 1e-8 * (1.0 + np.abs(z_ref).max())
            assert np.abs(report.z - z_ref).max() <= tol
            assert np.abs(report.z - z_true).max() <= tol

    @pytest.mark.parametrize("cls", ["norm_lt_half", "sdd_two_thirds"])
    def test_recorded_signs_match_solution(self, cls):
        for i in range(30):
            n = 2 + i % 6
            problem, z_true = pr.random_instance(cls, n, 500 + i)
            report = sge_solve(problem)
            assert np.array_equal(report.signs, an.signature_of(z_true))

    def test_trace_structure(self):
        problem, _ = pr.random_instance("norm_lt_half", 6, 77)
        report = sge_solve(problem)
        indices = [r.index for r in report.elimination_trace]
        assert len(set(indices)) == len(indices)
        rounds = [r.round for r in report.elimination_trace]
        assert rounds == sorted(rounds)
        assert len(indices) == problem.n - 1  # no ties for random b

    def test_unit_diagonal_reports_breakdown(self):
        report = sge_solve(pr.AveProblem(np.array([[1.0]]), np.array([2.0])))
        assert report.status == Status.PIVOT_BREAKDOWN
        assert report.z is None and report.residual is None
        assert report.iterations == 0

    def test_status_and_report_fields(self):
        problem, _ = pr.random_instance("tridiag_abs_sym", 4, 5)
        report = sge_solve(problem)
        assert report.status == Status.CONVERGED
        assert report.method == "sge"
        assert report.iterations == len(report.elimination_trace)


class TestConditionInvariance:
    def _replay_with_checks(self, problem, predicate):
        a, b = problem.a, problem.b
        active = list(range(problem.n))
        while len(active) > 1:
            if np.abs(b[active]).max() == 0.0:
                break
            chosen = max_abs_indices(b, active)
            picks = [(k, 1 if b[k] >= 0 else -1) for k in chosen]
            for k, s in picks:
                a, b = eliminate(a, b, k, s)
                active.remove(k)
                if active:
                    sub = a[np.ix_(active, active)]
                    assert predicate(sub)

    @pytest.mark.parametrize("seed", range(20))
    def test_class1_preserved(self, seed):
        problem, _ = pr.random_instance("norm_lt_half", 2 + seed % 6, 3000 + seed)
        self._replay_with_checks(problem, lambda sub: infinity_norm(sub) < 0.5)

    @pytest.mark.parametrize("seed", range(20))
    def test_class3_preserved(self, seed):
        problem, _ = pr.random_instance("sdd_two_thirds", 2 + seed % 6, 4000 + seed)
        self._replay_with_checks(
            problem,
            lambda sub: an.is_strictly_diag_dominant(sub)
            and infinity_norm(sub) <= 2.0 / 3.0,
        )
