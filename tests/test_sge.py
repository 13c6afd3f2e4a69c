import numpy as np
import pytest

from avekit import analysis as an
from avekit import problems as pr
from avekit import oracle
from avekit.errors import PivotBreakdown
from avekit import linalg
from avekit.linalg import elimination_step, infinity_norm, pivot_threshold
from avekit.newton import newton_solve
from avekit.report import Status
from avekit.sge import _pin, _round_picks, sge_solve

from conftest import rng


GUARANTEED = ("norm_lt_half", "irreducible_half", "sdd_two_thirds", "tridiag_abs_sym")


class Elimination:
    """SGE's elimination state on (a, b), driven one pick at a time: the
    factors ``lu`` of P(I - AS)P^T (trailing block -A'), the
    forward-substituted y, and the permutation.  Used under the
    ``one_column_panels`` fixture, so every step flushes its panel and the
    trailing block is the true Schur complement."""

    def __init__(self, a, b):
        self.lu, self.y = -np.asarray(a, dtype=float), np.array(b, dtype=float)
        self.perm = list(range(len(b)))
        self.pos = list(range(len(b)))
        self.p = 0
        self.threshold = pivot_threshold(a)

    def eliminate(self, k, s):
        _pin(self.lu, self.y, self.perm, self.pos, self.p, k, s, self.threshold)
        elimination_step(self.lu, self.p, self.y)
        self.p += 1

    def trailing(self):
        return -self.lu[self.p:, self.p:]


@pytest.fixture
def one_column_panels(monkeypatch):
    monkeypatch.setattr(linalg, "_PANEL", 1)


@pytest.mark.usefixtures("one_column_panels")
class TestElimStep:
    def test_worked_example(self):
        # Hand evaluation: pivot 1 - 1/4 = 3/4, multiplier -1/2 / (3/4) = -2/3.
        e = Elimination(np.array([[0.25, 0.0], [0.5, 0.25]]), np.array([1.0, 1.0]))
        e.eliminate(0, 1)
        assert e.trailing() == pytest.approx(np.array([[0.25]]))
        assert e.y[1] == pytest.approx(5.0 / 3.0)
        # The frozen row is row 0 of U and keeps its right-hand side.
        assert e.lu[0] == pytest.approx([0.75, 0.0])
        assert e.y[0] == 1.0
        assert e.lu[1, 0] == pytest.approx(-2.0 / 3.0)

    def test_zero_matrix_is_noop(self):
        b0 = np.array([3.0, -1.0])
        e = Elimination(np.zeros((2, 2)), b0)
        e.eliminate(1, -1)
        assert e.perm == [1, 0]
        assert np.array_equal(e.trailing(), np.zeros((1, 1)))
        assert e.y[1] == b0[0]

    def test_unit_diagonal_breaks_down(self):
        with pytest.raises(PivotBreakdown):
            Elimination(np.array([[1.0]]), np.array([2.0])).eliminate(0, 1)

    def test_factors_reproduce_pinned_system(self):
        problem, _ = pr.random_instance("norm_lt_half", 5, 11)
        e = Elimination(problem.a, problem.b)
        signs = np.zeros(5)
        for k in (3, 0, 4, 1, 2):
            signs[k] = 1 if e.y[e.perm.index(k)] >= 0 else -1
            e.eliminate(k, int(signs[k]))
        lower = np.tril(e.lu, -1) + np.eye(5)
        upper = np.triu(e.lu)
        system = np.eye(5) - problem.a * signs[None, :]
        permuted = system[np.ix_(e.perm, e.perm)]
        assert np.abs(lower @ upper - permuted).max() <= 1e-15


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

    # random_instance("tridiag_abs_sym", 3, 29) and (4, 989), each with A
    # rescaled to ||A||_inf = 0.9 and b from from_solution: |A| is
    # tridiagonal-symmetric with norm below 1 (cond4), the oracle finds one
    # solution, and SGE's first pick takes the sign of the largest |b_i|,
    # which is not the sign of z*_i.  The third has A itself symmetric
    # and cond4 alone, with b from z* = (-0.854, -0.008, -0.960).
    COND4_COUNTEREXAMPLES = [
        ([[-0.37018246343079214, 0.5298175365692079, 0.0],
          [0.5298175365692079, 0.04513797565485734, 0.1804619751687533],
          [0.0, -0.1804619751687533, 0.5968271297834646]],
         [-0.39075923456586875, -0.4087475986523982, 0.2502794140840359]),
        ([[-0.39085021220773036, 0.48321571973639077, 0.0, 0.0],
          [-0.48321571973639077, 0.07758639495319443, -0.339197885310415, 0.0],
          [0.0, -0.339197885310415, -0.19795460738919407, -0.12484704123652861],
          [0.0, 0.0, -0.12484704123652861, -0.1858734405897627]],
         [-0.6511015166254959, 0.6917258603765196, -0.6618262086070152, 0.33049235961627454]),
        ([[-0.352, -0.625, 0.0], [-0.625, -0.018, -0.034], [0.0, -0.034, -0.772]],
         [-0.548392, 0.558534, -0.21860800000000002]),
    ]

    def test_symmetric_cond4_counterexample_has_cond4_alone(self):
        a = np.array(self.COND4_COUNTEREXAMPLES[2][0])
        assert np.array_equal(a, a.T)
        profile = an.condition_profile(a)
        assert (profile.cond1, profile.cond2, profile.cond3, profile.cond4) == (
            False, False, False, True)

    @pytest.mark.parametrize("a, b", COND4_COUNTEREXAMPLES)
    def test_cond4_counterexamples_go_astray(self, a, b):
        # SGE answers wrongly (residuals 0.065, 0.163 and 2.3e-3); Newton
        # finds z*.
        problem = pr.AveProblem(np.array(a), np.array(b))
        z_ref = oracle.unique_solution(problem)
        report = sge_solve(problem)
        assert report.residual > 1e-3
        assert np.abs(report.z - z_ref).max() > 1e-3
        newton = newton_solve(problem)
        assert newton.status == Status.CONVERGED
        assert np.abs(newton.z - z_ref).max() <= 1e-8 * np.abs(z_ref).max()

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

    def test_tie_round_with_displaced_pick(self):
        # Round 1 ties indices 0 and 1; pinning 0 swaps it out of position
        # 2, moving the still-pending index 1 there.
        b = np.array([1.0, -1.0, 2.0, 0.5, 0.25])
        report = sge_solve(pr.AveProblem(0.25 * np.eye(5), b))
        trace = [(r.index, r.sign, r.round) for r in report.elimination_trace]
        assert trace == [(2, 1, 0), (0, 1, 1), (1, -1, 1), (3, 1, 2)]
        assert np.array_equal(report.signs, [1, -1, 1, 1, 1])
        assert np.array_equal(report.z, b / (1.0 - 0.25 * report.signs))

    def test_tie_round_beyond_one_panel(self, monkeypatch):
        # A coupled block on indices 0..49 keeps |y| above 1 there; the
        # decoupled indices 50..79 keep y = b, with distinct magnitudes
        # except a tie between 55 and 79, of which 15 are larger: the tie
        # round eliminates at positions 65 and 66, past the first panel.
        g = rng(65)
        n = 80
        a = 0.25 * np.eye(n)
        a[:50, :50] += g.uniform(-0.1, 0.1, (50, 50)) / 50
        b = np.empty(n)
        b[:50] = g.uniform(2.0, 3.0, 50) * g.choice([-1.0, 1.0], 50)
        mags = np.linspace(0.9, 0.01, 29)
        others = g.permutation([i for i in range(50, 79) if i != 55])
        b[others] = np.delete(mags, 15) * g.choice([-1.0, 1.0], 28)
        b[55], b[79] = -mags[15], mags[15]
        problem = pr.AveProblem(a, b)
        report = sge_solve(problem)
        trace = report.elimination_trace
        assert [(r.index, r.sign) for r in trace[65:67]] == [(55, -1), (79, 1)]
        assert trace[65].round == trace[66].round != trace[64].round
        system = np.eye(n) - a * report.signs[None, :]
        assert np.abs(system @ report.z - b).max() <= 1e-12
        monkeypatch.setattr(linalg, "_PANEL", 1)
        assert sge_solve(problem).elimination_trace == trace

    def test_unit_diagonal_reports_breakdown(self):
        report = sge_solve(pr.AveProblem(np.array([[1.0]]), np.array([2.0])))
        assert report.status == Status.PIVOT_BREAKDOWN
        assert report.z is None and report.residual is None
        assert report.iterations == 0

    @pytest.mark.parametrize(
        "cls, nu",
        [("norm_lt_half", None), ("tridiag_abs_sym", None),
         ("unconstrained", 0.9), ("unconstrained", 1.5), ("unconstrained", 4.0)],
    )
    def test_z_solves_its_pinned_system(self, cls, nu):
        # Seed 0 of the nu = 4 class (n = 2) has a negative final pivot
        # 1 - a'_jj s_j, where z_j's sign differs from the pinned s_j.
        for seed in range(60):
            n = 2 + seed % 7
            problem, _ = pr.random_instance(cls, n, seed, rhs="explicit", nu=nu)
            report = sge_solve(problem)
            if report.status != Status.CONVERGED:
                continue
            system = np.eye(n) - problem.a * report.signs[None, :]
            miss = np.abs(system @ report.z - problem.b).max()
            scale = 1.0 + infinity_norm(problem.a) * np.abs(report.z).max()
            assert miss <= 1e-12 * (scale + np.abs(problem.b).max())

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_panel_width_keeps_traces(self, monkeypatch, width):
        # Tier-1 sizes fit in one panel of the default width; narrow panels
        # flush between pivots and catch columns and rows up across panels.
        problems = [pr.random_instance(cls, 2 + i % 7, 6000 + 100 * c + i)[0]
                    for c, cls in enumerate(GUARANTEED) for i in range(50)]
        default = [sge_solve(problem) for problem in problems]
        monkeypatch.setattr(linalg, "_PANEL", width)
        for problem, ref in zip(problems, default):
            report = sge_solve(problem)
            assert report.status == ref.status
            assert report.elimination_trace == ref.elimination_trace
            assert np.array_equal(report.signs, ref.signs)

    @pytest.mark.parametrize("cls", GUARANTEED)
    def test_beyond_one_panel_reaches_known_z(self, cls):
        problem, z_true = pr.random_instance(cls, 150, 15)
        report = sge_solve(problem)
        assert report.status == Status.CONVERGED
        assert np.abs(report.z - z_true).max() <= 1e-8 * (1.0 + np.abs(z_true).max())

    def test_status_and_report_fields(self):
        problem, _ = pr.random_instance("tridiag_abs_sym", 4, 5)
        report = sge_solve(problem)
        assert report.status == Status.CONVERGED
        assert report.method == "sge"
        assert report.iterations == len(report.elimination_trace)


class TestRoundPicks:
    @staticmethod
    def scan(y, perm, p):
        """The picks by one Python comparison per remaining |y|."""
        mags = [abs(float(v)) for v in y[p:]]
        top = max(mags)
        if top == 0.0:
            return []
        chosen = sorted((perm[p + i], p + i) for i, m in enumerate(mags) if m == top)
        return [(k, 1 if y[q] >= 0.0 else -1) for k, q in chosen]

    @pytest.mark.parametrize("seed", range(40))
    def test_ties_match_the_scan(self, seed):
        # Few distinct magnitudes, both signs and signed zeros, so most
        # rounds tie; the picks come in ascending original index.
        g = rng(seed)
        n = int(g.integers(1, 30))
        y = g.integers(0, 4, size=n) * g.choice([-1.0, 1.0], size=n)
        perm = [int(k) for k in g.permutation(n)]
        for p in range(n):
            assert _round_picks(y, perm, p) == self.scan(y, perm, p)

    def test_all_zero_tail_picks_nothing(self):
        y = np.array([3.0, 0.0, -0.0])
        assert _round_picks(y, [2, 0, 1], 1) == []
        assert _round_picks(y, [2, 0, 1], 0) == [(2, 1)]


@pytest.mark.usefixtures("one_column_panels")
class TestConditionInvariance:
    def _replay_with_checks(self, problem, predicate):
        e = Elimination(problem.a, problem.b)
        while problem.n - e.p > 1:
            picks = _round_picks(e.y, e.perm, e.p)
            if not picks:
                break
            for k, s in picks:
                e.eliminate(k, s)
                if e.p < problem.n:
                    assert predicate(e.trailing())

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
