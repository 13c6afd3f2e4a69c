import numpy as np
import pytest

from avekit import analysis as an
from avekit import problems as pr
from avekit.errors import DimensionTooLarge, NotUnique
from avekit.oracle import enumerate_solutions, unique_solution

from conftest import random_matrix, rng


def per_signature_reference(problem):
    """The oracle's orthant filter as one Python step per signature, with
    the same LAPACK stack and fallback and the same tolerances, each
    relative to |z|_inf; the vectorised filter must agree with it bit for
    bit."""
    n = problem.n
    signs = an.signature_stack(n, fix_first=False)
    mats, dets, thresholds = an.signature_systems(problem.a)
    singular = np.abs(dets) <= thresholds

    candidates = np.full((signs.shape[0], n), np.nan)
    solvable = np.nonzero(~singular)[0]
    if solvable.size:
        try:
            candidates[solvable] = np.linalg.solve(mats[solvable], problem.b)
        except np.linalg.LinAlgError:
            for i in solvable:
                try:
                    candidates[i] = np.linalg.solve(mats[i], problem.b)
                except np.linalg.LinAlgError:
                    singular[i] = True

    solutions = []
    a_norm = float(np.abs(problem.a).sum(axis=1).max())
    b_norm = float(np.abs(problem.b).max(initial=0.0))
    for i in range(signs.shape[0]):
        if singular[i]:
            continue
        z = candidates[i]
        z_max = float(np.abs(z).max())
        if (signs[i] * z < -1e-10 * z_max).any():
            continue
        if pr.residual(problem, z) > 1e-10 * (a_norm * z_max + b_norm):
            continue
        dedup_tol = 1e-9 * z_max
        if any(np.abs(z - kept).max() <= dedup_tol for _, kept in solutions):
            continue
        solutions.append((signs[i].astype(np.int64), z))
    return solutions, [signs[i].astype(np.int64) for i in np.nonzero(singular)[0]]


def assert_matches_reference(problem):
    result = enumerate_solutions(problem)
    solutions, singular = per_signature_reference(problem)
    assert len(result.solutions) == len(solutions)
    for (sig, z), (ref_sig, ref_z) in zip(result.solutions, solutions):
        assert sig.dtype == ref_sig.dtype and np.array_equal(sig, ref_sig)
        assert z.tobytes() == ref_z.tobytes()
    assert len(result.singular_signatures) == len(singular)
    for sig, ref_sig in zip(result.singular_signatures, singular):
        assert sig.dtype == ref_sig.dtype and np.array_equal(sig, ref_sig)
    return result


class TestMatchesPerSignatureReference:
    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("seed", range(4))
    def test_random_problems(self, n, seed):
        g = rng(100 * n + seed)
        a = g.uniform(-1.0, 1.0, size=(n, n)) * (0.4, 1.0, 1.6, 3.0)[seed]
        if seed % 2:
            # Zeroed columns make whole families of signatures singular.
            a[:, g.choice(n, size=max(1, n // 3), replace=False)] = 0.0
        s = g.choice([-1.0, 1.0], size=n)
        b = (np.diag(s) - a) @ g.uniform(0.1, 1.0, size=n) if seed % 3 else g.uniform(-1, 1, n)
        assert_matches_reference(pr.AveProblem(a, b))

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_identity_has_singular_signatures(self, n):
        # I - IS is singular for every S with some s_i = +1.
        result = assert_matches_reference(pr.AveProblem(np.eye(n), -np.ones(n)))
        assert len(result.singular_signatures) == 2 ** n - 1
        assert len(result.solutions) == 1

    def test_inflated_identity_four_solutions(self):
        problem = pr.AveProblem(1.01 * np.eye(2), np.array([-1.0, -1.0]))
        assert len(assert_matches_reference(problem).solutions) == 4

    def test_boundary_dedup(self):
        problem = pr.AveProblem(np.zeros((2, 2)), np.array([0.0, 1.0]))
        assert len(assert_matches_reference(problem).solutions) == 1


class TestEnumerateSolutions:
    def test_zero_matrix(self):
        b = np.array([3.0, -4.0])
        result = enumerate_solutions(pr.AveProblem(np.zeros((2, 2)), b))
        assert len(result.solutions) == 1
        assert np.array_equal(result.solutions[0][1], b)

    def test_circulant_unique(self):
        result = enumerate_solutions(pr.newton_cycle_instance())
        assert len(result.solutions) == 1
        assert result.solutions[0][1] == pytest.approx(np.full(3, 8.0 / 3.0), rel=1e-13)

    def test_inflated_scalar_no_solutions(self):
        problem = pr.AveProblem(pr.inflated_identity(0.5, 1), np.array([1.0]))
        result = enumerate_solutions(problem)
        assert result.solutions == []

    def test_inflated_pair_multiple_solutions(self):
        problem = pr.AveProblem(pr.inflated_identity(0.01, 2), np.array([-1.0, -1.0]))
        result = enumerate_solutions(problem)
        assert len(result.solutions) == 4
        found = [z for _, z in result.solutions]
        assert any(np.abs(z - 100.0).max() < 1e-6 for z in found)

    def test_boundary_solution_deduplicated(self):
        # z = (0, 1) sits on an orthant boundary and is found under two
        # signatures; only one representative may remain.
        problem = pr.AveProblem(np.zeros((2, 2)), np.array([0.0, 1.0]))
        result = enumerate_solutions(problem)
        assert len(result.solutions) == 1
        sig, z = result.solutions[0]
        assert np.array_equal(sig, [1, 1])

    def test_singular_signature_recorded(self):
        # I - AS is singular for S = diag(1): A = I (n=1).
        problem = pr.AveProblem(np.array([[1.0]]), np.array([-1.0]))
        result = enumerate_solutions(problem)
        assert any(np.array_equal(s, [1]) for s in result.singular_signatures)
        assert len(result.solutions) == 1  # z = -1/2 from the negative orthant

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            enumerate_solutions(pr.AveProblem(np.zeros((13, 13)), np.zeros(13)))

    @pytest.mark.parametrize("seed", range(20))
    def test_accepted_solutions_verify(self, seed):
        n = 2 + seed % 5
        a = random_matrix(seed, n, norm=1.4)
        b = rng(seed + 1).uniform(-1, 1, size=n)
        problem = pr.AveProblem(a, b)
        result = enumerate_solutions(problem)
        for sig, z in result.solutions:
            assert pr.residual(problem, z) <= 1e-10 * (1 + np.abs(b).max())
            assert (sig * z >= -1e-10 * (1 + np.abs(z).max())).all()

    @pytest.mark.parametrize("seed", range(20))
    def test_count_invariant_under_relabeling(self, seed):
        n = 2 + seed % 4
        a = random_matrix(seed + 10, n, norm=1.3)
        b = rng(seed + 2).uniform(-1, 1, size=n)
        perm = rng(seed + 3).permutation(n)
        p = np.eye(n)[perm]
        direct = enumerate_solutions(pr.AveProblem(a, b))
        relabeled = enumerate_solutions(pr.AveProblem(p @ a @ p.T, p @ b))
        assert len(direct.solutions) == len(relabeled.solutions)


class TestOverflowingDeterminants:
    """At ||A||_inf near 1e150 the determinants of I - AS pass the float
    range.  They come out inf, which counts as nonsingular, with no
    RuntimeWarning (warnings are errors under pytest)."""

    B = np.random.default_rng(3).uniform(-1.0, 1.0, (6, 6))
    V = np.random.default_rng(4).uniform(0.5, 1.0, 6)

    def test_every_orthant_holds_a_solution(self):
        # b = -B v with v > 0: z = S v / 1e150 solves z - 1e150 B |z| = b
        # up to the z term, for each of the 64 signatures S.
        result = enumerate_solutions(pr.AveProblem(1e150 * self.B, -(self.B @ self.V)))
        assert result.singular_signatures == []
        assert len(result.solutions) == 64
        for sig, z in result.solutions:
            assert np.array_equal(an.signature_of(z), sig)
            assert np.abs(1e150 * np.abs(z) - self.V).max() <= 1e-12

    def test_no_orthant_holds_a_solution(self):
        b = np.random.default_rng(5).uniform(-1.0, 1.0, 6)
        result = enumerate_solutions(pr.AveProblem(1e150 * self.B, b))
        assert result.solutions == [] and result.singular_signatures == []


class TestScaleInvariance:
    """Every oracle tolerance scales with (b, z): a right-hand side far
    below unit scale keeps its true orthant, and (A, 2^k b) gives 2^k z
    bit for bit."""

    @pytest.mark.parametrize("k", [-40, -80])
    def test_small_rhs_keeps_its_orthant(self, k):
        # With absolute floors, z = (3.5e-13, -5.4e-13) from signs [1, 1]
        # passed the orthant and residual tests at k = -40.
        p = pr.random_instance("norm_lt_half", 2, 0)[0]
        (sig, z), = enumerate_solutions(p).solutions
        (sig_k, z_k), = enumerate_solutions(pr.AveProblem(p.a, np.ldexp(p.b, k))).solutions
        assert sig.tolist() == sig_k.tolist() == [1, -1]
        assert np.abs(np.ldexp(z_k, -k) - z).max() <= 1e-12 * np.abs(z).max()

    @pytest.mark.parametrize("cls_index, cls", enumerate(
        ["norm_lt_half", "irreducible_half", "sdd_two_thirds", "tridiag_abs_sym"]))
    def test_power_of_two_homogeneity(self, cls_index, cls):
        # The first 28 instances of each criterion-1 suite, n = 2..8.
        for i in range(28):
            problem = pr.random_instance(cls, 2 + i % 7, 100_000 * cls_index + i)[0]
            want = enumerate_solutions(problem).solutions
            for k in (-80, -40, 40, 200):
                got = enumerate_solutions(pr.AveProblem(problem.a, np.ldexp(problem.b, k)))
                assert [s.tolist() for s, _ in got.solutions] == [s.tolist() for s, _ in want]
                for (_, z_k), (_, z) in zip(got.solutions, want):
                    assert z_k.tobytes() == np.ldexp(z, k).tobytes()

    def test_boundary_solution_deduplicated_at_small_scale(self):
        # test_boundary_solution_deduplicated's problem with b 2^-40.
        b = np.ldexp(np.array([0.0, 1.0]), -40)
        result = enumerate_solutions(pr.AveProblem(np.zeros((2, 2)), b))
        (sig, z), = result.solutions
        assert sig.tolist() == [1, 1] and z.tobytes() == b.tobytes()

    def test_zero_rhs_gives_zero(self):
        result = enumerate_solutions(pr.AveProblem(random_matrix(3, 4, norm=0.9), np.zeros(4)))
        (_, z), = result.solutions
        assert not z.any()


class TestUniqueSolution:
    def test_norm_below_one_always_unique(self):
        for seed in range(20):
            n = 2 + seed % 4
            a = random_matrix(seed + 30, n, norm=0.95)
            b = rng(seed).uniform(-1, 1, size=n)
            z = unique_solution(pr.AveProblem(a, b))
            assert pr.residual(pr.AveProblem(a, b), z) <= 1e-10 * (1 + np.abs(b).max())

    def test_not_unique_when_empty(self):
        problem = pr.AveProblem(pr.inflated_identity(0.01, 2), np.array([1.0, 1.0]))
        with pytest.raises(NotUnique):
            unique_solution(problem)

    @pytest.mark.parametrize("seed", range(10))
    def test_radius_separates_uniqueness(self, seed):
        # Rescale a random matrix to both sides of the threshold and probe
        # each with a batch of right-hand sides.  Half the sides are drawn
        # uniformly, half as b = (S - A)u with u > 0, which plants a
        # solution in orthant S; when some orthant carries the minority
        # determinant sign, its fiber holds several solutions.
        n = 2 + seed % 4
        base = random_matrix(seed + 50, n)
        r = an.rho_sr_enum(base)
        g = rng(seed + 60)

        def sides(a):
            for i in range(20):
                if i % 2 == 0:
                    yield g.uniform(-1, 1, size=n)
                else:
                    s = g.choice([-1.0, 1.0], size=n)
                    yield (np.diag(s) - a) @ g.uniform(0.1, 1.0, size=n)

        below = base * (0.85 / r)
        for b in sides(below):
            assert len(enumerate_solutions(pr.AveProblem(below, b)).solutions) == 1
        above = base * (1.25 / r)
        counts = [
            len(enumerate_solutions(pr.AveProblem(above, b)).solutions)
            for b in sides(above)
        ]
        assert any(c != 1 for c in counts)
