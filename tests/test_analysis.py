import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avekit import analysis as an
from avekit import linalg as la
from avekit import problems as pr
from avekit.errors import DimensionTooLarge

from conftest import half_stack, prescaled, random_matrix, real_radius, random_signature

CIRCULANT = np.array([[0.0, 0.0, 0.625], [0.625, 0.0, 0.0], [0.0, 0.625, 0.0]])
TRAP_MATRIX = np.array([[0.005, 0.505], [0.0, 0.5]])


class TestSignatureOf:
    def test_zero_vector(self):
        assert np.array_equal(an.signature_of([0.0, 0.0]), [1, 1])

    def test_negative_zero(self):
        assert np.array_equal(an.signature_of([-3.0, 2.0, -0.0]), [-1, 1, 1])

    def test_trap_solution_pattern(self):
        assert np.array_equal(an.signature_of([0.005, 1.0]), [1, 1])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=1,
            max_size=8,
        )
    )
    def test_signature_recovers_abs_exactly(self, values):
        z = np.array(values)
        s = an.signature_of(z)
        assert np.array_equal(s * z, np.abs(z))


class TestPredicates:
    def test_circulant_irreducible(self):
        assert an.is_irreducible(CIRCULANT)

    def test_trap_matrix_reducible(self):
        assert not an.is_irreducible(TRAP_MATRIX)

    def test_identity_reducible(self):
        assert not an.is_irreducible(np.eye(2))

    def test_one_by_one_irreducible(self):
        assert an.is_irreducible(np.array([[0.0]]))

    def test_long_cycle_and_path(self):
        # The search needs n - 1 rounds to reach the far end of either graph.
        n = 200
        path = np.diag(np.full(n - 1, 0.3), 1)
        assert not an.is_irreducible(path)
        cycle = path.copy()
        cycle[n - 1, 0] = 0.3
        assert an.is_irreducible(cycle)

    def test_sdd_diagonal(self):
        assert an.is_strictly_diag_dominant(np.diag([0.5, 0.5]))

    def test_sdd_strictness(self):
        assert not an.is_strictly_diag_dominant(np.array([[0.3, 0.3], [0.0, 0.5]]))

    def test_sdd_zero_diag(self):
        assert not an.is_strictly_diag_dominant(CIRCULANT)

    def test_tridiag_abs_symmetric(self):
        assert an.is_tridiag_abs_symmetric(np.array([[0.2, 0.3], [-0.3, 0.1]]))

    def test_tridiag_not_abs_symmetric(self):
        assert not an.is_tridiag_abs_symmetric(np.array([[0.2, 0.3], [0.1, 0.1]]))

    def test_tridiag_bandwidth(self):
        a = np.zeros((4, 4))
        a[0, 3] = 0.1
        assert not an.is_tridiag_abs_symmetric(a)


class TestConditionProfile:
    def test_small_norm(self):
        profile = an.condition_profile(random_matrix(1, 4, norm=0.49))
        assert profile.cond1 and profile.any

    def test_irreducible_at_half(self):
        a = np.array([[0.0, 0.0, 0.5], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])
        profile = an.condition_profile(a)
        assert not profile.cond1
        assert profile.cond2

    def test_trap_matrix_has_no_guarantee(self):
        assert not an.condition_profile(TRAP_MATRIX).any

    def test_flags_consistent(self):
        for seed in range(20):
            a = random_matrix(seed, 3, norm=0.8)
            p = an.condition_profile(a)
            assert p.any == (p.cond1 or p.cond2 or p.cond3 or p.cond4)


def reference_irreducible(a):
    n = a.shape[0]
    adj = a != 0.0

    def reaches_all(edges):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = edges[frontier].any(axis=0) & ~seen
            seen |= frontier
        return bool(seen.all())

    return reaches_all(adj) and reaches_all(adj.T)


def reference_sdd(a):
    off = np.abs(a)
    diag = off.diagonal().copy()
    np.fill_diagonal(off, 0.0)
    return bool((diag > off.sum(axis=1)).all())


def reference_tridiag(a):
    if (np.triu(a, 2) != 0.0).any() or (np.tril(a, -2) != 0.0).any():
        return False
    abs_a = np.abs(a)
    return bool(np.array_equal(abs_a, abs_a.T))


def reference_profile(a):
    """condition_profile as three separate predicates, each validating
    and building its own |A|."""
    n = a.shape[0]
    norm = la.infinity_norm(a)
    c1 = norm < 0.5
    c2 = norm <= 0.5 and reference_irreducible(a)
    c3 = norm <= 2.0 / 3.0 and reference_sdd(a)
    c4 = n >= 2 and norm < 1.0 and reference_tridiag(a)
    return an.ConditionProfile(norm_inf=norm, cond1=c1, cond2=c2, cond3=c3, cond4=c4,
                               any=c1 or c2 or c3 or c4)


def predicate_cases():
    """Sparse dyadic matrices, so that sums are exact and ties between a
    diagonal and its off-diagonal sum happen; signed zeros included."""
    g = np.random.default_rng(30)
    values = np.array([0.0, -0.0, 0.0625, -0.0625, 0.125, -0.125, 0.25, -0.25, 0.5, -0.5])
    cases = []
    for i in range(2000):
        n = 1 + i % 6
        a = g.choice(values, size=(n, n)) * (g.random((n, n)) < g.uniform(0.1, 1.0))
        if i % 3 == 0:
            a = np.triu(np.tril(a, 1), -1)  # within the band, |A| often symmetric
            a.T[np.triu_indices(n, 1)] = np.abs(a[np.triu_indices(n, 1)]) * g.choice([-1.0, 1.0])
        cases.append(a)
    for n in (1, 2):
        for bits in range(3 ** (n * n)):
            digits = [(bits // 3 ** k) % 3 for k in range(n * n)]
            cases.append(np.array([(0.0, -0.0, 0.25)[d] for d in digits]).reshape(n, n))
    wide = np.diag(np.full(4, 0.25), 2) + np.diag(np.full(4, -0.25), -2)
    cases += [wide, 0.5 * wide, -np.eye(3) * 0.0, np.diag([0.5, -0.0, 0.25]) + np.diag([-0.0, -0.0], 1)]
    return cases


class TestFusedPredicates:
    def test_match_the_separate_predicates(self):
        for a in predicate_cases():
            abs_a = np.abs(a)
            assert an._diag_dominant(abs_a) == reference_sdd(a)
            assert an._tridiag_abs_symmetric(abs_a) == reference_tridiag(a)
            assert np.array_equal(abs_a, np.abs(a))  # _diag_dominant restored it
            assert an._irreducible(a) == reference_irreducible(a)
            assert an.is_strictly_diag_dominant(a) == reference_sdd(a)
            assert an.is_tridiag_abs_symmetric(a) == reference_tridiag(a)
            assert an.is_irreducible(a) == reference_irreducible(a)
            for scale in (1.0, 2.0, 4.0):
                assert an.condition_profile(scale * a) == reference_profile(scale * a)


class TestNeqSet:
    def test_trap_instance(self):
        problem, z = pr.sge_trap_instance(0.01)
        assert an.neq_set(problem.b, z) == [0]

    def test_zero_matrix(self):
        z = np.array([1.5, -2.0])
        assert an.neq_set(z, z) == []

    def test_empty_under_condition_one(self):
        for seed in range(50):
            n = 2 + seed % 5
            a = random_matrix(seed, n, norm=0.45)
            z = np.random.default_rng(seed).uniform(-1, 1, size=n)
            problem = pr.from_solution(a, z)
            assert an.neq_set(problem.b, z) == []

    def test_tie_tolerance_widens(self):
        b = np.array([1.0, 0.999])
        z = np.array([1.0, -1.0])
        assert an.neq_set(b, z) == []


class TestRhoSrEnum:
    def test_zero(self):
        assert an.rho_sr_enum(np.zeros((3, 3))) == 0.0

    def test_diagonal_flip(self):
        assert an.rho_sr_enum(np.diag([0.3, -0.9])) == pytest.approx(0.9, abs=1e-9)

    def test_nonnegative_swap(self):
        assert an.rho_sr_enum(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            an.rho_sr_enum(np.eye(13) * 0.1)

    @pytest.mark.parametrize("seed", range(10))
    def test_half_enumeration_matches_full(self, seed):
        # The implementation pins the first sign; check against the full
        # enumeration, one real spectral radius per signature.
        n = 4
        a = random_matrix(seed + 40, n, norm=0.9)
        full = max(
            real_radius(s[:, None] * a) for s in an.signature_stack(n, fix_first=False)
        )
        assert an.rho_sr_enum(a) == pytest.approx(full, abs=1e-9)

    @pytest.mark.parametrize("seed", range(15))
    def test_signature_invariance(self, seed):
        n = 2 + seed % 5
        a = random_matrix(seed + 60, n)
        s1 = np.diag(random_signature(seed, n))
        s2 = np.diag(random_signature(seed + 1, n))
        assert an.rho_sr_enum(s1 @ a @ s2) == pytest.approx(
            an.rho_sr_enum(a), abs=1e-9
        )

    @pytest.mark.parametrize("seed", range(15))
    def test_bounded_by_norms(self, seed):
        n = 2 + seed % 5
        a = random_matrix(seed + 80, n)
        r = an.rho_sr_enum(a)
        assert r <= la.infinity_norm(a) + 1e-9
        assert r <= la.one_norm(a) + 1e-9


def pruning_cases():
    """263 matrices for rho_sr_enum's pruned search, most with n >= 8,
    where the pruning runs: unit-scale random ones at n = 2..12, integer
    ones (signatures with tied spectra), sparse ones, orthogonal times c
    (every signature has the same radius), every analyze-rho class at
    n = 8, 10, 12, and 1.1 I."""
    g = np.random.default_rng(2022)
    cases = [g.uniform(-1.0, 1.0, (n, n)) for n in [*range(2, 8)] * 4 + [8] * 50 + [9] * 25
             + [10] * 8 + [11] * 3 + [12] * 2]
    cases += [g.integers(-2, 3, (n, n)).astype(float)
              for n in [3, 6] + [8] * 35 + [9] * 12 + [10] * 4 + [11, 12]]
    cases += [g.uniform(-1.0, 1.0, (n, n)) * (g.uniform(size=(n, n)) < 0.3)
              for n in [4] + [8] * 35 + [9] * 12 + [10] * 4 + [11, 12]]
    cases += [c * np.linalg.qr(g.normal(size=(n, n)))[0]
              for n, c in [(5, 0.3), (8, 0.7), (8, 3.0), (9, 0.7), (10, 1.2), (12, 0.9)]]
    for n, seeds in ((8, (21, 24)), (10, (21, 24)), (12, (21,))):
        for seed in seeds:
            for cls, nu in [("norm_lt_half", None), ("irreducible_half", None),
                            ("sdd_two_thirds", None), ("tridiag_abs_sym", None),
                            ("unconstrained", 0.9), ("unconstrained", 1.5),
                            ("unconstrained", 4.0)]:
                cases.append(pr.gen_class(cls, n, seed, nu=nu))
    cases.append(pr.inflated_identity(0.1, 3))
    return cases


PRUNING_CASES = pruning_cases()


@functools.cache
def whole_stack_radii():
    """(radius, e) of the search over the whole half-stack of each
    prescaled X = 2^-e A in PRUNING_CASES, tol 2^-e 1e-10. X is the same
    for every 2^j A, so this runs once for all scales."""
    radii = []
    for b in PRUNING_CASES:
        x, e = prescaled(b)
        radii.append((la.max_abs_real_roots(half_stack(x), la.infinity_norm(x),
                                            math.ldexp(1e-10, -e)), e))
    return radii


class TestSignaturePruning:
    """rho_sr_enum searches only the signatures whose bound on rho(S A)
    reaches the maximum, and must give the search over the whole
    half-stack bit for bit."""

    @pytest.mark.parametrize("j", [0, 20, 60, -60])
    def test_is_the_whole_stack_search(self, j):
        # 263 matrices at each of 4 scales, 1052 in all, tol scaled along.
        for b, (whole, e) in zip(PRUNING_CASES, whole_stack_radii()):
            got = an.rho_sr_enum(np.ldexp(b, j), math.ldexp(1e-10, j))
            assert got == math.ldexp(whole, e + j)

    @pytest.mark.parametrize("name, a", [
        ("zero", np.zeros((8, 8))),
        ("nilpotent", np.triu(np.random.default_rng(1).uniform(-1.0, 1.0, (9, 9)), 1)),
        ("jordan", np.eye(10) + np.eye(10, k=1)),
        ("jordan-0.3", 0.3 * np.eye(8) - 0.7 * np.eye(8, k=1)),
        ("1.1 I", 1.1 * np.eye(8)),
        ("random", np.random.default_rng(2).uniform(-1.0, 1.0, (10, 10))),
        ("integer", np.random.default_rng(3).integers(-2, 3, (8, 8)).astype(float)),
        ("tridiag", pr.gen_class("tridiag_abs_sym", 12, 21)),
    ])
    def test_bound_dominates_every_signature(self, name, a):
        signs = an.signature_stack(a.shape[0], fix_first=True)
        x, _e = prescaled(a)
        bounds = an._radius_bounds(x)
        radii = [np.abs(np.linalg.eigvals(s[:, None] * x)).max() for s in signs]
        assert (bounds >= radii).all(), name

    @pytest.mark.parametrize("index", range(0, len(PRUNING_CASES), 13))
    def test_bounds_scale_exactly_with_powers_of_two(self, monkeypatch, index):
        # rho_sr_enum bounds 2^-e S A, ||2^-e A||_inf in [1/2, 1), so 2^j A
        # gets the bounds of A bit for bit, finite, and 2^j times its radius.
        seen = []
        bounds = an._radius_bounds
        monkeypatch.setattr(an, "_radius_bounds", lambda x: seen.append(bounds(x)) or seen[-1])
        a = PRUNING_CASES[index]
        r = an.rho_sr_enum(a)
        for j in (-60, -20, 20, 60):
            assert an.rho_sr_enum(np.ldexp(a, j), math.ldexp(1e-10, j)) == math.ldexp(r, j)
        assert len(seen) in (0, 5) and np.isfinite(seen).all()
        assert all(got.tobytes() == seen[0].tobytes() for got in seen)

    def test_searches_few_signatures(self, monkeypatch):
        searched = []
        real = an._largest_real_root

        def record(a, signs, norm, tol):
            searched.append(len(signs))
            return real(a, signs, norm, tol)

        monkeypatch.setattr(an, "_largest_real_root", record)
        for nu in (0.9, 1.5, 4.0):
            searched.clear()
            an.rho_sr_enum(pr.gen_class("unconstrained", 12, 21, nu=nu))
            assert searched == [an._CANDIDATES]
        # Tied spectra: 512 of the 2048 bounds reach r - tol, so those
        # signatures join a second search.
        searched.clear()
        an.rho_sr_enum(pr.gen_class("tridiag_abs_sym", 12, 21))
        assert searched == [an._CANDIDATES, 512]

    def test_small_stacks_are_searched_whole(self, monkeypatch):
        calls = []
        monkeypatch.setattr(an, "_radius_bounds", lambda *args: calls.append(args))
        for n in range(2, 8):
            a = random_matrix(n, n)
            assert an.rho_sr_enum(a) == la.max_abs_real_roots(half_stack(a), la.infinity_norm(a),
                                                              1e-10)
        assert calls == []


def unblocked_bounds(x):
    """_radius_bounds by one squaring of the whole half-stack
    signature_stack(n, True)[:, :, None] * X, with no blocks."""
    n = x.shape[0]
    k = 1 << an._SQUARINGS
    powers = an.signature_stack(n, fix_first=True)[:, :, None] * x[None, :, :]
    absolute = np.abs(x)
    for _ in range(an._SQUARINGS):
        powers = powers @ powers
        absolute = absolute @ absolute
    eps = np.finfo(float).eps
    slack = 2 * k * n * eps * la.infinity_norm(absolute) + k * n * np.finfo(float).tiny
    norms = np.einsum("kij->ki", np.abs(powers)).max(axis=1)
    return (norms + slack) ** (1.0 / k) * (1.0 + 4 * eps)


class TestBlockedBounds:
    """_radius_bounds squares the half-stack 2^_BLOCK_BITS signatures at a
    time; its bounds are those of the whole stack bit for bit, whatever
    the block size."""

    @pytest.mark.parametrize("bits", [1, 2, 3, None])
    @pytest.mark.parametrize("n", range(8, 13))
    def test_bounds_are_the_whole_stack_bounds(self, monkeypatch, n, bits):
        if bits is not None:
            monkeypatch.setattr(an, "_BLOCK_BITS", bits)
        u = np.random.default_rng(1000 + n).uniform(-1.0, 1.0, (n, n))
        cases = {"random": u, "zero": np.zeros((n, n)), "nilpotent": np.triu(u, 1),
                 "1.1 I": 1.1 * np.eye(n)}
        for name, a in cases.items():
            x, _e = prescaled(a)
            assert an._radius_bounds(x).tobytes() == unblocked_bounds(x).tobytes(), name


class TestRhoSrBisect:
    def test_zero(self):
        assert an.rho_sr_bisect(np.zeros((2, 2))) == 0.0

    def test_diagonal(self):
        assert an.rho_sr_bisect(np.diag([0.3, -0.9]), tol=1e-8) == pytest.approx(
            0.9, abs=1e-8
        )

    def test_circulant(self):
        assert an.rho_sr_bisect(CIRCULANT, tol=1e-8) == pytest.approx(0.625, abs=1e-8)

    def test_nilpotent_is_zero(self):
        a = np.array([[0.0, 0.7], [0.0, 0.0]])
        assert an.rho_sr_bisect(a) == 0.0

    def test_check_at_lo_falls_through_to_the_full_sweep(self, sweeps, det_calls):
        # Strictly upper triangular at n = 8: every signature passes at lo,
        # and the one expansion sweep there covers all 256 of them.
        assert an.rho_sr_bisect(np.triu(random_matrix(8, 8), 1)) == 0.0
        assert sweeps == [True]
        assert det_calls == [8]
        # Here only signatures with s_7 = -1, the second half of the stack,
        # fail at lo: rho^R is 0.5, not 0.
        a = np.diag([0.0] * 7 + [-0.5])
        _mats, dets, thr = an.signature_systems(a, scale=la.pivot_threshold(a))
        assert np.array_equal(dets <= thr, an.signature_stack(8)[:, 7] < 0)
        assert an.rho_sr_bisect(a, tol=1e-10) == pytest.approx(0.5, abs=1e-9)
        assert sweeps[1] is False

    def test_check_at_lo_is_the_whole_sweep_at_small_n(self, sweeps, det_calls):
        # One LAPACK det call per block size for the minors and one
        # expansion sweep at lo settle rho^R = 0.
        assert an.rho_sr_bisect(np.triu(random_matrix(4, 4), 1)) == 0.0
        assert sweeps == [True]
        assert det_calls == [4]

    @pytest.mark.parametrize("seed", range(6))
    def test_layout_of_the_input_does_not_matter(self, seed):
        # rho^R(A^T) = rho^R(A); a transposed view is column-major.
        a = random_matrix(seed + 140, 3 + seed)
        tol = 1e-8
        r = an.rho_sr_bisect(a.T, tol=tol)
        assert r == an.rho_sr_bisect(np.ascontiguousarray(a.T), tol=tol)
        assert r == an.rho_sr_bisect(np.asfortranarray(a.T), tol=tol)
        assert abs(r - an.rho_sr_enum(a, tol=1e-10)) <= 2 * tol

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_enumeration(self, seed):
        n = 2 + seed % 4
        a = random_matrix(seed + 120, n)
        tol = 1e-8
        assert abs(an.rho_sr_enum(a, tol=1e-10) - an.rho_sr_bisect(a, tol=tol)) <= 2 * tol

    def test_norm_attaining_radius_is_bounded(self, sweeps, det_calls):
        # rho^R(1.1 I) = ||A||_inf, so t = ||A||_inf sits in the threshold
        # band; the bracket must not creep up from there in 1 + tol steps.
        a = pr.inflated_identity(0.1, 3)
        r = an.rho_sr_bisect(a, tol=1e-10)
        assert det_calls == [3]
        assert len(sweeps) <= plain_bisection(a, 1e-10)[1] <= 64
        # det(I - (1.1/t) I) = (1 - 1.1/t)^3 must clear ~2e-14 for t to count.
        eps = np.finfo(float).eps
        assert abs(r - 1.1) <= 2 * (1 + eps) * 1e-14 ** (1 / 3)


def metamorphic_case(seed, n=None, norm=None):
    """A matrix (by default n = 2..10 and ||A||_inf in [0.5, 3]) and its
    images P A P^T, S1 A S2 and A^T for a random permutation P and random
    signatures S1, S2, each of which has the sign-real spectral radius
    of A."""
    g = np.random.default_rng(seed + 950)
    n = 2 + seed % 9 if n is None else n
    a = random_matrix(seed + 900, n, norm=float(g.uniform(0.5, 3.0)) if norm is None else norm)
    p = g.permutation(n)
    s1, s2 = g.choice([-1.0, 1.0], size=(2, n))
    images = {"P A P^T": a[np.ix_(p, p)], "S1 A S2": s1[:, None] * a * s2[None, :], "A^T": a.T}
    return a, images


class TestMetamorphicRelations:
    """rho^R(P A P^T) = rho^R(S1 A S2) = rho^R(A^T) = rho^R(A): both
    estimators keep it within 2 tol, and the determinant verdict keeps it
    wherever rho^R is not within 1e-6 of 1."""

    @pytest.mark.parametrize("estimator", [an.rho_sr_enum, an.rho_sr_bisect])
    @pytest.mark.parametrize("seed", range(24))
    def test_estimators_are_invariant(self, estimator, seed):
        tol = 1e-10
        a, images = metamorphic_case(seed)
        r = estimator(a, tol)
        for name, b in images.items():
            assert abs(estimator(b, tol) - r) <= 2 * tol, name

    @pytest.mark.parametrize("estimator", [an.rho_sr_enum, an.rho_sr_bisect])
    @pytest.mark.parametrize("n", [4, 8, 12])
    @pytest.mark.parametrize("norm", [1e-6, 1e-3, 1e3, 1e9])
    def test_estimators_are_invariant_at_scale(self, estimator, norm, n):
        # tol is in A's units, so it scales with A.
        tol = 1e-10 * norm
        a, images = metamorphic_case(n, n, norm)
        r = estimator(a, tol)
        for name, b in images.items():
            assert abs(estimator(b, tol) - r) <= 2 * tol, name

    @pytest.mark.parametrize("seed", range(24))
    def test_det_verdict_is_invariant(self, seed):
        a, images = metamorphic_case(seed)
        rho = an.rho_sr_enum(a, 1e-10)
        assert abs(rho - 1.0) > 1e-6  # 17 of these cases lie below 1, 7 above
        verdict = an.det_positive_all_signatures(a)
        assert verdict == (rho < 1.0)
        for name, b in images.items():
            assert an.det_positive_all_signatures(b) == verdict, name


def scale_case(n, seed):
    """A uniform [-1, 1] n x n matrix; n = 3, 4, 6, 8, 10, 12 and seeds
    0..2 give the 18 matrices of the scale tests."""
    return np.random.default_rng(100 * n + seed).uniform(-1.0, 1.0, (n, n))


SCALE_CASES = [(n, seed) for n in (3, 4, 6, 8, 10, 12) for seed in range(3)]


class TestScaleInvariance:
    """rho^R(cA) = c rho^R(A): both estimators prescale A by 2^-e, so
    they are exactly homogeneous under powers of two, and rho_sr_enum
    stays within 1e-11 of the reference at any scale."""

    @pytest.mark.parametrize("estimator", [an.rho_sr_enum, an.rho_sr_bisect])
    @pytest.mark.parametrize("n, seed", SCALE_CASES)
    def test_powers_of_two_scale_exactly(self, estimator, n, seed):
        a = scale_case(n, seed)
        r = estimator(a, 1e-10)
        for j in (-60, -7, 3, 60):
            assert estimator(np.ldexp(a, j), math.ldexp(1e-10, j)) == math.ldexp(r, j), j

    @pytest.mark.parametrize("c", [1e-6, 1e-3, 1.0, 30.0, 1e3, 1e9])
    def test_enumeration_matches_bisection_at_any_scale(self, c):
        for n, seed in SCALE_CASES:
            b = scale_case(n, seed)
            want = an.rho_sr_bisect(b, 1e-12)
            assert an.rho_sr_enum(c * b, c * 1e-10) / c == pytest.approx(want, rel=1e-11), (n, seed)


def plain_bisection(a, tol, log=None):
    """rho_sr_bisect as bisection on t with one LAPACK det sweep per step:
    the estimate and its number of sweeps.  Appends each sweep's verdict
    to ``log`` when one is given."""
    verdicts = [] if log is None else log

    def admissible(t):
        _mats, dets, thr = an.signature_systems(a, scale=t)
        verdicts.append(bool((dets > thr).all()))
        return verdicts[-1]

    norm = la.infinity_norm(a)
    lo = la.pivot_threshold(a)
    if admissible(lo):
        return 0.0, 1
    hi = norm if admissible(norm) else 2.0 * norm
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), len(verdicts)


@pytest.fixture
def sweeps(monkeypatch):
    """Whether each expansion sweep of rho_sr_bisect found every signature
    admissible: the verdicts of its ``_admissible`` calls."""
    log = []
    admissible = an._admissible

    def recording(*args, **kwargs):
        log.append(admissible(*args, **kwargs))
        return log[-1]

    monkeypatch.setattr(an, "_admissible", recording)
    return log


@pytest.fixture
def det_calls(monkeypatch):
    """The number of np.linalg.det calls made by each rho_sr_bisect call,
    starting from an empty minors cache."""
    an._minors_of.cache_clear()
    log = []
    det, bisect = np.linalg.det, an.rho_sr_bisect

    def counting_det(*args, **kwargs):
        log[-1] += 1
        return det(*args, **kwargs)

    def counting_bisect(*args, **kwargs):
        log.append(0)
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "det", counting_det)
            return bisect(*args, **kwargs)

    monkeypatch.setattr(an, "rho_sr_bisect", counting_bisect)
    return log


def count_det_calls(monkeypatch):
    """A list whose one entry counts np.linalg.det calls, from an empty
    minors cache."""
    an._minors_of.cache_clear()
    calls = [0]
    det = np.linalg.det

    def counting_det(*args, **kwargs):
        calls[0] += 1
        return det(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "det", counting_det)
    return calls


def expansion_bound(a, t):
    """16 n eps sum_J prod_{i in J} r_i / t^|J| = 16 n eps prod_i (1 + r_i/t),
    r_i the row sums of |A|: a bound on how far the minor expansion's and
    LAPACK's det(I - (A/t)S) may each stray from the exact value.  The
    terms bound |det(A_JJ)| t^-|J|, and the rounding error of a computed
    minor, which is not small against |det(A_JJ)| when it cancels."""
    n = a.shape[0]
    return 16 * n * np.finfo(float).eps * np.prod(1.0 + np.abs(a).sum(axis=1) / t)


def expansion(a, t):
    """The minor expansion's dets and the thresholds of A at scale t,
    flattened to signature order."""
    minors, sizes = an._principal_minors(a)
    thr = an._signature_thresholds(an._threshold_rows(a), t)
    return an._expanded_dets(minors, sizes, t).reshape(-1), thr.reshape(-1)


class TestSignatureSystems:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_closed_form_threshold_and_exact_matrices(self, n):
        # The closed-form thresholds match the threshold rule on the norms
        # of the returned matrices, which are bitwise I - (A/t)S, zero entries included.
        g = np.random.default_rng(400 + n)
        signs = an.signature_stack(n)
        for k in range(4):
            a = random_matrix(410 + 20 * n + k, n, norm=float(g.uniform(0.1, 4.0)))
            a[g.random((n, n)) < 0.3] = 0.0
            t = float(g.uniform(1e-3, 5.0))
            # Column-major and transposed inputs give the same stack as
            # their row-major copies.
            for b in (a, np.asfortranarray(a), a.T):
                mats, dets, thr = an.signature_systems(b, scale=t)
                want = np.eye(n) - (np.ascontiguousarray(b) / t) * signs[:, None, :]
                assert mats.tobytes() == want.tobytes()
                assert np.linalg.det(want).tobytes() == dets.tobytes()
                ref = la.threshold_of_norms(np.abs(mats).sum(-1).max(-1))
                assert (np.abs(thr - ref) <= 1e-15 * ref).all()


class TestMinorExpansion:
    @pytest.mark.parametrize("k", range(7))
    def test_hadamard_entries(self, k):
        bits = an.signature_stack(k) < 0
        parity = (bits[:, None, :] & bits[None, :, :]).sum(axis=2) % 2
        assert np.array_equal(an._hadamard(k), 1.0 - 2.0 * parity)

    def test_minors_are_the_principal_blocks(self):
        # Each minor is LAPACK's det of its block bit for bit, with no
        # identity padding, for every subset J at n = 1..12.
        g = np.random.default_rng(600)
        for n in range(1, 13):
            a = g.uniform(-1.0, 1.0, (n, n))
            a[g.random((n, n)) < 0.3] = 0.0
            minors, sizes = an._principal_minors(a)
            for j, inside in enumerate(an.signature_stack(n) < 0):
                assert sizes[j] == inside.sum()
                want = np.linalg.det(a[np.ix_(inside, inside)]) if inside.any() else 1.0
                assert minors[j].tobytes() == np.float64(want).tobytes(), (n, j)

    def test_repeat_call_on_the_same_bytes_makes_no_det_call(self, monkeypatch):
        # analyze --rho both computes the minors once: rho_sr_bisect, then
        # det_positive_all_signatures on the same entries in another layout,
        # both on the prescaled X.
        calls = count_det_calls(monkeypatch)
        a = random_matrix(601, 7)
        x, e = prescaled(a)
        assert e != 0
        minors, sizes = an._principal_minors(x)
        assert calls == [7]
        assert not minors.flags.writeable and not sizes.flags.writeable
        an.rho_sr_bisect(a, tol=1e-10)
        an.det_positive_all_signatures(np.asfortranarray(a))
        again, _sizes = an._principal_minors(x.copy())
        assert calls == [7]
        assert again is minors

    def test_changed_entry_recomputes_the_minors(self, monkeypatch):
        calls = count_det_calls(monkeypatch)
        a = random_matrix(602, 6)
        minors, _sizes = an._principal_minors(a)
        b = a.copy()
        b[5, 5] += 0.5
        changed, _sizes = an._principal_minors(b)
        assert calls == [12]
        # Exactly the minors whose block holds entry (5, 5) change.
        holds = an.signature_stack(6)[:, 5] < 0
        assert np.array_equal(changed != minors, holds)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_lapack_dets_and_thresholds(self, n):
        # At lo, near rho^R, at ||A||_inf and at 2||A||_inf the transform's
        # determinants agree with LAPACK's within expansion_bound, and its
        # thresholds are signature_systems' bit for bit.
        g = np.random.default_rng(500 + n)
        for k in range(3):
            a = random_matrix(510 + 20 * n + k, n, norm=float(g.uniform(0.1, 4.0)))
            a[g.random((n, n)) < 0.3] = 0.0
            norm = la.infinity_norm(a)
            if norm == 0.0:
                continue
            rho = an.rho_sr_enum(a, tol=1e-10)
            for t in (la.pivot_threshold(a), rho if rho > 0.0 else 0.5 * norm,
                      norm, 2.0 * norm):
                dets, thr = expansion(a, t)
                _mats, want, want_thr = an.signature_systems(a, scale=t)
                assert thr.tobytes() == want_thr.tobytes()
                assert np.abs(dets - want).max() <= expansion_bound(a, t)


class TestCriticalSignatureSearch:
    @pytest.mark.parametrize("seed", range(10))
    def test_one_matrix_matches_its_stack_row(self, seed):
        # One matrix I - (A/t)S has LAPACK's det of its row in the stack of
        # all signatures; the expansion gives that row within the bound and
        # its threshold bit for bit.
        g = np.random.default_rng(seed)
        n = 1 + seed
        a = random_matrix(seed + 300, n, norm=float(g.uniform(0.1, 4.0)))
        signs = an.signature_stack(n)
        picks = g.integers(0, len(signs), size=6)
        scales = g.uniform(1e-3, 5.0, size=6)
        for k, t in zip(picks, scales):
            _mats, all_dets, all_thr = an.signature_systems(a, scale=float(t))
            stack = np.eye(n)[None, :, :] - (a[None, :, :] / float(t)) * signs[:, None, :]
            assert np.linalg.det(stack).tobytes() == all_dets.tobytes()
            assert np.linalg.det(stack[k]).tobytes() == all_dets[k].tobytes()
            dets, thr = expansion(a, float(t))
            assert np.float64(thr[k]).tobytes() == np.float64(all_thr[k]).tobytes()
            assert abs(dets[k] - all_dets[k]) <= expansion_bound(a, float(t))

    def test_criterion_10_matrices_take_no_more_sweeps_than_bisection(self, sweeps, det_calls):
        tol = 1e-8
        for i in range(200):
            a = random_matrix(90_000 + i, 2 + i % 5)
            reference, bisection_sweeps = plain_bisection(a, tol)
            sweeps.clear()
            estimate = an.rho_sr_bisect(a, tol=tol)
            assert len(sweeps) <= bisection_sweeps
            assert abs(estimate - reference) <= tol
        assert det_calls == [2 + i % 5 for i in range(200)]

    @pytest.mark.parametrize("cls, nu", [
        ("norm_lt_half", None), ("irreducible_half", None), ("sdd_two_thirds", None),
        ("tridiag_abs_sym", None), ("unconstrained", 0.9), ("unconstrained", 1.5),
        ("unconstrained", 4.0),
    ])
    def test_analyze_rho_n12_takes_at_most_12_sweeps(self, sweeps, det_calls, cls, nu):
        # The n = 12 instances of the analyze-rho benchmark at seed 21: one
        # LAPACK det call per block size, then no more expansion sweeps
        # than plain bisection makes from [lo, ||A||_inf] or
        # [||A||_inf, 2||A||_inf].
        problem, _z = pr.random_instance(cls, 12, 21, nu=nu)
        tol = 1e-10
        estimate = an.rho_sr_bisect(problem.a, tol=tol)
        assert det_calls == [12]
        norm = la.infinity_norm(problem.a)
        assert len(sweeps) <= 2 + math.ceil(math.log2(norm / tol))
        assert abs(estimate - an.rho_sr_enum(problem.a, tol=1e-10)) <= 2e-10

    def test_tol_below_float_resolution_ends(self):
        # At ||A||_inf = 3e9 a bracket cannot get narrower than about 1e-6,
        # so tol = 1e-10 is unreachable; the result still scales with A.
        a = random_matrix(7, 5, norm=3e9)
        estimate = an.rho_sr_bisect(a, tol=1e-10)
        assert estimate == pytest.approx(an.rho_sr_bisect(a / 1e9, tol=1e-12) * 1e9, rel=1e-12)

    def test_first_crossing_is_not_critical(self, sweeps):
        # The highest crossing among the 16 weakest signatures at
        # ||A||_inf is not rho^R for this matrix.  Bisection on the
        # expansion decides every step as LAPACK dets do.
        a = random_matrix(90_003, 5)
        x, e = prescaled(a)
        verdicts = []
        reference, _ = plain_bisection(x, math.ldexp(1e-8, -e), verdicts)
        estimate = an.rho_sr_bisect(a, tol=1e-8)
        assert sweeps == verdicts
        assert estimate == math.ldexp(reference, e)
        assert abs(estimate - an.rho_sr_enum(a, tol=1e-10)) <= 2e-8

    @pytest.mark.parametrize("kind", ["triu", "bidiagonal"])
    @pytest.mark.parametrize("n", range(4, 13))
    def test_cancelling_expansion_agrees_with_enumeration(self, n, kind):
        # rho^R << ||A||_inf: the expansion's terms (||A||_inf / t)^|J| are
        # large near rho^R and cancel to a determinant of order one.
        g = np.random.default_rng(700 + n)
        if kind == "triu":
            u = g.uniform(-1.0, 1.0, (n, n))
            a = 10.0 * np.triu(u, 1) + 1e-6 * u
        else:
            a = (np.diag(g.choice([-20.0, 20.0], n - 1), 1)
                 + np.diag(g.choice([-1e-4, 1e-4], n - 1), -1))
        tol = 1e-8
        assert abs(an.rho_sr_enum(a, tol=1e-10) - an.rho_sr_bisect(a, tol=tol)) <= 2 * tol


@pytest.fixture
def full_rule_verdicts(monkeypatch):
    """Each verdict of _admissible, checked against the full rule
    (dets > thr).all() on ``_expanded_dets`` and ``_signature_thresholds``
    at the same t."""
    log = []
    admissible = an._admissible

    def checked(minors, sizes, rows, t):
        verdict = admissible(minors, sizes, rows, t)
        dets, thr = an._expanded_dets(minors, sizes, t), an._signature_thresholds(rows, t)
        assert verdict == bool((dets > thr).all()), t
        log.append(verdict)
        return verdict

    monkeypatch.setattr(an, "_admissible", checked)
    return log


class TestThresholdEnvelope:
    """_admissible settles a step on the smallest and the largest
    threshold wherever they decide it, and gives the verdict of all 2^n
    thresholds at every step."""

    def test_criterion_10_matrices(self, full_rule_verdicts):
        for i in range(200):
            an.rho_sr_bisect(random_matrix(90_000 + i, 2 + i % 5), tol=1e-8)
        assert True in full_rule_verdicts and False in full_rule_verdicts

    @pytest.mark.parametrize("cls, nu", [
        ("norm_lt_half", None), ("irreducible_half", None), ("sdd_two_thirds", None),
        ("tridiag_abs_sym", None), ("unconstrained", 0.9), ("unconstrained", 1.5),
        ("unconstrained", 4.0),
    ])
    def test_analyze_rho_n12_matrices(self, full_rule_verdicts, cls, nu):
        an.rho_sr_bisect(pr.random_instance(cls, 12, 21, nu=nu)[0].a, tol=1e-10)
        assert len(full_rule_verdicts) >= 30

    @pytest.mark.parametrize("t, verdict", [
        ("0x1.3ec521a4093e0p+0", False),
        ("0x1.3ec521a4093f2p+0", True),
    ])
    def test_minimum_between_the_extremes_takes_every_threshold(self, monkeypatch, t, verdict):
        # random_matrix(0, 2) just above its rho^R: the smallest determinant
        # lies strictly between the smallest and the largest threshold, so
        # neither extreme decides; at the first t some other signature's
        # determinant is at or below its own threshold.
        a = random_matrix(0, 2)
        t = float.fromhex(t)
        minors, sizes = an._principal_minors(a)
        rows = an._threshold_rows(a)
        dets, thr = an._expanded_dets(minors, sizes, t), an._signature_thresholds(rows, t)
        assert thr.min() < dets.min() <= thr.max(), "no longer inside the band on this BLAS"
        assert bool((dets > thr).all()) == verdict
        built = []
        thresholds = an._signature_thresholds
        monkeypatch.setattr(an, "_signature_thresholds",
                            lambda *args: built.append(1) or thresholds(*args))
        assert an._admissible(minors, sizes, rows, t) == verdict
        assert built == [1]


def lapack_verdict(a):
    """Whether every LAPACK det of ``signature_systems(a)`` clears its
    threshold; quiet where they overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        _mats, dets, thr = an.signature_systems(a)
    return bool((dets > thr).all())


class TestDetPositivity:
    def test_norm_below_one(self):
        assert an.det_positive_all_signatures(random_matrix(5, 4, norm=0.9))

    def test_scalar_above_one(self):
        assert not an.det_positive_all_signatures(np.array([[1.5]]))

    def test_inflated_identity(self):
        assert not an.det_positive_all_signatures(pr.inflated_identity(0.1, 2))

    @pytest.mark.parametrize("seed", range(20))
    def test_equivalent_to_radius_below_one(self, seed):
        n = 2 + seed % 4
        a = random_matrix(seed + 150, n)
        r = an.rho_sr_enum(a)
        if abs(r - 1.0) < 1e-7:
            pytest.skip("too close to the threshold")
        assert an.det_positive_all_signatures(a) == (r < 1.0)

    def test_verdict_is_lapacks(self):
        # Random matrices with 30 % zeros and 10 triu(U, 1) + 1e-6 U, scaled
        # to rho^R in {0.5, 1 -+ 1e-9, 1 -+ 1e-12, 1, 2} and by 1e30 to
        # 1e300 (overflowing minors and slack): the verdict is that of the
        # LAPACK sweep.
        factors = (0.5, 1 - 1e-9, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-9, 2.0)
        # Fewer matrices at large n, where each LAPACK sweep costs more.
        bases = [18] * 6 + [12, 12, 5, 5, 3, 2]
        g = np.random.default_rng(800)
        checked = 0
        for n in range(1, 13):
            for _ in range(bases[n - 1]):
                zeros = g.uniform(-1.0, 1.0, (n, n))
                zeros[g.random((n, n)) < 0.3] = 0.0
                u = g.uniform(-1.0, 1.0, (n, n))
                for a in (zeros, 10.0 * np.triu(u, 1) + 1e-6 * u):
                    rho = an.rho_sr_bisect(a, tol=1e-13)
                    scaled = [a * (f / rho) for f in factors] if rho > 0.0 else [a]
                    for b in scaled + [a * 10.0 ** k for k in (30, 100, 200, 300)]:
                        assert an.det_positive_all_signatures(b) == lapack_verdict(b), (n, b)
                        checked += 1
        assert checked >= 3000

    @pytest.mark.parametrize("n, seed, rho, lapack", [
        (3, 3069, "0x1.99d399c0bedc2p-1", False),
        (4, 4256, "0x1.e8177beaec47ep-1", True),
    ])
    def test_slack_keeps_lapacks_verdict_where_the_expansion_flips(self, n, seed, rho, lapack):
        # A with 30 % zeros scaled to rho_sr_bisect(A, 1e-13): some det sits
        # within rounding of its threshold, and the expansion alone, with
        # no slack, gives the other verdict.
        g = np.random.default_rng(seed)
        a = g.uniform(-1.0, 1.0, (n, n))
        a[g.random((n, n)) < 0.3] = 0.0
        a /= float.fromhex(rho)
        assert lapack_verdict(a) == lapack
        minors, sizes = an._principal_minors(a)
        expanded = an._expanded_dets(minors, sizes, 1.0)
        expanded_thr = an._signature_thresholds(an._threshold_rows(a), 1.0)
        assert (expanded > expanded_thr).all() != lapack, "no longer a flip on this BLAS"
        assert an.det_positive_all_signatures(a) == lapack

    def test_analyze_rho_instances_need_no_lapack_sweep(self, monkeypatch):
        # The analyze-rho benchmark's matrices at seed 21 are all settled by
        # the expansion and its slack.
        calls = []
        sweep = an.signature_systems
        monkeypatch.setattr(an, "signature_systems",
                            lambda *args, **kw: calls.append(1) or sweep(*args, **kw))
        matrices = [pr.inflated_identity(0.1, 3)]
        for n in (8, 10, 12):
            for cls, nu in [("norm_lt_half", None), ("irreducible_half", None),
                            ("sdd_two_thirds", None), ("tridiag_abs_sym", None),
                            ("unconstrained", 0.9), ("unconstrained", 1.5),
                            ("unconstrained", 4.0)]:
                matrices.append(pr.random_instance(cls, n, 21, nu=nu)[0].a)
        verdicts = [an.det_positive_all_signatures(a) for a in matrices]
        assert calls == []
        assert verdicts == [rho < 1.0 for rho in map(an.rho_sr_enum, matrices)]


class TestOverflow:
    """Both estimators run on X = 2^-e A, ||X||_inf in [1/2, 1), so no
    characteristic polynomial coefficient, minor or bisection bracket
    overflows at any finite ||A||_inf; an overflowing ||A||_inf raises."""

    B = np.random.default_rng(12).uniform(-1.0, 1.0, (12, 12))  # rho^R = 3.29

    def test_overflowing_norm_raises(self):
        # Finite entries whose row sum overflows.
        a = np.array([[1e308, 1e308], [0.0, 0.0]])
        with pytest.raises(ValueError, match="rho_sr_enum"):
            an.rho_sr_enum(a)
        with pytest.raises(ValueError, match="rho_sr_bisect"):
            an.rho_sr_bisect(a)

    @pytest.mark.parametrize("a", [[[1e299]], [[1e300, 0.0], [0.0, 1.0]], [[9e307]],
                                   [[9e307, 0.0], [0.0, 1.0]], [[np.finfo(float).max]]])
    def test_norm_far_above_tol_is_a_number(self, a):
        # top / tol overflowed to inf in the root search's step count, and
        # from 9e307 on 2||A||_inf, the top of bisection's bracket, did.
        a = np.array(a)
        for r in (an.rho_sr_enum(a), an.rho_sr_bisect(a, tol=1e-10)):
            assert r == pytest.approx(a[0, 0], rel=1e-12) and r <= a[0, 0]

    def test_subnormal_norm_is_a_number(self):
        # 2^-e tol would overflow here (e = -1062), so a tol above
        # ||A||_inf, which any result meets, is capped there; and the
        # determinant expansion's t = 2^-e is inf, where every det is 1.
        a = np.array([[1e-320]])
        for r in (an.rho_sr_enum(a), an.rho_sr_bisect(a, tol=1e-10)):
            assert 0.0 <= r <= a[0, 0]
        assert an.det_positive_all_signatures(a)

    def check_scale(self, scale):
        a = scale * self.B
        want = scale * an.rho_sr_bisect(self.B, tol=1e-12)
        assert an.rho_sr_enum(a) == pytest.approx(want, rel=1e-11)
        assert an.rho_sr_bisect(a, tol=1e-10) == pytest.approx(want, rel=1e-11)
        assert an.det_positive_all_signatures(a) == lapack_verdict(a)

    def test_overflowing_coefficients_and_minors_raise(self):
        # At 1e30 the char polys and the 12 x 12 minors of A overflow, which
        # used to raise; those of X do not, so no error is left to raise and
        # both radii are the scale times B's.
        self.check_scale(1e30)

    def test_large_finite_scale_is_unchanged(self):
        # At 1e20 nothing overflows, of A or of X.
        self.check_scale(1e20)


class TestInverseSdd:
    def test_zero_matrix(self):
        assert an.inverse_is_sdd_positive_diag(np.zeros((3, 3)))

    @pytest.mark.parametrize("seed", range(20))
    def test_small_norm(self, seed):
        a = random_matrix(seed + 200, 2 + seed % 6, norm=0.49)
        assert an.inverse_is_sdd_positive_diag(a)

    def test_irreducible_at_half(self):
        a = np.array([[0.0, 0.0, 0.5], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])
        assert an.inverse_is_sdd_positive_diag(a)


def sampled_lower_bound(a, samples, seed):
    """max over random x of min_i |(Ax)_i / x_i|, a lower bound on rho^R(A),
    which is the max of that quantity over all x != 0 (Rump)."""
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(samples, a.shape[0]))
    return float((np.abs(x @ a.T) / np.abs(x)).min(axis=1).max())


class TestSampler:
    @pytest.mark.parametrize("seed", range(8))
    def test_sampler_is_lower_bound(self, seed):
        a = random_matrix(seed + 250, 3)
        sampled = sampled_lower_bound(a, samples=2000, seed=seed)
        assert sampled <= an.rho_sr_enum(a) + 1e-9
