import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avekit import analysis as an
from avekit import linalg as la
from avekit import problems as pr
from avekit.errors import DimensionTooLarge

from conftest import random_matrix, random_signature

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
        # enumeration done with public rho0 calls.
        n = 4
        a = random_matrix(seed + 40, n, norm=0.9)
        full = max(
            la.rho0(s[:, None] * a) for s in an.signature_stack(n, fix_first=False)
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

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_enumeration(self, seed):
        n = 2 + seed % 4
        a = random_matrix(seed + 120, n)
        tol = 1e-8
        assert abs(an.rho_sr_enum(a, tol=1e-10) - an.rho_sr_bisect(a, tol=tol)) <= 2 * tol

    def test_norm_attaining_radius_is_bounded(self, monkeypatch):
        # rho^R(1.1 I) = ||A||_inf, so t = ||A||_inf sits in the threshold
        # band; the bracket must not creep up from there in 1 + tol steps.
        calls = []
        systems = an.signature_systems

        def counting(*args, **kwargs):
            calls.append(args)
            return systems(*args, **kwargs)

        monkeypatch.setattr(an, "signature_systems", counting)
        r = an.rho_sr_bisect(pr.inflated_identity(0.1, 3), tol=1e-10)
        assert len(calls) <= 64
        # det(I - (1.1/t) I) = (1 - 1.1/t)^3 must clear ~2e-14 for t to count.
        eps = np.finfo(float).eps
        assert abs(r - 1.1) <= 2 * (1 + eps) * 1e-14 ** (1 / 3)


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


class TestSampler:
    @pytest.mark.parametrize("seed", range(8))
    def test_sampler_is_lower_bound(self, seed):
        a = random_matrix(seed + 250, 3)
        sampled = an.rho_sr_sample_lower(a, samples=2000, seed=seed)
        assert sampled <= an.rho_sr_enum(a) + 1e-9
