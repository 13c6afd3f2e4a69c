import math

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

    def test_check_at_lo_falls_through_to_the_full_sweep(self, sweeps, det_calls):
        # Strictly upper triangular at n = 8: every signature passes at lo,
        # and the one expansion sweep there covers all 256 of them.
        assert an.rho_sr_bisect(np.triu(random_matrix(8, 8), 1)) == 0.0
        assert sweeps == [True]
        assert det_calls == [1]
        # Here only signatures with s_7 = -1, the second half of the stack,
        # fail at lo: rho^R is 0.5, not 0.
        a = np.diag([0.0] * 7 + [-0.5])
        _mats, dets, thr = an.signature_systems(a, scale=la.pivot_threshold(a))
        assert np.array_equal(dets <= thr, an.signature_stack(8)[:, 7] < 0)
        assert an.rho_sr_bisect(a, tol=1e-10) == pytest.approx(0.5, abs=1e-9)
        assert sweeps[1] is False

    def test_check_at_lo_is_the_whole_sweep_at_small_n(self, sweeps, det_calls):
        # One LAPACK det call for the minors and one expansion sweep at lo
        # settle rho^R = 0.
        assert an.rho_sr_bisect(np.triu(random_matrix(4, 4), 1)) == 0.0
        assert sweeps == [True]
        assert det_calls == [1]

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
        assert det_calls == [1]
        assert len(sweeps) <= plain_bisection(a, 1e-10)[1] <= 64
        # det(I - (1.1/t) I) = (1 - 1.1/t)^3 must clear ~2e-14 for t to count.
        eps = np.finfo(float).eps
        assert abs(r - 1.1) <= 2 * (1 + eps) * 1e-14 ** (1 / 3)


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
    admissible."""
    log = []
    expanded = an._expanded_systems

    def recording(*args, **kwargs):
        out = expanded(*args, **kwargs)
        log.append(bool((out[0] > out[1]).all()))
        return out

    monkeypatch.setattr(an, "_expanded_systems", recording)
    return log


@pytest.fixture
def det_calls(monkeypatch):
    """The number of np.linalg.det calls made by each rho_sr_bisect call."""
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


def expansion_bound(a, t):
    """16 n eps sum_J prod_{i in J} r_i / t^|J| = 16 n eps prod_i (1 + r_i/t),
    r_i the row sums of |A|: a bound on how far the minor expansion's and
    LAPACK's det(I - (A/t)S) may each stray from the exact value.  The
    terms bound |det(A_JJ)| t^-|J|, and the rounding error of a computed
    minor, which is not small against |det(A_JJ)| when it cancels."""
    n = a.shape[0]
    return 16 * n * np.finfo(float).eps * np.prod(1.0 + np.abs(a).sum(axis=1) / t)


def expansion(a, t):
    """_expanded_systems of A at scale t, flattened to signature order."""
    minors, sizes = an._principal_minors(a)
    dets, thr = an._expanded_systems(minors, sizes, an._threshold_rows(a), t)
    return dets.reshape(-1), thr.reshape(-1)


class TestSignatureSystems:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_closed_form_threshold_and_exact_matrices(self, n):
        # The closed-form thresholds match pivot_threshold of the returned
        # matrices, which are bitwise I - (A/t)S, zero entries included.
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
                ref = la.pivot_threshold(mats)
                assert (np.abs(thr - ref) <= 1e-15 * ref).all()


class TestMinorExpansion:
    @pytest.mark.parametrize("k", range(7))
    def test_hadamard_entries(self, k):
        bits = an.signature_stack(k) < 0
        parity = (bits[:, None, :] & bits[None, :, :]).sum(axis=2) % 2
        assert np.array_equal(an._hadamard(k), 1.0 - 2.0 * parity)

    def test_minors_are_the_principal_blocks(self):
        a = random_matrix(600, 5)
        minors, sizes = an._principal_minors(a)
        for j, inside in enumerate(an.signature_stack(5) < 0):
            block = a[np.ix_(inside, inside)]
            assert sizes[j] == inside.sum()
            assert minors[j] == pytest.approx(np.linalg.det(block) if inside.any() else 1.0,
                                              rel=1e-12, abs=1e-15)

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
        assert det_calls == [1] * 200

    @pytest.mark.parametrize("cls, nu", [
        ("norm_lt_half", None), ("irreducible_half", None), ("sdd_two_thirds", None),
        ("tridiag_abs_sym", None), ("unconstrained", 0.9), ("unconstrained", 1.5),
        ("unconstrained", 4.0),
    ])
    def test_analyze_rho_n12_takes_at_most_12_sweeps(self, sweeps, det_calls, cls, nu):
        # The n = 12 instances of the analyze-rho benchmark at seed 21: one
        # LAPACK det call, then no more expansion sweeps than plain
        # bisection makes from [lo, ||A||_inf] or [||A||_inf, 2||A||_inf].
        problem, _z = pr.random_instance(cls, 12, 21, nu=nu)
        tol = 1e-10
        estimate = an.rho_sr_bisect(problem.a, tol=tol)
        assert det_calls == [1]
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
        verdicts = []
        reference, _ = plain_bisection(a, 1e-8, verdicts)
        estimate = an.rho_sr_bisect(a, tol=1e-8)
        assert sweeps == verdicts
        assert estimate == reference
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
