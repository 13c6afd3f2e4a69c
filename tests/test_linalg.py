import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from avekit import linalg as la
from avekit import problems as pr
from avekit.errors import DimensionTooLarge, SingularMatrix

from conftest import (half_stack, random_matrix, real_radius, well_conditioned_matrix,
                      random_signature)

CIRCULANT = np.array([[0.0, 0.0, 0.625], [0.625, 0.0, 0.0], [0.0, 0.625, 0.0]])


class TestInfinityNorm:
    def test_zero_matrix(self):
        assert la.infinity_norm(np.zeros((2, 2))) == 0.0

    def test_trap_matrix(self):
        eps = 0.01
        a = np.array([[eps / 2, (1 + eps) / 2], [0.0, 0.5]])
        assert la.infinity_norm(a) == pytest.approx(0.51, abs=1e-15)

    def test_circulant(self):
        assert la.infinity_norm(CIRCULANT) == 0.625

    def test_one_norm(self):
        a = np.array([[1.0, -2.0], [3.0, 0.5]])
        assert la.one_norm(a) == 4.0

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_pivot_threshold_is_the_rule_on_the_norm(self, n):
        # One matrix, one rule: bitwise threshold_of_norms of its
        # infinity norm, whatever the memory layout.
        a = random_matrix(700 + n, n, norm=3.7)
        for b in (a, np.asfortranarray(a), a.T):
            thr = la.pivot_threshold(b)
            assert type(thr) is float
            assert thr == la.threshold_of_norms(la.infinity_norm(b))


def unblocked_pivots(a):
    """Row order and parity of partial pivoting by one rank-1 update per pivot."""
    lu = np.array(a, dtype=float)
    n = lu.shape[0]
    perm, sign = np.arange(n), 1
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
            sign = -sign
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return perm, sign


class TestLu:
    def test_identity(self):
        f = la.lu_factor(np.eye(3))
        assert f.sign == 1
        assert np.array_equal(f.perm, np.arange(3))
        assert np.array_equal(f.lu, np.eye(3))

    def test_row_swap(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        f = la.lu_factor(a)
        assert f.sign == -1
        assert lu_det(a) == -1.0

    def test_rank_deficient_raises(self):
        with pytest.raises(SingularMatrix):
            la.lu_factor(np.ones((2, 2)))

    @pytest.mark.parametrize("seed", range(30))
    def test_reconstruction(self, seed):
        n = 2 + seed % 7
        a = random_matrix(seed, n)
        f = la.lu_factor(a)
        lower = np.tril(f.lu, -1) + np.eye(n)
        upper = np.triu(f.lu)
        err = np.abs(a[f.perm] - lower @ upper).max()
        assert err <= 1e-12 * (1.0 + la.infinity_norm(a))

    @pytest.mark.parametrize("n", [130, 200])
    @pytest.mark.parametrize("make", [random_matrix, well_conditioned_matrix])
    def test_panels_match_unblocked_reference(self, monkeypatch, make, n):
        # Wider than la._PANEL, so the factorization flushes full panels
        # and finishes on a partial one, at the default width and others.
        a = make(n, n)
        perm, sign = unblocked_pivots(a)
        for width in (1, 3, 64):
            monkeypatch.setattr(la, "_PANEL", width)
            f = la.lu_factor(a)
            assert np.array_equal(f.perm, perm)
            assert f.sign == sign
            lower = np.tril(f.lu, -1) + np.eye(n)
            upper = np.triu(f.lu)
            err = np.abs(a[f.perm] - lower @ upper).max()
            assert err <= 1e-12 * (1.0 + la.infinity_norm(a))

    def test_solve_identity(self):
        b = np.array([3.0, -4.0, 5.0])
        assert np.array_equal(la.lu_solve(la.lu_factor(np.eye(3)), b), b)

    def test_solve_circulant_shifted(self):
        # (I - A)x = 1 with the 5/8 circulant: by symmetry x = 1/(1 - 5/8).
        x = la.lu_solve(la.lu_factor(np.eye(3) - CIRCULANT), np.ones(3))
        assert x == pytest.approx(np.full(3, 8.0 / 3.0), rel=1e-14)

    def test_solve_diagonal(self):
        x = la.lu_solve(la.lu_factor(np.diag([2.0, 4.0])), np.array([2.0, 8.0]))
        assert np.array_equal(x, [1.0, 2.0])

    def test_solve_residual_bound_many(self):
        failures = 0
        for seed in range(1000):
            n = 2 + seed % 9
            a = well_conditioned_matrix(seed, n)
            b = np.random.default_rng(seed + 1).uniform(-1, 1, size=n)
            x = la.lu_solve(la.lu_factor(a), b)
            bound = 1e-10 * (
                1.0 + la.infinity_norm(a) * np.abs(x).max() + np.abs(b).max()
            )
            if np.abs(a @ x - b).max() > bound:
                failures += 1
        assert failures == 0

    def test_solve_matrix_rhs(self):
        a = well_conditioned_matrix(7, 4)
        inv = la.lu_solve(la.lu_factor(a), np.eye(4))
        assert np.abs(a @ inv - np.eye(4)).max() < 1e-12


def lu_det(a):
    """The determinant lu_factor yields: the parity times the product of
    the pivots, 0.0 where it raises SingularMatrix."""
    try:
        f = la.lu_factor(a)
    except SingularMatrix:
        return 0.0
    return float(f.sign * np.prod(np.diag(f.lu)))


class TestDeterminant:
    def test_identity(self):
        assert lu_det(np.eye(3)) == 1.0

    def test_swap(self):
        assert lu_det(np.array([[0.0, 1.0], [1.0, 0.0]])) == -1.0

    def test_signed_shift(self):
        a = np.eye(2) - 0.25 * np.eye(2) @ np.diag([1.0, -1.0])
        assert lu_det(a) == pytest.approx(0.9375, abs=1e-15)

    def test_singular_returns_zero(self):
        assert lu_det(np.ones((3, 3))) == 0.0

    @pytest.mark.parametrize("seed", range(200))
    def test_multiplicative(self, seed):
        a = random_matrix(2 * seed, 5)
        b = random_matrix(2 * seed + 1, 5)
        lhs = lu_det(a @ b)
        rhs = lu_det(a) * lu_det(b)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
        assert lu_det(a) == pytest.approx(np.linalg.det(a), rel=1e-12, abs=1e-15)


def char_poly(a):
    """The characteristic polynomial of one matrix: the row of its
    one-matrix stack."""
    return la.char_polys_stack(np.asarray(a, dtype=float)[None])[0]


class TestCharPoly:
    def test_identity(self):
        assert char_poly(np.eye(2)) == pytest.approx([1.0, -2.0, 1.0])

    def test_swap(self):
        assert char_poly(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(
            [-1.0, 0.0, 1.0]
        )

    def test_circulant(self):
        a = 0.625
        assert char_poly(CIRCULANT) == pytest.approx([-(a**3), 0.0, 0.0, 1.0])

    def test_monic(self):
        p = char_poly(random_matrix(3, 6))
        assert p[-1] == 1.0

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            la.char_polys_stack(np.eye(17)[None])

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_determinant_samples(self, seed):
        # Independent route: det(x I - A) evaluated pointwise must agree
        # with the recursion's polynomial.
        n = 2 + seed % 5
        a = random_matrix(seed + 100, n)
        p = char_poly(a)
        for x in np.linspace(-2.0, 2.0, n + 3):
            direct = np.linalg.det(x * np.eye(n) - a)
            assert polyval(x, p) == pytest.approx(direct, rel=1e-9, abs=1e-9)


def largest_root(p, bound, tol=1e-10):
    """max_abs_real_roots of the one-polynomial stack p (or of the stack
    p, given as rows)."""
    return la.max_abs_real_roots(np.atleast_2d(np.asarray(p, dtype=float)), bound, tol)


class TestRealRoots:
    # The largest |real root| that max_abs_real_roots brackets, on single
    # polynomials with known roots.
    def test_two_roots(self):
        assert largest_root([-1.0, 0.0, 1.0], 2.0) == pytest.approx(1.0, abs=1e-10)

    def test_no_real_roots(self):
        assert largest_root([1.0, 0.0, 1.0], 2.0) == 0.0

    def test_cube_root(self):
        a = 0.625
        assert largest_root([-(a**3), 0.0, 0.0, 1.0], 1.0) == pytest.approx(a, abs=1e-10)

    def test_double_root_reported_once(self):
        assert largest_root([1.0, -2.0, 1.0], 2.0) == pytest.approx(1.0, abs=1e-7)

    def test_root_at_interval_edge(self):
        # Roots exactly at +-bound are counted from the exact outer counts.
        assert largest_root([-1.0, 0.0, 1.0], 1.0) == 1.0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            la._sturm_chains_stack(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            largest_root([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]], 2.0)

    @pytest.mark.parametrize("seed", range(40))
    def test_no_missed_sign_changes(self, seed):
        # The outermost sign change on a 1024-point grid bounds the result
        # from below (odd-multiplicity roots cannot be skipped).
        g = np.random.default_rng(seed)
        deg = int(g.integers(2, 7))
        true_roots = g.uniform(-1.5, 1.5, size=deg)
        p = np.array([1.0])
        for r in true_roots:
            p = np.convolve(p, np.array([-r, 1.0]))
        tol = 1e-9
        found = largest_root(p, 2.0, tol=tol)
        grid = np.linspace(-2.0, 2.0, 1024)
        vals = polyval(grid, p)
        for i in range(len(grid) - 1):
            if vals[i] != 0.0 and vals[i + 1] != 0.0 and (vals[i] > 0) != (vals[i + 1] > 0):
                assert found >= min(abs(grid[i]), abs(grid[i + 1])) - tol
        assert found <= np.abs(true_roots).max() + tol

    @pytest.mark.parametrize("seed", range(40))
    def test_simple_roots_within_half_tol(self, seed):
        # The bracket ends narrower than tol, so its midpoint sits within
        # tol/2 of the largest |root|.
        g = np.random.default_rng(seed)
        deg = int(g.integers(2, 7))
        true_roots = -1.5 + np.cumsum(g.uniform(0.1, 0.5, size=deg))
        p = np.array([1.0])
        for r in true_roots:
            p = np.convolve(p, np.array([-r, 1.0]))
        tol = 1e-9
        found = largest_root(p, 2.0, tol=tol)
        assert abs(found - np.abs(true_roots).max()) <= 0.5 * tol


def _rotation(a):
    return np.array([[0.0, -a], [a, 0.0]])


def variations(signs):
    """Sign variations of a sequence, zeros skipped."""
    nonzero = [v for v in signs if v != 0.0]
    return sum(a != b for a, b in zip(nonzero, nonzero[1:]))


def polyval_variations(chain, x):
    """Sign variations of one row's chain (members degree-descending) at x,
    each member evaluated by np.polyval, zeros skipped."""
    return variations(np.sign([np.polyval(member, x) for member in chain]))


def row_chains(coef):
    """The chains of a ``_sturm_chains_stack`` result row by row, (m, L, w):
    row i's members, degree-descending."""
    return coef.transpose(2, 1, 0)


class TestVariationsStack:
    def test_matches_per_member_polyval(self):
        # Chains of random stacks; that of (x-1)^2 (x+2) = x^3 - 3x + 2,
        # which ends at the gcd x - 1 and keeps a zero member, and whose
        # derivative member is exactly 0 at x = 1; and that of
        # x (x-1) (x+2), which is exactly 0 at x = 0.
        cases = []
        for seed in range(6):
            n = 3 + seed % 4
            mats = np.array([random_matrix(1000 * seed + k, n) for k in range(7)])
            cases.append(la._sturm_chains_stack(la.char_polys_stack(mats))[0])
        special = la._sturm_chains_stack(np.array([[2.0, -3.0, 0.0, 1.0], [0.0, -2.0, 1.0, 1.0]]))[0]
        rows = row_chains(special)
        assert (rows[0, 3] == 0.0).all()
        assert np.polyval(rows[0, 1], 1.0) == 0.0 and np.polyval(rows[1, 0], 0.0) == 0.0
        cases.append(special)
        g = np.random.default_rng(5)
        for coef in cases:
            chains = row_chains(coef)
            m = chains.shape[0]
            points = [1.0, -2.0, 0.0] + list(g.uniform(-2.0, 2.0, size=4))
            for x in points:
                want = [polyval_variations(chains[i], x) for i in range(m)]
                assert la._variations_stack(coef, x).tolist() == want
            rows = g.uniform(-2.0, 2.0, size=m)
            want = [polyval_variations(chains[i], rows[i]) for i in range(m)]
            assert la._variations_stack(coef, rows).tolist() == want
            column = np.array(points)[:, None]
            want = [[polyval_variations(chains[i], x) for i in range(m)] for x in points]
            assert la._variations_stack(coef, column).tolist() == want


# The scalar Sturm chain that rows with a degree drop of more than one
# used to take, kept verbatim as a reference for the stacked chains.
_POLY_EPS = 5e-13


def _poly_trim(coeffs, tol=0.0):
    keep = np.nonzero(np.abs(coeffs) > tol)[0]
    if keep.size == 0:
        return coeffs[:0]
    return coeffs[: keep[-1] + 1]


def _poly_deriv(coeffs):
    if coeffs.size <= 1:
        return coeffs[:0]
    return coeffs[1:] * np.arange(1, coeffs.size)


def _poly_rem(u, v):
    r = np.array(u, dtype=float)
    dv = v.size - 1
    lead = v[-1]
    while r.size - 1 >= dv:
        q = r[-1] / lead
        r[-dv - 1:-1] -= q * v[:-1]
        r = r[:-1]
        r = _poly_trim(r, _POLY_EPS * max(1.0, float(np.abs(r).max(initial=0.0))))
    return r


def scalar_chain(p):
    """Sturm chain of one degree-ascending polynomial, a list of
    degree-ascending members."""
    p = _poly_trim(np.asarray(p, dtype=float))
    if p.size == 0:
        raise ValueError("zero polynomial has no Sturm chain")
    chain = [p / np.abs(p).max()]
    if p.size == 1:
        return chain
    d = _poly_deriv(chain[0])
    chain.append(d / np.abs(d).max())
    while chain[-1].size > 1:
        r = _poly_rem(chain[-2], chain[-1])
        r = _poly_trim(r, _POLY_EPS)
        if r.size == 0:
            break
        chain.append(-r / np.abs(r).max())
    return chain


REFERENCE_STACKS = {
    # name: (polynomials, whether some row drops more than one degree)
    "cube-xcube-quartic": (lambda: np.array([[-0.625**3, 0.0, 0.0, 1.0, 0.0],
                                             [0.0, -0.625**3, 0.0, 0.0, 1.0],
                                             [-1.0, 0.0, 0.0, 0.0, 1.0]]), True),
    "irreducible-half-n10-seed24": (lambda: half_stack(pr.gen_class("irreducible_half", 10, 24)), True),
    "zero-diagonal-n5": (lambda: half_stack(pr.gen_class("irreducible_half", 5, 25_000)), True),
    "random-n7": (lambda: half_stack(random_matrix(3, 7)), False),
}


class TestScalarChainReference:
    @pytest.mark.parametrize("name", sorted(REFERENCE_STACKS))
    def test_stack_chains_are_the_scalar_chains(self, name):
        # Members, degrees and sign-variation counts, at random points and
        # at +-infinity, row by row against scalar_chain.
        make, irregular = REFERENCE_STACKS[name]
        polys = make()
        coef, degree = la._sturm_chains_stack(polys)
        w, _, m = coef.shape
        drops = np.diff(np.where(degree >= 0, degree, 0), axis=0)
        assert ((drops < -1) & (degree[1:] >= 0)).any() == irregular
        chains = [scalar_chain(p) for p in polys]
        rows = row_chains(coef)
        for i, chain in enumerate(chains):
            assert [member.size - 1 for member in chain] == [d for d in degree[:, i] if d >= 0]
            for k, member in enumerate(chain):
                assert np.array_equal(rows[i, k, w - member.size:], member[::-1])
        descending = [[member[::-1] for member in chain] for chain in chains]
        g = np.random.default_rng(24)
        for x in g.uniform(-1.0, 1.0, size=8):
            want = [polyval_variations(chain, x) for chain in descending]
            assert la._variations_stack(coef, x).tolist() == want
        xs = g.uniform(-1.0, 1.0, size=m)
        want = [polyval_variations(chain, x) for x, chain in zip(xs, descending)]
        assert la._variations_stack(coef, xs).tolist() == want
        plus = [variations([np.sign(c[-1]) for c in chain]) for chain in chains]
        minus = [variations([np.sign(c[-1]) * (-1) ** (c.size - 1) for c in chain])
                 for chain in chains]
        assert la._variations_at_infinity(coef, degree).tolist() == [plus, minus]


class TestCountVariations:
    def test_adjacent_pairs_recount_interior_zeros(self):
        # Sign sequences with signed zeros anywhere, leading, interior and
        # trailing, and one all-zero sequence, counted along the
        # second-to-last axis.
        g = np.random.default_rng(9)
        s = g.choice([-1.0, -0.0, 0.0, 1.0], p=[0.35, 0.1, 0.2, 0.35], size=(3, 9, 400))
        s[1, :, 0] = 0.0
        want = [[variations(s[p, :, i]) for i in range(400)] for p in range(3)]
        assert la._count_variations(s).tolist() == want
        assert la._count_variations(s[1]).tolist() == want[1]
        # Zeros only at the ends of the sequences, as in ended chains, with
        # one all-zero sequence: adjacent pairs alone count these.
        ended = g.choice([-1.0, 1.0], size=(9, 60))
        ended[np.arange(9)[:, None] >= 9 - np.arange(60) % 10] = -0.0
        assert not ended[:, 59].any()
        want = [variations(ended[:, i]) for i in range(60)]
        assert la._count_variations(ended).tolist() == want
        assert la._count_variations(np.zeros((9, 1))).tolist() == [0]


class TestMaxAbsRealRoots:
    @pytest.mark.parametrize("seed", range(10))
    def test_stack_is_max_of_rows(self, seed):
        # Rows with no real root, 4-fold roots at +-1, two top roots
        # 1e-13 apart and random matrices: the one bracket over the stack
        # lands exactly where the best single-row bisection does.
        n = 4
        top = 0.7 + 0.05 * seed
        mats = [
            np.block([[_rotation(0.3), np.zeros((2, 2))], [np.zeros((2, 2)), _rotation(0.9)]]),
            np.eye(n),
            -np.eye(n),
            np.diag([0.5, -0.2, top, 0.1]),
            np.diag([0.5, -0.2, top + 1e-13, 0.1]),
        ] + [random_matrix(seed * 10 + k, n) for k in range(5)]
        polys = la.char_polys_stack(np.array(mats))
        bound = max(la.infinity_norm(a) for a in mats)
        rows = [la.max_abs_real_roots(polys[i:i + 1], bound) for i in range(len(mats))]
        assert rows[0] == 0.0
        assert abs(rows[1] - 1.0) <= 1e-3 and abs(rows[2] - 1.0) <= 1e-3
        assert abs(rows[4] - (top + 1e-13)) <= 1e-12
        assert la.max_abs_real_roots(polys, bound) == max(rows)
        assert la.max_abs_real_roots(polys[:1], bound) == 0.0
        # Without the +-I rows the maximum is a simple root.
        simple = np.delete(polys, [1, 2], axis=0)
        assert la.max_abs_real_roots(simple, bound) == max(np.delete(rows, [1, 2]))

    def test_irregular_degree_drops_keep_their_roots(self):
        # x^3 - a^3 (the circulant) and x^4 - 1 (the 4-cycle permutation):
        # the remainder of p by p' is a constant, a degree drop of more
        # than one.  The circulant padded with a zero row and column,
        # x (x^3 - a^3), drops from degree 3 to 1 and stacks with the
        # permutation.
        a = 0.625
        cycle = np.roll(np.eye(4), 1, axis=0)
        padded = np.pad(CIRCULANT, (0, 1))
        cube_poly = la.char_polys_stack(CIRCULANT[None])
        cube = la.max_abs_real_roots(cube_poly, 1.0)
        polys = la.char_polys_stack(np.array([padded, cycle]))
        assert polys[1] == pytest.approx([-1.0, 0.0, 0.0, 0.0, 1.0])
        rows = [la.max_abs_real_roots(polys[i:i + 1], 1.0) for i in range(2)]
        assert la.max_abs_real_roots(polys, 1.0) == max(rows)
        assert abs(cube - a) <= 1e-10 and abs(rows[0] - a) <= 1e-10
        assert abs(rows[1] - 1.0) <= 1e-10
        assert la._sturm_chains_stack(cube_poly)[1][:, 0].tolist() == [3, 2, 0, -1]
        assert la._sturm_chains_stack(polys)[1].T.tolist() == [[4, 3, 1, 0, -1], [4, 3, 0, -1, -1]]

    def test_multisection_schedule_leaves_the_result(self, monkeypatch):
        # Every pass counts points of the same dyadic grid and replays the
        # bisection on them, so the pass width changes nothing: plain
        # bisection (one point per pass) gives the same bits.
        stacks = [(la.char_polys_stack(np.array([random_matrix(2000 + 10 * n + k, n)
                                                 for k in range(1 + 5 * (n % 3))])), float(n))
                  for n in range(2, 9)]
        stacks.append((la.char_polys_stack(np.array([np.eye(4), np.diag([0.5, -0.2, 0.7, 0.1])])), 1.0))
        stacks.append((la.char_polys_stack(np.array([np.pad(CIRCULANT, (0, 1)),
                                                     np.roll(np.eye(4), 1, axis=0)])), 1.0))
        for tol in (1e-6, 1e-10, 1e-13):
            results = []
            for width in (1, 3, 64, 10_000):
                monkeypatch.setattr(la, "_SECTION", width)
                results.append([la.max_abs_real_roots(p, bound, tol) for p, bound in stacks])
            assert all(r == results[0] for r in results)

    def test_zero_bound_and_all_complex(self):
        polys = la.char_polys_stack(np.array([_rotation(0.5), _rotation(2.0)]))
        assert la.max_abs_real_roots(polys, 0.0) == 0.0
        assert la.max_abs_real_roots(polys, 2.0) == 0.0


class TestRho0:
    """The real spectral radius of one matrix, by ``real_radius``."""

    def test_rotation_has_no_real_eigenvalue(self):
        assert real_radius(np.array([[0.0, -1.0], [1.0, 0.0]])) == 0.0

    def test_diagonal(self):
        assert real_radius(np.diag([0.3, -0.9])) == pytest.approx(0.9, abs=1e-11)

    def test_circulant(self):
        assert real_radius(CIRCULANT) == pytest.approx(0.625, abs=1e-11)

    def test_zero(self):
        assert real_radius(np.zeros((4, 4))) == 0.0

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            real_radius(np.eye(17))

    @pytest.mark.parametrize("seed", range(10))
    def test_signature_similarity_invariance_exhaustive(self, seed):
        # S A S is a similarity for every signature S, so the real
        # spectrum is unchanged; check all 2^n signatures.
        n = 2 + seed % 3
        a = random_matrix(seed + 300, n)
        expected = real_radius(a)
        for bits in range(1 << n):
            s = np.array([1.0 if (bits >> j) & 1 == 0 else -1.0 for j in range(n)])
            sas = s[:, None] * a * s[None, :]
            assert real_radius(sas) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_repeated_eigenvalue_identities(self, n):
        # +-I_n has an n-fold eigenvalue at +-1; locating a root of
        # multiplicity m from polynomial values blurs by about eps^(1/m).
        blur = 4.0 * (n * 2.3e-16) ** (1.0 / n) + 1e-10
        assert abs(real_radius(np.eye(n)) - 1.0) <= blur
        assert abs(real_radius(-np.eye(n)) - 1.0) <= blur

    @pytest.mark.parametrize("n", range(2, 9))
    def test_structured_matrices(self, n):
        assert real_radius(np.diag(np.linspace(-0.9, 0.8, n))) == pytest.approx(
            0.9, abs=1e-10
        )
        assert real_radius(np.triu(np.ones((n, n)), 1)) == pytest.approx(0.0, abs=1e-9)
        assert real_radius(np.full((n, n), 0.3)) == pytest.approx(0.3 * n, rel=1e-9)

    @pytest.mark.parametrize("seed", range(25))
    def test_agrees_with_real_roots_route(self, seed):
        # Dual route: the real eigenvalues LAPACK's QR iteration returns,
        # with no characteristic polynomial or Sturm count involved.
        n = 2 + seed % 5
        a = random_matrix(seed + 500, n)
        eig = np.linalg.eigvals(a)
        real = eig.real[eig.imag == 0.0]
        expected = float(np.abs(real).max()) if real.size else 0.0
        assert real_radius(a) == pytest.approx(expected, abs=1e-9)
