"""Dense linear algebra kernels.

Norms, the singularity threshold ``1e-14 * (1 + ||M||_inf)`` every
pivot and signature system is held to (``threshold_of_norms``), LU
factorization with partial pivoting, characteristic polynomials
(Faddeev-LeVerrier) and the largest |real root| by Sturm sequences.
``catch_up_column``, ``elimination_step`` and ``back_substitute`` are
the one Gaussian elimination, a left-looking (Crout) LU in panels of
``_PANEL`` columns: ``lu_factor`` pivots it by rows, signed Gaussian
elimination by symmetric swaps on ``I - A S``.
Both eliminate columns 0, 1, ..., n-1 in that order and the panel is
flushed exactly when it fills, so the open panel of column k always
starts at ``k - k % _PANEL``; the kernel derives it and callers keep no
panel state.  ``lu_solve`` and ``back_substitute`` solve a vector or a
matrix of right-hand sides (Newton's rank-r updates) in the same
panels, each panel's contribution to the remaining rows one matrix
product.
``max_abs_real_roots`` brackets only the largest |root| over a stack of
polynomials by Sturm sign-variation counts: every chain is built on the
stack, any degree drop included, and the bisection runs on an exact
dyadic grid, several grid levels per pass once few rows are left.  The
real spectral radius of one matrix is
``max_abs_real_roots(char_polys_stack(a[None]), infinity_norm(a), tol)``;
``analysis.rho_sr_enum`` runs it over the stack of the S X, X = 2^-e A,
that a proven bound on rho(S X) leaves in the running, which gives the
result of running it over all of them.
Everything operates on plain float64 numpy arrays: matrices
are row-major ``(n, n)``, vectors ``(n,)``, all entries finite.

The eigenvalue machinery is deliberately polynomial-based instead of QR
iteration: it is deterministic, dependency-free and adequate for the
small dimensions (n <= 16) this package targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, SingularMatrix

# Faddeev-LeVerrier loses accuracy quickly beyond small n.
MAX_CHARPOLY_DIM = 16

# Relative coefficient size below which Sturm remainders are truncated.
_POLY_EPS = 5e-13

# Columns per elimination panel: the trailing block receives a panel's
# pending updates as one matrix product once the panel is full.
_PANEL = 64

# Row-point pairs one multisection pass of max_abs_real_roots may count.
_SECTION = 64


def as_square_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(b, n: int | None = None) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ValueError(f"expected a vector, got shape {b.shape}")
    if n is not None and b.shape[0] != n:
        raise ValueError(f"expected a vector of length {n}, got {b.shape[0]}")
    if not np.isfinite(b).all():
        raise ValueError("vector entries must be finite")
    return b


def infinity_norm(a) -> float:
    """Maximum absolute row sum of a matrix."""
    a = np.asarray(a, dtype=float)
    return float(np.abs(a).sum(axis=1).max())


def one_norm(a) -> float:
    """Maximum absolute column sum of a matrix."""
    a = np.asarray(a, dtype=float)
    return float(np.abs(a).sum(axis=0).max())


def pivot_threshold(a) -> float:
    """Scaled absolute threshold ``1e-14 * (1 + ||a||_inf)`` below which a
    pivot of the matrix ``a`` counts as zero."""
    return threshold_of_norms(infinity_norm(a))


def threshold_of_norms(norms):
    """``pivot_threshold`` of matrices whose infinity norms are ``norms``."""
    return 1e-14 * (1.0 + norms)


def gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u = 2^-53 the unit roundoff: a product
    of k factors (1 + d_i), |d_i| <= u, lies within gamma_k relative of
    1, so a k-term dot product is computed within gamma_k of its sum of
    absolute terms (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Lemma 3.1).  ``report.verify``'s residual bound
    and ``analysis._price_certified``'s margin are taken from it."""
    ku = math.ldexp(k, -53)
    return ku / (1.0 - ku)


@dataclass(frozen=True)
class LuFactorization:
    """Combined LU storage of a row-permuted matrix.

    ``lu`` holds the unit lower triangle below the diagonal and the upper
    triangle on and above it; ``perm`` is the row order such that
    ``a[perm] == L @ U``; ``sign`` is the permutation parity (+1/-1).
    """

    lu: np.ndarray
    perm: np.ndarray
    sign: int

    @property
    def n(self) -> int:
        return self.lu.shape[0]


def catch_up_column(lu: np.ndarray, k: int) -> None:
    """Apply the pending updates of column k's open panel to column k on
    and below the diagonal, so that its pivot can be chosen and
    checked."""
    j0 = k - k % _PANEL
    if k > j0:
        lu[k:, k] -= lu[k:, j0:k] @ lu[j0:k, k]


def _flush_panel(lu: np.ndarray, j0: int, k: int) -> None:
    """Apply the updates of the closed panel ``j0:k`` to the trailing
    block ``lu[k:, k:]``, ``_PANEL`` rows at a time so that no temporary
    of the trailing block's size exists."""
    for i in range(k, lu.shape[0], _PANEL):
        lu[i:i + _PANEL, k:] -= lu[i:i + _PANEL, j0:k] @ lu[j0:k, k:]


def elimination_step(lu: np.ndarray, k: int, rhs: np.ndarray | None = None) -> None:
    """One in-place Crout elimination step at the pivot ``lu[k, k]``,
    which the caller has caught up with ``catch_up_column``, chosen and
    checked.  Row k of U takes the pending updates of its open panel,
    column k below the pivot becomes the multipliers (column k of L) and
    ``rhs`` is forward-substituted.  The trailing block gets the panel's
    updates once column k fills the panel."""
    j0 = k - k % _PANEL
    if k > j0:
        lu[k, k + 1:] -= lu[k, j0:k] @ lu[j0:k, k + 1:]
    below = lu[k + 1:, k]
    below /= lu[k, k]
    if rhs is not None:
        rhs[k + 1:] -= below * rhs[k]
    if k + 1 - j0 == _PANEL:
        _flush_panel(lu, j0, k + 1)


def back_substitute(lu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Overwrite x with the solution of U x = x, U the upper triangle of
    ``lu``; x may be a vector or a matrix of stacked columns.

    x is solved ``_PANEL`` rows at a time from the bottom: each row
    within the panel, then the rows above take the panel's contribution
    as one matrix product."""
    n = x.shape[0]
    for i1 in range(n, 0, -_PANEL):
        i0 = max(i1 - _PANEL, 0)
        for k in range(i1 - 1, i0 - 1, -1):
            x[k] = (x[k] - lu[k, k + 1:i1] @ x[k + 1:i1]) / lu[k, k]
        if i0:
            x[:i0] -= lu[:i0, i0:i1] @ x[i0:i1]
    return x


def lu_factor(a) -> LuFactorization:
    """Factor a square matrix as P*A = L*U with partial pivoting.

    Raises SingularMatrix when a pivot magnitude falls below
    ``1e-14 * (1 + ||A||_inf)``.
    """
    a = as_square_matrix(a)
    threshold = pivot_threshold(a)
    lu = a.copy()
    n = lu.shape[0]
    perm = np.arange(n)
    sign = 1
    for k in range(n):
        catch_up_column(lu, k)
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) <= threshold:
            raise SingularMatrix("pivot below singularity threshold")
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
            sign = -sign
        elimination_step(lu, k)
    return LuFactorization(lu=lu, perm=perm, sign=sign)


def lu_solve(f: LuFactorization, b) -> np.ndarray:
    """Solve A x = b given the factorization of A.

    ``b`` may be a vector or a matrix of stacked right-hand side columns,
    forward-substituted ``_PANEL`` rows at a time like
    ``back_substitute``, each panel's contribution to the rows below it
    subtracted as one matrix product.
    """
    b = np.asarray(b, dtype=float)
    n = f.n
    if b.shape[0] != n:
        raise ValueError(f"right-hand side length {b.shape[0]} != {n}")
    x = b[f.perm]
    lu = f.lu
    for i0 in range(0, n, _PANEL):
        i1 = min(i0 + _PANEL, n)
        for k in range(i0 + 1, i1):
            x[k] -= lu[k, i0:k] @ x[i0:k]
        if i1 < n:
            x[i1:] -= lu[i1:, i0:i1] @ x[i0:i1]
    return back_substitute(lu, x)


def char_polys_stack(mats: np.ndarray) -> np.ndarray:
    """Characteristic polynomials det(lambda I - A) for a stack of matrices.

    Input shape ``(m, n, n)``; output shape ``(m, n + 1)`` with
    degree-ascending coefficients (monic: last column is 1).  Uses the
    Faddeev-LeVerrier trace recursion, which is exact up to rounding on
    integer matrices.
    """
    mats = np.asarray(mats, dtype=float)
    m, n, n2 = mats.shape
    if n != n2:
        raise ValueError("stack entries must be square")
    if n > MAX_CHARPOLY_DIM:
        raise DimensionTooLarge(f"characteristic polynomial capped at n <= {MAX_CHARPOLY_DIM}")
    coeffs = np.zeros((m, n + 1))
    coeffs[:, n] = 1.0
    mk = mats.copy()
    coeffs[:, n - 1] = -np.einsum("kii->k", mk)
    for j in range(2, n + 1):
        # mk + c I, in place: mk is a fresh C-contiguous product, so the
        # strided view is its diagonal.
        mk.reshape(m, n * n)[:, ::n + 1] += coeffs[:, n - j + 1, None]
        mk = mats @ mk
        coeffs[:, n - j] = -np.einsum("kii->k", mk) / j
    return coeffs


# ---------------------------------------------------------------------------
# Batched Sturm machinery for the largest-magnitude real root.  This backs
# the exponential signature enumeration of rho_sr_enum, where thousands of
# polynomials of the same degree are processed at once.  The chains are
# kept coefficient-major, rows last, so that every per-row step, reduction
# and count runs over contiguous rows.


def _sturm_chains_stack(polys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Sturm chains for a stack of polynomials.

    Input ``(m, n + 1)`` degree-ascending, no row zero (ValueError).
    Returns the chains ``coef``, shaped ``(n + 1, n + 1, m)`` and
    C-contiguous, with ``coef[j, k, i]`` the coefficient of x^(n - j) in
    member k of row i's chain (so the members are stored
    degree-descending, left-padded with zeros), and the members' degrees
    ``(n + 1, m)``, -1 past the end of a chain.

    Member 0 is the polynomial and member 1 its derivative, each scaled
    to unit max |coefficient|.  Member k is minus the remainder of member
    k - 2 by member k - 1, scaled the same way, by ``_next_member``: one
    long division over all rows whose two members have the same degrees,
    so a row whose degree drops by more than one (x^5 + c_1 x + c_0,
    whose p' has no terms between x^4 and 1) takes the same vectorised
    path as the rest.  A remainder whose max |coefficient| is at most
    ``_POLY_EPS`` ends the chain at the gcd of p and p', so a multiple
    root counts once; the later members stay zero, which the
    sign-variation count skips.
    """
    polys = np.asarray(polys, dtype=float)
    m, w = polys.shape
    n = w - 1
    desc = polys.T[::-1]
    size = np.abs(desc).max(axis=0)
    if not size.all():
        raise ValueError("zero polynomial has no Sturm chain")
    coef = np.zeros((w, w, m))
    degree = np.full((w, m), -1)
    coef[:, 0] = desc / size
    zero = desc == 0.0
    degree[0] = n - (np.logical_and.accumulate(zero, axis=0).sum(axis=0) if zero[0].any() else 0)
    rows = np.flatnonzero(degree[0] >= 1)
    if rows.size:
        rows = _row_index(rows, m)
        der = coef[:-1, 0, rows] * np.arange(n, 0, -1)[:, None]
        coef[1:, 1, rows] = der / np.abs(der).max(axis=0)
        degree[1, rows] = degree[0, rows] - 1
    for k in range(2, w):
        # Rows grouped by the degrees of members k - 2 and k - 1; -1 once
        # member k - 1 is a constant or past the end.
        pair = np.where(degree[k - 1] >= 1, degree[k - 2] * w + degree[k - 1], -1)
        top = pair.max()
        if top < 0:
            break
        for key in [top] if pair.min() == top else np.unique(pair[pair >= 0]):
            rows = _row_index(np.flatnonzero(pair == key), m)
            _next_member(coef, degree, rows, k, n - key // w, n - key % w)
    return coef, degree


def _row_index(index: np.ndarray, m: int):
    """Row ``index`` into a stack of m, as a basic slice when it is every
    row, so that reads are views and no row is gathered."""
    return slice(None) if index.size == m else index


def _next_member(coef: np.ndarray, degree: np.ndarray, rows, k: int, cu: int, cv: int) -> None:
    """Member k of the chains ``rows``, whose members k - 2 and k - 1 lead
    at columns cu < cv: cv - cu + 1 steps of long division give the
    remainder, whose coefficients leading by at most 1e-10 times its max
    |coefficient| are dropped, and the member is minus the rest, scaled
    to unit max |coefficient|, or zero where that max is at most
    ``_POLY_EPS``.  Only the columns from k - 2 on are touched, as member
    j has degree at most n - j.  On a degree drop of one this is the
    two-term division of a regular chain."""
    w = coef.shape[0]
    base = k - 2
    width = w - base
    r = coef[base:, k - 2, rows]
    v = coef[base:, k - 1, rows]
    # v, and v times x^s for s up to cv - cu, as slices of one padded copy.
    padded = np.zeros((width + cv - cu, v.shape[1]))
    padded[:width] = v
    lead = v[cv - base]
    for c in range(cu - base, cv - base + 1):
        s = cv - base - c
        step = (r[c] / lead) * padded[s:s + width]
        r = np.subtract(r, step, out=step)
    rem = r[cv - base + 1:]
    np.negative(rem, out=rem)
    size = np.abs(rem)
    scale = size.max(axis=0)
    member = rem / np.where(scale > 0.0, scale, 1.0)
    new_degree = w - 2 - cv
    small = size <= 1e-10 * scale
    if small[0].any():
        dropped = np.logical_and.accumulate(small, axis=0)
        member[dropped] = 0.0
        new_degree = new_degree - dropped.sum(axis=0)
    ended = scale <= _POLY_EPS
    if ended.any():
        member[:, ended] = 0.0
        new_degree = np.where(ended, -1, new_degree)
    coef[cv + 1:, k, rows] = member
    degree[k, rows] = new_degree


def _count_variations(s: np.ndarray) -> np.ndarray:
    """Sign variations of (..., L, m) sign values along the L axis,
    skipping zeros, shaped (..., m), as int16 (it sums faster than int64
    and holds the at most L - 1 variations of a chain below degree 2^15).

    Counted on adjacent pairs, which is exact unless a zero sits between
    two nonzero entries; so when some nonzero entry in the batch follows
    a zero, each entry first takes the last nonzero one at or before it."""
    nonzero = s != 0.0
    if (nonzero[..., 1:, :] > nonzero[..., :-1, :]).any():
        pos = np.arange(s.shape[-2])[:, None]
        last = np.maximum.accumulate(np.where(nonzero, pos, 0), axis=-2)
        s = np.take_along_axis(s, last, axis=-2)
    return (s[..., :-1, :] * s[..., 1:, :] < 0.0).sum(axis=-2, dtype=np.int16)


def _variations_stack(coef: np.ndarray, x) -> np.ndarray:
    """Sign variations of each row's chain at the points x.

    ``coef`` is a chain stack as ``_sturm_chains_stack`` returns it,
    ``(w, L, m)``, C-contiguous, so each Horner step reads one contiguous
    ``(L, m)`` slab.  x broadcasts against the m rows: one point or one
    per row gives ``(m,)`` counts, k points of shape ``(k, 1)`` give
    ``(k, m)`` counts."""
    w, L, m = coef.shape
    x = np.asarray(x, dtype=float)
    xcol = x[..., None, :] if x.ndim else x
    # xcol is (..., 1, m) or (..., 1, 1): the counts' leading axes, then
    # the members and the rows.
    vals = np.empty(xcol.shape[:-2] + (L, m))
    vals[...] = coef[0]
    for j in range(1, w):
        vals *= xcol
        vals += coef[j]
    return _count_variations(np.sign(vals))


def _variations_at_infinity(coef: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """Sign variations of each row's chain at +infinity and at -infinity,
    ``(2, m)``, read off the members' leading coefficients, a member of
    degree d taking the sign (-1)^d of x^d at -infinity.  ``coef,
    degree`` are ``_sturm_chains_stack``'s.

    Exact, which matters: near a multiple root the polynomial itself
    evaluates to rounding noise, so counting at a finite outer bracket
    can lose roots sitting at the edge of the spectrum bound.
    """
    w = coef.shape[0]
    # An ended member (degree -1) reads 0 in any column.
    lead = np.take_along_axis(coef, np.minimum(w - 1 - degree, w - 1)[None], axis=0)[0]
    at_inf = np.sign(lead)
    return _count_variations(np.stack([at_inf, np.where(degree & 1, -at_inf, at_inf)]))


def max_abs_real_roots(polys: np.ndarray, bound: float, tol: float = 1e-12) -> float:
    """Largest |real root| over a stack of polynomials whose real roots
    all lie in [-bound, bound] (e.g. characteristic polynomials with
    ``bound`` a matrix norm); 0 if no row has a real root.

    One bisection on t over the whole stack, outside-in: t moves up while
    some live row still has a root with |root| > t (by Sturm counts), and
    a row with none is dropped, since it cannot hold the maximum.  The
    bisection runs on the dyadic grid t = top * i 2^-steps, top = bound
    (1 + 1e-9), and returns the midpoint of its last cell.  Each pass
    counts the live rows at the 2^b - 1 inner grid points of the bracket
    that b more bisection steps could visit, with b as large as keeps
    rows x points within ``_SECTION``, and replays those b steps on the
    counts; so the bracket, like every point counted, is the same whether
    a row runs alone or in a stack.
    """
    if bound == 0.0:
        return 0.0
    coef, degree = _sturm_chains_stack(polys)
    # Outer counts taken at +-infinity (exact); every real root lies in
    # [-bound, bound], so they count exactly the roots of interest.
    v_hi, v_lo = _variations_at_infinity(coef, degree)
    live = v_lo > v_hi
    if not live.any():
        return 0.0
    # compress keeps the stack C-contiguous; a boolean index on the last
    # axis would not.
    coef, v_hi, v_lo = np.compress(live, coef, axis=2), v_hi[live], v_lo[live]
    top = bound * (1.0 + 1e-9)
    # At most 200 steps, which any ratio from 2^198 on reaches; top / tol
    # may overflow to inf there.
    ratio = top / max(tol, 1e-300)
    steps = 200 if ratio >= 2.0 ** 198 else int(np.ceil(np.log2(max(ratio, 4.0)))) + 2
    # The bracket [lo, hi] in grid units top * 2^-steps; hi - lo is a power
    # of two, and Python integers keep every grid point exact.
    lo, hi = 0, 1 << steps
    while hi - lo > 1:
        rows = coef.shape[2]
        b = min((hi - lo).bit_length() - 1, max(1, (_SECTION // rows + 1).bit_length() - 1))
        cell = (hi - lo) >> b
        grid = lo + cell * np.arange(1, 1 << b, dtype=object)
        points = top * np.ldexp(grid.astype(float), -steps)
        # One call counts every row at +t and at -t for every point t.
        counts = _variations_stack(coef, np.concatenate([points, -points])[:, None])
        above, below = counts[:points.size], counts[points.size:]
        grow = (above - v_hi) + (v_lo - below) >= 1
        # The b bisection steps, on grid points 0 .. 2^b of the bracket.
        j_lo, j_hi, keep = 0, 1 << b, np.ones(rows, dtype=bool)
        while j_hi - j_lo > 1:
            j = (j_lo + j_hi) // 2
            moved = keep & grow[j - 1]
            if moved.any():
                j_lo, keep = j, moved
            else:
                j_hi = j
        lo, hi = lo + j_lo * cell, lo + j_hi * cell
        if not keep.all():
            coef, v_hi, v_lo = np.compress(keep, coef, axis=2), v_hi[keep], v_lo[keep]
    return min(0.5 * (top * math.ldexp(lo, -steps) + top * math.ldexp(hi, -steps)), bound)
