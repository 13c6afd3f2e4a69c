"""Matrix predicates and solvability analysis for z - A|z| = b.

Contains the convergence-condition checks used by the solvers, the Neq
index set, and the sign-real spectral radius computed by two independent
methods (direct signature enumeration and determinant-positivity
bisection).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from functools import lru_cache

import numpy as np

from .errors import DimensionTooLarge
from .linalg import (
    as_square_matrix,
    as_vector,
    char_polys_stack,
    infinity_norm,
    lu_factor,
    lu_solve,
    max_abs_real_roots,
    pivot_threshold,
    threshold_of_norms,
)

# 2^n signature enumerations are kept below a second of work.
MAX_ENUM_DIM = 12


def signature_of(z) -> np.ndarray:
    """Componentwise sign of z as a +-1 integer vector, with sign(0) = +1.

    Satisfies ``signature_of(z) * z == |z|`` exactly, including signed
    zeros.
    """
    z = np.asarray(z, dtype=float)
    return np.where(z >= 0.0, 1, -1).astype(np.int64)


@lru_cache(maxsize=None)
def signature_stack(n: int, fix_first: bool = False) -> np.ndarray:
    """All sign vectors of length n, optionally with the first sign pinned
    to +1 (halving the enumeration).  Row 0 is all +1; cached, read-only."""
    free = n - 1 if fix_first else n
    idx = np.arange(1 << free, dtype=np.int64)[:, None]
    bits = (idx >> np.arange(free)[None, :]) & 1
    signs = 1.0 - 2.0 * bits
    if fix_first:
        signs = np.hstack([np.ones((signs.shape[0], 1)), signs])
    signs.setflags(write=False)
    return signs


def is_irreducible(a) -> bool:
    """True iff the nonzero-pattern digraph of A is strongly connected.

    Every 1x1 matrix counts as irreducible.
    """
    a = as_square_matrix(a)
    n = a.shape[0]
    if n == 1:
        return True
    adj = a != 0.0

    def reaches_all(edges: np.ndarray) -> bool:
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = edges[frontier].any(axis=0) & ~seen
            seen |= frontier
        return bool(seen.all())

    return reaches_all(adj) and reaches_all(adj.T)


def is_strictly_diag_dominant(a) -> bool:
    """True iff |a_ii| > sum_{j != i} |a_ij| for every row."""
    a = as_square_matrix(a)
    off = np.abs(a)
    diag = off.diagonal().copy()
    np.fill_diagonal(off, 0.0)
    return bool((diag > off.sum(axis=1)).all())


def is_tridiag_abs_symmetric(a) -> bool:
    """True iff a_ij = 0 for |i - j| > 1 and |A| is symmetric."""
    a = as_square_matrix(a)
    n = a.shape[0]
    if n > 2 and (np.triu(a, 2) != 0.0).any():
        return False
    if n > 2 and (np.tril(a, -2) != 0.0).any():
        return False
    abs_a = np.abs(a)
    return bool(np.array_equal(abs_a, abs_a.T))


@dataclass(frozen=True)
class ConditionProfile:
    """Evaluation of the four sufficient solvability conditions.

    cond1: ||A||_inf < 1/2
    cond2: A irreducible and ||A||_inf <= 1/2
    cond3: A strictly diagonally dominant and ||A||_inf <= 2/3
    cond4: |A| tridiagonal-symmetric, ||A||_inf < 1, n >= 2
    """

    norm_inf: float
    cond1: bool
    cond2: bool
    cond3: bool
    cond4: bool
    any: bool

    def as_dict(self) -> dict:
        return asdict(self)


def condition_profile(a) -> ConditionProfile:
    a = as_square_matrix(a)
    n = a.shape[0]
    norm = infinity_norm(a)
    c1 = norm < 0.5
    c2 = norm <= 0.5 and is_irreducible(a)
    c3 = norm <= 2.0 / 3.0 and is_strictly_diag_dominant(a)
    c4 = n >= 2 and norm < 1.0 and is_tridiag_abs_symmetric(a)
    return ConditionProfile(
        norm_inf=norm, cond1=c1, cond2=c2, cond3=c3, cond4=c4,
        any=c1 or c2 or c3 or c4,
    )


def neq_set(b, z) -> list[int]:
    """Indices of maximal-|b| entries whose sign disagrees with z there.

    Indices are 0-based.  "Maximal" is exact float equality with
    ||b||_inf, which is what the solvability theory covers.
    """
    b = as_vector(b)
    z = as_vector(z, b.shape[0])
    abs_b = np.abs(b)
    maximal = abs_b == abs_b.max()
    disagree = signature_of(b) != signature_of(z)
    return [int(i) for i in np.nonzero(maximal & disagree)[0]]


def _check_enum_dim(n: int, what: str) -> None:
    if n > MAX_ENUM_DIM:
        raise DimensionTooLarge(f"{what} capped at n <= {MAX_ENUM_DIM}")


def rho_sr_enum(a, tol: float = 1e-10) -> float:
    """Sign-real spectral radius by direct enumeration.

    Maximizes the real spectral radius of S*A over all signatures S.  The
    first sign is pinned to +1: S and -S give the same set of |real
    eigenvalue| values, so half the enumeration suffices (verified as a
    unit test rather than assumed silently).  Raises ValueError when
    ||A||_inf or a characteristic polynomial coefficient overflows.
    """
    a = as_square_matrix(a)
    n = a.shape[0]
    _check_enum_dim(n, "rho_sr_enum")
    signs = signature_stack(n, fix_first=True)
    mats = signs[:, :, None] * a[None, :, :]
    with np.errstate(over="ignore", invalid="ignore"):
        # ||S A||_inf == ||A||_inf for every signature, so one bound serves all.
        norm = infinity_norm(a)
        polys = char_polys_stack(mats)
    if not (np.isfinite(norm) and np.isfinite(polys).all()):
        raise ValueError("rho_sr_enum: ||A||_inf or a characteristic polynomial "
                         "coefficient of S*A overflows; scale A down")
    return max_abs_real_roots(polys, norm, tol)


def _off_diagonal_sums(a: np.ndarray) -> np.ndarray:
    """off_i = sum_{j != i} |a_ij|, summed in row-major order whatever
    the layout of ``a``."""
    off = np.abs(a, order="C")
    off.reshape(-1)[::len(off) + 1] = 0.0
    return off.sum(axis=1)


def signature_systems(a: np.ndarray, scale: float = 1.0):
    """The stack I - (A/scale)S over all signatures S (in
    ``signature_stack(n)`` order), its determinants and each matrix's
    singularity threshold.

    Row i of I - (A/t)S has absolute sum |1 - a_ii s_i / t| + off_i / t,
    where off_i = sum_{j != i} |a_ij|, so the threshold
    ``1e-14 * (1 + max_i (|1 - a_ii s_i / t| + off_i / t))`` is read off
    the diagonals.  It equals ``pivot_threshold`` of the matrix up to
    rounding."""
    signs = signature_stack(a.shape[0])
    m, n = signs.shape
    # Row-major whatever the layout of a, so that the reshape below is a
    # view and the diagonal is added in place.
    mats = np.multiply(a / scale, signs[:, None, :], order="C")
    # 0 - x rather than -x keeps zero entries +0, as in I - x.
    np.subtract(0.0, mats, out=mats)
    diag = mats.reshape(m, n * n)[:, ::n + 1]
    diag += 1.0
    rows = np.abs(diag)
    rows += _off_diagonal_sums(a) / scale
    return mats, np.linalg.det(mats), threshold_of_norms(rows.max(axis=1))


def det_positive_all_signatures(a) -> bool:
    """True iff LAPACK's det(I - AS) clears the singularity threshold of
    ``signature_systems(a)`` for all S.

    The determinants are read off the principal minors of A by the minor
    expansion at t = 1 (``_expanded_systems``), which lies within
    e = 16 n eps prod_i (1 + r_i) of LAPACK's, r_i the row sums of |A|.
    A determinant below its threshold by more than e settles False, all of
    them above by more than e settle True; otherwise, and wherever a value
    is not finite, the verdict is that of the LAPACK sweep over
    ``signature_systems(a)``."""
    a = as_square_matrix(a)
    n = a.shape[0]
    _check_enum_dim(n, "det_positive_all_signatures")
    minors, sizes = _principal_minors(a)
    with np.errstate(over="ignore", invalid="ignore"):
        dets, thr = _expanded_systems(minors, sizes, _threshold_rows(a), 1.0)
        slack = 16 * n * np.finfo(float).eps * np.prod(1.0 + np.abs(a).sum(axis=1))
        if np.isfinite(slack) and np.isfinite(dets).all():
            if (dets < thr - slack).any():
                return False
            if (dets > thr + slack).all():
                return True
        _mats, dets, thr = signature_systems(a)
    return bool((dets > thr).all())


@lru_cache(maxsize=None)
def _hadamard(k: int) -> np.ndarray:
    """The Sylvester-Hadamard matrix of order 2^k, H[i, j] =
    (-1)^popcount(i & j); cached, read-only."""
    bits = (signature_stack(k) < 0).astype(float)
    h = 1.0 - 2.0 * (bits @ bits.T % 2.0)
    h.setflags(write=False)
    return h


@lru_cache(maxsize=None)
def _principal_blocks(n: int):
    """|J| for every subset J of range(n) in ``signature_stack(n)`` order
    (i in J iff s_i = -1), and for each block size k = 1..n the positions
    of the subsets with |J| = k and the row and column indices that
    gather their blocks A_JJ as one (positions, k, k) stack; cached,
    sizes read-only."""
    inside = signature_stack(n) < 0
    sizes = inside.sum(axis=1)
    groups = []
    for k in range(1, n + 1):
        rows = np.flatnonzero(sizes == k)
        members = inside[rows].nonzero()[1].reshape(len(rows), k)
        groups.append((rows, members[:, :, None], members[:, None, :]))
    sizes.setflags(write=False)
    return sizes, tuple(groups)


def _principal_minors(a: np.ndarray):
    """det(A_JJ) and |J| for every subset J of the indices, in
    ``signature_stack(n)`` order, with det of the empty block 1: one
    LAPACK det call per block size k over the gathered k x k blocks, so
    each minor is exactly ``np.linalg.det(a[np.ix_(J, J)])``.  The last
    matrix's minors are kept, so the callers on one matrix compute them
    once; read-only.  A minor overflows to inf or nan once ||A||_inf^|J|
    passes the float range; callers check."""
    return _minors_of(a.shape[0], a.tobytes())


@lru_cache(maxsize=1)
def _minors_of(n: int, data: bytes):
    """``_principal_minors`` of the row-major bytes of an n x n matrix."""
    a = np.frombuffer(data).reshape(n, n)
    sizes, groups = _principal_blocks(n)
    minors = np.ones(len(sizes))
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, r, c in groups:
            minors[rows] = np.linalg.det(a[r, c])
    minors.setflags(write=False)
    return minors, sizes


def _threshold_rows(a: np.ndarray):
    """What the thresholds of ``_expanded_systems`` read of A, fixed for a
    whole search: -a_ii then a_ii, the off-diagonal sums off_i (from
    ``_off_diagonal_sums``) twice, and for the high and the low half of
    the indices (i >= n//2, i < n//2) a ``signature_stack`` of the half
    as positions into those 2n entries: i at s_i = +1, n + i at
    s_i = -1."""
    n = a.shape[0]
    low = n // 2
    diag, off = np.diagonal(a), _off_diagonal_sums(a)
    halves = tuple(np.where(signature_stack(k) < 0, n, 0) + np.arange(first, first + k)
                   for k, first in ((n - low, low), (low, 0)))
    return np.concatenate([-diag, diag]), np.concatenate([off, off]), halves


def _expanded_systems(minors, sizes, rows, t: float):
    """det(I - (A/t)S) over all signatures S by the minor expansion, and
    bitwise the thresholds of ``signature_systems(a, t)``, both shaped
    (2^(n - n//2), 2^(n//2)) in ``signature_stack(n)`` order.
    ``minors, sizes`` are ``_principal_minors(a)`` and ``rows`` is
    ``_threshold_rows(a)``.

    det(I - (A/t)S) = sum_J (-1/t)^|J| det(A_JJ) prod_{j in J} s_j and
    prod_{j in J} s_j = (-1)^popcount(S & J), so the determinants are one
    Walsh-Hadamard transform of c_J = (-1/t)^|J| det(A_JJ), applied as
    H_hi C H_lo with C = c split into its high and low index bits.  Given
    finite minors no term overflows: |c_J| <= (||A||_inf / t)^|J|, below
    1e14^12 = 1e168 at t >= ``pivot_threshold(a)`` and n <= 12.  That
    bounds c_J, not det(A_JJ): a minor itself overflows once
    ||A||_inf^|J| passes the float range.  A threshold's max over
    the rows of I - (A/t)S splits into a max over the low rows, set by
    the low bits of S alone, and one over the high rows."""
    signed_diag, off, halves = rows
    n = len(off) // 2
    low = n // 2
    c = minors * np.power(-1.0 / t, np.arange(n + 1))[sizes]
    dets = _hadamard(n - low) @ c.reshape(1 << (n - low), 1 << low) @ _hadamard(low)
    # |1 - a_ii s_i / t| + off_i / t rounded as in signature_systems:
    # 1 + (-a_ii / t) is 1 - x and 1 + a_ii / t is x + 1, bit for bit.
    norms = np.abs(1.0 + signed_diag / t) + off / t
    hi_max, lo_max = [norms[half].max(axis=1, initial=0.0) for half in halves]
    return dets, threshold_of_norms(np.maximum.outer(hi_max, lo_max))


def rho_sr_bisect(a, tol: float = 1e-8) -> float:
    """Sign-real spectral radius by determinant positivity.

    Uses the equivalence rho^R(A/t) < 1 iff det(I - (A/t)S) > 0 for all
    signatures S, and bisects on t between an inadmissible ``lo`` and an
    admissible ``hi``.  The lower bracket is ``pivot_threshold(A)``; if
    every signature passes there the result is 0.  The upper bracket is
    ||A||_inf, or 2||A||_inf if the threshold band rejects it (at
    rho^R = ||A||_inf): there rho((A/t)S) <= 1/2 gives det >= 2^-n.

    Admissibility is tested on the principal-minor expansion of
    det(I - (A/t)S) (``_expanded_systems``), not on an LU of each matrix:
    the 2^n minors det(A_JJ) come from ``_principal_minors``, one LAPACK
    det call per block size and shared with
    ``det_positive_all_signatures`` on the same matrix, and each test at
    a new t is one Walsh-Hadamard transform of them, against the
    thresholds ``signature_systems`` would use.  Returns the midpoint of
    the final bracket, of width <= tol, or <= 4 ulp(hi) where that is
    wider, after ceil(log2((hi - lo) / tol)) bisection steps.  Raises
    ValueError when ||A||_inf or a minor overflows.
    Independent of the enumeration route.
    """
    a = as_square_matrix(a)
    n = a.shape[0]
    _check_enum_dim(n, "rho_sr_bisect")
    with np.errstate(over="ignore"):
        norm = infinity_norm(a)
    if norm == 0.0:
        return 0.0
    minors, sizes = _principal_minors(a)
    if not (np.isfinite(norm) and np.isfinite(minors).all()):
        raise ValueError("rho_sr_bisect: ||A||_inf or a principal minor of A "
                         "overflows; scale A down")
    rows = _threshold_rows(a)

    def admissible(t: float) -> bool:
        dets, thr = _expanded_systems(minors, sizes, rows, t)
        return bool((dets > thr).all())

    lo = pivot_threshold(a)
    if admissible(lo):
        return 0.0
    lo, hi = (lo, norm) if admissible(norm) else (norm, 2.0 * norm)
    # No bracket gets narrower than a few ulps of hi, so a tol below that
    # would never be met.
    tol = max(tol, 4.0 * float(np.spacing(hi)))
    while hi - lo > tol:
        t = 0.5 * (lo + hi)
        if admissible(t):
            hi = t
        else:
            lo = t
    return 0.5 * (lo + hi)


def inverse_is_sdd_positive_diag(a) -> bool:
    """True iff (I - A)^{-1} is strictly diagonally dominant with a
    positive diagonal.  The inverse is formed columnwise via LU; raises
    SingularMatrix when I - A is singular."""
    a = as_square_matrix(a)
    n = a.shape[0]
    f = lu_factor(np.eye(n) - a)
    inv = lu_solve(f, np.eye(n))
    return is_strictly_diag_dominant(inv) and bool((np.diag(inv) > 0.0).all())

