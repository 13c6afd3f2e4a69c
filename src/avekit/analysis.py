"""Matrix predicates and solvability analysis for z - A|z| = b.

Contains the convergence-condition checks used by the solvers, the Neq
index set, and the sign-real spectral radius computed by two independent
methods (direct signature enumeration and determinant-positivity
bisection).
"""

from __future__ import annotations

import math
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

# Signatures rho_sr_enum searches first: those with the largest bounds
# on rho(S A).
_CANDIDATES = 16

# Half-stacks smaller than this (n <= 7) are searched whole: there the
# Sturm search of all rows costs about what that of 16 rows does, so the
# bounds would only add their own cost.
_PRUNED_FROM = 128

# Squarings q behind rho_sr_enum's bound rho(X) <= ||X^(2^q)||_inf^(2^-q).
_SQUARINGS = 5

# _radius_bounds squares 2^_BLOCK_BITS signatures at a time: at n = 12 a
# block is 295 KB, against 2.4 MB for the whole half-stack.
_BLOCK_BITS = 8


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
    if (np.triu(a, 2) != 0.0).any() or (np.tril(a, -2) != 0.0).any():
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
    unit test rather than assumed silently).

    Runs on X = 2^-e A, e = frexp(||A||_inf)[1], with tol 2^-e, and
    returns 2^e times that result: exact, as rho^R(cA) = c rho^R(A), so
    ``tol`` is in A's units.  ||X||_inf is in [1/2, 1), so no coefficient
    of a characteristic polynomial exceeds C(12, 6) = 924.  Raises
    ValueError when ||A||_inf overflows.

    Only the signatures that can hold the maximum are searched.  Each one
    gets a proven upper bound on rho(S X) (``_radius_bounds``); the
    ``_CANDIDATES`` largest are searched first, by characteristic
    polynomials and Sturm bisection, which gives r.  A signature whose
    bound is below r - tol has no real eigenvalue within tol of r, so it
    cannot hold the maximum and is dropped unsearched; any other joins
    the search, which runs again until no unsearched bound reaches
    r - tol.  So every signature is searched or excluded by a proof, and
    the result is that of the search over the whole half-stack.
    Half-stacks of fewer than ``_PRUNED_FROM`` signatures are searched
    whole.
    """
    a = as_square_matrix(a)
    n = a.shape[0]
    _check_enum_dim(n, "rho_sr_enum")
    with np.errstate(over="ignore"):
        norm = infinity_norm(a)
    if not math.isfinite(norm):
        raise ValueError("rho_sr_enum: ||A||_inf overflows")
    e = math.frexp(norm)[1]
    # ||S X||_inf = ||X||_inf for every S: one bound serves all.  A tol
    # over ||A||_inf, met by any result, is capped so 2^-e tol is finite.
    x, norm, tol = np.ldexp(a, -e), math.ldexp(norm, -e), math.ldexp(min(tol, norm), -e)
    signs = signature_stack(n, fix_first=True)
    if len(signs) < _PRUNED_FROM:
        return math.ldexp(_largest_real_root(x, signs, norm, tol), e)
    bounds = _radius_bounds(x)
    searched = np.zeros(len(signs), dtype=bool)
    rows = np.argpartition(bounds, -_CANDIDATES)[-_CANDIDATES:]
    while rows.size:
        searched[rows] = True
        r = _largest_real_root(x, signs[searched], norm, tol)
        # A row is dropped only where its bound proves it.
        rows = np.flatnonzero(~(searched | (bounds < r - tol)))
    return math.ldexp(r, e)


def _largest_real_root(x: np.ndarray, signs: np.ndarray, norm: float, tol: float) -> float:
    """max_S rho_0(S X) over the signatures ``signs`` (rows), by
    ``char_polys_stack`` and ``max_abs_real_roots``; ``norm`` is
    ||X||_inf."""
    return max_abs_real_roots(char_polys_stack(signs[:, :, None] * x[None, :, :]), norm, tol)


def _radius_bounds(x: np.ndarray) -> np.ndarray:
    """An upper bound on rho(S X) for each signature S of
    ``signature_stack(n, fix_first=True)``, in its order, for
    ``rho_sr_enum``'s X, ||X||_inf in [1/2, 1): no power of S X overflows.

    rho(Y) <= ||Y^k||_inf^(1/k) for any k; here k = 2^q with q =
    ``_SQUARINGS``, and (S X)^k comes from q batched squarings of the
    stack.  The stack is formed and squared one block of 2^``_BLOCK_BITS``
    signatures at a time, in two buffers reused for every block; each
    matrix goes through the same products and row sums as in a squaring
    of the whole stack, so the bounds do not depend on the block size.

    Squaring in floating point, the computed (S X)^k lies within
    ((1 + gamma_n)^(k - 1) - 1) |X|^k, about (k - 1) n u |X|^k, of the
    exact power, entrywise (u = eps/2, gamma_n = n u / (1 - n u)), and
    |S X| = |X| for every S.  So ||(S X)^k||_inf is at most the computed
    row-sum maximum plus one rounding term for the whole stack,
    2 k n eps || |X|^k ||_inf, which also covers the rounding of |X|'s
    own squarings and of the row sums, plus k n 2^-1022 for underflow.
    The k-th root is rounded up by a factor 1 + 4 eps."""
    n = x.shape[0]
    k = 1 << _SQUARINGS
    absolute = np.abs(x)
    for _ in range(_SQUARINGS):
        absolute = absolute @ absolute
    eps = np.finfo(float).eps
    slack = 2 * k * n * eps * infinity_norm(absolute) + k * n * np.finfo(float).tiny
    signs = signature_stack(n, fix_first=True)
    size = 1 << min(_BLOCK_BITS, n - 1)
    signed, spare = np.empty((size, n, n)), np.empty((size, n, n))
    norms = np.empty(len(signs))
    for lo in range(0, len(signs), size):
        block = np.multiply(signs[lo:lo + size, :, None], x, out=signed)
        for q in range(_SQUARINGS):
            block = np.matmul(block, block, out=(spare, signed)[q % 2])
        np.abs(block, out=block)
        np.einsum("kij->ki", block).max(axis=1, out=norms[lo:lo + size])
    return (norms + slack) ** (1.0 / k) * (1.0 + 4 * eps)


def signature_systems(a: np.ndarray, scale: float = 1.0):
    """The stack I - (A/scale)S over all signatures S (in
    ``signature_stack(n)`` order), its determinants and each matrix's
    singularity threshold, the one rule of ``_signature_thresholds``."""
    signs = signature_stack(a.shape[0])
    m, n = signs.shape
    # Row-major whatever the layout of a, so that the reshape below is a
    # view and the diagonal is added in place.
    mats = np.multiply(a / scale, signs[:, None, :], order="C")
    # 0 - x rather than -x keeps zero entries +0, as in I - x.
    np.subtract(0.0, mats, out=mats)
    mats.reshape(m, n * n)[:, ::n + 1] += 1.0
    thr = _signature_thresholds(_threshold_rows(a), scale).reshape(m)
    # A determinant past the float range comes out inf, which clears any
    # threshold: the system counts as nonsingular, as it is.
    with np.errstate(over="ignore"):
        dets = np.linalg.det(mats)
    return mats, dets, thr


def det_positive_all_signatures(a) -> bool:
    """True iff LAPACK's det(I - AS) clears the singularity threshold of
    ``signature_systems(a)`` for all S.

    The determinants come from the minors of rho_sr_bisect's X = 2^-e A,
    computed once for both, by the expansion at t = 2^-e
    (``_expanded_dets``, against ``_signature_thresholds``), as (X/t)S is
    AS bitwise.  That lies within d = 16 n eps prod_i (1 + r_i) of
    LAPACK's, r_i the row sums of |A|.  A determinant below its threshold
    by more than d settles False, all above by more than d settle True;
    otherwise, and wherever a value is not finite, the LAPACK sweep of
    ``signature_systems(a)`` decides."""
    a = as_square_matrix(a)
    n = a.shape[0]
    _check_enum_dim(n, "det_positive_all_signatures")
    with np.errstate(over="ignore", invalid="ignore"):
        # e = 0 if ||A||_inf overflows; 2^-e = inf (every det 1) below 2^-1024.
        e = math.frexp(infinity_norm(a))[1]
        x = np.ldexp(a, -e)
        minors, sizes = _principal_minors(x)
        t = float(np.ldexp(1.0, -e))
        dets, thr = _expanded_dets(minors, sizes, t), _signature_thresholds(_threshold_rows(x), t)
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
    of the subsets with |J| = k and the flat row-major indices
    n j_r + j_c (j_r, j_c in J) that gather their blocks A_JJ as one
    (positions, k, k) stack; cached, read-only."""
    inside = signature_stack(n) < 0
    sizes = inside.sum(axis=1)
    groups = []
    for k in range(1, n + 1):
        rows = np.flatnonzero(sizes == k)
        members = inside[rows].nonzero()[1].reshape(len(rows), k)
        flat = members[:, :, None] * n + members[:, None, :]
        rows.setflags(write=False)
        flat.setflags(write=False)
        groups.append((rows, flat))
    sizes.setflags(write=False)
    return sizes, tuple(groups)


def _principal_minors(a: np.ndarray):
    """det(A_JJ) and |J| for every subset J of the indices, in
    ``signature_stack(n)`` order, with det of the empty block 1: one
    LAPACK det call per block size k over the gathered k x k blocks, so
    each minor is exactly ``np.linalg.det(a[np.ix_(J, J)])``.  The last
    matrix's minors are kept, so the callers on one matrix compute them
    once; read-only.  The callers pass a prescaled X = 2^-e A, ||X||_inf
    < 1, so by Hadamard's inequality no minor exceeds 1 in magnitude."""
    return _minors_of(a.shape[0], a.tobytes())


@lru_cache(maxsize=1)
def _minors_of(n: int, data: bytes):
    """``_principal_minors`` of the row-major bytes of an n x n matrix:
    each block stack is one gather of those bytes at the flat indices of
    ``_principal_blocks(n)``."""
    entries = np.frombuffer(data)
    sizes, groups = _principal_blocks(n)
    minors = np.ones(len(sizes))
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, flat in groups:
            minors[rows] = np.linalg.det(entries[flat])
    minors.setflags(write=False)
    return minors, sizes


@lru_cache(maxsize=None)
def _half_positions(n: int):
    """For the high and the low half of range(n) (i >= n//2, i < n//2) a
    ``signature_stack`` of the half as positions into 2n row entries: i
    at s_i = +1, n + i at s_i = -1; cached, read-only."""
    low = n // 2
    halves = tuple(np.where(signature_stack(k) < 0, n, 0) + np.arange(first, first + k)
                   for k, first in ((n - low, low), (low, 0)))
    for half in halves:
        half.setflags(write=False)
    return halves


def _threshold_rows(a: np.ndarray):
    """What ``_signature_thresholds`` reads of A, fixed for a whole
    search: -a_ii then a_ii, the off-diagonal sums off_i = sum_{j != i}
    |a_ij| (summed in row-major order whatever the layout of ``a``)
    twice, and ``_half_positions(n)``."""
    n = a.shape[0]
    off = np.abs(a, order="C")
    off.reshape(-1)[::n + 1] = 0.0
    off = off.sum(axis=1)
    diag = np.diagonal(a)
    return np.concatenate([-diag, diag]), np.concatenate([off, off]), _half_positions(n)


def _row_norms(rows, t: float) -> np.ndarray:
    """The absolute row sums |1 - a_ii s_i / t| + off_i / t of I - (A/t)S:
    entry i for s_i = +1, entry n + i for s_i = -1; ``rows`` is
    ``_threshold_rows(a)``."""
    signed_diag, off, _halves = rows
    # 1 + (-a_ii / t) is 1 - x and 1 + a_ii / t is x + 1, bit for bit as
    # on the diagonal of I - (A/t)S.
    return np.abs(1.0 + signed_diag / t) + off / t


def _signature_thresholds(rows, t: float):
    """The singularity threshold of I - (A/t)S for every signature S,
    shaped (2^(n - n//2), 2^(n//2)) in ``signature_stack(n)`` order;
    ``rows`` is ``_threshold_rows(a)``.  The one rule of the signature
    layer: a system counts as singular when its determinant is at most
    ``threshold_of_norms(||I - (A/t)S||_inf)``.

    The norm is the max over the rows of ``_row_norms``, each read at
    s_i, and that max splits into a max over the low rows, set by the low
    bits of S alone, and one over the high rows.  It equals
    ``pivot_threshold`` of the matrix up to rounding."""
    norms = _row_norms(rows, t)
    hi_max, lo_max = [norms[half].max(axis=1, initial=0.0) for half in rows[2]]
    return threshold_of_norms(np.maximum.outer(hi_max, lo_max))


def _expanded_dets(minors, sizes, t: float) -> np.ndarray:
    """det(I - (A/t)S) over all signatures S by the minor expansion,
    shaped (2^(n - n//2), 2^(n//2)) in ``signature_stack(n)`` order;
    ``minors, sizes`` are ``_principal_minors(a)``.

    det(I - (A/t)S) = sum_J (-1/t)^|J| det(A_JJ) prod_{j in J} s_j and
    prod_{j in J} s_j = (-1)^popcount(S & J), so the determinants are one
    Walsh-Hadamard transform of c_J = (-1/t)^|J| det(A_JJ), applied as
    H_hi C H_lo with C = c split into its high and low index bits.  The
    minors are those of a prescaled X, ||X||_inf < 1, so |c_J| <= t^-|J|:
    below 1e14^12 = 1e168 at rho_sr_bisect's t >= ``pivot_threshold(x)``
    and n <= 12.  At det_positive_all_signatures' t = 2^-e the power
    overflows once n e reaches 1024, and that caller checks."""
    n = len(minors).bit_length() - 1
    low = n // 2
    c = minors * np.power(-1.0 / t, np.arange(n + 1))[sizes]
    return _hadamard(n - low) @ c.reshape(1 << (n - low), 1 << low) @ _hadamard(low)


def _admissible(minors, sizes, rows, t: float) -> bool:
    """Whether every det(I - (A/t)S) of the minor expansion clears its
    threshold: ``(dets > thr).all()`` for dets = ``_expanded_dets(minors,
    sizes, t)`` and thr = ``_signature_thresholds(rows, t)``.

    Every threshold lies between the two that the extreme norms give:
    ||I - (A/t)S||_inf is at most the largest of the 2n ``_row_norms``,
    and at least max_i min(norm_i(+1), norm_i(-1)), which S attains by
    picking the smaller norm in every row.  ``threshold_of_norms`` is
    monotone and max and min are exact, so the smallest determinant
    settles the verdict wherever it lies above the largest threshold
    (True) or at or below the smallest (False); only between them are
    the 2^n thresholds built."""
    dets = _expanded_dets(minors, sizes, t)
    least = dets.min()
    norms = _row_norms(rows, t)
    n = len(norms) // 2
    if least > threshold_of_norms(norms.max()):
        return True
    if least <= threshold_of_norms(np.minimum(norms[:n], norms[n:]).max()):
        return False
    return bool((dets > _signature_thresholds(rows, t)).all())


def rho_sr_bisect(a, tol: float = 1e-8) -> float:
    """Sign-real spectral radius by determinant positivity.

    Runs on X = 2^-e A with tol 2^-e and returns 2^e times that result,
    as ``rho_sr_enum`` does, so the bracket and every minor stay finite.
    It uses the equivalence rho^R(X/t) < 1 iff det(I - (X/t)S) > 0 for all
    signatures S, and bisects on t between an inadmissible ``lo`` and an
    admissible ``hi``.  The lower bracket is ``pivot_threshold(X)``; if
    every signature passes there the result is 0.  The upper bracket is
    ||X||_inf, or 2||X||_inf if the threshold band rejects it (at
    rho^R = ||X||_inf): there rho((X/t)S) <= 1/2 gives det >= 2^-n.

    Admissibility is tested on the principal-minor expansion of
    det(I - (X/t)S) (``_admissible``), not on an LU of each matrix: the
    2^n minors det(X_JJ) come from ``_principal_minors``, one LAPACK det
    call per block size and shared with ``det_positive_all_signatures``
    on the same matrix, and each test at a new t is one Walsh-Hadamard
    transform of them (``_expanded_dets``).  Its smallest determinant is
    compared with the largest and the smallest threshold over all
    signatures first; the 2^n thresholds of ``_signature_thresholds`` are
    built only where it lies between the two, and every verdict is that
    of the full comparison.  Returns the midpoint of the final bracket,
    of width <= tol, or <= 4 ulp(hi) where that is wider, after
    ceil(log2((hi - lo) / tol)) bisection steps, clamped to ||X||_inf >=
    rho^R(X).  Raises ValueError when ||A||_inf overflows.  Independent
    of the enumeration route.
    """
    a = as_square_matrix(a)
    n = a.shape[0]
    _check_enum_dim(n, "rho_sr_bisect")
    with np.errstate(over="ignore"):
        norm = infinity_norm(a)
    if not math.isfinite(norm):
        raise ValueError("rho_sr_bisect: ||A||_inf overflows")
    e = math.frexp(norm)[1]
    # A tol over ||A||_inf, met by any result, is capped so 2^-e tol is finite.
    x, norm, tol = np.ldexp(a, -e), math.ldexp(norm, -e), math.ldexp(min(tol, norm), -e)
    minors, sizes = _principal_minors(x)
    rows = _threshold_rows(x)
    lo = pivot_threshold(x)
    if _admissible(minors, sizes, rows, lo):
        return 0.0
    lo, hi = (lo, norm) if _admissible(minors, sizes, rows, norm) else (norm, 2.0 * norm)
    # No bracket gets narrower than a few ulps of hi, so a tol below that
    # would never be met.
    tol = max(tol, 4.0 * float(np.spacing(hi)))
    while hi - lo > tol:
        t = 0.5 * (lo + hi)
        if _admissible(minors, sizes, rows, t):
            hi = t
        else:
            lo = t
    return math.ldexp(min(0.5 * (lo + hi), norm), e)


def inverse_is_sdd_positive_diag(a) -> bool:
    """True iff (I - A)^{-1} is strictly diagonally dominant with a
    positive diagonal.  The inverse is formed columnwise via LU; raises
    SingularMatrix when I - A is singular."""
    a = as_square_matrix(a)
    n = a.shape[0]
    f = lu_factor(np.eye(n) - a)
    inv = lu_solve(f, np.eye(n))
    return is_strictly_diag_dominant(inv) and bool((np.diag(inv) > 0.0).all())

