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

# Signatures, the nearest to failing at the last det sweep, whose own
# determinants rho_sr_bisect bisects in t.
_SEARCHED = 16


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
    unit test rather than assumed silently).
    """
    a = as_square_matrix(a)
    n = a.shape[0]
    _check_enum_dim(n, "rho_sr_enum")
    signs = signature_stack(n, fix_first=True)
    mats = signs[:, :, None] * a[None, :, :]
    polys = char_polys_stack(mats)
    # ||S A||_inf == ||A||_inf for every signature, so one bound serves all.
    return max_abs_real_roots(polys, infinity_norm(a), tol)


def _off_diagonal_sums(a: np.ndarray) -> np.ndarray:
    """off_i = sum_{j != i} |a_ij|, summed in row-major order whatever
    the layout of ``a``."""
    off = np.abs(a, order="C")
    off.reshape(-1)[::len(off) + 1] = 0.0
    return off.sum(axis=1)


def _systems(a: np.ndarray, signs: np.ndarray, scale, off=None):
    """The stack I - (A/scale)S over the rows S of ``signs``, its
    determinants and each matrix's singularity threshold.  ``scale`` is
    one float or one per row; each matrix gets exactly the arithmetic of
    its row in the stack of all signatures.

    Row i of I - (A/t)S has absolute sum |1 - a_ii s_i / t| + off_i / t,
    where off_i = sum_{j != i} |a_ij|, so the threshold
    ``1e-14 * (1 + max_i (|1 - a_ii s_i / t| + off_i / t))`` is read off
    the diagonals and ``off``, ``_off_diagonal_sums(a)`` (computed here
    unless a caller that builds many stacks of one matrix passes it).  It
    equals ``pivot_threshold`` of the matrix up to rounding."""
    m, n = len(signs), a.shape[0]
    scale = np.asarray(scale)
    if off is None:
        off = _off_diagonal_sums(a)
    # Row-major whatever the layout of a, so that the reshape below is a
    # view and the diagonal is added in place.
    mats = np.multiply(a / scale[..., None, None], signs[:, None, :], order="C")
    # 0 - x rather than -x keeps zero entries +0, as in I - x.
    np.subtract(0.0, mats, out=mats)
    diag = mats.reshape(m, n * n)[:, ::n + 1]
    diag += 1.0
    rows = np.abs(diag)
    rows += off / scale[..., None]
    return mats, np.linalg.det(mats), threshold_of_norms(rows.max(axis=1))


def signature_systems(a: np.ndarray, scale: float = 1.0, off=None):
    """The stack I - (A/scale)S over all signatures S (in
    ``signature_stack(n)`` order), its determinants, and each matrix's
    singularity threshold, the closed form of ``_systems`` that equals
    ``pivot_threshold`` of the matrix up to rounding.  ``off`` is as in
    ``_systems``."""
    return _systems(a, signature_stack(a.shape[0]), scale, off)


def det_positive_all_signatures(a) -> bool:
    """True iff det(I - AS) clears the singularity threshold for all S."""
    a = as_square_matrix(a)
    _check_enum_dim(a.shape[0], "det_positive_all_signatures")
    _mats, dets, thr = signature_systems(a)
    return bool((dets > thr).all())


def _sweep(a: np.ndarray, off: np.ndarray, t: float) -> tuple[bool, np.ndarray]:
    """One det sweep at scale t: whether every signature clears its
    threshold, and the indices of the ``_SEARCHED`` signatures with the
    smallest margins det - threshold.  ``off`` is ``_off_diagonal_sums(a)``."""
    _mats, dets, thr = signature_systems(a, t, off)
    return bool((dets > thr).all()), np.argsort(dets - thr, kind="stable")[:_SEARCHED]


def _crossing(a: np.ndarray, off: np.ndarray, signs: np.ndarray, lo: float, hi: float,
              tol: float):
    """Bisect the determinant of each row S, det(I - (A/t)S) against its
    threshold, on [lo, hi] to a bracket of width <= tol whose left end is
    lo or a scale where S fails and whose right end is hi or a scale
    where S passes.  ``off`` is ``_off_diagonal_sums(a)``.  Returns the
    bracket with the largest left end."""
    t_minus = np.full(len(signs), lo)
    t_plus = np.full(len(signs), hi)
    while (t_plus - t_minus).max() > tol:
        mid = 0.5 * (t_minus + t_plus)
        _mats, dets, thr = _systems(a, signs, mid, off)
        passes = dets > thr
        t_plus = np.where(passes, mid, t_plus)
        t_minus = np.where(passes, t_minus, mid)
    j = int(np.argmax(t_minus))
    return float(t_minus[j]), float(t_plus[j])


def rho_sr_bisect(a, tol: float = 1e-8) -> float:
    """Sign-real spectral radius by determinant positivity.

    Uses the equivalence rho^R(A/t) < 1 iff det(I - (A/t)S) > 0 for all
    signatures S, and brackets the infimum of admissible t between an
    inadmissible ``lo`` and an admissible ``hi``.  The lower bracket is
    ``pivot_threshold(A)``; the check there stops at the first
    ``_SEARCHED`` signatures (all of them at n <= 4) when one of them
    fails, and sweeps all 2^n (returning 0 if they all pass) only
    otherwise.  The upper bracket is ||A||_inf, or 2||A||_inf if the
    threshold band rejects it (at rho^R = ||A||_inf): there
    rho((A/t)S) <= 1/2 gives det >= 2^-n.

    Each det sweep over all 2^n signatures also names the ``_SEARCHED``
    signatures with the smallest margins det - threshold.  Their own
    determinants are bisected on [lo, hi] (one small stack per step),
    and the highest crossing [t-, t+] found moves ``lo`` up to t-, where
    that signature fails.  One sweep at t+ then either confirms it, and
    [t-, t+] is the final bracket, or moves ``lo`` to t+ and names the
    next signatures.  After two sweeps in a row that fail to halve the
    bracket, the next sweep bisects it, so the sweep count stays
    logarithmic in ``(hi - lo) / tol``.  Returns the midpoint of the final
    bracket, of width <= tol, or <= 4 ulp(hi) where that is wider.
    Independent of the enumeration route.
    """
    a = as_square_matrix(a)
    n = a.shape[0]
    _check_enum_dim(n, "rho_sr_bisect")
    norm = infinity_norm(a)
    if norm == 0.0:
        return 0.0
    lo = pivot_threshold(a)
    signs = signature_stack(n)
    off = _off_diagonal_sums(a)
    # rho^R = 0 needs every signature to pass at lo; one failure among the
    # first few settles that without the full sweep, and at n <= 4 the
    # first few are all of them.
    _mats, dets, thr = _systems(a, signs[:_SEARCHED], lo, off)
    if (dets > thr).all() and (len(signs) <= _SEARCHED or _sweep(a, off, lo)[0]):
        return 0.0
    ok, weakest = _sweep(a, off, norm)
    lo, hi = (lo, norm) if ok else (norm, 2.0 * norm)
    # No bracket gets narrower than a few ulps of hi, so a tol below that
    # would never be met.
    tol = max(tol, 4.0 * float(np.spacing(hi)))
    misses = 0
    while hi - lo > tol:
        width = hi - lo
        lo, t = _crossing(a, off, signs[weakest], lo, hi, tol)
        if hi - lo <= tol:
            break
        if misses == 2:
            t = 0.5 * (lo + hi)
        ok, weakest = _sweep(a, off, t)
        if ok:
            hi = t
        else:
            lo = t
        misses = misses + 1 if hi - lo > 0.5 * width else 0
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

