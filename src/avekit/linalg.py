"""Dense linear algebra kernels.

Norms, LU factorization with partial pivoting, determinants,
characteristic polynomials (Faddeev-LeVerrier) and real-root isolation
by Sturm sequences.  ``elimination_step`` and ``back_substitute`` are the
one Gaussian elimination: ``lu_factor`` pivots it by rows, signed
Gaussian elimination by symmetric swaps on ``I - A S``.  Everything
operates on plain float64 numpy arrays: matrices are row-major
``(n, n)``, vectors ``(n,)``, all entries finite.

The eigenvalue machinery is deliberately polynomial-based instead of QR
iteration: it is deterministic, dependency-free and adequate for the
small dimensions (n <= 16) this package targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, SingularMatrix

# Faddeev-LeVerrier loses accuracy quickly beyond small n.
MAX_CHARPOLY_DIM = 16

# Relative coefficient size below which Sturm remainders are truncated.
_POLY_EPS = 5e-13


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


def pivot_threshold(a):
    """Scaled absolute threshold ``1e-14 * (1 + ||a||_inf)`` below which a
    pivot counts as zero; a float for one matrix, an array for a stack."""
    a = np.asarray(a, dtype=float)
    norms = np.abs(a).sum(axis=-1).max(axis=-1)
    return 1e-14 * (1.0 + (float(norms) if norms.ndim == 0 else norms))


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


def elimination_step(lu: np.ndarray, k: int, rhs: np.ndarray | None = None) -> None:
    """One in-place Gaussian elimination step at the pivot ``lu[k, k]``,
    which the caller has chosen and checked: column k below it becomes
    the multipliers (column k of L), the rank-1 update touches only the
    trailing block ``lu[k+1:, k+1:]``, and ``rhs`` is forward-substituted."""
    below = lu[k + 1:, k]
    below /= lu[k, k]
    lu[k + 1:, k + 1:] -= below[:, None] * lu[k, None, k + 1:]
    if rhs is not None:
        rhs[k + 1:] -= below * rhs[k]


def back_substitute(lu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Overwrite x with the solution of U x = x, U the upper triangle of
    ``lu``; x may be a vector or a matrix of stacked columns."""
    for k in range(x.shape[0] - 1, -1, -1):
        x[k] = (x[k] - lu[k, k + 1:] @ x[k + 1:]) / lu[k, k]
    return x


def lu_factor(a) -> LuFactorization:
    """Factor a square matrix as P*A = L*U with partial pivoting.

    Raises SingularMatrix when a pivot magnitude falls below
    ``1e-14 * (1 + ||A||_inf)``.
    """
    a = as_square_matrix(a)
    lu = a.copy()
    n = lu.shape[0]
    perm = np.arange(n)
    sign = 1
    threshold = pivot_threshold(a)
    for k in range(n):
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

    ``b`` may be a vector or a matrix of stacked right-hand side columns.
    """
    b = np.asarray(b, dtype=float)
    n = f.n
    if b.shape[0] != n:
        raise ValueError(f"right-hand side length {b.shape[0]} != {n}")
    x = np.array(b[f.perm], dtype=float, copy=True)
    lu = f.lu
    for k in range(1, n):
        x[k] -= lu[k, :k] @ x[:k]
    return back_substitute(lu, x)


def determinant(a) -> float:
    """Determinant as the signed product of LU pivots.

    Returns exactly 0.0 when the factorization signals singularity.
    """
    try:
        f = lu_factor(a)
    except SingularMatrix:
        return 0.0
    return float(f.sign * np.prod(np.diag(f.lu)))


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
    eye = np.eye(n)
    mk = mats.copy()
    coeffs[:, n - 1] = -np.einsum("kii->k", mk)
    for j in range(2, n + 1):
        mk = mats @ (mk + coeffs[:, n - j + 1, None, None] * eye)
        coeffs[:, n - j] = -np.einsum("kii->k", mk) / j
    return coeffs


def char_poly(a) -> np.ndarray:
    """Characteristic polynomial det(lambda I - A), degree-ascending."""
    a = as_square_matrix(a)
    return char_polys_stack(a[None, :, :])[0]


# ---------------------------------------------------------------------------
# Polynomial helpers (degree-ascending coefficient arrays).


def poly_eval(coeffs: np.ndarray, x):
    """Horner evaluation of a degree-ascending coefficient array."""
    result = np.zeros_like(np.asarray(x, dtype=float))
    for c in coeffs[::-1]:
        result = result * x + c
    return result


def _poly_trim(coeffs: np.ndarray, tol: float = 0.0) -> np.ndarray:
    keep = np.nonzero(np.abs(coeffs) > tol)[0]
    if keep.size == 0:
        return coeffs[:0]
    return coeffs[: keep[-1] + 1]


def _poly_deriv(coeffs: np.ndarray) -> np.ndarray:
    if coeffs.size <= 1:
        return coeffs[:0]
    return coeffs[1:] * np.arange(1, coeffs.size)


def _poly_rem(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Remainder of u / v for degree-ascending arrays, deg v >= 1."""
    r = np.array(u, dtype=float)
    dv = v.size - 1
    lead = v[-1]
    while r.size - 1 >= dv:
        q = r[-1] / lead
        r[-dv - 1:-1] -= q * v[:-1]
        r = r[:-1]
        r = _poly_trim(r, _POLY_EPS * max(1.0, float(np.abs(r).max(initial=0.0))))
    return r


def _sturm_chain(p: np.ndarray) -> list[np.ndarray]:
    """Generalized Sturm chain of p, members rescaled to unit max coefficient.

    The chain stops at the last nonzero remainder (the gcd of p and p'),
    which counts distinct real roots regardless of multiplicities.
    """
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


def _variations_scalar(chain: list[np.ndarray], x: float) -> int:
    signs = []
    for member in chain:
        v = float(poly_eval(member, x))
        if v != 0.0:
            signs.append(v > 0.0)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def real_roots(p, lo: float, hi: float, tol: float = 1e-10) -> np.ndarray:
    """All distinct real roots of p in [lo, hi], located to width ``tol``.

    Roots are isolated by Sturm-sequence counting and refined by bisection
    (with a guarded Newton polish on simple roots).  Multiple roots are
    reported once.
    """
    p = np.asarray(p, dtype=float)
    if not np.any(p != 0.0):
        raise ValueError("zero polynomial")
    if not lo < hi:
        raise ValueError("need lo < hi")
    p = _poly_trim(p)
    if p.size == 1:
        return np.empty(0)
    chain = _sturm_chain(p)

    def count_at(x: float) -> int:
        return _variations_scalar(chain, x)

    # Sturm counts roots in half-open (a, b]; pad the left endpoint so a
    # root exactly at lo is captured (it is clipped back afterwards).
    pad = max(tol, 1e-12 * (1.0 + abs(lo)))
    a0 = lo - pad
    work = [(a0, float(hi), count_at(a0), count_at(hi))]
    spans = []
    while work:
        x0, x1, v0, v1 = work.pop()
        k = v0 - v1
        if k <= 0:
            continue
        if k == 1 or (x1 - x0) <= tol:
            spans.append((x0, x1, v0))
            continue
        xm = 0.5 * (x0 + x1)
        vm = count_at(xm)
        work.append((x0, xm, v0, vm))
        work.append((xm, x1, vm, v1))

    dp = _poly_deriv(p)
    roots = []
    for x0, x1, v0 in spans:
        f0 = float(poly_eval(p, x0))
        f1 = float(poly_eval(p, x1))
        if f0 == 0.0:
            roots.append(x0)
            continue
        if f1 != 0.0 and (f0 > 0.0) != (f1 > 0.0):
            # Simple sign change: plain bisection, then a guarded polish.
            lo_, hi_, flo = x0, x1, f0
            while hi_ - lo_ > 0.25 * tol:
                mid = 0.5 * (lo_ + hi_)
                fm = float(poly_eval(p, mid))
                if fm == 0.0:
                    lo_ = hi_ = mid
                    break
                if (fm > 0.0) == (flo > 0.0):
                    lo_, flo = mid, fm
                else:
                    hi_ = mid
            root = 0.5 * (lo_ + hi_)
            best = abs(float(poly_eval(p, root)))
            x = root
            for _ in range(3):
                fp = float(poly_eval(dp, x))
                if fp == 0.0:
                    break
                x = x - float(poly_eval(p, x)) / fp
                if not x0 <= x <= x1:
                    break
                fx = abs(float(poly_eval(p, x)))
                if fx < best:
                    best, root = fx, x
            roots.append(root)
        else:
            # Even multiplicity: bisect on the Sturm count itself.
            lo_, hi_, vlo = x0, x1, v0
            while hi_ - lo_ > 0.5 * tol:
                mid = 0.5 * (lo_ + hi_)
                vm = count_at(mid)
                if vlo - vm >= 1:
                    hi_ = mid
                else:
                    lo_, vlo = mid, vm
            roots.append(0.5 * (lo_ + hi_))

    roots.sort()
    merged: list[float] = []
    for r in roots:
        r = min(max(r, lo), hi)
        if not merged or r - merged[-1] > tol:
            merged.append(r)
    return np.asarray(merged)


# ---------------------------------------------------------------------------
# Batched Sturm machinery for the largest-magnitude real root.  This backs
# rho0 and the exponential signature enumerations, where thousands of
# polynomials of the same degree are processed at once.


def _sturm_chains_stack(polys: np.ndarray) -> np.ndarray:
    """Sturm chains for a stack of monic degree-n polynomials.

    Input ``(m, n + 1)`` degree-ascending.  Output ``(m, n + 1, n + 1)``
    with chain member k stored degree-DESCENDING, left-padded with zeros.
    Rows whose chain terminates early (multiple roots) keep zero members,
    which the sign-variation count skips.  Rows with an irregular degree
    drop fall back to the scalar chain.
    """
    polys = np.asarray(polys, dtype=float)
    m, w = polys.shape
    n = w - 1
    chains = np.zeros((m, n + 1, w))
    desc = polys[:, ::-1]
    chains[:, 0] = desc / np.abs(desc).max(axis=1, keepdims=True)
    if n == 0:
        return chains
    der = chains[:, 0, :-1] * np.arange(n, 0, -1)[None, :]
    chains[:, 1, 1:] = der / np.abs(der).max(axis=1, keepdims=True)

    active = np.ones(m, dtype=bool)
    irregular = np.zeros(m, dtype=bool)
    for k in range(2, n + 1):
        if not active.any():
            break
        u = chains[:, k - 2]
        v = chains[:, k - 1]
        v_lead = v[:, k - 1]
        bad_lead = active & (np.abs(v_lead) <= 1e-10)
        safe = np.where(np.abs(v_lead) > 1e-10, v_lead, 1.0)
        v_shift = np.empty_like(v)
        v_shift[:, :-1] = v[:, 1:]
        v_shift[:, -1] = 0.0
        q1 = u[:, k - 2] / safe
        u2 = u - q1[:, None] * v_shift
        q0 = u2[:, k - 1] / safe
        r = -(u2 - q0[:, None] * v)
        r[:, :k] = 0.0
        scale = np.abs(r).max(axis=1)
        # A degenerate divisor invalidates the whole division; those rows
        # must take the scalar path no matter what the remainder looks like.
        ended = active & ~bad_lead & (scale <= _POLY_EPS)
        irr = active & ~ended & (bad_lead | (np.abs(r[:, k]) <= 1e-10 * scale))
        cont = active & ~ended & ~irr
        chains[:, k] = np.where(
            cont[:, None], r / np.where(scale > 0.0, scale, 1.0)[:, None], 0.0
        )
        irregular |= irr
        active = cont

    for i in np.nonzero(irregular)[0]:
        chains[i] = 0.0
        for k, member in enumerate(_sturm_chain(polys[i])):
            deg = member.size - 1
            chains[i, k, w - 1 - deg:] = member[::-1]
    return chains


def _count_variations(s: np.ndarray) -> np.ndarray:
    """Per-row sign variations of (m, L) sign values, skipping zeros."""
    m, L = s.shape
    nonzero = s != 0.0
    idx = np.where(nonzero, np.arange(L)[None, :], -1)
    last = np.maximum.accumulate(idx, axis=1)
    prev = np.empty_like(last)
    prev[:, 0] = -1
    prev[:, 1:] = last[:, :-1]
    prev_sign = np.take_along_axis(s, np.maximum(prev, 0), axis=1)
    flips = nonzero & (prev >= 0) & (s != prev_sign)
    return flips.sum(axis=1)


def _variations_stack(chains: np.ndarray, x) -> np.ndarray:
    """Sign variations of each row's chain evaluated at per-row points x."""
    m, L, w = chains.shape
    xcol = np.broadcast_to(np.asarray(x, dtype=float), (m,))[:, None]
    vals = chains[:, :, 0].copy()
    for j in range(1, w):
        vals = vals * xcol + chains[:, :, j]
    return _count_variations(np.sign(vals))


def _variations_at_infinity(chains: np.ndarray, positive: bool) -> np.ndarray:
    """Sign variations at +-infinity, read off the leading coefficients.

    Exact, which matters: near a multiple root the polynomial itself
    evaluates to rounding noise, so counting at a finite outer bracket
    can lose roots sitting at the edge of the spectrum bound.
    """
    nonzero = chains != 0.0
    first = np.argmax(nonzero, axis=2)
    lead = np.take_along_axis(chains, first[:, :, None], axis=2)[:, :, 0]
    s = np.sign(lead)
    if not positive:
        degree = chains.shape[2] - 1 - first
        s = np.where(degree % 2 == 1, -s, s)
    s[~nonzero.any(axis=2)] = 0.0
    return _count_variations(s)


def max_abs_real_roots(polys: np.ndarray, bound: float, tol: float = 1e-12) -> np.ndarray:
    """Per-row largest |real root| for a stack of polynomials whose real
    roots all lie in [-bound, bound] (e.g. characteristic polynomials with
    ``bound`` a matrix norm).

    Rows without real roots yield 0.  Works outside-in: bisection on t of
    the Sturm count of roots with |root| > t.
    """
    polys = np.asarray(polys, dtype=float)
    m = polys.shape[0]
    if bound == 0.0:
        return np.zeros(m)
    chains = _sturm_chains_stack(polys)
    # Outer counts taken at +-infinity (exact); every real root lies in
    # [-bound, bound], so they count exactly the roots of interest.
    big = bound * (1.0 + 1e-9)
    v_hi = _variations_at_infinity(chains, positive=True)
    v_lo = _variations_at_infinity(chains, positive=False)
    total = v_lo - v_hi
    lo = np.zeros(m)
    hi = np.where(total > 0, big, 0.0)
    steps = min(int(np.ceil(np.log2(max(big / max(tol, 1e-300), 4.0)))) + 2, 200)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        outside = (_variations_stack(chains, mid) - v_hi) + (v_lo - _variations_stack(chains, -mid))
        grow = outside >= 1
        lo = np.where(grow, mid, lo)
        hi = np.where(grow, hi, mid)
    return np.minimum(0.5 * (lo + hi), bound)


def rho0(a, tol: float = 1e-12) -> float:
    """Real spectral radius: max |lambda| over real eigenvalues, 0 if none.

    Simple eigenvalues are located to ``tol``; an eigenvalue of
    multiplicity m carries the usual polynomial-evaluation blur of
    roughly eps^(1/m), which is inherent to the characteristic-polynomial
    route.
    """
    a = as_square_matrix(a)
    if a.shape[0] > MAX_CHARPOLY_DIM:
        raise DimensionTooLarge(f"rho0 capped at n <= {MAX_CHARPOLY_DIM}")
    bound = infinity_norm(a)
    if bound == 0.0:
        return 0.0
    polys = char_polys_stack(a[None, :, :])
    return float(max_abs_real_roots(polys, bound, tol)[0])
