"""Dense linear algebra kernels.

Norms, LU factorization with partial pivoting, characteristic
polynomials (Faddeev-LeVerrier) and the largest |real root| by Sturm
sequences.  ``catch_up_column``, ``elimination_step`` and
``back_substitute`` are the one Gaussian elimination, a left-looking
(Crout) LU in panels of ``_PANEL`` columns: ``lu_factor`` pivots it by
rows, signed Gaussian elimination by symmetric swaps on ``I - A S``.
Both eliminate columns 0, 1, ..., n-1 in that order and the panel is
flushed exactly when it fills, so the open panel of column k always
starts at ``k - k % _PANEL``; the kernel derives it and callers keep no
panel state.
``max_abs_real_roots`` is one bisection on sign-variation counts that
brackets only the largest |root| over a stack of polynomials.
Everything operates on plain float64 numpy arrays: matrices
are row-major ``(n, n)``, vectors ``(n,)``, all entries finite.

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

# Columns per elimination panel: the trailing block receives a panel's
# pending updates as one matrix product once the panel is full.
_PANEL = 64


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
    return threshold_of_norms(float(norms) if norms.ndim == 0 else norms)


def threshold_of_norms(norms):
    """``pivot_threshold`` of matrices whose infinity norms are ``norms``."""
    return 1e-14 * (1.0 + norms)


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
# Polynomial helpers (degree-ascending coefficient arrays).


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
    # Positions in the smallest signed type that holds them (int8 here),
    # which keeps these (m, L) temporaries small.
    pos = np.arange(L, dtype=np.min_scalar_type(-L))
    idx = np.where(nonzero, pos[None, :], pos.dtype.type(-1))
    last = np.maximum.accumulate(idx, axis=1)
    prev = np.empty_like(last)
    prev[:, 0] = -1
    prev[:, 1:] = last[:, :-1]
    prev_sign = np.take_along_axis(s, np.maximum(prev, 0), axis=1)
    flips = nonzero & (prev >= 0) & (s != prev_sign)
    return flips.sum(axis=1)


def _variations_stack(coef: np.ndarray, x) -> np.ndarray:
    """Sign variations of each row's chain at the points x.

    ``coef`` is the chain stack in coefficient-major layout ``(w, m, L)``,
    C-contiguous: ``coef[j, i, k]`` is the coefficient of x^(w-1-j) in
    member k of row i's chain (``_sturm_chains_stack(polys)`` transposed
    by ``(2, 0, 1)``), so each Horner step reads one contiguous ``(m, L)``
    slab.  x broadcasts against the m rows: one point or one per row
    gives ``(m,)`` counts, k points of shape ``(k, 1)`` give ``(k, m)``
    counts."""
    w, m, L = coef.shape
    xcol = np.asarray(x, dtype=float)[..., None]
    vals = np.empty(np.broadcast_shapes(xcol.shape, (m, L)))
    vals[...] = coef[0]
    for j in range(1, w):
        vals *= xcol
        vals += coef[j]
    return _count_variations(np.sign(vals).reshape(-1, L)).reshape(vals.shape[:-1])


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


def max_abs_real_roots(polys: np.ndarray, bound: float, tol: float = 1e-12) -> float:
    """Largest |real root| over a stack of polynomials whose real roots
    all lie in [-bound, bound] (e.g. characteristic polynomials with
    ``bound`` a matrix norm); 0 if no row has a real root.

    One bisection on t over the whole stack, outside-in: t moves up while
    some live row still has a root with |root| > t (by Sturm counts), and
    a row with none is dropped, since it cannot hold the maximum.
    """
    if bound == 0.0:
        return 0.0
    chains = _sturm_chains_stack(polys)
    # Outer counts taken at +-infinity (exact); every real root lies in
    # [-bound, bound], so they count exactly the roots of interest.
    v_hi = _variations_at_infinity(chains, positive=True)
    v_lo = _variations_at_infinity(chains, positive=False)
    live = v_lo > v_hi
    if not live.any():
        return 0.0
    # The live rows, coefficient-major; the row-major stack goes before
    # the loop so that only one copy of the chains stays alive.  (compress
    # would first copy a transposed view whole.)
    chains = chains[live]
    coef = np.ascontiguousarray(chains.transpose(2, 0, 1))
    del chains
    v_hi, v_lo = v_hi[live], v_lo[live]
    lo, hi = 0.0, bound * (1.0 + 1e-9)
    steps = min(int(np.ceil(np.log2(max(hi / max(tol, 1e-300), 4.0)))) + 2, 200)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        # One call counts every row at +mid and at -mid.
        above, below = _variations_stack(coef, [[mid], [-mid]])
        grow = (above - v_hi) + (v_lo - below) >= 1
        if grow.any():
            lo = mid
            # compress keeps the stack C-contiguous; a boolean index on
            # axis 1 would not.
            coef, v_hi, v_lo = np.compress(grow, coef, axis=1), v_hi[grow], v_lo[grow]
        else:
            hi = mid
    return min(0.5 * (lo + hi), bound)


def rho0(a, tol: float = 1e-12) -> float:
    """Real spectral radius: max |lambda| over real eigenvalues, 0 if none.

    ``max_abs_real_roots`` on the one-row stack of the characteristic
    polynomial, bounded by ||A||_inf.  Simple eigenvalues are located to
    ``tol``; an eigenvalue of multiplicity m carries the usual
    polynomial-evaluation blur of roughly eps^(1/m), which is inherent to
    the characteristic-polynomial route.
    """
    a = as_square_matrix(a)
    polys = char_polys_stack(a[None, :, :])
    return max_abs_real_roots(polys, infinity_norm(a), tol)
