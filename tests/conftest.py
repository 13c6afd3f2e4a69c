"""Shared test helpers."""

import math

import numpy as np

from avekit import analysis as an
from avekit import linalg as la


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_matrix(seed: int, n: int, norm: float | None = None) -> np.ndarray:
    """Uniform [-1, 1] matrix, optionally rescaled to a given inf-norm."""
    a = rng(seed).uniform(-1.0, 1.0, size=(n, n))
    if norm is not None:
        current = np.abs(a).sum(axis=1).max()
        a *= norm / current
    return a


def well_conditioned_matrix(seed: int, n: int) -> np.ndarray:
    """Random matrix made strictly diagonally dominant."""
    g = rng(seed)
    a = g.uniform(-1.0, 1.0, size=(n, n))
    off = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
    for i in range(n):
        a[i, i] = (off[i] + 0.5) * (1.0 if a[i, i] >= 0 else -1.0) * g.uniform(1.1, 2.0)
    return a


def random_signature(seed: int, n: int) -> np.ndarray:
    return rng(seed).choice([-1.0, 1.0], size=n)


def real_radius(a: np.ndarray, tol: float = 1e-12) -> float:
    """Real spectral radius of one matrix, max |lambda| over its real
    eigenvalues (0 if none): the Sturm root search of ``rho_sr_enum`` on
    the one-row stack of its characteristic polynomial."""
    return la.max_abs_real_roots(la.char_polys_stack(a[None]), la.infinity_norm(a), tol)


def half_stack(a: np.ndarray) -> np.ndarray:
    """The characteristic polynomials of S A over the signatures with
    s_0 = +1, the whole stack rho_sr_enum searches or excludes."""
    signs = an.signature_stack(a.shape[0], fix_first=True)
    return la.char_polys_stack(signs[:, :, None] * a)


def prescaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """2^-e A and e, e = frexp(||A||_inf)[1]: the matrix, of norm in
    [1/2, 1), on which rho_sr_enum and rho_sr_bisect run."""
    e = math.frexp(la.infinity_norm(a))[1]
    return np.ldexp(a, -e), e
