"""Full-step Newton iteration for z - A|z| = b.

Each step solves (I - A S_k) z = b where S_k is the signature of the
previous iterate, i.e. one semismooth Newton step with a full step
length.  The iteration is a deterministic walk on signatures, so
termination and cycling are detected on the signature history.

Consecutive signatures usually differ in a few signs, and so do their
systems.  Let S_b be the signature of the last fresh factorization, y_b
its iterate and J the r indices where S differs from S_b; then
I - A S = (I - A S_b) + U E_J^T with U = 2 A[:, J] diag(S_b,J).  Such a
step keeps the LU of I - A S_b and solves by the Woodbury formula
(Hager, "Updating the inverse of a matrix", SIAM Review 31, 1989):
Y = (I - A S_b)^{-1} U is one r-column ``lu_solve``, the r x r
capacitance matrix C = I + Y[J] is factored by ``lu_factor``, and
z = y_b - Y C^{-1} y_b[J], followed by one refinement step with the true
residual b - (z - A S z).  Flips on zero columns of A change nothing and
leave J, so a step whose flips all fall there returns y_b bitwise.  A
step refactors from scratch when r exceeds n / ``_UPDATE_SHARE`` or C
fails its pivot threshold; the fresh factorization then decides
``SINGULAR`` as every step's did before.  An updated step is held to
C's pivot threshold, not to that of its own LU: as det(I - A S) =
det(I - A S_b) det(C), C's pivots decide whether the step is solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import condition_profile, signature_of
from .errors import SingularMatrix
from .linalg import LuFactorization, lu_factor, lu_solve
from .problems import AveProblem, residual
from .report import SolveReport, Status

# A step updates the last fresh factorization when it flips at most
# n / _UPDATE_SHARE signs on nonzero columns of A.  Measured against a
# fresh factorization and solve, an update took 0.22-0.31 of one at
# n = 1000 for r <= 64, about half at n = 100..300 for r <= n / 8, and
# broke even near r = n / 4 (n = 40..300); at n = 8, r = 1 it took 1.1.
_UPDATE_SHARE = 8


def _fresh_solve(a: np.ndarray, b: np.ndarray, s: np.ndarray):
    """(LU of I - A S, its solution of b); raises SingularMatrix."""
    n = a.shape[0]
    # I - A S built in place: 0 - x keeps the signed zeros of eye - x.
    system = a * s[None, :].astype(float)
    np.subtract(0.0, system, out=system)
    system.flat[:: n + 1] += 1.0
    f = lu_factor(system)
    return f, lu_solve(f, b)


def _updated_solve(a: np.ndarray, b: np.ndarray, s: np.ndarray,
                   base: tuple[LuFactorization, np.ndarray, np.ndarray]):
    """The solution of (I - A S) z = b by the Woodbury update of ``base``,
    the factorization of I - A S_b, S_b and its solution of b; None when
    the step should refactor instead (module docstring)."""
    f, s_base, z_base = base
    flipped = np.flatnonzero(s != s_base)
    cols = a[:, flipped]
    live = cols.any(axis=0)
    if not live.all():
        flipped, cols = flipped[live], cols[:, live]
    r = flipped.size
    if r == 0:
        return z_base.copy()
    if r * _UPDATE_SHARE > a.shape[0]:
        return None
    y = lu_solve(f, cols * (2.0 * s_base[flipped]))
    cap = y[flipped]
    cap.flat[:: r + 1] += 1.0
    try:
        cf = lu_factor(cap)
    except SingularMatrix:
        return None

    z = z_base - y @ lu_solve(cf, z_base[flipped])
    w = lu_solve(f, b - (z - a @ (s * z)))
    z += w - y @ lu_solve(cf, w[flipped])
    return z


@dataclass
class NewtonTrace:
    """Signature and iterate history of one Newton run.

    ``iterates[k]`` solves (I - A*signatures[k]) z = b.  On convergence
    the final entries repeat the fixed point, mirroring the stationarity
    test z_{k+1} = z_k; on a cycle the last signature equals an earlier,
    non-adjacent one.  ``residuals`` logs |z - A|z| - b|_inf per iterate.
    """

    signatures: list[np.ndarray] = field(default_factory=list)
    iterates: list[np.ndarray] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)


def newton_solve(
    problem: AveProblem,
    start: np.ndarray | None = None,
    max_iter: int | None = None,
) -> SolveReport:
    """Iterate z_{k+1} = (I - A S_k)^{-1} b until the signature repeats.

    ``start`` may be a vector (its signature seeds the iteration; default
    is b itself) or a +-1 signature.  Converges as soon as the new
    iterate's signature equals the one that produced it: the next step
    would reproduce the iterate exactly.  Stops as a cycle when the
    signature matches any earlier one; as singular when the fresh LU
    factorization of some I - A S_k fails; and as max_iterations
    otherwise.  Steps after the first update the last fresh factorization
    where few signs changed (module docstring).  Default
    budget is n + 1 steps, which suffices whenever a sufficient
    condition holds.

    ``iterations`` counts the steps up to the first stationary iterate;
    a solve that merely re-confirms the previous iterate bitwise (zero
    columns of A allow this before the signatures agree) is not counted.
    """
    n = problem.n
    if max_iter is None:
        max_iter = n + 1
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    s_cur = signature_of(problem.b if start is None else np.asarray(start, dtype=float))
    if s_cur.shape[0] != n:
        raise ValueError(f"start has length {s_cur.shape[0]}, expected {n}")

    trace = NewtonTrace()
    trace.signatures.append(s_cur)
    seen = {s_cur.tobytes()}
    profile = condition_profile(problem.a)

    status = Status.MAX_ITERATIONS
    z = None
    base = None
    iterations = 0
    for step in range(1, max_iter + 1):
        z_new = None if base is None else _updated_solve(problem.a, problem.b, s_cur, base)
        if z_new is None:
            try:
                f, z_new = _fresh_solve(problem.a, problem.b, s_cur)
            except SingularMatrix:
                status = Status.SINGULAR
                break
            base = (f, s_cur, z_new)
        # At step >= 2, s_cur is the signature of the previous iterate, so a
        # bitwise repeat of that iterate also repeats its signature.
        stationary = bool(trace.iterates) and np.array_equal(z_new, trace.iterates[-1])
        trace.iterates.append(z_new)
        trace.residuals.append(residual(problem, z_new))
        s_new = signature_of(z_new)
        trace.signatures.append(s_new)
        z = z_new
        iterations = step
        if np.array_equal(s_new, s_cur):
            status = Status.CONVERGED
            if stationary:
                # The previous iterate was already the solution and this
                # solve only confirmed it.
                iterations = step - 1
            else:
                # Record the implied confirming step: resolving with the
                # same signature reproduces z_new bitwise.
                trace.iterates.append(z_new.copy())
                trace.residuals.append(trace.residuals[-1])
            break
        key = s_new.tobytes()
        if key in seen:
            status = Status.CYCLE
            break
        seen.add(key)
        s_cur = s_new

    return SolveReport(
        method="newton",
        status=status,
        z=z,
        residual=None if z is None else trace.residuals[-1],
        iterations=iterations,
        profile=profile,
        signs=None if z is None else signature_of(z),
        newton_trace=trace,
    )
