"""Full-step Newton iteration for z - A|z| = b.

Each step solves (I - A S_k) z = b where S_k is the signature of the
previous iterate, i.e. one semismooth Newton step with a full step
length.  The iteration is a deterministic walk on signatures, so
termination and cycling are detected on the signature history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import condition_profile, signature_of
from .errors import SingularMatrix
from .linalg import lu_factor, lu_solve
from .problems import AveProblem, residual
from .report import SolveReport, Status


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
    status: Status = Status.MAX_ITERATIONS


def newton_solve(
    problem: AveProblem,
    start: np.ndarray | None = None,
    max_iter: int | None = None,
) -> SolveReport:
    """Iterate z_{k+1} = (I - A S_k)^{-1} b until the signature repeats.

    ``start`` may be a vector (its signature seeds the iteration; default
    is b itself) or a +-1 signature.  Stops as soon as the new iterate's
    signature equals the one that produced it (the next step would
    reproduce the iterate exactly) or the new iterate repeats the
    previous one bitwise (stationarity can precede signature agreement
    when A has zero columns); as a cycle when the signature matches any
    earlier one; as singular when some I - A S_k has no LU
    factorization; and as max_iterations otherwise.  Default budget is
    n + 1 steps, which suffices whenever a sufficient condition holds.

    ``iterations`` counts the steps up to the first stationary iterate;
    a solve that merely re-confirms the previous iterate is not counted.
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
    seen = {s_cur.tobytes(): 0}
    profile = condition_profile(problem.a)

    status = Status.MAX_ITERATIONS
    z = None
    iterations = 0
    for step in range(1, max_iter + 1):
        # I - A S_k built in place: 0 - x keeps the signed zeros of eye - x.
        system = problem.a * s_cur[None, :].astype(float)
        np.subtract(0.0, system, out=system)
        system.flat[:: n + 1] += 1.0
        try:
            factor = lu_factor(system)
        except SingularMatrix:
            status = Status.SINGULAR
            break
        z_new = lu_solve(factor, problem.b)
        z_prev = trace.iterates[-1] if trace.iterates else None
        trace.iterates.append(z_new)
        trace.residuals.append(residual(problem, z_new))
        s_new = signature_of(z_new)
        z = z_new
        iterations = step
        if z_prev is not None and np.array_equal(z_new, z_prev):
            # Stationary: the previous iterate was already the solution and
            # this solve only confirmed it.
            status = Status.CONVERGED
            iterations = step - 1
            trace.signatures.append(s_new)
            break
        if np.array_equal(s_new, s_cur):
            status = Status.CONVERGED
            # Record the implied confirming step: resolving with the same
            # signature reproduces z_new bitwise.
            trace.signatures.append(s_new)
            trace.iterates.append(z_new.copy())
            trace.residuals.append(trace.residuals[-1])
            break
        key = s_new.tobytes()
        if key in seen:
            status = Status.CYCLE
            trace.signatures.append(s_new)
            break
        seen[key] = len(trace.signatures)
        trace.signatures.append(s_new)
        s_cur = s_new

    trace.status = status
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
