"""The three workloads: instances, request lists and output checks.

Every instance is written by ``avekit generate`` from the workload seed,
and the program sees only those files.  A request is one ``avekit``
argument list, run in-process through ``avekit.cli.main``; a check turns
its exit code and standard output into an error message, or None.
See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# The four classes under which both solvers are guaranteed to be correct.
GUARANTEED = ("norm-lt-half", "irreducible-half", "sdd-two-thirds", "tridiag")
# Dimension of the solve-large instances.
LARGE_N = 1000

# A solution matches the known z when max|z - z_known| <= Z_TOL * (1 + ||z_known||_inf).
Z_TOL = 1e-8
# On a simple top eigenvalue the two rho^R estimates agree to RHO_TOL * (1 + ||A||_inf).
RHO_TOL = 1e-8
# det_positive_all_signatures is held to rho^R < 1 only where |rho^R - 1| > RHO_CLEAR.
RHO_CLEAR = 1e-6
# Relative determinant threshold of analysis._dets_all_signatures.
DET_THRESHOLD = 1e-14

DEGENERATE_EPS = 0.1
DEGENERATE_N = 3


def degenerate_tol(eps: float, n: int) -> float:
    """Tolerance for both rho^R estimates on (1 + eps) I.

    rho_sr_bisect accepts t once det(I - (A/t) S) exceeds DET_THRESHOLD.
    For S = I that determinant is (1 - (1 + eps)/t)^n, so t overshoots
    rho^R = 1 + eps by (1 + eps) * DET_THRESHOLD^(1/n): 2.4e-5 at n = 3.
    The tolerance is twice that bias.
    """
    return 2.0 * (1.0 + eps) * DET_THRESHOLD ** (1.0 / n)


@dataclass(frozen=True)
class Spec:
    """One instance to generate: its file name and ``generate`` arguments."""

    name: str
    args: tuple[str, ...]
    rho: float | None = None  # known rho^R, for the degenerate instance


@dataclass
class Instance:
    spec: Spec
    path: str
    n: int
    norm: float
    z: np.ndarray | None


@dataclass
class Request:
    kind: str
    argv: list[str]
    check: Callable[[int, str], str | None]
    env: dict[str, str] = field(default_factory=dict)


def specs(workload: str, seed: int) -> list[Spec]:
    if workload == "solve-large":
        return [Spec(cls, ("--class", cls, "--n", str(LARGE_N), "--seed", str(seed)))
                for cls in GUARANTEED]
    if workload == "solve-small":
        out = []
        for ci, cls in enumerate(GUARANTEED):
            for j in range(6):
                n = 3 + (2 * ci + j) % 8
                out.append(Spec(f"{cls}-n{n:02d}-{j}",
                                ("--class", cls, "--n", str(n), "--seed", str(seed * 1000 + j))))
        return out
    if workload == "analyze-rho":
        out = []
        for n in (8, 10, 12):
            for cls in GUARANTEED:
                out.append(Spec(f"{cls}-n{n}", ("--class", cls, "--n", str(n), "--seed", str(seed))))
            # Norm targets: 0.9 and 1.5 keep rho^R below 1 on these
            # matrices, 4.0 puts it above 1.
            for nu in ("0.9", "1.5", "4.0"):
                out.append(Spec(f"unconstrained-nu{nu}-n{n}",
                                ("--class", "unconstrained", "--nu", nu, "--n", str(n),
                                 "--seed", str(seed))))
        out.append(Spec("inflated-identity",
                        ("--class", "inflated-identity", "--eps", str(DEGENERATE_EPS),
                         "--n", str(DEGENERATE_N)),
                        rho=1.0 + DEGENERATE_EPS))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def load_instance(spec: Spec, path: str) -> Instance:
    """Read back a generated file for the checks (outside any timed region)."""
    with open(path) as handle:
        data = json.load(handle)
    a = np.asarray(data["A"], dtype=float)
    known = data.get("known_solution")
    return Instance(
        spec=spec,
        path=path,
        n=int(data["n"]),
        norm=float(np.abs(a).sum(axis=1).max()),
        z=None if known is None else np.asarray(known, dtype=float),
    )


def _check_solve(inst: Instance):
    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        report = json.loads(out)
        if report["status"] != "converged":
            return f"status {report['status']!r}"
        z = np.asarray(report["z"], dtype=float)
        err = float(np.abs(z - inst.z).max())
        limit = Z_TOL * (1.0 + float(np.abs(inst.z).max()))
        if err > limit:
            return f"max|z - z_known| = {err:.3e} > {limit:.3e}"
        return None

    return check


def _check_analyze(inst: Instance):
    if inst.spec.rho is None:
        tol = RHO_TOL * (1.0 + inst.norm)
    else:
        tol = degenerate_tol(DEGENERATE_EPS, inst.n)

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        report = json.loads(out)
        enum, bisect = report["rho_sr_enum"], report["rho_sr_bisect"]
        if abs(enum - bisect) > tol:
            return f"rho_sr_enum {enum!r} and rho_sr_bisect {bisect!r} differ by more than {tol:.1e}"
        for name, est in (("rho_sr_enum", enum), ("rho_sr_bisect", bisect)):
            if est > inst.norm + tol:
                return f"{name} {est!r} exceeds ||A||_inf {inst.norm!r} by more than {tol:.1e}"
            if inst.spec.rho is not None and abs(est - inst.spec.rho) > tol:
                return f"{name} {est!r} misses the known rho^R {inst.spec.rho!r} by more than {tol:.1e}"
        det_positive = report["det_positive_all_signatures"]
        if abs(enum - 1.0) > RHO_CLEAR and det_positive != (enum < 1.0):
            return f"det_positive_all_signatures is {det_positive} but rho^R = {enum!r}"
        return None

    return check


def _check_compare(count: int, out_path: str):
    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        with open(out_path) as handle:
            report = json.load(handle)
        rows = report["instances"]
        if len(rows) != count or report["skipped"]:
            return f"{len(rows)} rows and {len(report['skipped'])} skipped, expected {count} rows"
        bad = [r["instance"] for r in rows if not (r["sge_ok"] and r["newton_ok"])]
        if bad:
            return f"rows not sge_ok and newton_ok: {bad}"
        return None

    return check


def requests(workload: str, workdir: str, instances: list[Instance]) -> list[Request]:
    """One round of the workload, in order."""
    out: list[Request] = []
    if workload == "solve-large":
        for inst in instances:
            for method in ("sge", "newton"):
                out.append(Request(f"solve_{method}", ["solve", inst.path, "--method", method],
                                   _check_solve(inst)))
    elif workload == "solve-small":
        for inst in instances:
            for method in ("sge", "newton", "oracle"):
                out.append(Request(f"solve_{method}", ["solve", inst.path, "--method", method],
                                   _check_solve(inst)))
            if inst.n <= 6:
                out.append(Request("analyze", ["analyze", inst.path], _check_analyze(inst)))
        instance_dir = os.path.dirname(instances[0].path)
        for kind, env in (("compare", {}), ("compare_threaded", {"AVE_THREADS": "2"})):
            report = os.path.join(workdir, f"{kind}.json")
            out.append(Request(kind, ["compare", "--dir", instance_dir, "--out", report],
                               _check_compare(len(instances), report), env))
    elif workload == "analyze-rho":
        for inst in instances:
            out.append(Request("analyze", ["analyze", inst.path, "--rho", "both"],
                               _check_analyze(inst)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out
