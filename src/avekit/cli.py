"""Command-line interface: solve, analyze, generate and compare.

Problems travel as JSON files:

    {"n": 2, "A": [[...], [...]], "b": [...],
     "known_solution": [...]?, "metadata": {...}?}

Reports are JSON too, with the residual always recomputed from the raw
inputs, streamed to ``--out`` or stdout.  The commands raise; ``main``
is the one error boundary and turns any ``CliError``, ``AvekitError``,
``ValueError`` or ``OSError`` (an unreadable input, an unwritable
``--out``) into a single ``error: ...`` line on stderr.  Exit codes: 0
on a converged/unique result, 2 on any non-convergent solver status, 1
on I/O or validation errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

import numpy as np

from . import analysis, oracle, problems, sge
from .errors import AvekitError, DimensionTooLarge, NotUnique
from .newton import newton_solve
from .problems import AveProblem, residual
from .report import SolveReport, Status

GENERATOR_ALIASES = {
    "norm-lt-half": "norm_lt_half",
    "irreducible-half": "irreducible_half",
    "sdd-two-thirds": "sdd_two_thirds",
    "tridiag": "tridiag_abs_sym",
    "tridiag-abs-sym": "tridiag_abs_sym",
    "norm-lt-third": "norm_lt_third",
    "unconstrained": "unconstrained",
}
SPECIAL_CLASSES = ("sge-trap", "newton-cycle", "inflated-identity")
VALID_CLASSES = tuple(GENERATOR_ALIASES) + SPECIAL_CLASSES

MATCH_TOL = 1e-8


class CliError(Exception):
    """Validation or I/O failure; message names the offending field."""


def _numeric_field(path: str, data: dict, name: str) -> np.ndarray:
    try:
        value = np.asarray(data[name], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"{path}: field '{name}' is not numeric: {exc}") from exc
    if not np.isfinite(value).all():
        raise CliError(f"{path}: field '{name}' contains non-finite entries")
    return value


def load_problem(path: str) -> tuple[AveProblem, np.ndarray | None, dict]:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError(f"{path}: top level must be an object")
    for name in ("n", "A", "b"):
        if name not in data:
            raise CliError(f"{path}: missing field '{name}'")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise CliError(f"{path}: field 'n' must be a positive integer")
    a = _numeric_field(path, data, "A")
    if a.shape != (n, n):
        raise CliError(f"{path}: field 'A' must be {n}x{n}, got shape {a.shape}")
    b = _numeric_field(path, data, "b")
    if b.shape != (n,):
        raise CliError(f"{path}: field 'b' must have length {n}, got shape {b.shape}")
    known = None
    if data.get("known_solution") is not None:
        known = _numeric_field(path, data, "known_solution")
        if known.shape != (n,):
            raise CliError(f"{path}: field 'known_solution' must have length {n}")
    metadata = data.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise CliError(f"{path}: field 'metadata' must be an object")
    return AveProblem(a, b), known, metadata


def problem_to_dict(problem: AveProblem, known=None, metadata=None) -> dict:
    out = {
        "n": problem.n,
        "A": problem.a.tolist(),
        "b": problem.b.tolist(),
    }
    if known is not None:
        out["known_solution"] = np.asarray(known, dtype=float).tolist()
    if metadata:
        out["metadata"] = metadata
    return out


def _write_json(data: dict, out: str | None) -> None:
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


def _parse_start(text: str, n: int):
    if text == "b":
        return None
    if text == "plus":
        return np.ones(n)
    if text == "minus":
        return -np.ones(n)
    if set(text) <= {"+", "-"}:
        if len(text) != n:
            raise CliError(f"start signature '{text}' has length {len(text)}, expected {n}")
        return np.array([1.0 if c == "+" else -1.0 for c in text])
    raise CliError(f"invalid --start {text!r}: use b, plus, minus or a +/- string")


def _report_dict(report: SolveReport, elapsed_ms: float, **extra) -> dict:
    out = {
        "method": report.method,
        "status": report.status.value,
        "z": None if report.z is None else report.z.tolist(),
        "residual": report.residual,
        "iterations": report.iterations,
        **extra,
        "condition_profile": report.profile.as_dict(),
        "timings_ms": elapsed_ms,
    }
    # The oracle checks every orthant, so its answer needs no sufficient condition.
    if not report.guaranteed and report.method != "oracle":
        out["warnings"] = ["no sufficient condition holds; result is not guaranteed"]
    if report.signs is not None:
        out["signs"] = report.signs.tolist()
    if report.elimination_trace is not None:
        out["trace"] = [
            {"index": r.index, "sign": r.sign, "round": r.round}
            for r in report.elimination_trace
        ]
    if report.newton_trace is not None:
        out["trace"] = {
            "signatures": ["".join("+" if s > 0 else "-" for s in sig)
                           for sig in report.newton_trace.signatures],
            "residuals": report.newton_trace.residuals,
        }
    return out


def _run_method(problem: AveProblem, method: str, start, max_iter: int):
    """Returns (report, extra report fields) for one solver run."""
    if method == "sge":
        return sge.sge_solve(problem), {}
    if method == "newton":
        return newton_solve(problem, start=start, max_iter=max_iter), {}
    # oracle
    result = oracle.enumerate_solutions(problem)
    count = len(result.solutions)
    z = result.solutions[0][1] if count == 1 else None
    report = SolveReport(
        method="oracle",
        status=Status.CONVERGED if count == 1 else Status.NOT_UNIQUE,
        z=z,
        residual=None if z is None else residual(problem, z),
        iterations=1 << problem.n,
        profile=analysis.condition_profile(problem.a),
    )
    return report, {
        "solution_count": count,
        "singular_signatures": len(result.singular_signatures),
    }


def cmd_solve(args) -> int:
    problem, _known, _meta = load_problem(args.input)
    start = _parse_start(args.start, problem.n)
    t0 = time.perf_counter()
    report, extra = _run_method(problem, args.method, start, args.max_iter)
    out = _report_dict(report, (time.perf_counter() - t0) * 1e3, **extra)
    _write_json(out, args.out)
    return 0 if report.status == Status.CONVERGED else 2


def cmd_analyze(args) -> int:
    problem, _known, _meta = load_problem(args.input)
    a = problem.a
    profile = analysis.condition_profile(a)
    out = {
        "n": problem.n,
        "condition_profile": profile.as_dict(),
        "irreducible": analysis.is_irreducible(a),
        "strictly_diag_dominant": analysis.is_strictly_diag_dominant(a),
        "tridiag_abs_symmetric": analysis.is_tridiag_abs_symmetric(a),
    }
    if problem.n > analysis.MAX_ENUM_DIM:
        out["note"] = (
            f"dimension cap: signature enumeration needs n <= {analysis.MAX_ENUM_DIM}; "
            "spectral-radius and determinant checks omitted"
        )
    else:
        if args.rho in ("enum", "both"):
            out["rho_sr_enum"] = analysis.rho_sr_enum(a, tol=min(args.tol, 1e-8))
        if args.rho in ("bisect", "both"):
            out["rho_sr_bisect"] = analysis.rho_sr_bisect(a, tol=min(args.tol, 1e-6))
        out["det_positive_all_signatures"] = analysis.det_positive_all_signatures(a)
    _write_json(out, args.out)
    return 0


def cmd_generate(args) -> int:
    name = args.cls
    if name not in VALID_CLASSES:
        raise CliError(f"invalid class {name!r}; valid classes: {', '.join(VALID_CLASSES)}")
    if name == "sge-trap":
        problem, known = problems.sge_trap_instance(args.eps)
        meta = {"class": name, "eps": args.eps}
    elif name == "newton-cycle":
        problem = problems.newton_cycle_instance(args.a)
        known, meta = None, {"class": name, "a": args.a}
    elif name == "inflated-identity":
        mat = problems.inflated_identity(args.eps, args.n)
        problem = AveProblem(mat, -np.ones(args.n))
        known, meta = None, {"class": name, "eps": args.eps, "n": args.n}
    else:
        problem, known = problems.random_instance(
            GENERATOR_ALIASES[name], args.n, args.seed, rhs=args.rhs, nu=args.nu
        )
        meta = {"class": name, "n": args.n, "seed": args.seed, "rhs": args.rhs}
        if args.nu is not None:
            meta["nu"] = args.nu
    _write_json(problem_to_dict(problem, known, meta), args.out)
    return 0


def _compare_one(name: str, problem: AveProblem, newton_start) -> dict:
    row: dict = {"instance": name}
    try:
        z_true = oracle.unique_solution(problem)
        row["oracle"] = "unique"
    except (NotUnique, DimensionTooLarge) as exc:
        z_true = None
        row["oracle"] = str(exc)

    def matches(z) -> bool:
        if z is None or z_true is None:
            return False
        return bool(np.abs(z - z_true).max() <= MATCH_TOL * (1.0 + np.abs(z_true).max()))

    rep = sge.sge_solve(problem)
    row["sge_status"] = rep.status.value
    row["sge_ok"] = matches(rep.z)
    rep = newton_solve(problem, start=newton_start, max_iter=max(problem.n + 1, 2 ** problem.n + 1))
    row["newton_status"] = rep.status.value
    row["newton_ok"] = rep.status == Status.CONVERGED and matches(rep.z)
    return row


def _demo_suite():
    trap, _ = problems.sge_trap_instance(0.01)
    circ = problems.newton_cycle_instance()
    return [
        ("trap-eps-0.01", trap, None),
        ("circulant-5-8-mixed-start", circ, np.array([1.0, -1.0, 1.0])),
    ]


def _random_suite():
    cases = []
    for cls in ("norm_lt_half", "irreducible_half", "sdd_two_thirds", "tridiag_abs_sym"):
        for i in range(5):
            n = 2 + (i % 5)
            problem, _z = problems.random_instance(cls, n, 1000 + i)
            cases.append((f"{cls}-n{n}-seed{1000 + i}", problem, None))
    return cases


def cmd_compare(args) -> int:
    skipped: list[str] = []
    cases = []
    if args.dir is not None:
        for fname in sorted(f for f in os.listdir(args.dir) if f.endswith(".json")):
            path = os.path.join(args.dir, fname)
            try:
                problem, _known, _meta = load_problem(path)
            except (CliError, AvekitError, ValueError) as exc:
                skipped.append(f"{fname}: {exc}")
                continue
            cases.append((fname, problem, None))
    elif args.suite == "demo":
        cases = _demo_suite()
    else:
        cases = _random_suite()

    rows = [_compare_one(*case) for case in cases]
    rows.sort(key=lambda r: r["instance"])

    summary = {
        "both": sum(1 for r in rows if r["sge_ok"] and r["newton_ok"]),
        "sge_only": sum(1 for r in rows if r["sge_ok"] and not r["newton_ok"]),
        "newton_only": sum(1 for r in rows if r["newton_ok"] and not r["sge_ok"]),
        "neither": sum(1 for r in rows if not r["sge_ok"] and not r["newton_ok"]),
    }
    header = f"{'instance':40s} {'sge':>4s} {'newton':>7s}  oracle"
    lines = [header, "-" * len(header)]
    for r in rows:
        mark = lambda ok: "ok" if ok else "X"  # noqa: E731
        lines.append(
            f"{r['instance']:40s} {mark(r['sge_ok']):>4s} {mark(r['newton_ok']):>7s}  {r['oracle']}"
        )
    print("\n".join(lines))
    print(f"summary: {summary}")
    for s in skipped:
        print(f"skipped: {s}")
    _write_json({"instances": rows, "summary": summary, "skipped": skipped}, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avekit",
        description="Solvers and analysis for absolute value equations z - A|z| = b.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("input", help="problem JSON file")
    p_solve.add_argument("--method", choices=("sge", "newton", "oracle"), default="sge")
    p_solve.add_argument(
        "--start", default="b",
        help="newton start: 'b', 'plus', 'minus' or a +/- signature string",
    )
    p_solve.add_argument("--max-iter", type=int, default=100, dest="max_iter")
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_an = sub.add_parser("analyze", help="condition profile and spectral analysis")
    p_an.add_argument("input", help="problem JSON file")
    p_an.add_argument("--rho", choices=("enum", "bisect", "both"), default="both")
    p_an.add_argument("--tol", type=float, default=1e-10)
    p_an.add_argument("--out", default=None)
    p_an.set_defaults(func=cmd_analyze)

    p_gen = sub.add_parser("generate", help="write a problem file")
    p_gen.add_argument("--class", dest="cls", required=True,
                       help=f"one of: {', '.join(VALID_CLASSES)}")
    p_gen.add_argument("--n", type=int, default=4)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--rhs", choices=("from-random-z", "explicit"), default="from-random-z")
    p_gen.add_argument("--eps", type=float, default=0.01)
    p_gen.add_argument("--a", type=float, default=0.625)
    p_gen.add_argument("--nu", type=float, default=None)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_cmp = sub.add_parser("compare", help="run all solvers across instances")
    group = p_cmp.add_mutually_exclusive_group(required=True)
    group.add_argument("--dir", default=None, help="directory of problem JSON files")
    group.add_argument("--suite", choices=("demo", "random"), default=None)
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, AvekitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
