"""Command-line interface: solve, analyze, generate and compare.

Problems travel as JSON files:

    {"n": 2, "A": [[...], [...]], "b": [...],
     "known_solution": [...]?, "metadata": {...}?}

``load_problem`` accepts what ``json.load`` accepts.  A regular file in
the layout ``generate`` writes ("n", then "A") is read in pieces, with
each row of ``A`` read by ``orjson`` into a float array; any other file
or a pipe is ``json.load``'s.  Reports are JSON too, with the residual
always recomputed from the raw inputs.  ``_write_json`` is the one
writer: one ``orjson.dumps`` call, indented by two spaces, whose bytes go
to ``--out`` or to stdout's buffer (decoded, to a stdout that has none,
such as a ``StringIO``).  Every finite float is written as its shortest
round-trip digits and reads back bitwise; a non-finite one is written as
``null``.  The argument parser is built once, at import.

The commands raise; ``main`` is the one error boundary and turns any
``CliError``, ``AvekitError``, ``ValueError``, ``OSError`` (an
unreadable input, an unwritable ``--out``) or ``MemoryError`` into a
single ``error: ...`` line on stderr.  Exit codes:

* 0: ``solve`` reports ``converged`` (for sge and newton, an answer that
  passed ``report.verify``; for the oracle, a unique solution), and
  every other command succeeded;
* 2: ``solve`` reports any other status: ``unverified`` (an answer that
  failed ``report.verify`` or is not finite), ``cycle``,
  ``max_iterations``, ``singular``, ``pivot_breakdown`` or
  ``not_unique``;
* 1: I/O, validation or out-of-memory errors.

``compare`` counts an answer as ok only when its status is ``converged``
and it matches the oracle's unique solution.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import struct
import sys
import time
from functools import partial

import numpy as np
import orjson

from . import analysis, oracle, problems, sge
from .errors import AvekitError, DimensionTooLarge, NotUnique
from .linalg import infinity_norm
from .newton import newton_solve
from .problems import AveProblem, residual
from .report import SolveReport, Status

_SEEDED = ("n", "seed", "rhs")
# Every class ``generate`` writes, in the order ``--help`` lists them: the
# builder of its (problem, known solution), called with the options the
# class reads, and those options in the order its metadata writes them.
# ``generate`` refuses any other option.
GENERATE_CLASSES = {
    "norm-lt-half": (partial(problems.random_instance, "norm_lt_half"), _SEEDED),
    "irreducible-half": (partial(problems.random_instance, "irreducible_half"), _SEEDED),
    "sdd-two-thirds": (partial(problems.random_instance, "sdd_two_thirds"), _SEEDED),
    "tridiag": (partial(problems.random_instance, "tridiag_abs_sym"), _SEEDED),
    "tridiag-abs-sym": (partial(problems.random_instance, "tridiag_abs_sym"), _SEEDED),
    "norm-lt-third": (partial(problems.random_instance, "norm_lt_third"), _SEEDED),
    "unconstrained": (partial(problems.random_instance, "unconstrained"), _SEEDED + ("nu",)),
    "sge-trap": (problems.sge_trap_instance, ("eps",)),
    "newton-cycle": (lambda a: (problems.newton_cycle_instance(a), None), ("a",)),
    "inflated-identity": (lambda eps, n: (AveProblem(problems.inflated_identity(eps, n),
                                                     -np.ones(n)), None), ("eps", "n")),
}
GENERATE_DEFAULTS = {"n": 4, "seed": 0, "rhs": "from-random-z", "eps": 0.01, "a": 0.625, "nu": None}

# solve's default Newton budget, and compare's above the enumeration cap.
NEWTON_MAX_ITER = 100

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


# Characters the loader reads at a time.  A row longer than the text
# still held reads at least as much again, so it costs O(length) however
# it falls across reads.
_CHUNK = 1 << 18

# The opening of the layout ``generate`` writes: "n" as an integer literal
# (group 1 ends with it), then "A" and its bracket, the first "[" of the
# text.  Only JSON whitespace separates the tokens.
_WS = re.compile(r"[ \t\n\r]*")
_OPENING = re.compile('({0}{{{0}"n"{0}:{0}-?[0-9]+){0},{0}"A"{0}:{0}\\['.format(_WS.pattern))


def _read_generated(read) -> dict:
    """``json.loads`` of the text ``read(size)`` gives, ``_CHUNK``
    characters at a time, when it has the layout ``generate`` writes
    (``_OPENING``, then rows separated by commas), except that "A" is the
    list of its rows as float arrays; raises ValueError or RecursionError
    for any other text.

    A row is the text up to the next ``]``: a slice ``orjson`` accepts is
    one value that ends there, so a flat array, and orjson's doubles are
    correctly rounded like ``float()``'s.  Only integers past 64 bits
    differ (orjson gives their float), which ``np.asarray(dtype=float)``
    erases.  ``struct.pack`` takes only floats, ints and bools and gives
    each the double ``np.asarray`` gives.  The opening up to "n"'s value
    and the text after "A" go to one ``json.loads``, which makes every
    check on them; a later "A", which would replace the rows, is refused.
    So the nested list of a dense ``A`` never exists."""
    text, pos, eof = "", 0, False

    def more() -> None:
        nonlocal text, pos, eof
        size = max(_CHUNK, len(text) - pos)
        chunk = read(size)
        text, pos, eof = text[pos:] + chunk, 0, len(chunk) < size

    def skip() -> str:
        """The character after the whitespace at ``pos``, "" at the end."""
        nonlocal pos
        while (pos := _WS.match(text, pos).end()) == len(text) and not eof:
            more()
        return text[pos:pos + 1]

    while "[" not in text and not eof:
        more()
    opening = _OPENING.match(text)
    if not opening:
        raise ValueError("not the layout generate writes")
    pos, rows = opening.end(), []
    mark = skip()
    while mark != "]":
        while not (end := text.find("]", pos) + 1) and not eof:
            more()
        values = orjson.loads(text[pos:end])
        try:
            rows.append(np.frombuffer(struct.pack(f"{len(values)}d", *values)))
        except struct.error:
            raise ValueError("a row of 'A' is not a flat array of numbers") from None
        pos = end
        if (mark := skip()) == ",":
            pos += 1
        elif mark != "]":
            raise ValueError("the rows of 'A' are not separated by commas")
    data = json.loads(opening[1] + text[pos + 1:] + read())
    if "A" in data:
        raise ValueError("a later 'A' replaces the rows read")
    data["A"] = rows
    return data


def load_problem(path: str) -> tuple[AveProblem, np.ndarray | None, dict]:
    """Read and validate a problem file.

    The file must hold what ``json.load`` accepts, and ``A``, ``b`` and
    ``known_solution`` are what ``np.asarray(value, dtype=float)`` makes
    of the parsed values.  A regular file is first read ``_CHUNK``
    characters at a time by ``_read_generated``, which reads only the
    layout ``generate`` writes and turns each row of ``A`` into a float
    array as soon as it is read, so neither the file's whole text nor a
    nested list of Python floats is held for a file that ``generate``
    wrote, whose shortest round-trip digits read back bitwise.  Every
    other file, in another layout, invalid or not regular (a pipe), is
    read by ``json.load``, whose errors, file positions included, are the
    ones reported.  Any unreadable, invalid
    or inconsistent file raises ``CliError`` naming the path and the
    field, and so does an ``A`` whose ||A||_inf overflows, on which every
    command would print non-finite numbers.
    """
    try:
        data = None
        if os.path.isfile(path):
            with contextlib.suppress(ValueError, RecursionError), open(path) as handle:
                data = _read_generated(handle.read)
        if data is None:
            with open(path) as handle:
                data = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
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
    with np.errstate(over="ignore"):
        norm = infinity_norm(a)
    if not math.isfinite(norm):
        raise CliError(f"{path}: field 'A' has a row whose absolute sum overflows")
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
    """The problem file's fields; ``_write_json`` writes its float arrays."""
    out = {
        "n": problem.n,
        "A": problem.a,
        "b": problem.b,
    }
    if known is not None:
        out["known_solution"] = np.asarray(known, dtype=float)
    if metadata:
        out["metadata"] = metadata
    return out


def _write_json(data, out: str | None) -> None:
    """Write ``data`` as JSON indented by two spaces, plus a newline, to
    ``out`` or stdout: the bytes of one ``orjson.dumps`` call.

    The text is strict JSON: a non-finite float is written as ``null``,
    and each finite one as its shortest round-trip digits, so it reads
    back bitwise.  Strings are UTF-8, keys must be str and integers must
    fit in 64 bits.  An ndarray is written as its nested list; orjson
    reads only native-order C-contiguous arrays right, which every array
    here is (``AveProblem``'s and ``np.asarray(..., dtype=float)``'s)."""
    text = orjson.dumps(data, option=orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY
                        | orjson.OPT_APPEND_NEWLINE)
    if out:
        with open(out, "wb") as handle:
            handle.write(text)
    elif hasattr(sys.stdout, "buffer"):
        # UTF-8 whatever the stream's encoding, which may not encode a name.
        sys.stdout.flush()
        sys.stdout.buffer.write(text)
    else:
        sys.stdout.write(text.decode())


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


def _run_method(problem: AveProblem, method: str, **newton_options):
    """Returns (report, extra report fields) for one solver run."""
    if method == "sge":
        return sge.sge_solve(problem), {}
    if method == "newton":
        return newton_solve(problem, **newton_options), {}
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
    # --start and --max-iter are Newton's alone; None marks an omitted one.
    given = [flag for flag, value in (("--start", args.start), ("--max-iter", args.max_iter))
             if value is not None]
    if given and args.method != "newton":
        raise CliError(f"method {args.method!r} does not read {', '.join(given)}")
    problem, _known, _meta = load_problem(args.input)
    newton_options = {}
    if args.method == "newton":
        newton_options = {
            "start": _parse_start("b" if args.start is None else args.start, problem.n),
            "max_iter": NEWTON_MAX_ITER if args.max_iter is None else args.max_iter,
        }
    t0 = time.perf_counter()
    report, extra = _run_method(problem, args.method, **newton_options)
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
            out["rho_sr_enum"] = analysis.rho_sr_enum(a, tol=1e-10)
        if args.rho in ("bisect", "both"):
            out["rho_sr_bisect"] = analysis.rho_sr_bisect(a, tol=1e-10)
        out["det_positive_all_signatures"] = analysis.det_positive_all_signatures(a)
    _write_json(out, args.out)
    return 0


def cmd_generate(args) -> int:
    name = args.cls
    if name not in GENERATE_CLASSES:
        raise CliError(f"invalid class {name!r}; valid classes: {', '.join(GENERATE_CLASSES)}")
    build, reads = GENERATE_CLASSES[name]
    given = {o: v for o in GENERATE_DEFAULTS if (v := getattr(args, o)) is not None}
    unread = [f"--{o}" for o in given if o not in reads]
    if unread:
        raise CliError(f"class {name!r} does not read {', '.join(unread)}")
    options = {o: given.get(o, GENERATE_DEFAULTS[o]) for o in reads}
    # The file holds the seed as a 64-bit integer and the floats as numbers.
    if not -(1 << 63) <= options.get("seed", 0) < 1 << 64:
        raise CliError(f"--seed {options['seed']} is outside [-2^63, 2^64)")
    for option in ("eps", "a", "nu"):
        if options.get(option) is not None and not math.isfinite(options[option]):
            raise CliError(f"--{option} must be finite, got {options[option]}")
    problem, known = build(**options)
    _write_json(problem_to_dict(problem, known, {"class": name, **options}), args.out)
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
        return bool(np.abs(z - z_true).max() <= MATCH_TOL * np.abs(z_true).max())

    rep = sge.sge_solve(problem)
    row["sge_status"] = rep.status.value
    row["sge_ok"] = rep.status == Status.CONVERGED and matches(rep.z)
    # Up to the enumeration cap, 2^n + 1 steps force the walk to converge
    # or revisit a signature; above it, 2^n is no bound.
    budget = 2 ** problem.n + 1 if problem.n <= analysis.MAX_ENUM_DIM else NEWTON_MAX_ITER
    row["newton_budget"] = budget
    rep = newton_solve(problem, start=newton_start, max_iter=budget)
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
    _write_json({"instances": rows, "summary": summary, "skipped": skipped}, args.out)
    # The table goes to stderr, so that stdout carries the JSON report alone;
    # it follows the report, so an unwritable --out leaves one error line.
    print("\n".join(lines), file=sys.stderr)
    print(f"summary: {summary}", file=sys.stderr)
    for s in skipped:
        print(f"skipped: {s}", file=sys.stderr)
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
        "--start", default=None,
        help="newton start: 'b' (the default), 'plus', 'minus' or a +/- signature string",
    )
    p_solve.add_argument("--max-iter", type=int, default=None, dest="max_iter",
                         help=f"newton step budget (default {NEWTON_MAX_ITER})")
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_an = sub.add_parser("analyze", help="condition profile and spectral analysis")
    p_an.add_argument("input", help="problem JSON file")
    p_an.add_argument("--rho", choices=("enum", "bisect", "both"), default="both")
    p_an.add_argument("--out", default=None)
    p_an.set_defaults(func=cmd_analyze)

    p_gen = sub.add_parser("generate", help="write a problem file")
    p_gen.add_argument("--class", dest="cls", required=True,
                       help=f"one of: {', '.join(GENERATE_CLASSES)}")
    # None marks an omitted option; cmd_generate fills in GENERATE_DEFAULTS.
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--rhs", choices=("from-random-z", "explicit"), default=None)
    p_gen.add_argument("--eps", type=float, default=None)
    p_gen.add_argument("--a", type=float, default=None)
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


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, AvekitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
