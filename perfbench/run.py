"""avekit benchmark: CLI latency on three workloads, plus a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 15 --trace 0

``--trace 0`` sets up the named workload, runs whole rounds of its
request list for at least ``--seconds`` seconds with one client in a
closed loop, checks every output and reports the end-to-end metrics.
``--trace 1`` is the separate traced run: it records spans around each
layer's public functions and reports the per-layer metrics (README.md
lists them).  The full report, with sample counts, per-command latencies
and the environment, is printed first and written to .perfbench_out/;
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("solve-large", "solve-small", "analyze-rho")

# BENCHMARK.json names the metrics of the result line: "end_to_end" for a
# --trace 0 run, "per_layer" for a --trace 1 run.  The other end-to-end
# metrics apply to only some workloads and stay in the full report.
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Set-up repetitions per workload; setup_s is their median.  solve-large
# sets up once: generating its four n = 1000 instances takes about 15 s.
SETUP_REPS = {"solve-large": 1, "solve-small": 5, "analyze-rho": 5}

# Paired untraced/traced rounds of solve-small for trace.overhead_ratio.
OVERHEAD_ROUNDS = 5


def p50(values):
    """Nearest-rank median: always one of the samples, never between two."""
    ordered = sorted(values)
    return ordered[math.ceil(0.5 * len(ordered)) - 1]


def timing(values) -> dict:
    """p50 and, when at least ten samples lie beyond it, p90, with the count."""
    ordered = sorted(values)
    out = {"p50": p50(ordered), "samples": len(ordered)}
    rank = math.ceil(0.9 * len(ordered))
    if len(ordered) - rank >= 10:
        out["p90"] = ordered[rank - 1]
    return out


def environment(seed: int) -> dict:
    import numpy as np

    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        # The ceiling keeps git from reading a repository above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
    }


def cpu_steal():
    """(steal, total) jiffies over all CPUs from /proc/stat, or None."""
    with contextlib.suppress(OSError, ValueError, IndexError):
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
        return fields[7], sum(fields)
    return None


class Session:
    """Runs CLI requests in-process, tags each with a request id, keeps errors."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.tags: list[tuple[str, str, str]] = []  # request id -> (workload, phase, kind)
        self.errors: list[str] = []

    def call(self, argv, env, tag):
        """Run ``avekit argv``; returns (exit code, stdout, stderr, seconds)."""
        if self.tracer is not None:
            self.tracer.request = len(self.tags)
        self.tags.append(tag)
        out, err = io.StringIO(), io.StringIO()
        saved = {key: os.environ.get(key) for key in env}
        os.environ.update(env)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    rc = self.cli.main(argv)
                except SystemExit as exc:  # argparse rejects bad arguments by exiting
                    rc = exc.code if isinstance(exc.code, int) else 1
                seconds = time.perf_counter() - t0
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        return rc, out.getvalue(), err.getvalue(), seconds

    def execute(self, req, workload, phase):
        """Run and check one request; returns (ok, seconds, stdout)."""
        try:
            rc, out, err, seconds = self.call(req.argv, req.env, (workload, phase, req.kind))
            problem = req.check(rc, out)
            if problem and err:
                problem += f" (stderr: {err.strip()[-300:]})"
        except Exception:  # a crash of one request is recorded, not fatal
            problem, seconds, out = traceback.format_exc(limit=4), 0.0, ""
        if problem:
            self.errors.append(f"{workload}/{phase} {req.kind} {' '.join(req.argv)}: {problem}")
        return not problem, seconds, out


class Tally:
    """Outcomes of the measured requests of one phase."""

    def __init__(self, keep_outputs=False):
        self.keep_outputs = keep_outputs
        self.samples: dict[str, list[float]] = {}  # kind -> latencies of passing requests
        self.by_position: list[list[float]] = []  # position in the round -> every latency
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.outputs: dict[str, list[str]] = {}

    def add(self, position, req, ok, seconds, out):
        self.attempted += 1
        if position == len(self.by_position):
            self.by_position.append([])
        self.by_position[position].append(seconds)
        if ok:
            self.samples.setdefault(req.kind, []).append(seconds)
            if self.keep_outputs:
                self.outputs.setdefault(req.kind, []).append(out)
        else:
            self.failed += 1


def run_rounds(session, requests, workload, phase, seconds, tally):
    """Whole rounds of the request list, at least one, until ``seconds`` have passed."""
    start = time.perf_counter()
    while True:
        for position, req in enumerate(requests):
            tally.add(position, req, *session.execute(req, workload, phase))
        tally.rounds += 1
        if time.perf_counter() - start >= seconds:
            return


def setup(session, name, seed, workdir, reps):
    """Generate every instance and warm up; returns (instances, requests, times).

    Each repetition's time is the wall time of its ``generate`` calls plus
    one warm-up request of each kind, the first of that kind in the
    round.  Only the first repetition's files are kept.
    """
    import workloads

    times = []
    for rep in range(reps):
        repdir = os.path.join(workdir, f"{name}-{rep}")
        instdir = os.path.join(repdir, "instances")
        os.makedirs(instdir)
        spent = 0.0
        paths = []
        for spec in workloads.specs(name, seed):
            path = os.path.join(instdir, f"{spec.name}.json")
            rc, _out, err, seconds = session.call(
                ["generate", *spec.args, "--out", path], {}, (name, "setup", "generate"))
            if rc != 0:
                raise RuntimeError(f"avekit generate {' '.join(spec.args)} failed: {err.strip()}")
            spent += seconds
            paths.append((spec, path))
        instances = [workloads.load_instance(spec, path) for spec, path in paths]
        requests = workloads.requests(name, repdir, instances)
        seen = set()
        for req in requests:
            if req.kind not in seen:
                seen.add(req.kind)
                spent += session.execute(req, name, "setup")[1]
        times.append(spent)
        if rep == 0:
            kept = (instances, requests)
        else:
            shutil.rmtree(repdir)
    return kept[0], kept[1], times


def end_to_end(session, name, seed, seconds, workdir, import_s):
    """Set up one workload and time whole rounds of it; returns (tally, metrics, notes)."""
    _instances, requests, setup_times = setup(session, name, seed, workdir, SETUP_REPS[name])
    tally = Tally()
    steal_before = cpu_steal()
    run_rounds(session, requests, name, "timed", seconds, tally)
    steal_after = cpu_steal()
    done = tally.attempted - tally.failed
    # A typical round: each request at its median latency over the rounds,
    # so a burst of host contention in one round does not move the rate.
    round_s = sum(statistics.median(times) for times in tally.by_position)
    metrics = {
        "setup_s": {"value": import_s + p50(setup_times), "unit": "s",
                    "import_s": import_s, "repetitions_s": setup_times},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "requests_per_s": {"value": done / tally.attempted * len(requests) / round_s,
                           "unit": "1/s", "samples": done, "rounds": tally.rounds,
                           "median_round_s": round_s},
        "failed_ratio": {"value": tally.failed / tally.attempted, "unit": "ratio",
                         "samples": tally.attempted},
    }
    for kind, values in sorted(tally.samples.items()):
        stats = timing(values)
        metrics[f"{kind}_s.p50"] = {"value": stats["p50"], "unit": "s", "samples": stats["samples"]}
        if "p90" in stats:
            metrics[f"{kind}_s.p90"] = {"value": stats["p90"], "unit": "s",
                                        "samples": stats["samples"]}
    busy = sum(sum(times) for times in tally.by_position)
    by_input: dict[str, float] = {}
    for req, times in zip(requests, tally.by_position):
        target = os.path.basename(req.argv[1]) if req.argv[0] != "compare" else req.kind
        by_input[target] = by_input.get(target, 0.0) + sum(times) / busy
    notes = {"share_of_request_time_by_input": by_input}
    if steal_before and steal_after:
        # Share of CPU time the hypervisor gave to other guests while timing.
        notes["cpu_steal_share"] = ((steal_after[0] - steal_before[0])
                                    / max(steal_after[1] - steal_before[1], 1))
    return tally, metrics, notes


def traced_run(session, tracer, seed, workdir):
    """Traced rounds of every workload, a memory pass and the LAPACK reference.

    Returns (tally, metrics, notes) like ``end_to_end``.
    """
    import spans
    from workloads import LARGE_N

    kept = {}
    with tracer.installed():
        for name in WORKLOADS:
            instances, requests, _ = setup(session, name, seed, workdir, 1)
            kept[name] = (instances, requests)
    tallies = {}
    untraced = Tally()
    traced_small = Tally()
    for _ in range(OVERHEAD_ROUNDS):
        run_rounds(session, kept["solve-small"][1], "solve-small", "untraced", 0.0, untraced)
        with tracer.installed():
            run_rounds(session, kept["solve-small"][1], "solve-small", "traced", 0.0, traced_small)
    tallies["solve-small"] = traced_small
    for name in ("solve-large", "analyze-rho"):
        tallies[name] = Tally(keep_outputs=True)
        with tracer.installed():
            run_rounds(session, kept[name][1], name, "traced", 0.0, tallies[name])

    def durations(workload, phase, name, kinds=None):
        return [s for s in tracer.spans if s.name == name and s.request is not None
                and session.tags[s.request][:2] == (workload, phase)
                and (kinds is None or session.tags[s.request][2] in kinds)]

    self_of = spans.self_times(tracer.spans)

    def p50_s(workload, name, phase="traced"):
        return p50([s.seconds for s in durations(workload, phase, name)])

    def self_s(workload, name):
        return p50([self_of[s.id] for s in durations(workload, "traced", name)])

    def calls_per_request(workload, name, kinds):
        count = sum(len(v) for k, v in tallies[workload].samples.items() if k in kinds)
        return len(durations(workload, "traced", name, kinds)) / count

    small_solves = {"solve_sge", "solve_newton", "solve_oracle"}
    mains = durations("solve-small", "traced", "cli.main")
    lu_p50 = p50_s("solve-large", "linalg.lu_factor")
    steps = [json.loads(out)["iterations"]
             for out in tallies["solve-large"].outputs.get("solve_newton", [])]
    ratios = {kind: p50(traced_small.samples[kind]) / p50(untraced.samples[kind])
              for kind in traced_small.samples if kind in untraced.samples}
    large = kept["solve-large"][0]
    peaks = memory_pass(session, large[0])
    ref = lapack_reference(session, large)

    values = {
        "cli.load_problem.p50_s": (p50_s("solve-large", "cli.load_problem"), "s"),
        "cli.main.self_share": (sum(self_of[s.id] for s in mains) / sum(s.seconds for s in mains),
                                "ratio"),
        "analysis.condition_profile.calls": (
            calls_per_request("solve-small", "analysis.condition_profile", small_solves), "count"),
        "analysis.condition_profile.p50_s": (p50_s("solve-small", "analysis.condition_profile"), "s"),
        "problems.residual.calls": (
            calls_per_request("solve-small", "problems.residual", small_solves), "count"),
        "sge.sge_solve.self_s": (self_s("solve-large", "sge.sge_solve"), "s"),
        "sge.sge_solve.peak_mb": (peaks["sge.sge_solve"], "MB"),
        "linalg.lu_factor.calls": (
            calls_per_request("solve-large", "linalg.lu_factor", {"solve_newton"}), "count"),
        "linalg.lu_factor.p50_s": (lu_p50, "s"),
        "linalg.lu_factor.gflops": (2.0 / 3.0 * LARGE_N ** 3 / lu_p50 / 1e9, "GFLOP/s"),
        "linalg.lu_factor.peak_mb": (peaks["linalg.lu_factor"], "MB"),
        "linalg.lu_solve.p50_s": (p50_s("solve-large", "linalg.lu_solve"), "s"),
        "newton.newton_solve.self_s": (self_s("solve-large", "newton.newton_solve"), "s"),
        "newton.steps": (sum(steps) / len(steps), "count"),
        "newton.newton_solve.peak_mb": (peaks["newton.newton_solve"], "MB"),
        "oracle.enumerate_solutions.p50_s": (p50_s("solve-small", "oracle.enumerate_solutions"), "s"),
        "analysis.rho_sr_enum.p50_s": (p50_s("analyze-rho", "analysis.rho_sr_enum"), "s"),
        "linalg.char_polys_stack.p50_s": (p50_s("analyze-rho", "linalg.char_polys_stack"), "s"),
        "linalg.max_abs_real_roots.p50_s": (p50_s("analyze-rho", "linalg.max_abs_real_roots"), "s"),
        "analysis.rho_sr_bisect.p50_s": (p50_s("analyze-rho", "analysis.rho_sr_bisect"), "s"),
        "analysis.det_positive_all_signatures.p50_s": (
            p50_s("analyze-rho", "analysis.det_positive_all_signatures"), "s"),
        "problems.gen_class.p50_s": (p50_s("solve-large", "problems.gen_class", "setup"), "s"),
        "ref.lapack_solve_1t_s": (ref, "s"),
        "trace.overhead_ratio": (max(ratios.values()), "ratio"),
    }
    metrics = {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}

    layers = {}
    for workload in WORKLOADS:
        for fn_module, fn_name in spans.TRACED:
            name = f"{fn_module.split('.')[-1]}.{fn_name}"
            found = durations(workload, "traced", name)
            if found:
                layers[f"{workload}/{name}"] = {
                    "calls": len(found),
                    "p50_s": p50([s.seconds for s in found]),
                    "self_p50_s": p50([self_of[s.id] for s in found]),
                    "self_total_s": sum(self_of[s.id] for s in found),
                }
    notes = {"overhead_ratio_by_command": ratios, "layers": layers,
             "newton_steps_per_request": steps,
             "lu_factor_gflops_basis": f"computed from (2/3) n^3 flops at n = {LARGE_N}"}
    tally = Tally()
    for t in (untraced, traced_small, tallies["solve-large"], tallies["analyze-rho"]):
        tally.attempted += t.attempted
        tally.failed += t.failed
    return tally, metrics, notes


def memory_pass(session, inst):
    """tracemalloc peaks of sge_solve, newton_solve and lu_factor on one instance.

    Kept out of the timed and traced passes: tracemalloc slows the
    pure-Python layers.
    """
    import tracemalloc

    import numpy as np
    from avekit import cli, linalg, newton, sge

    problem, _known, _meta = cli.load_problem(inst.path)
    first = np.where(problem.b >= 0.0, 1.0, -1.0)  # Newton's first signature
    system = np.eye(problem.n) - problem.a * first[None, :]
    calls = (
        ("sge.sge_solve", lambda: sge.sge_solve(problem)),
        ("newton.newton_solve", lambda: newton.newton_solve(problem)),
        ("linalg.lu_factor", lambda: linalg.lu_factor(system)),
    )
    peaks = {}
    tracemalloc.start()
    try:
        for name, call in calls:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = call()
            peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / 2.0**20
            z = getattr(result, "z", None)
            if z is not None and np.abs(z - inst.z).max() > 1e-8 * (1.0 + np.abs(inst.z).max()):
                session.errors.append(f"memory pass: {name} missed the known solution")
            del result
    finally:
        tracemalloc.stop()
    return peaks


def lapack_reference(session, instances):
    """Median single-threaded np.linalg.solve time over the instances."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "lapack_ref.py"), *[i.path for i in instances]],
        env=env, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"lapack_ref.py failed: {proc.stderr.strip()[-500:]}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    if max(data["errors"]) > 1e-8:
        session.errors.append(f"LAPACK reference missed the known solution: {data['errors']}")
    return p50(data["seconds"])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "avekit", "cli.py")):
        print(f"error: no avekit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Importing the program is part of set-up.  The benchmark's own modules
    # import numpy, so the functions here import them only after this.
    t0 = time.perf_counter()
    from avekit import cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: avekit loaded from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    tracer = spans.Tracer() if args.trace else None
    session = Session(cli, tracer)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            tally, metrics, notes = traced_run(session, tracer, args.seed, workdir)
            tracer.dump(os.path.join(OUT, f"spans-{stem}.jsonl"))
        else:
            tally, metrics, notes = end_to_end(session, args.workload, args.seed,
                                               args.seconds, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": session.errors,
        "metrics": metrics,
        "notes": notes,
    }
    text = json.dumps(report, indent=2, default=float)
    with open(os.path.join(OUT, f"report-{stem}.json"), "w") as handle:
        handle.write(text + "\n")
    print(text)
    with open(SPEC) as handle:
        wanted = [m["name"] for m in json.load(handle)["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": not session.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]} for k in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
