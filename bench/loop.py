"""Run one workload in this process: set-up, warm-up, closed-loop timed phase,
output checks, and with --trace 1 a traced replay of the same queries.

Started by run.py, which generates and persists the inputs first, so the peak
memory and the set-up time measured here belong to the workload alone. Prints
a provenance line, a per-phase failure account and every metric by name and
unit; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import divsel  # noqa: E402
from divsel.errors import DivselError  # noqa: E402
from divsel.memory import tokenize  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, Workload  # noqa: E402

WORK = ROOT / ".bench_build" / "divsel"
MIN_PASSES = 2
TRACE_QUERIES = 50  # the traced run replays its untraced half query by query
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Phase:
    """Queries attempted and failed in one phase, failures keyed by error class."""

    def __init__(self):
        self.attempted = 0
        self.failed: dict[int, str] = {}  # query index -> error class

    def fail(self, index: int, kind: str) -> None:
        self.failed.setdefault(index, kind)

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "succeeded": self.attempted - len(self.failed),
            "failed": len(self.failed),
            "failures": dict(Counter(self.failed.values())),
        }


class Run:
    """Closed-loop execution of one workload over its loaded inputs."""

    def __init__(self, workload: Workload, in_dir: Path, mem, corpus):
        self.workload = workload
        self.config = workload.config()
        self.in_dir = in_dir
        self.mem = mem
        self.corpus = corpus
        self.digests: dict[int, str] = {}  # corpus index -> digest of its first row

    def reload(self, phase: Phase) -> float:
        """One set-up repetition inside the timed phase; returns its seconds.
        The freshly loaded inputs replace the run's own, so memory holds one
        copy as after the first set-up, and later queries check them."""
        self.mem = self.corpus = None
        phase.attempted += 1
        t0 = time.perf_counter()
        try:
            self.mem, self.corpus = workloads.set_up(self.in_dir)
        except DivselError as exc:
            phase.fail(phase.attempted - 1, type(exc).__name__)
            raise
        return time.perf_counter() - t0

    def query(self, n: int, index: int, phase: Phase, on_result=None):
        """Execution n of the loop, on corpus instance `index`; returns
        (seconds, row or None)."""
        wl, inst = self.workload, self.corpus[index]
        phase.attempted += 1
        t0 = time.perf_counter()
        try:
            result = workloads.run_query(wl, self.config, self.mem, inst)
        except DivselError as exc:
            elapsed = time.perf_counter() - t0
            phase.fail(n, type(exc).__name__)
            return elapsed, None
        t1 = time.perf_counter()
        if on_result is not None:
            on_result()
        row = None
        try:
            workloads.check_result(wl, self.config, inst, result)
            row = workloads.result_row(wl, inst, result)
        except DivselError as exc:
            phase.fail(n, type(exc).__name__)
        if row is not None:
            digest = workloads.row_digest(row)
            first = self.digests.setdefault(index, digest)
            if digest != first:
                phase.fail(n, "RowMismatch")
        return t1 - t0, row

    def closed_loop(self, phase: Phase, seconds: float, queries: int, min_passes: int,
                    setup_phase: Phase | None = None, setup_reps: int = 0):
        """Passes over the first `queries` instances, each query sent when the
        previous returned, until the time is up and `min_passes` passes ran.
        Between queries, `setup_reps` set-up repetitions run at evenly spaced
        times, so that they sample the same host conditions as the queries.

        Returns every execution's seconds, each query's fastest execution, the
        first pass's rows and the set-up repetitions' seconds in time order.
        Co-tenants on a shared host only ever slow a query down, so the
        fastest of executions spread over the run is its steadiest measure.
        """
        latencies, best, rows = [], [math.inf] * queries, [None] * queries
        setup_times: list[float] = []
        start = time.perf_counter()
        while (len(latencies) < min_passes * queries or time.perf_counter() - start < seconds
               or len(setup_times) < setup_reps):
            due = (len(setup_times) + 0.5) * seconds / max(setup_reps, 1)
            if len(setup_times) < setup_reps and time.perf_counter() - start >= due:
                setup_times.append(self.reload(setup_phase))
                continue
            n = len(latencies)
            elapsed, row = self.query(n, n % queries, phase)
            latencies.append(elapsed)
            best[n % queries] = min(best[n % queries], elapsed)
            if n < queries:
                rows[n] = row
        return latencies, best, rows, setup_times


def set_up(in_dir: Path, reps: int, phase: Phase):
    """Repeat the set-up and return (seconds per repetition, memory, corpus)."""
    times, mem, corpus = [], None, None
    for i in range(reps):
        mem = corpus = None
        phase.attempted += 1
        t0 = time.perf_counter()
        try:
            mem, corpus = workloads.set_up(in_dir)
        except DivselError as exc:
            phase.fail(i, type(exc).__name__)
            continue
        times.append(time.perf_counter() - t0)
    return times, mem, corpus


def code_digest() -> str:
    """Hash of the program and benchmark sources: keys the cross-run digests."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip()


def check_across_runs(workload: Workload, seed: int, source: str, rows, phase: Phase) -> str:
    """Compare this run's reference-row digests with the first run of this seed
    and code; each differing row fails its query. Returns the combined digest."""
    digests = [workloads.row_digest(r) if r is not None else "" for r in rows]
    path = WORK / "digests" / f"{workload.name}-seed{seed}-{source[:16]}.json"
    if path.exists():
        previous = json.loads(path.read_text(encoding="utf-8"))
        for i, (a, b) in enumerate(zip(previous, digests)):
            if a != b:
                phase.fail(i, "RunDigestMismatch")
    elif len(digests) == workload.reference_queries and "" not in digests:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(digests), encoding="utf-8")
        tmp.replace(path)
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def query_shape(workload: Workload, inst, row: dict, verifier_calls: int) -> dict:
    """The cost model's WorkloadShape fields for one traced query."""
    return {
        "memory_size": workload.memory_size,
        "query_terms": len(tokenize(inst.dialogue.current)),
        "pool_size": min(workload.retrieval.pool_size, workload.memory_size),
        "k": workload.selection.k,
        "turns": len(inst.dialogue.turns),
        "prompt_tokens": workloads.row_total_prompt_tokens(workload, row),
        "gen_tokens": verifier_calls,
    }


def setup_seconds(workload: Workload, setup_times) -> float:
    """Median over set-up slots of each slot's fastest repetition. Repetition j
    belongs to slot j % setup_slots, so each slot's repetitions are spread over
    the run like a query's executions over its passes."""
    slots = workload.setup_slots
    return statistics.median(min(setup_times[s::slots]) for s in range(slots))


def end_to_end(run: Run, setup_times, best, rows, timed: Phase, warm_calls) -> dict:
    """Latency and throughput count each query at its fastest execution and
    set-up each slot at its fastest repetition; accuracy, tokens and calls
    come from the first pass's rows."""
    wl = run.workload
    ref = [r for r in rows if r is not None]
    if wl.driver == "pipeline":
        calls = statistics.fmean(len(r["candidate_set"]) for r in ref)
    else:
        calls = warm_calls
    return {
        "latency_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "latency_p90_ms": (float(np.percentile(best, 90)) * 1e3, "ms"),
        "throughput_qps": (len(best) / math.fsum(best), "queries/s"),
        "setup_s": (setup_seconds(wl, setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (1.0 - len(timed.failed) / timed.attempted, "ratio"),
        # A failed reference query counts as a wrong answer.
        "accuracy": (sum(workloads.row_accuracy(wl, r) for r in ref) / len(rows), "ratio"),
        "prompt_tokens_mean": (statistics.fmean(workloads.row_prompt_tokens(wl, r) for r in ref), "tokens"),
        "verifier_calls_mean": (calls, "calls"),
    }


def traced_replay(run: Run, count: int, queries: int, phase: Phase, tracer: spans.Tracer):
    """Replay the untraced loop's `count` executions with every layer wrapped.
    Each row is checked against the untraced run's row for the same instance,
    so a query whose output tracing changed fails."""
    latencies, qids, shapes = [], [], {}
    tracer.install_layers()
    try:
        for n in range(count):
            inst = run.corpus[n % queries]
            qid = f"{n}:{inst.id}"
            tracer.begin_query(qid)
            elapsed, row = run.query(n, n % queries, phase, on_result=tracer.end_query)
            if tracer.query is not None:  # the query raised before on_result
                tracer.end_query()
            latencies.append(elapsed)
            qids.append(qid)
            if row is None:
                continue
            calls = tracer.query_counts[qid].get("verifier_calls", 0)
            shapes[qid] = query_shape(run.workload, inst, row, calls)
    finally:
        restored = tracer.restore()
    return latencies, qids, shapes, restored


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if Path(divsel.__file__).resolve().parent != (SRC / "divsel").resolve():
        print(f"error: divsel imported from {divsel.__file__}, not from this checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    phases = {name: Phase() for name in ("setup", "warmup", "timed", "traced")}
    tracer = spans.Tracer()
    # The traced run times memory.load up front; the untraced run sets up once
    # here and times its set-up repetitions during the timed phase.
    if args.trace:
        tracer.install_setup()
    try:
        _, mem, corpus = set_up(args.inputs, wl.setup_slots if args.trace else 1, phases["setup"])
    finally:
        setup_restored = tracer.restore()
    if mem is None or phases["setup"].failed:
        print(f"error: set-up failed: {phases['setup'].to_dict()}", file=sys.stderr)
        return 1
    run = Run(wl, args.inputs, mem, corpus)
    del mem, corpus  # the run holds the only reference, so a reload frees them

    # Warm-up: fills caches and lazy state; its rows seed the determinism check,
    # and it counts verifier calls for the fairness driver, which returns none.
    counter = spans.Tracer()
    counter.install_verifier_counter()
    try:
        for i in range(wl.warmup_queries):
            counter.begin_query(str(i))
            run.query(i, i, phases["warmup"], on_result=counter.end_query)
    finally:
        warm_restored = counter.restore()
    warm_calls = statistics.fmean(c.get("verifier_calls", 0) for c in counter.query_counts.values())

    # A traced run splits its time between the untraced loop and the replay.
    timed = phases["timed"]
    try:
        if args.trace:
            latencies, best, rows, setup_times = run.closed_loop(timed, args.seconds / 2, TRACE_QUERIES, 1)
        else:
            latencies, best, rows, setup_times = run.closed_loop(
                timed, args.seconds, wl.reference_queries, MIN_PASSES,
                phases["setup"], wl.setup_slots * wl.setup_rounds)
    except DivselError:
        print(f"error: set-up failed in the timed phase: {phases['setup'].to_dict()}", file=sys.stderr)
        return 1
    source = code_digest()
    rows_digest = check_across_runs(wl, args.seed, source, rows, timed)
    restored = setup_restored and warm_restored

    extra: dict = {}
    if args.trace:
        traced = phases["traced"]
        t_lat, qids, shapes, layers_restored = traced_replay(run, len(latencies), TRACE_QUERIES, traced, tracer)
        restored = restored and layers_restored
        if not shapes:
            print(f"error: every traced query failed: {traced.to_dict()}", file=sys.stderr)
            return 1
        out = spans.layer_metrics(tracer, qids)
        out["memory.load_s"] = (spans.load_seconds(tracer), "s")
        out["trace.overhead_pct"] = (100.0 * (sum(t_lat) - sum(latencies)) / sum(latencies), "%")
        resid, constants = spans.cost_model_residuals(tracer, shapes)
        out.update(resid)
        spans_path = WORK / "traces" / f"{wl.name}-seed{args.seed}.spans.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
        extra = {"fitted_constants": constants, "spans_file": spans_path.relative_to(ROOT).as_posix()}
        measured = [timed, traced]
    else:
        if all(r is None for r in rows):
            print(f"error: every reference query failed: {timed.to_dict()}", file=sys.stderr)
            return 1
        out = end_to_end(run, setup_times, best, rows, timed, warm_calls)
        extra = {"setup_times_s": setup_times}
        measured = [timed]

    attempted = sum(p.attempted for p in measured)
    failed = sum(len(p.failed) for p in measured)
    correct = failed == 0 and restored and not phases["warmup"].failed
    provenance = {
        "workload": wl.name,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "memory_size": wl.memory_size,
        "queries": {name: p.attempted for name, p in phases.items()},
        "reference_rows_sha256": rows_digest,
    }
    accounting = {name: p.to_dict() for name, p in phases.items()}
    accounting["error_rate"] = failed / attempted
    accounting["wrappers_restored"] = restored
    report = {"provenance": provenance, "phases": accounting, **extra,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.items()}}
    report_path = WORK / "reports" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print("# provenance " + json.dumps(provenance))
    print("# phases " + json.dumps(accounting))
    for name, (value, unit) in out.items():
        note = f"  (n={len(best)} queries, {len(latencies)} executions)" if name.startswith("latency_") else ""
        if name == "setup_s":
            note = f"  (n={wl.setup_slots} slots, {len(setup_times)} repetitions)"
        print(f"# {name} = {value:.6g} {unit}{note}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
