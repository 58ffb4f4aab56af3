"""Closed-loop benchmark of the citation service, one workload per process.

    python3 perfbench/run.py --workload warm_cite --seed 1 --seconds 10 --trace 0

One client drives ``CitationService.submit`` and ``Database.insert``/``delete``
and sends each request only after the previous one returned, as library
callers and the CLI ``serve`` loop do.  A run replays a seed-generated
sequence of whole cycles; ``--seconds`` sets its length through each
workload's nominal cycle rate, so both sides of a comparison serve identical
requests in an exact mix.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates traced
and untraced cycles of the same sequence and prints the per-layer metrics,
with the throughput gap between the two halves as the tracing overhead;
its spans go to ``.bench_out/``.  Every answer is checked with the clock
stopped; a wrong one makes the run fail (exit 1, ``"correct": false``).
The last line of standard output is the result as one JSON object.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

try:
    import repro.workloads.gtopdb  # noqa: E402
except ImportError as error:
    sys.exit(f"perfbench: cannot import the program from {ROOT / 'src'}: {error}")
if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
    sys.exit(f"perfbench: imported {repro.__file__}, not the checkout's src/")

from perfbench import checks, layers, stats, workloads  # noqa: E402


@dataclass(frozen=True)
class Spec:
    families: int
    #: Cycles per requested second, measured at the benchmark's first commit
    #: on a 2-vCPU x86 VM; it only sets the sequence length.
    rate: float
    #: Enough cycles for the latency p90 to have 10 reads beyond it.
    min_cycles: int
    no_result_cache: bool


WORKLOADS = {
    "warm_cite": Spec(families=300, rate=3.7, min_cycles=20, no_result_cache=True),
    "cold_shapes": Spec(families=1000, rate=72.0, min_cycles=20, no_result_cache=False),
    "write_mix": Spec(families=100, rate=5.0, min_cycles=34, no_result_cache=False),
}

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3
#: Requests (cold_shapes) or cycles (warm_cite, write_mix) whose citations
#: are compared with a fresh engine's.
REFERENCE_SAMPLE = {"warm_cite": 12, "cold_shapes": 200, "write_mix": 6}
#: About this many write-probe edits per untraced read-only run, at most one
#: before every read.
PROBE_EDITS = 300
OUT_DIR = ROOT / ".bench_out"


def calibrate() -> float:
    """Median time of a fixed pure-Python loop (ms): host speed, nothing else."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


class Stopwatch:
    """Wall time of a phase, less the intervals spent inside :meth:`stopped`."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.paused = 0.0

    @contextmanager
    def stopped(self):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.paused += time.perf_counter() - started

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.paused


def instance(spec: Spec):
    from repro.workloads import gtopdb

    return gtopdb.generate(families=spec.families, **workloads.INSTANCE)


def fresh_engine(database):
    from repro import CitationEngine
    from repro.workloads import gtopdb

    return CitationEngine(database, gtopdb.citation_views(extended=True))


def set_up(name: str, spec: Spec):
    """Instance, engine, service and the workload's fixed warm-up list."""
    from repro import CitationRequest, CitationService
    from repro.workloads import gtopdb

    database = instance(spec)
    engine = fresh_engine(database)
    service = CitationService(engine)
    if name == "warm_cite":
        warm = [q.text() for q in workloads.warm_up_warm_cite()]
    elif name == "cold_shapes":
        warm = list(gtopdb.example_queries())
    else:
        warm = [workloads.BASES[base].text() for base in workloads.WRITE_READS]
    metadata = {"no_result_cache": True} if spec.no_result_cache else {}
    for query in warm:
        response = service.submit(CitationRequest(query=query, metadata=metadata))
        if not response.ok:
            raise RuntimeError(f"warm-up query failed: {query}: {response.error!r}")
    return database, engine, service


def apply_edit(database, edit) -> bool:
    ok = True
    for relation, row in edit.deletes:
        ok = database.delete(relation, row) and ok
    for relation, row in edit.inserts:
        ok = database.insert(relation, row) and ok
    return ok


@dataclass
class Plan:
    """One run's generated requests and edits, and what the checks sample."""

    cycles: list[list[workloads.Read]]
    edits: list[workloads.Edit]
    #: read-only workloads: one probe edit before every this many reads
    probe_every: int
    #: warm_cite, write_mix: cycle indexes; cold_shapes: (cycle, slot) pairs
    sampled: set


def generate(name: str, seed: int, cycles: int, spec: Spec, database) -> Plan:
    rng = random.Random(f"sample/{name}/{seed}")
    state = workloads.edit_state(database)
    if name == "write_mix":
        return Plan(
            workloads.write_mix(seed, cycles),
            workloads.edits(seed, cycles, *state),
            0,
            set(rng.sample(range(cycles), min(cycles, REFERENCE_SAMPLE[name]))),
        )
    if name == "warm_cite":
        sequence = workloads.warm_cite(seed, cycles)
        sampled = set(rng.sample(range(cycles), min(cycles, REFERENCE_SAMPLE[name])))
    else:
        sequence = workloads.cold_shapes(seed, cycles, spec.families)
        pairs = [(c, s) for c in range(cycles) for s in range(len(sequence[0]))]
        sampled = set(rng.sample(pairs, min(len(pairs), REFERENCE_SAMPLE[name])))
    reads = cycles * len(sequence[0])
    probe_every = max(1, reads // PROBE_EDITS)
    probe = workloads.edits(seed, -(-reads // probe_every), *state, salt="probe")
    return Plan(sequence, probe, probe_every, sampled)


def run(args, import_s: float) -> tuple[dict, dict]:
    from repro import CitationRequest

    name = args.workload
    spec = WORKLOADS[name]
    checks.paper_example()

    setup_times = []
    for attempt in range(SETUPS):
        if attempt:
            service.close()
            del database, engine, service
            gc.collect()
        started = time.perf_counter()
        database, engine, service = set_up(name, spec)
        setup_times.append(time.perf_counter() - started)
    setup_s = import_s + statistics.median(setup_times)

    # -- request generation (not set-up time) --------------------------------------
    cycles = max(spec.min_cycles, round(args.seconds * spec.rate))
    plan = generate(name, args.seed, cycles, spec, database)
    payloads = [[read.query.text() for read in cycle] for cycle in plan.cycles]
    metadata = {"no_result_cache": True} if spec.no_result_cache else {}
    # The write probe of the read-only workloads edits a twin no reader
    # touches; it only feeds write_p50_ms, so traced runs leave it out.
    edited = database if name == "write_mix" else database.copy()
    probing = plan.probe_every and not args.trace
    sizes_before = database.sizes()
    nested = checks.NestedLoop(database)
    answers: dict[str, set] = {}  # warm_cite: answer per base query (data is fixed)
    digests: dict = {}
    failures: list[str] = []

    tracer = layers.LayerTracer(engine) if args.trace else None
    traced = False
    counters_before = counters(service, engine)
    read_latencies: list[float] = []
    write_latencies: list[float] = []
    walls = {False: 0.0, True: 0.0}  # cycle wall time, untraced / traced cycles
    # traced: every traced op (the per-op denominator);
    # untraced: the ops of untraced cycles (for the tracing overhead)
    ops = {False: 0, True: 0}
    cycle_ops = 0

    def timed(kind: str, call, *call_args):
        started = time.perf_counter()
        if traced:
            ops[True] += 1
            result = tracer.op(kind, ops[True], call, *call_args)
        else:
            result = call(*call_args)
        return result, time.perf_counter() - started

    def edit_op(index: int) -> None:
        try:
            ok, latency = timed("write", apply_edit, edited, plan.edits[index])
            if not ok:
                failures.append(f"edit {index} did not apply")
        except Exception as error:  # a failed op is counted, not fatal
            ok = False
            failures.append(f"edit {index}: {error!r}")
        write_latencies.append(latency if ok else float("inf"))

    gc.collect()
    calib_before = calibrate()
    watch = Stopwatch()
    for index, cycle in enumerate(plan.cycles):
        # Traced and untraced cycles alternate, so both halves see the same mix.
        traced = bool(args.trace) and index % 2 == 1
        if traced:
            with watch.stopped():
                tracer.install()
        cycle_start = watch.elapsed()
        if name == "write_mix":
            edit_op(index)
            cycle_ops += 1
            with watch.stopped():
                nested.reset()
        for slot, read in enumerate(cycle):
            if probing and (index * len(cycle) + slot) % plan.probe_every == 0:
                with watch.stopped():
                    edit_op((index * len(cycle) + slot) // plan.probe_every)
            request = CitationRequest(query=payloads[index][slot], metadata=metadata)
            response, latency = timed("read", service.submit, request)
            cycle_ops += 1
            with watch.stopped():
                read_latencies.append(latency if response.ok else float("inf"))
                check_read(name, index, slot, read, response, nested, answers, digests,
                           plan.sampled, failures)
        walls[traced] += watch.elapsed() - cycle_start
        if traced:
            with watch.stopped():
                tracer.uninstall()
        else:
            ops[False] += len(cycle) + (name == "write_mix")
    phase_wall = watch.elapsed()
    calib_after = calibrate()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counters_after = counters(service, engine)
    reads = len(read_latencies)
    for db in {id(database): database, id(edited): edited}.values():
        if db.sizes() != sizes_before:
            failures.append(f"relation sizes drifted: {sizes_before} -> {db.sizes()}")

    # -- reference checks against fresh engines (after the clock) -----------------------
    if name == "write_mix":
        reference_write_mix(spec, plan, digests, database, failures)
    else:
        reference_read_only(spec, database.content_hash(), digests, failures)

    failed_ops = sum(1 for v in read_latencies + write_latencies if v == float("inf"))
    attempted = reads + len(write_latencies)
    context = {
        "workload": name,
        "seed": args.seed,
        "cycles": cycles,
        "reads": reads,
        "writes": len(write_latencies),
        "error_rate": failed_ops / attempted,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "settings": settings(service, engine),
        "host.calib_ms": {"before": calib_before, "after": calib_after},
        "setup_s_each": [import_s + t for t in setup_times],
        "failures": failures[:10],
    }
    if args.trace:
        traced_ops = ops[True]
        untraced_cycle_ops = ops[False]
        traced_cycle_ops = cycle_ops - untraced_cycle_ops
        metrics = trace_metrics(
            tracer, traced_ops,
            (traced_cycle_ops / walls[True]) / (untraced_cycle_ops / walls[False]),
            counters_before, counters_after, reads,
        )
        context["layer_shares"] = layers.shares(tracer, name)
        write_trace(args, tracer, context)
    else:
        metrics = {
            "latency_p50_ms": (stats.nearest_rank(read_latencies, 50) * 1000.0, "ms"),
            "latency_p90_ms": (stats.tail(read_latencies, 90) * 1000.0, "ms"),
            "throughput_ops_s": (cycle_ops / phase_wall, "1/s"),
            "write_p50_ms": (stats.nearest_rank(write_latencies, 50) * 1000.0, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
    service.close()
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {metric: {"value": finite(value), "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }
    return result, context


def finite(value: float) -> float:
    """A failed op's infinite latency, as a number JSON can carry."""
    return value if value != float("inf") else 1e12


def check_read(workload, cycle, slot, read, response, nested, answers, digests, sampled,
               failures) -> None:
    """Inline checks of one response: ok, answer rows, citation digest."""
    where = f"cycle {cycle} slot {slot} ({read.base})"
    if not response.ok:
        failures.append(f"{where}: {response.error!r}")
        return
    if workload == "warm_cite":
        expected = answers.get(read.base)
        if expected is None:
            expected = answers[read.base] = nested.answer(read.query)
    else:
        expected = nested.answer(read.query)
    rows = set(response.result.rows())
    if rows != expected:
        failures.append(f"{where}: {len(rows)} rows, nested loop gives {len(expected)}")
    if workload == "cold_shapes":
        if (cycle, slot) in sampled:
            digests[read.query] = checks.digest(response.result)
    elif cycle in sampled:
        if workload == "warm_cite":
            digests.setdefault(read.base, set()).add(checks.digest(response.result))
        else:
            digests[(cycle, read.base)] = checks.digest(response.result)


def reference_read_only(spec, state_hash, digests, failures) -> None:
    """Cite the checked queries on a freshly generated instance."""
    database = instance(spec)
    if database.content_hash() != state_hash:
        failures.append("regenerated instance differs from the one the reads saw")
        return
    engine = fresh_engine(database)
    for key, seen in digests.items():
        query = workloads.BASES[key] if isinstance(key, str) else key
        expected = checks.digest(engine.cite(query.text()))
        if isinstance(seen, set):
            if seen != {expected}:
                failures.append(f"{key}: {len(seen)} distinct citation digests, reference differs")
        elif seen != expected:
            failures.append(f"{query.text()}: citations differ from a fresh engine's")


def reference_write_mix(spec, plan, digests, live, failures) -> None:
    """Replay the edits on a fresh instance; cite the sampled cycles' reads."""
    database = instance(spec)
    for index, edit in enumerate(plan.edits):
        apply_edit(database, edit)
        if index not in plan.sampled:
            continue
        engine = fresh_engine(database)
        for base in workloads.WRITE_READS:
            expected = checks.digest(engine.cite(workloads.BASES[base].text()))
            if digests.get((index, base)) != expected:
                failures.append(f"cycle {index} {base}: citations differ from a fresh engine's")
    if database.content_hash() != live.content_hash():
        failures.append("replayed edits do not reproduce the live instance")


def counters(service, engine) -> dict[str, int]:
    stats_ = service.stats()
    counts = stats_["counters"]
    analysis = engine.analysis_stats()
    sharding = engine.evaluation_metrics.snapshot()["sharding"]
    return {
        "plan_hits": counts.get("plan_cache_hits", 0),
        "compilations": counts.get("plan_compilations", 0),
        "result_hits": counts.get("result_cache_hits", 0),
        "analysis_hits": analysis["cache_hits"],
        "analyzed": analysis["analyzed"],
        "parallel": sharding["parallel"],
        "serial": sharding["serial"],
    }


def settings(service, engine) -> dict:
    resolved = service.stats()["engine"]
    return {
        "workers": resolved["workers"],
        "strategy": resolved["strategy"],
        "parallel_backend": resolved["parallel_backend"],
        "verify_plans": engine.verify_plans,
        "service_workers": service.max_workers,
    }


def trace_metrics(tracer, traced_ops, speed_ratio, before, after, reads) -> dict:
    """Per-layer metrics; *speed_ratio* is traced over untraced cycle throughput."""
    delta = {key: after[key] - before[key] for key in before}

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    values = layers.layer_values(tracer, traced_ops)
    values.update({
        "analysis.cache_hit_ratio": ratio(
            delta["analysis_hits"], delta["analysis_hits"] + delta["analyzed"]),
        "service.plan_cache.hit_ratio": ratio(
            delta["plan_hits"], delta["plan_hits"] + delta["compilations"]),
        "query.shard.parallel_share": ratio(
            delta["parallel"], delta["parallel"] + delta["serial"]),
        "service.result_cache.hit_ratio": ratio(delta["result_hits"], reads),
        "bench.trace_overhead": 1.0 - speed_ratio,
    })
    return {name: (values[name], unit) for name, unit, *_ in layers.LAYER_METRICS}


def write_trace(args, tracer, context) -> None:
    """Spans and aggregates of the traced run, written once at exit."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.json"
    payload = {
        "context": context,
        "layers": {name: {"calls": c, "total_s": t, "self_s": s}
                   for name, (c, t, s) in sorted(tracer.totals.items())},
        "span_fields": ["op", "id", "parent", "layer", "start_s", "duration_s", "self_s"],
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(payload))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, context = run(args, import_s=time.perf_counter() - PROCESS_START)
    print(json.dumps(context, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:>14.4f} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
