"""The repository benchmark: four closed-loop workloads, one caller each.

Usage (from the repository root)::

    python3 perfbench/run.py --workload short_value --seed 1 \
        --seconds 25 --trace 0

One process runs one workload as a closed loop: the next instance
starts only when the previous one has returned and been checked, with
no threads or worker processes.  ``--trace 0`` measures the end-to-end
metrics with tracing off.  ``--trace 1`` runs the same instances twice,
untraced then traced, checks that tracing changed no output, bit, round
or counter, and reports the per-layer metrics (see ``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, sample counts, tail percentile, the deterministic section
and the checks) goes to ``.perfbench/<workload>-seed<seed>-trace<t>.json``
and, for traced runs, the spans to ``.perfbench/spans-<workload>.*``.
Compare the deterministic sections of two records with ``check.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 3
#: share of ``--seconds`` the traced run spends on its untraced pass.
TRACED_UNTRACED_SHARE = 0.4
#: tail percentiles considered, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it.

    Nearest-rank percentiles; below twenty samples no ladder step has
    ten samples beyond it and the median is returned.
    """
    ordered = sorted(samples)
    count = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100 * count))
        if count - rank >= 10:
            return pct, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def environment() -> dict:
    from repro.perf import config

    return {
        "backend": config.backend(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters doing import, inputs and warm-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--setup-probe",
                "--workload",
                workload,
                "--seed",
                str(seed),
            ],
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=150,
        )
        samples.append(time.perf_counter() - started)
    return samples


class Loop:
    """Closed-loop runner for one workload and seed."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.deck = workload.deck(seed, workload.deck_size)

    def warm_up(self) -> None:
        """Start from cold process caches, then run one instance.

        Every pass (and every setup probe) starts from the same cache
        state, so per-instance counters repeat exactly across passes,
        processes and whatever ran earlier in this interpreter.
        """
        from repro.perf import config

        config.reset_process_caches()
        self.workload.run(self.deck[0])

    def one(self, index: int, runner, *extra):
        """Run instance ``index``; returns (seconds, outcome, counters).

        Only the call into the program is timed; the correctness
        verdict and the output digest are computed after it.
        """
        from repro.perf import counters
        from workloads import Outcome

        instance = self.deck[index % len(self.deck)]
        counters.reset()
        started = time.perf_counter()
        try:
            raw = runner(instance, *extra)
        except Exception as error:  # a raising instance is a failure
            elapsed = time.perf_counter() - started
            outcome = Outcome(
                "fail", f"{type(error).__name__}: {error}", 0, 0, ""
            )
        else:
            elapsed = time.perf_counter() - started
            outcome = self.workload.judge(instance, raw)
        return elapsed, outcome, counters.snapshot()

    def run_for(self, seconds: float, minimum: int) -> list:
        """Untraced instances until ``seconds`` passed and ``minimum`` ran."""
        results = []
        started = time.perf_counter()
        while (
            len(results) < minimum
            or time.perf_counter() - started < seconds
        ):
            results.append(self.one(len(results), self.workload.run))
        return results


def record(index: int, outcome, counts: dict) -> dict:
    return {
        "i": index,
        "verdict": outcome.verdict,
        "digest": outcome.digest,
        "bits": outcome.bits,
        "rounds": outcome.rounds,
        "counters": counts,
    }


def tally(results: list) -> dict:
    verdicts = [outcome.verdict for _, outcome, _ in results]
    attempted = len(verdicts)
    failed = verdicts.count("fail")
    return {
        "attempted": attempted,
        "failed": failed,
        "budgeted": verdicts.count("budgeted"),
        "fail_share": failed / attempted,
        "budgeted_share": verdicts.count("budgeted") / attempted,
        "failures": [
            f"instance {index}: {outcome.detail}"
            for index, (_, outcome, _) in enumerate(results)
            if outcome.verdict == "fail"
        ][:10],
    }


def end_to_end(loop: Loop, seed: int, seconds: float) -> dict:
    """The end-to-end metrics, each taken from the fastest repeat.

    The loop cycles the deck for the whole run, and every timing uses
    each deck instance's fastest run: other tenants of a shared machine
    slow it by up to half for seconds to minutes at a time, and the
    fastest repeat is the figure such interference does not reach.
    Throughput is the deck's non-failing instances over the sum of
    those fastest times.  Bits and rounds are means over the deck; they
    repeat exactly for a seed.
    """
    workload = loop.workload
    size = len(loop.deck)
    setup = measure_setup(workload.name, seed)
    loop.warm_up()
    results = loop.run_for(seconds, size)
    summary = tally(results)
    best: dict[int, float] = {}
    for index, (elapsed, _, _) in enumerate(results):
        slot = index % size
        best[slot] = min(best.get(slot, elapsed), elapsed)
    latencies_ms = [1000 * elapsed for elapsed in best.values()]
    pct, tail = tail_percentile(latencies_ms)
    deck = results[:size]
    completed = sum(outcome.verdict != "fail" for _, outcome, _ in deck)
    metrics = {
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "instances_per_s": (completed / sum(best.values()), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "honest_bits_per_instance": (
            statistics.fmean(outcome.bits for _, outcome, _ in deck),
            "bits",
        ),
        "rounds_per_instance": (
            statistics.fmean(outcome.rounds for _, outcome, _ in deck),
            "count",
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {
        "metrics": metrics,
        "results": results,
        "summary": summary,
        "fastest_ms": latencies_ms,
        "notes": {
            "deck": size,
            "samples": len(results),
            "repeats_per_instance": len(results) / size,
            "tail_percentile": pct,
            "setup_samples_s": setup,
        },
        "checks": {},
    }


def traced(loop: Loop, seconds: float) -> dict:
    """Untraced pass, then the same instances traced; per-layer metrics."""
    from tracing import PAPER_LAYERS, Tracer, instrument

    workload = loop.workload
    loop.warm_up()
    plain = loop.run_for(
        seconds * TRACED_UNTRACED_SHARE, workload.recorded
    )
    count = len(plain)

    loop.warm_up()
    tracer = Tracer()
    root = tracer.layer_id("instance")

    def run_traced(instance):
        # The root span covers the call into the program, like the
        # untraced timing; the verdict is computed outside it.
        span = tracer.open(root)
        try:
            return workload.run_traced(instance, tracer)
        finally:
            tracer.close(span)

    results = []
    with instrument(tracer):
        for index in range(count):
            tracer.current_instance = index
            results.append(loop.one(index, run_traced))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}")

    checks = {}
    mismatched = [
        index
        for index in range(count)
        if record(index, *plain[index][1:]) != record(index, *results[index][1:])
    ]
    checks["transparent"] = not mismatched
    total_bits = sum(outcome.bits for _, outcome, _ in results)
    total_rounds = sum(outcome.rounds for _, outcome, _ in results)
    if workload.exact_layer_sums:
        checks["layer_sums_exact"] = (
            sum(tracer.layer_bits.values()) == total_bits
            and sum(tracer.layer_rounds.values()) == total_rounds
        )

    self_ns = tracer.self_ns()
    span_ns = tracer.total_ns()
    traced_ns = span_ns.get("instance", 0)
    untraced_ns = sum(elapsed for elapsed, _, _ in plain) * 1e9
    unattributed_ns = self_ns.get("instance", 0)
    overhead_ns = traced_ns - untraced_ns

    def per(value) -> float:
        return value / count

    def ms(layer: str) -> float:
        return self_ns.get(layer, 0) / count / 1e6

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    ops: dict[str, int] = {}
    for _, _, counts in results:
        for name, value in counts.items():
            ops[name] = ops.get(name, 0) + value
    summary = tally(results)
    rungs = [outcome.rung for _, outcome, _ in results]
    async_s = span_ns.get("asynchrony", 0) / 1e9
    counts = tracer.counts
    metrics = {
        "sim.network.self_ms": (ms("sim.network"), "ms"),
        "sim.network.rounds": (per(ops.get("net_rounds", 0)), "count"),
        "sim.network.messages": (per(ops.get("net_messages", 0)), "count"),
        "sim.network.resumes": (per(ops.get("sched_resumes", 0)), "count"),
    }
    for layer in PAPER_LAYERS:
        metrics[f"{layer}.bits"] = (per(tracer.layer_bits[layer]), "bits")
        metrics[f"{layer}.rounds"] = (per(tracer.layer_rounds[layer]), "count")
        metrics[f"{layer}.self_ms"] = (ms(layer), "ms")
    metrics.update(
        {
            "coding.self_ms": (ms("coding"), "ms"),
            "coding.rs_encode": (per(ops.get("rs_encode", 0)), "count"),
            "coding.rs_decode": (per(ops.get("rs_decode", 0)), "count"),
            "coding.gf_matmul": (per(ops.get("gf_matmul", 0)), "count"),
            "coding.decode_matrix_hit_ratio": (
                1 - ratio(ops.get("gf_matrix_invert", 0), ops.get("rs_decode", 0))
                if ops.get("rs_decode")
                else 0.0,
                "ratio",
            ),
            "crypto.self_ms": (ms("crypto"), "ms"),
            "crypto.sha256": (per(ops.get("sha256", 0)), "count"),
            "crypto.merkle_build": (per(ops.get("merkle_build", 0)), "count"),
            "crypto.merkle_verify": (per(ops.get("merkle_verify", 0)), "count"),
            "lba_plus.encode_cache_hit_ratio": (
                ratio(
                    ops.get("encode_cache_hit", 0),
                    ops.get("encode_cache_hit", 0)
                    + ops.get("encode_cache_miss", 0),
                ),
                "ratio",
            ),
            "sim.sizing.self_ms": (ms("sim.sizing"), "ms"),
            "sim.wire.guard_checks": (per(ops.get("guard_checks", 0)), "count"),
            "sim.wire.quarantine_ratio": (
                ratio(ops.get("guard_quarantined", 0), ops.get("guard_checks", 0)),
                "ratio",
            ),
            "sim.adversary.self_ms": (ms("sim.adversary"), "ms"),
            "sim.invariants.self_ms": (ms("sim.invariants"), "ms"),
            "sim.transport.self_ms": (ms("sim.transport"), "ms"),
            "sim.transport.slots_per_round": (
                ratio(counts["transport_slots"], counts["transport_rounds"]),
                "ratio",
            ),
            "sim.transport.resyncs": (
                per(ops.get("transport_resyncs", 0)),
                "count",
            ),
            "sim.transport.overhead_bits": (
                per(counts["transport_overhead_bits"]),
                "bits",
            ),
            "sim.recovery.self_ms": (ms("sim.recovery"), "ms"),
            "sim.supervisor.rung_share.primary": (
                per(rungs.count("primary")),
                "share",
            ),
            "sim.supervisor.rung_share.high_cost_ca": (
                per(rungs.count("high_cost_ca")),
                "share",
            ),
            "sim.supervisor.rung_share.async_aa": (
                per(rungs.count("async_aa")),
                "share",
            ),
            "asynchrony.self_ms": (ms("asynchrony"), "ms"),
            "asynchrony.handler_ms": (ms("asynchrony.handler"), "ms"),
            "asynchrony.deliveries": (per(counts["async_deliveries"]), "count"),
            "asynchrony.deliveries_per_s": (
                ratio(counts["async_deliveries"], async_s),
                "1/s",
            ),
            "fail_share": (summary["fail_share"], "share"),
            "budgeted_share": (summary["budgeted_share"], "share"),
            "trace.wall_ms": (traced_ns / count / 1e6, "ms"),
            "trace.untraced_wall_ms": (untraced_ns / count / 1e6, "ms"),
            "trace.overhead_ms": (overhead_ns / count / 1e6, "ms"),
            "trace.unattributed_ms": (unattributed_ns / count / 1e6, "ms"),
        }
    )
    return {
        "metrics": metrics,
        "results": results,
        "summary": tally(plain + results),
        "notes": {
            "instances": count,
            "spans": len(tracer.start),
            "mismatched_instances": mismatched[:10],
            # Layer self times plus the root's own (unattributed) time
            # sum to the traced wall exactly; the gap should stay within
            # the tracing overhead, which machine noise can also move.
            "self_time_gap_within_overhead": unattributed_ns
            <= max(overhead_ns, 0),
        },
        "checks": checks,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Over-budget crash schedules are clipped with a RuntimeWarning by
    # design; the chaos mix draws them on purpose.
    warnings.simplefilter("ignore", RuntimeWarning)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        Loop(workload, args.seed).warm_up()
        return 0

    loop = Loop(workload, args.seed)
    if args.trace:
        run = traced(loop, args.seconds)
    else:
        run = end_to_end(loop, args.seed, args.seconds)
    summary = run["summary"]
    deterministic = {
        "workload": workload.name,
        "seed": args.seed,
        "instances": [
            record(index, outcome, counts)
            for index, (_, outcome, counts) in enumerate(
                run["results"][: workload.recorded]
            )
        ],
    }
    correct = summary["failed"] == 0 and all(run["checks"].values())
    env = environment()
    document = {
        "environment": env,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "summary": summary,
        "notes": run["notes"],
        "checks": run["checks"],
        "fastest_ms": run.get("fastest_ms"),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in run["metrics"].items()
        },
        "deterministic": deterministic,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(document, indent=1, sort_keys=True))

    print(
        f"{workload.name} seed={args.seed} trace={args.trace} "
        f"backend={env['backend']} python={env['python']} nproc={env['nproc']}"
    )
    for key, value in sorted(run["notes"].items()):
        print(f"  {key}: {value}")
    print(
        f"  attempted={summary['attempted']} failed={summary['failed']} "
        f"budgeted={summary['budgeted']} fail_share={summary['fail_share']:.4f} "
        f"budgeted_share={summary['budgeted_share']:.4f}"
    )
    for failure in summary["failures"]:
        print(f"  FAIL {failure}")
    for key, value in sorted(run["checks"].items()):
        print(f"  check {key}: {value}")
    for name, (value, unit) in run["metrics"].items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": document["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
