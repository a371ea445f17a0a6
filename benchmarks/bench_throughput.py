"""T7 -- scheduler throughput: instances/second over small-instance fleets.

The paper's bounds are per-execution, but the repository's *workloads*
are fleets: benchmark grids, fuzz campaigns and exhaustive small-``n``
enumerations run thousands of small executions whose cost is dominated
by dispatch overhead rather than protocol work.  This benchmark pins
that axis: how many ``FixedLengthCA`` instances per second each
dispatch strategy sustains over fleets of ``n in {4, 7}`` small-``ell``
executions.

Two strategies over the same fleet:

* ``per_call``   -- one-instance-per-call dispatch: every instance pays
  a fresh cold single-worker process (``spawn`` start method:
  interpreter boot, imports, GF table build, IPC, teardown).  The cost
  profile of driving the harness once per case -- a CLI invocation per
  artifact replay, a CI job per grid point -- which ``fork``-from-a-
  warm-parent would hide behind copy-on-write.
* ``chunked``    -- one :func:`repro.sim.parallel.run_many` call for
  the whole fleet: pool/dispatch overhead amortised, instances executed
  one at a time.

Their ratio measures pool/spawn amortisation, not the simulator.

The emitted ``BENCH_throughput.json`` has the same two-section shape as
``BENCH_hotpath.json``:

* ``deterministic`` -- per-fleet counters (including the ``sched_*``
  family) captured from an in-process serial pass; gated at zero
  tolerance by ``--check`` (reusing
  :func:`repro.perf.profile.check_counters`).
* ``timing`` -- instances/sec per strategy plus the
  chunked-over-per-call speedup.  Machine-local; never gated.

Usage::

    python benchmarks/bench_throughput.py                      # full fleet
    python benchmarks/bench_throughput.py --quick \
        --check benchmarks/BENCH_throughput.json               # CI smoke

This module is also importable by the pytest benchmark session
(``bench_*.py`` is a collected pattern); it defines no tests and does
all work under ``__main__``.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any

SCHEMA = "repro-throughput-bench-v1"

#: One fleet per party count; ``ell`` stays small so per-instance work
#: is dispatch-bound (the regime this benchmark is about).
FLEETS: tuple[dict[str, Any], ...] = (
    dict(protocol="fixed_length_ca", n=4, t=1, ell=32, spread="clustered"),
    dict(protocol="fixed_length_ca", n=7, t=2, ell=32, spread="clustered"),
)

#: Timed instances per fleet (full / --quick).  The deterministic
#: section always uses :data:`DETERMINISTIC_INSTANCES` so quick CI runs
#: check against the same committed entries as full runs.
FULL_INSTANCES = 1200
QUICK_INSTANCES = 120
DETERMINISTIC_INSTANCES = 16

#: Instances sampled for the per-call strategy: each one costs a full
#: cold process spin-up, so the rate is measured on a sample and
#: reported as a rate like the others.
PER_CALL_SAMPLE = 8


def _jobs(fleet: dict[str, Any], instances: int) -> list[dict[str, Any]]:
    """The fleet's payloads: one ``measure_case`` dict per instance."""
    return [
        dict(
            protocol=fleet["protocol"], n=fleet["n"], t=fleet["t"],
            ell=fleet["ell"], seed=seed, spread=fleet["spread"],
        )
        for seed in range(instances)
    ]


def _fleet_key(fleet: dict[str, Any]) -> str:
    return (
        f"{fleet['protocol']}/n{fleet['n']}/t{fleet['t']}"
        f"/ell{fleet['ell']}"
    )


def _deterministic_entry(fleet: dict[str, Any]) -> dict[str, Any]:
    """An in-process serial pass over the fleet; one gated entry."""
    from repro.perf.profile import fleet_entry

    entry = fleet_entry(_jobs(fleet, DETERMINISTIC_INSTANCES))
    return {"params": dict(fleet, instances=DETERMINISTIC_INSTANCES), **entry}


def _time_per_call(jobs: list[dict[str, Any]], sample: int) -> dict:
    """One-instance-per-call dispatch: a fresh cold process per instance.

    ``spawn`` (not the platform default) so every call honestly pays
    interpreter boot + imports + GF table warm-up -- the cold-start
    bill of per-case harness invocations, which fork-from-a-warm-parent
    would silently amortise via copy-on-write.
    """
    import multiprocessing

    from repro.analysis.experiments import measure_case
    from repro.perf import config
    from repro.sim.parallel import warm_worker

    taken = jobs[:sample]
    started = time.perf_counter()
    for payload in taken:
        executor = ProcessPoolExecutor(
            max_workers=1,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=warm_worker,
            initargs=(config.backend(),),
        )
        try:
            executor.submit(measure_case, payload).result()
        finally:
            executor.shutdown(wait=True)
    wall_s = time.perf_counter() - started
    return {
        "instances": len(taken),
        "wall_s": round(wall_s, 4),
        "instances_per_s": round(len(taken) / wall_s, 2),
    }


def _time_chunked(jobs: list[dict[str, Any]]) -> dict:
    """One engine call for the whole fleet."""
    from repro.analysis.experiments import measure_case
    from repro.sim.parallel import run_many

    started = time.perf_counter()
    outcomes = run_many(measure_case, jobs)
    wall_s = time.perf_counter() - started
    failed = [o for o in outcomes if not o.ok]
    if failed:
        raise RuntimeError(
            f"{len(failed)} instance(s) failed: {failed[0].error}"
        )
    return {
        "instances": len(jobs),
        "wall_s": round(wall_s, 4),
        "instances_per_s": round(len(jobs) / wall_s, 2),
    }


def build_document(quick: bool, per_call_sample: int) -> dict[str, Any]:
    """Run the battery and assemble the benchmark document."""
    from repro.perf import config

    instances = QUICK_INSTANCES if quick else FULL_INSTANCES
    deterministic: dict[str, Any] = {}
    fleets: dict[str, Any] = {}
    for fleet in FLEETS:
        key = _fleet_key(fleet)
        deterministic[
            f"sched/throughput/{key}/x{DETERMINISTIC_INSTANCES}"
        ] = _deterministic_entry(fleet)
        jobs = _jobs(fleet, instances)
        per_call = _time_per_call(jobs, per_call_sample)
        chunked = _time_chunked(jobs)
        fleets[key] = {
            "instances": instances,
            "per_call": per_call,
            "chunked": chunked,
            "speedup_chunked_over_per_call": round(
                chunked["instances_per_s"]
                / max(per_call["instances_per_s"], 1e-9),
                2,
            ),
        }
    return {
        "schema": SCHEMA,
        "quick": bool(quick),
        "deterministic": deterministic,
        "timing": {
            "backend": config.backend(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "fleets": fleets,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized fleets (deterministic section is "
                             "identical to the full run's)")
    parser.add_argument("--backend", choices=["python", "numpy"],
                        default=None,
                        help="pin the kernel backend for the battery")
    parser.add_argument("--per-call-sample", type=int,
                        default=PER_CALL_SAMPLE,
                        help="instances sampled for the per-call strategy")
    parser.add_argument("--out", default=None,
                        help="write BENCH_throughput.json to this path")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="diff the deterministic section against a "
                             "committed baseline at zero tolerance")
    args = parser.parse_args(argv)

    from repro.perf import config
    from repro.perf.profile import (
        check_counters,
        load_document,
        save_document,
    )

    if args.backend is not None:
        config.set_backend(args.backend)

    document = build_document(args.quick, args.per_call_sample)
    mode = "quick" if args.quick else "full"
    print(f"throughput battery ({mode}, backend={config.backend()}):")
    for key, fleet in document["timing"]["fleets"].items():
        print(
            f"  {key:<36}"
            f" per_call {fleet['per_call']['instances_per_s']:>8.2f}/s"
            f"  chunked {fleet['chunked']['instances_per_s']:>8.2f}/s"
            f"  ({fleet['speedup_chunked_over_per_call']:.2f}x over"
            " per-call)"
        )

    if args.out:
        path = save_document(document, args.out)
        print(f"benchmark document written to {path}")

    if args.check:
        baseline = load_document(args.check)
        errors, notes = check_counters(document, baseline)
        for note in notes:
            print(f"note  : {note}")
        for error in errors:
            print(f"error : {error}", file=sys.stderr)
        if errors:
            print(
                f"counter check FAILED against {args.check}",
                file=sys.stderr,
            )
            return 1
        print(f"counter check passed against {args.check}")
    return 0


if __name__ == "__main__":
    sys.path.insert(
        0,
        os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src"),
    )
    raise SystemExit(main())
