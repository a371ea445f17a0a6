"""Parallel parameter-grid sweeps and the ``BENCH_sweep.json`` document.

The paper's headline claim -- ``O(ln + kappa n^2 log^2 n)`` bits for
``FixedLengthCA`` -- is a statement about a *grid*: cost as a function
of ``n`` and ``ell``.  This module turns a declarative :class:`GridSpec`
into measurements via the process-pool engine
(:mod:`repro.sim.parallel`) and serialises the result as a
machine-readable sweep document with two strictly separated sections:

* ``grid``   -- the deterministic protocol costs (bits, rounds,
  messages, outputs).  Byte-identical for the same spec regardless of
  worker count, host, or scheduling -- the determinism-conformance
  tests in ``tests/test_parallel.py`` assert exactly this.
* ``timing`` -- wall-clock data (per-point and total, plus the serial
  reference and speedup when measured).  Machine-dependent by nature
  and therefore *never* part of the determinism contract.

``python -m repro sweep --bench-json BENCH_sweep.json`` is the CLI
surface; ``benchmarks/BENCH_sweep.json`` records a reference run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from ..sim.parallel import resolve_workers, run_many
from .experiments import Measurement, PROTOCOLS, measure_case

__all__ = [
    "SWEEP_FORMAT",
    "GridSpec",
    "run_grid",
    "grid_record",
    "sweep_document",
    "save_sweep_document",
]

SWEEP_FORMAT = "repro-sweep/1"


@dataclass(frozen=True)
class GridSpec:
    """One declarative sweep: a protocol over an ``ns x ells`` grid."""

    protocol: str
    ns: tuple[int, ...]
    ells: tuple[int, ...]
    t: int | None = None
    kappa: int = 128
    seed: int = 0
    spread: str = "clustered"

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; "
                f"choose from {sorted(PROTOCOLS)}"
            )
        if not self.ns or not self.ells:
            raise ValueError("grid needs at least one n and one ell")

    def jobs(self) -> list[dict]:
        """The grid points as :func:`measure_case` payloads, row-major."""
        return [
            {
                "protocol": self.protocol,
                "n": n,
                "t": self.t,
                "ell": ell,
                "kappa": self.kappa,
                "seed": self.seed,
                "spread": self.spread,
            }
            for n in self.ns
            for ell in self.ells
        ]

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "ns": list(self.ns),
            "ells": list(self.ells),
            "t": self.t,
            "kappa": self.kappa,
            "seed": self.seed,
            "spread": self.spread,
        }


def run_grid(
    spec: GridSpec,
    workers: int | str | None = 1,
    timeout_s: float | None = None,
) -> tuple[list[Measurement], float]:
    """Execute every grid point; returns ``(measurements, wall_s)``.

    Measurements come back in the spec's row-major job order.  A grid
    point that fails (crash, timeout, protocol exception) aborts the
    sweep with a :class:`RuntimeError` naming the point -- a sweep with
    holes would silently skew fitted exponents.
    """
    jobs = spec.jobs()
    start = time.perf_counter()
    outcomes = run_many(
        measure_case, jobs, workers=workers, timeout_s=timeout_s
    )
    wall_s = time.perf_counter() - start
    failed = [o for o in outcomes if not o.ok]
    if failed:
        worst = failed[0]
        point = jobs[worst.index]
        raise RuntimeError(
            f"sweep failed at grid point n={point['n']} "
            f"ell={point['ell']} ({len(failed)} failure(s)): {worst.error}"
        )
    return [outcome.value for outcome in outcomes], wall_s


def grid_record(measurement: Measurement) -> dict:
    """The deterministic (timing-free) JSON record of one grid point."""
    return {
        "protocol": measurement.protocol,
        "n": measurement.n,
        "t": measurement.t,
        "ell": measurement.ell,
        "kappa": measurement.kappa,
        "bits": measurement.bits,
        "rounds": measurement.rounds,
        "messages": measurement.messages,
        # outputs may exceed JSON float precision; keep them as strings.
        "output": repr(measurement.output),
    }


def sweep_document(
    spec: GridSpec,
    measurements: list[Measurement],
    *,
    workers: int | str | None,
    wall_s: float,
    serial_wall_s: float | None = None,
) -> dict:
    """Assemble the ``BENCH_sweep.json`` document for one executed sweep."""
    speedup = (
        round(serial_wall_s / wall_s, 3)
        if serial_wall_s is not None and wall_s > 0
        else None
    )
    return {
        "format": SWEEP_FORMAT,
        "sweep": spec.to_dict(),
        "workers": resolve_workers(workers),
        "grid": [grid_record(m) for m in measurements],
        "timing": {
            "wall_s": round(wall_s, 4),
            "per_point_s": [round(m.wall_s, 4) for m in measurements],
            "serial_wall_s": (
                round(serial_wall_s, 4) if serial_wall_s is not None else None
            ),
            "speedup_vs_serial": speedup,
        },
    }


def save_sweep_document(document: dict, path: str | Path) -> str:
    """Write a sweep document; returns the path written."""
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return str(target)
