"""The benchmark's four workloads: inputs, runs, verdicts and records.

Every workload turns ``--seed`` into a fixed *deck* of instances; the
closed loop runs the deck in order and cycles it until the measured
time is up, so the deck's deterministic totals (honest bits, rounds)
are a pure function of the seed.  The program only ever sees the
generated inputs.
"""

from __future__ import annotations

import hashlib
import random
from collections import defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Callable

import repro
from repro.asynchrony.aa import AsyncApproximateAgreement
from repro.asynchrony.network import AsyncNetwork, RandomScheduler
from repro.core.protocol_z import protocol_z
from repro.sim.fuzz import run_case_ex, sample_case_at, standard_registry
from repro.sim.runner import run_protocol

from tracing import Tracer, timed_factory


@dataclass
class Outcome:
    """What one instance produced, reduced to what the benchmark checks."""

    #: ``"ok"``, ``"budgeted"`` (a designed liveness loss) or ``"fail"``.
    verdict: str
    detail: str
    bits: int
    rounds: int
    #: sha256 over the outputs (or, for chaos, the case's accounting).
    digest: str
    #: ladder rung that decided a chaos case (``"primary"`` otherwise).
    rung: str = "primary"


def _canonical(value: Any) -> str:
    """``repr`` with integers in hex: 2^20-bit outputs exceed ``str(int)``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return hex(value)
    if isinstance(value, Fraction):
        return f"{hex(value.numerator)}/{hex(value.denominator)}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canonical(item) for item in value) + ")"
    return repr(value)


def _digest(*parts: Any) -> str:
    return hashlib.sha256(_canonical(parts).encode()).hexdigest()[:16]


def _hull_verdict(
    outputs: dict[int, Any],
    honest: list[int],
    inputs: list[int],
    epsilon: Fraction,
) -> tuple[str, str]:
    """Agreement within ``epsilon`` and validity in the honest hull."""
    missing = [p for p in honest if p not in outputs]
    if missing:
        return "fail", f"honest parties {missing} produced no output"
    values = [outputs[p] for p in honest]
    low = min(inputs[p] for p in honest)
    high = max(inputs[p] for p in honest)
    if max(values) - min(values) > epsilon:
        return "fail", f"outputs disagree by more than {epsilon}: {values}"
    if min(values) < low or max(values) > high:
        return "fail", f"outputs {values} outside honest hull [{low}, {high}]"
    return "ok", ""


# -- convex agreement (short_value, long_value) ---------------------------


@dataclass(frozen=True)
class CaInstance:
    n: int
    t: int
    values: tuple[int, ...]


def spread_values(rng: random.Random, n: int, t: int, ell: int) -> list[int]:
    """``ell``-bit values pinned to both halves of the range.

    The lowest and the highest honest party (the default adversary
    corrupts the ``t`` highest ids) sit in opposite halves, so the
    honest inputs share no common prefix.
    """
    top = 1 << ell
    values = [rng.randrange(top) for _ in range(n)]
    values[0] = rng.randrange(top >> 1)
    values[n - t - 1] = (top >> 1) + rng.randrange(top >> 1)
    return values


def clustered_values(rng: random.Random, n: int, ell: int) -> list[int]:
    """Sensor-style ``ell``-bit values sharing all but their low byte."""
    base = rng.getrandbits(ell) >> 8 << 8
    return [base + rng.randrange(256) for _ in range(n)]


def judge_ca(instance: CaInstance, execution) -> Outcome:
    honest = [p for p in range(instance.n) if p not in execution.corrupted]
    verdict, detail = _hull_verdict(
        execution.outputs, honest, list(instance.values), Fraction(0)
    )
    return Outcome(
        verdict=verdict,
        detail=detail,
        bits=execution.stats.honest_bits,
        rounds=execution.stats.rounds,
        digest=_digest(
            sorted(execution.outputs.items()), sorted(execution.corrupted)
        ),
    )


def run_ca(instance: CaInstance):
    return repro.convex_agreement(list(instance.values), t=instance.t).execution


def run_ca_traced(instance: CaInstance, tracer: Tracer):
    """The execution ``convex_agreement`` performs, with timed parties."""
    return run_protocol(
        timed_factory(lambda ctx, v: protocol_z(ctx, v), tracer),
        list(instance.values),
        n=instance.n,
        t=instance.t,
        kappa=128,
        trace=True,
    )


def short_value_deck(seed: int, size: int) -> list[CaInstance]:
    deck = []
    for index in range(size):
        rng = random.Random(f"short_value/{seed}/{index}")
        n = (4, 7, 10)[index % 3]
        t = (n - 1) // 3
        deck.append(CaInstance(n, t, tuple(spread_values(rng, n, t, 64))))
    return deck


def long_value_deck(seed: int, size: int) -> list[CaInstance]:
    deck = []
    for index in range(size):
        rng = random.Random(f"long_value/{seed}/{index}")
        deck.append(CaInstance(7, 2, tuple(clustered_values(rng, 7, 1 << 20))))
    return deck


# -- chaos ------------------------------------------------------------------

#: Campaign whose cases fix the chaos mix, and the indices scanned in
#: it to fill every stratum.
CHAOS_CAMPAIGN = 0
CHAOS_POOL = 8000


def _never_heals(case) -> bool:
    return any(heal == -1 for _, heal, _ in case.faults.partitions)


def chaos_deck(seed: int, size: int) -> list:
    """A fixed, stratified mix of chaos cases, randomised by ``seed``.

    Case shapes (protocol, n, t, ell, adversaries, fault rates and
    windows) are drawn with ``sample_case_at`` from campaign
    :data:`CHAOS_CAMPAIGN`, bucketed by ``(ell, n, t, protocol)`` and
    taken round-robin over the buckets, one slot in seven taking a case
    with a never-healing partition (the sampler's own rate is about 1
    in 7).  ``seed`` then draws each case's inputs, adversary streams
    and fault streams.  Per-case cost spans two orders of magnitude
    across shapes; drawing the shapes from ``seed`` too moved median
    latency by about 20% from seed to seed.
    """
    registry = standard_registry()
    buckets: dict[tuple, tuple[list, list]] = defaultdict(lambda: ([], []))
    for index in range(CHAOS_POOL):
        case = sample_case_at(
            CHAOS_CAMPAIGN,
            index,
            registry,
            crash=True,
            partition=True,
            bombs=True,
        )
        key = (case.ell, case.n, case.t, case.protocol)
        buckets[key][_never_heals(case)].append(case)
    # Alternate strata first, so a deck of half the strata still spans
    # every ell, n and protocol.
    keys = sorted(buckets)
    keys = keys[::2] + keys[1::2]
    deck = []
    while len(deck) < size:
        rep = len(deck) // len(keys)
        for position, key in enumerate(keys):
            wanted = (rep + position) % 7 == 3
            cases = buckets[key][wanted] or buckets[key][not wanted]
            shape = cases[rep % len(cases)]
            rng = random.Random(f"chaos/{seed}/{len(deck)}")
            deck.append(
                replace(
                    shape,
                    seed=rng.getrandbits(32),
                    faults=shape.faults.reseeded(rng.getrandbits(32)),
                )
            )
    return deck[:size]


def judge_chaos(case, raw) -> Outcome:
    failure, stats = raw
    if failure is None:
        verdict, detail = "ok", ""
    elif failure.budgeted:
        verdict, detail = "budgeted", failure.message[:200]
    else:
        verdict = "fail"
        detail = f"[{failure.kind}] {failure.message[:200]}"
    return Outcome(
        verdict=verdict,
        detail=detail,
        bits=stats.bits,
        rounds=stats.rounds,
        digest=_digest(
            failure.kind if failure else None, sorted(stats.to_dict().items())
        ),
        rung=stats.rung or "primary",
    )


def run_chaos(case):
    return run_case_ex(case)


def run_chaos_traced(case, tracer: Tracer):
    registry = {
        name: replace(
            spec,
            build=lambda ell, build=spec.build: timed_factory(
                build(ell), tracer
            ),
        )
        for name, spec in standard_registry().items()
    }
    return run_case_ex(case, registry)


# -- asynchronous approximate agreement --------------------------------------

AA_N, AA_T, AA_EPSILON, AA_BOUND = 6, 1, Fraction(1), 1 << 16


@dataclass(frozen=True)
class AaInstance:
    values: tuple[int, ...]
    scheduler_seed: int


def async_aa_deck(seed: int, size: int) -> list[AaInstance]:
    """Inputs drawn from ``seed``; delivery schedules fixed per deck slot.

    The event loop's cost follows the schedule (up to 40% apart between
    two schedules), so slot ``i`` always runs schedule ``i`` and the
    seed varies what is agreed on, not how long the deck takes.
    """
    deck = []
    for index in range(size):
        rng = random.Random(f"async_aa/{seed}/{index}")
        values = tuple(rng.randint(-AA_BOUND, AA_BOUND) for _ in range(AA_N))
        deck.append(AaInstance(values, scheduler_seed=index))
    return deck


def run_async_aa(instance: AaInstance, tracer: Tracer | None = None):
    # AsyncNetwork takes party objects, not generators, so a traced run
    # gets its spans from the rebound run and handler methods alone.
    values = instance.values
    return AsyncNetwork(
        lambda ctx: AsyncApproximateAgreement(
            ctx, values[ctx.party_id], AA_EPSILON, AA_BOUND
        ),
        n=AA_N,
        t=AA_T,
        scheduler=RandomScheduler(instance.scheduler_seed),
    ).run()


def judge_async_aa(instance: AaInstance, result) -> Outcome:
    verdict, detail = _hull_verdict(
        result.outputs, result.honest_parties, list(instance.values), AA_EPSILON
    )
    return Outcome(
        verdict=verdict,
        detail=detail,
        bits=result.stats.honest_bits,
        rounds=result.deliveries,
        digest=_digest(sorted(result.outputs.items())),
    )


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    #: builds the deck for a seed: ``(seed, size) -> [instance, ...]``.
    deck: Callable[[int, int], list]
    #: one instance through the program, untraced: ``instance -> raw``.
    run: Callable[[Any], Any]
    #: the same instance with timed party generators where there are any.
    run_traced: Callable[[Any, Tracer], Any]
    #: correctness verdict and records, outside the timed region.
    judge: Callable[[Any, Any], Outcome]
    #: instances in one deck pass (the deterministic totals cover it).
    deck_size: int
    #: leading instances whose records form the deterministic section.
    recorded: int
    #: round records cover the whole execution, so the paper-layer
    #: bits and rounds must sum exactly to the execution's totals.
    exact_layer_sums: bool = False


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "short_value",
            short_value_deck,
            run_ca,
            run_ca_traced,
            judge_ca,
            deck_size=60,
            recorded=30,
            exact_layer_sums=True,
        ),
        Workload(
            "long_value",
            long_value_deck,
            run_ca,
            run_ca_traced,
            judge_ca,
            deck_size=40,
            recorded=8,
            exact_layer_sums=True,
        ),
        Workload(
            "chaos",
            chaos_deck,
            run_chaos,
            run_chaos_traced,
            judge_chaos,
            deck_size=82,
            recorded=40,
        ),
        Workload(
            "async_aa",
            async_aa_deck,
            run_async_aa,
            run_async_aa,
            judge_async_aa,
            deck_size=6,
            recorded=4,
        ),
    )
}
