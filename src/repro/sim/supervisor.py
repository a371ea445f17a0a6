"""Graceful degradation: supervised execution with a HighCostCA fallback.

The online invariant monitors (:mod:`repro.sim.invariants`) turn the
paper's guarantees into hard faults: a detected ``PI_lBA+`` bit-budget
overrun or broken invariant raises
:class:`~repro.errors.ProtocolViolation` and the execution dies.  For a
chaos harness that is the right default -- but a *deployment* wants the
next-best thing: detect that the communication-optimal path has gone
wrong and still end with a convex-valid output.

:func:`run_with_fallback` provides exactly that.  It supervises a
primary execution; if the primary dies with a
:class:`~repro.errors.ProtocolViolation` (a monitor fired) or a
:class:`~repro.errors.SimulationError` (lockstep break, round-budget
exhaustion, transport timeout), it falls back to the self-contained
``HighCostCA`` protocol (Appendix A.4) on the same inputs -- the
``O(l n^3)``-bit workhorse whose guarantees rest on nothing but
``t < n/3`` -- and returns that result with a :class:`FallbackRecord`
attached to ``ExecutionResult.fallback``.

``HighCostCA`` operates on natural numbers; the supervisor embeds
arbitrary integer inputs by shifting them into N (the harness knows all
inputs) and un-shifting the agreed output, which preserves the convex
hull exactly.

The fallback run keeps the primary's corruption set but replaces the
adversary's *strategy* with spec-following corrupted parties: byzantine
strategies are protocol-shaped (they inspect channels and payloads of
the protocol they were written against) and cannot be meaningfully
re-driven against a different protocol.  ``HighCostCA``'s guarantees
hold against arbitrary byzantine behaviour regardless, so this choice
affects realism of the simulated attack, not soundness of the output.

Under partial synchrony :func:`run_with_escalation` extends the single
fallback into the full escalation ladder::

    optimal CA  ->  budget-escalated retry  ->  HighCostCA  ->  async AA
    (primary)       (inside the transport's     (same lossy      (t < n/5,
                     TimeoutEscalation)         transport!)     eps-agreement)

Both supervisors run the same ladder loop and differ only in their
rungs.  :func:`run_with_fallback` has one: ``HighCostCA`` on a perfect
network.  :func:`run_with_escalation` runs ``HighCostCA`` over the
*same* transport as the primary, so a network that is actually broken
(a never-healing partition) fails it too and the supervisor keeps
descending -- to asynchronous Approximate Agreement, whose liveness
needs no synchrony at all.  Each rung is tried at most once, the
traversal is recorded in order on ``FallbackRecord.history``, and a
ladder that runs out of rungs raises a budgeted
:class:`~repro.errors.SimulationError` carrying the whole history and
chained from the primary failure -- never an unhandled exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Sequence

from ..errors import ConfigurationError, ProtocolViolation, SimulationError
from .adversary import Adversary, PassiveAdversary
from .invariants import InvariantMonitor
from .lossy import LossyTransport
from .metrics import CommunicationStats
from .network import ExecutionResult, ProtocolFactory, SynchronousNetwork
from .recovery import CrashEvent, RecoveryConfig
from .wire import WireLimits

__all__ = ["FallbackRecord", "run_with_fallback", "run_with_escalation"]

#: scalar CommunicationStats fields serialized into fallback artifacts.
_STATS_FIELDS = (
    "honest_bits", "honest_messages", "rounds",
    "retrans_bits", "retrans_messages", "ack_bits", "ack_messages",
    "transport_slots", "beacon_bits", "beacon_messages",
    "resync_attempts", "escalated_rounds",
    "quarantined_messages", "rejected_bits",
)


@dataclass(frozen=True)
class FallbackRecord:
    """Why and how an execution degraded off the optimal path."""

    #: exception class name of the primary failure.
    trigger: str
    #: human-readable description of the primary failure.
    detail: str
    #: monitor name when a :class:`ProtocolViolation` fired, else ``None``.
    monitor: str | None
    #: the shift applied to embed the inputs into N (output was
    #: un-shifted by the same amount).
    offset: int
    #: communication stats of the aborted primary execution.
    primary_stats: CommunicationStats | None = None
    #: the ladder rung that produced the returned outputs:
    #: ``"high_cost_ca"`` or ``"async_aa"``.
    rung: str = "high_cost_ca"
    #: the escalation traversal in order, one entry per rung tried.
    history: tuple[str, ...] = ()
    #: eps of the async AA rung (stringified Fraction), else ``None`` --
    #: the returned outputs then agree only up to ``epsilon``.
    epsilon: str | None = None
    #: transport-level escalated retries the primary performed before
    #: failing (mirrors ``primary_stats.resync_attempts``).
    resyncs: int = 0

    def describe(self) -> str:
        via = f" via {self.monitor}" if self.monitor else ""
        target = (
            "asynchronous AA" if self.rung == "async_aa" else "HighCostCA"
        )
        return f"degraded to {target} after {self.trigger}{via}: {self.detail}"

    def to_dict(self) -> dict:
        """JSON-friendly representation (used by repro artifacts)."""
        return {
            "trigger": self.trigger,
            "detail": self.detail,
            "monitor": self.monitor,
            "offset": self.offset,
            "rung": self.rung,
            "history": list(self.history),
            "epsilon": self.epsilon,
            "resyncs": self.resyncs,
            "primary_stats": (
                None
                if self.primary_stats is None
                else {
                    name: getattr(self.primary_stats, name)
                    for name in _STATS_FIELDS
                }
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FallbackRecord":
        stats_data = data.get("primary_stats")
        stats = None
        if stats_data is not None:
            stats = CommunicationStats()
            for name in _STATS_FIELDS:
                setattr(stats, name, stats_data.get(name, 0))
        return cls(
            trigger=data["trigger"],
            detail=data["detail"],
            monitor=data.get("monitor"),
            offset=data.get("offset", 0),
            primary_stats=stats,
            rung=data.get("rung", "high_cost_ca"),
            history=tuple(data.get("history", ())),
            epsilon=data.get("epsilon"),
            resyncs=data.get("resyncs", 0),
        )


class _StaticCorruptions(PassiveAdversary):
    """Spec-following corrupted parties with a pinned corruption set."""

    def __init__(self, corrupted: frozenset[int]) -> None:
        super().__init__()
        self._corrupted = set(corrupted)

    def select_corruptions(self, n: int, t: int) -> set[int]:
        return set(self._corrupted)


#: Channel label of the HighCostCA rung.
FALLBACK_CHANNEL = "fallback/hc"


class _Skipped(Exception):
    """A rung whose precondition does not hold; the ladder moves on."""


def _high_cost_ca(shifted, corrupted, settings, transport):
    """Rung: HighCostCA with spec-following corrupted parties."""
    from ..core.high_cost_ca import high_cost_ca

    result = SynchronousNetwork(
        protocol_factory=lambda ctx, v: high_cost_ca(
            ctx, v, channel=FALLBACK_CHANNEL
        ),
        inputs=shifted,
        n=settings["n"],
        t=settings["t"],
        kappa=settings["kappa"],
        adversary=_StaticCorruptions(corrupted),
        max_rounds=settings["max_rounds"],
        trace=settings["trace"],
        transport=transport,
        guards=settings["guards"],
    ).run()
    return result, None


def _async_aa(shifted, corrupted, settings, epsilon, max_deliveries):
    """Rung: asynchronous AA with the primary's corruption set pinned."""
    n, t_async = settings["n"], len(corrupted)
    if 5 * t_async >= n:
        raise _Skipped(f"needs 5t < n, t={t_async}, n={n}")
    from ..asynchrony.aa import AsyncApproximateAgreement
    from ..asynchrony.network import AsyncNetwork

    bound = max(1, max(shifted.values()))
    async_result = AsyncNetwork(
        party_factory=lambda ctx: AsyncApproximateAgreement(
            ctx, shifted[ctx.party_id], epsilon, bound
        ),
        n=n,
        t=t_async,
        kappa=settings["kappa"],
        adversary=_PinnedAsyncCorruptions(corrupted),
        max_deliveries=max_deliveries,
        guards=settings["guards"],
    ).run()
    result = ExecutionResult(
        n=n,
        t=settings["t"],
        outputs=dict(async_result.outputs),
        corrupted=corrupted,
        stats=async_result.stats,
    )
    return result, epsilon


#: ``(shifted inputs, corrupted, settings) -> (result, epsilon | None)``;
#: raises ProtocolViolation / SimulationError on failure, _Skipped when
#: the rung cannot apply.  ``epsilon`` is set when outputs agree only
#: up to it.
_Rung = tuple[str, Callable[..., tuple[ExecutionResult, Any]]]


def _run_ladder(
    protocol_factory: ProtocolFactory,
    inputs: dict[int, Any] | list[Any],
    settings: dict[str, Any],
    rungs: Sequence[_Rung],
    escalate_on: tuple[type, ...],
) -> ExecutionResult:
    """Run the primary, then each rung in order until one decides.

    ``settings`` are the primary's :class:`SynchronousNetwork` keyword
    arguments.  A primary failure enters the ladder only when it is one
    of ``escalate_on``.  Inputs are shifted into N for the rungs and the
    decided outputs shifted back; non-integer inputs cannot be shifted,
    so the primary failure then propagates unchanged.
    """
    if isinstance(inputs, list):
        inputs = dict(enumerate(inputs))
    primary = SynchronousNetwork(protocol_factory, inputs, **settings)
    try:
        return primary.run()
    except (ProtocolViolation, SimulationError) as failure:
        if not isinstance(failure, escalate_on):
            raise
        primary_failure = failure
    resyncs = primary.stats.resync_attempts
    history = [
        f"primary: {type(primary_failure).__name__}: "
        f"{_clip(str(primary_failure))}"
    ]
    if resyncs:
        history.append(
            f"transport: {resyncs} escalated retr"
            f"{'y' if resyncs == 1 else 'ies'} before the failure"
        )
    try:
        offset = _offset_into_naturals(inputs)
    except ConfigurationError:
        raise primary_failure from None
    shifted = {party: value + offset for party, value in inputs.items()}
    corrupted = frozenset(primary.corrupted)

    for name, run in rungs:
        try:
            result, epsilon = run(shifted, corrupted, settings)
        except _Skipped as skipped:
            history.append(f"{name}: skipped ({skipped})")
            continue
        except (ProtocolViolation, SimulationError) as rung_failure:
            history.append(
                f"{name}: {type(rung_failure).__name__}: "
                f"{_clip(str(rung_failure))}"
            )
            continue
        if epsilon is None:
            history.append(f"{name}: decided")
        else:
            history.append(f"{name}: decided (eps={epsilon})")
            epsilon = str(Fraction(epsilon))
        result.outputs = {
            party: value - offset for party, value in result.outputs.items()
        }
        result.fallback = FallbackRecord(
            trigger=type(primary_failure).__name__,
            detail=str(primary_failure),
            monitor=getattr(primary_failure, "monitor", None),
            offset=offset,
            primary_stats=primary.stats,
            rung=name,
            history=tuple(history),
            epsilon=epsilon,
            resyncs=resyncs,
        )
        return result
    raise SimulationError(
        "escalation ladder exhausted: " + " | ".join(history),
        stats=primary.stats,
    ) from primary_failure


def run_with_fallback(
    protocol_factory: ProtocolFactory,
    inputs: dict[int, Any] | list[Any],
    n: int,
    t: int,
    kappa: int = 128,
    adversary: Adversary | None = None,
    max_rounds: int | None = None,
    trace: bool = False,
    monitors: Sequence[InvariantMonitor] = (),
    transport: LossyTransport | None = None,
    crashes: Sequence[CrashEvent | tuple[int, int, int]] | None = None,
    recovery: RecoveryConfig | bool | None = None,
    guards: WireLimits | bool | None = None,
) -> ExecutionResult:
    """Run the primary protocol; degrade to ``HighCostCA`` on failure.

    The primary execution gets the full resilience stack (monitors,
    transport, crash plane).  On :class:`ProtocolViolation` or
    :class:`SimulationError` the supervisor reruns the *inputs* through
    ``HighCostCA`` on a perfect network with the same corruption set,
    and returns that result with ``ExecutionResult.fallback`` set.  If
    that fails too, the ladder is exhausted: a
    :class:`SimulationError` chained from the primary failure.
    Configuration errors and harness bugs still propagate -- only
    detected protocol misbehaviour degrades.

    Requires integer inputs (they are shifted into N for HighCostCA);
    non-integer inputs make the primary failure propagate unchanged.
    """
    settings = dict(
        n=n, t=t, kappa=kappa, adversary=adversary, max_rounds=max_rounds,
        trace=trace, monitors=monitors, transport=transport,
        crashes=crashes, recovery=recovery, guards=guards,
    )
    rungs = [("high_cost_ca", partial(_high_cost_ca, transport=None))]
    return _run_ladder(
        protocol_factory, inputs, settings, rungs,
        (ProtocolViolation, SimulationError),
    )


def _offset_into_naturals(inputs: dict[int, Any]) -> int:
    """Shift embedding integer inputs into N (0 when already natural)."""
    values = list(inputs.values())
    if any(not isinstance(v, int) or isinstance(v, bool) for v in values):
        raise ConfigurationError(
            "the HighCostCA fallback needs integer inputs"
        )
    lowest = min(values)
    return -lowest if lowest < 0 else 0


def _clip(message: str, limit: int = 200) -> str:
    """First line of ``message``, truncated for history entries."""
    line = message.splitlines()[0] if message else message
    return line if len(line) <= limit else line[: limit - 3] + "..."


def run_with_escalation(
    protocol_factory: ProtocolFactory,
    inputs: dict[int, Any] | list[Any],
    n: int,
    t: int,
    kappa: int = 128,
    adversary: Adversary | None = None,
    max_rounds: int | None = None,
    trace: bool = False,
    monitors: Sequence[InvariantMonitor] = (),
    transport: LossyTransport | None = None,
    crashes: Sequence[CrashEvent | tuple[int, int, int]] | None = None,
    recovery: RecoveryConfig | bool | None = None,
    guards: WireLimits | bool | None = None,
    epsilon: Fraction | int = 1,
    max_deliveries: int | None = None,
    escalate_on: tuple[type, ...] = (ProtocolViolation, SimulationError),
) -> ExecutionResult:
    """Descend the partial-synchrony escalation ladder until decision.

    Rungs, each tried at most once and recorded in order on
    ``FallbackRecord.history``:

    1. **primary** -- the optimal protocol with the full resilience
       stack.  Budget-escalated retries happen *inside* the transport's
       :class:`~repro.sim.lossy.TimeoutEscalation`, so a network that
       stabilizes late still yields a clean, byte-identical result with
       ``fallback is None`` and the retry cost visible only in the
       ``beacon_* / resync_*`` stats fields.
    2. **high_cost_ca** -- on :class:`ProtocolViolation` or
       :class:`SimulationError`, rerun the (shifted) inputs through
       ``HighCostCA`` over the **same transport**: a genuinely broken
       network fails this rung too, which is the point -- only an
       actually-usable network lets the ladder stop here.
    3. **async_aa** -- asynchronous Approximate Agreement with the
       primary's corruption set pinned.  Needs ``5 * |corrupted| < n``;
       outputs agree only up to ``epsilon`` (recorded stringified on
       the fallback record).  Liveness needs no synchrony assumption.

    A ladder that exhausts every rung raises a
    :class:`~repro.errors.SimulationError` carrying the full history --
    the budgeted, replayable failure the chaos plane expects; no
    network schedule produces an unhandled exception.

    Non-integer inputs cannot ride the lower rungs, so the primary
    failure propagates unchanged for them (as in
    :func:`run_with_fallback`).

    ``escalate_on`` restricts which primary failures enter the ladder
    (default: both).  The chaos plane passes ``(SimulationError,)`` so
    a fired invariant monitor stays a reported protocol bug instead of
    being silently degraded away.
    """
    if not isinstance(epsilon, (int, Fraction)) or epsilon <= 0:
        raise ConfigurationError(
            f"epsilon must be a positive number, got {epsilon!r}"
        )
    settings = dict(
        n=n, t=t, kappa=kappa, adversary=adversary, max_rounds=max_rounds,
        trace=trace, monitors=monitors, transport=transport,
        crashes=crashes, recovery=recovery, guards=guards,
    )
    rungs = [
        ("high_cost_ca", partial(_high_cost_ca, transport=transport)),
        (
            "async_aa",
            partial(
                _async_aa, epsilon=epsilon, max_deliveries=max_deliveries
            ),
        ),
    ]
    return _run_ladder(
        protocol_factory, inputs, settings, rungs, escalate_on
    )


class _PinnedAsyncCorruptions:
    """Silent async adversary with a pinned corruption set.

    The async twin of :class:`_StaticCorruptions`: byzantine parties
    exist (they count against the ``t < n/5`` bound and never help) but
    inject nothing.
    """

    budget = 0

    def __init__(self, corrupted: frozenset[int]) -> None:
        self._corrupted = set(corrupted)

    def select_corruptions(self, n: int, t: int) -> set[int]:
        return set(self._corrupted)

    def inject(self, step, corrupted, n, observed):
        return []
