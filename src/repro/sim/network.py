"""The synchronous network simulator.

Implements the paper's model (Section 2): ``n`` parties in a fully
connected network of authenticated channels, synchronized clocks, and
guaranteed delivery within one round.  Protocol executions proceed in
lockstep rounds, all driven by one loop (:meth:`SynchronousNetwork.
_run_round`):

1. every running party's generator is resumed with last round's inbox and
   yields its outgoing messages,
2. the (rushing) adversary observes all honest traffic and chooses the
   corrupted parties' messages,
3. messages are delivered; honest-sent bits are accounted,
4. online :class:`~repro.sim.invariants.InvariantMonitor`s (if attached)
   observe the round record and may raise
   :class:`~repro.errors.ProtocolViolation`.

Steps 2 and 4 and the resilience planes below are *stages* armed once
per execution: the adversary stage (RoundView, ``deliver``, wire guard,
``adapt``, crash requests), the transport, the recovery plane and the
RoundRecord stage.  A stage that is not armed costs one flag test per
round.  The adversary stage is skipped when it cannot change anything:
the exact :class:`~repro.sim.adversary.PassiveAdversary` with no
transport and no crash plane, whose corrupted parties' spec messages
are then delivered as yielded.

Authenticated channels mean the receiver always learns the true sender
identity -- the simulator enforces this by construction (the adversary can
only emit messages attributed to corrupted parties).

Round budgets: when ``max_rounds`` is not given the simulator derives a
budget from the paper's round complexity (``O(n log n)`` with a
``3(t+1)``-round Phase-King ``PI_BA``) via :func:`default_round_budget`
instead of a flat constant, so non-terminating executions are diagnosed
in seconds; the resulting :class:`~repro.errors.SimulationError` carries
the partial trace, stats, and any outputs produced so far.

Resilience planes (both optional, zero-cost when absent):

* ``transport`` -- a :class:`~repro.sim.lossy.LossyTransport` simulates
  drop/delay/reorder on honest links plus the ack/retransmit round
  synchronizer that restores lockstep; its overhead lands in the
  ``retrans_*``/``ack_*`` stats fields, never in ``honest_bits``.
* crash/recovery -- a declarative ``crashes`` schedule and/or an
  adversary with a crash plane powers honest parties off for chosen
  round windows; a :class:`~repro.sim.recovery.RecoveryManager` logs
  every delivered inbox to per-party write-ahead logs, parks traffic
  addressed to down parties, and deterministically replays a restarting
  party back to the current round.  Down parties count against the same
  ``t`` budget as byzantine corruptions while down.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..errors import (
    ConfigurationError,
    HonestPartyError,
    ProtocolViolation,
    ReproError,
    SimulationError,
)
from ..perf import counters
from .adversary import Adversary, PassiveAdversary, RoundView
from .invariants import InvariantMonitor
from .lossy import LossyTransport, TransportTimeout
from .metrics import CommunicationStats
from .party import Context, Outgoing, Proto
from .recovery import CrashEvent, RecoveryConfig, RecoveryManager
from .sizing import bit_size
from .trace import RoundRecord
from .wire import WireGuard, WireLimits, inbox_digest

__all__ = [
    "ExecutionResult",
    "SynchronousNetwork",
    "ProtocolFactory",
    "default_round_budget",
]

#: Builds one party's protocol generator from its context and input.
ProtocolFactory = Callable[[Context, Any], Proto[Any]]

#: Quarantine ledger entries kept per execution; the stats fields keep
#: exact totals, the ledger keeps the first offenders for attribution.
_QUARANTINE_LOG_CAP = 256

#: Sentinel for the broadcast payload-sizing memo: distinct from every
#: real payload (including ``None``, the protocols' bottom symbol).
_NO_PAYLOAD = object()

#: The empty party set: a round without the adversary stage corrupts,
#: clips and crashes nobody.
_NONE: frozenset[int] = frozenset()


def default_round_budget(n: int, t: int) -> int:
    """Round budget derived from the theoretical round complexities.

    The CA stack terminates in ``O(n log n)`` rounds (Corollary 2) and
    every other protocol in this repository (Phase-King: ``3(t+1)``,
    ``HighCostCA``: ``2 + 4(t+1)``, Dolev-Strong: ``t+1``, synchronous
    AA: ``O(log(range/eps))``) is far below the envelope used here --
    a generous multiple of ``(t + 1) * log^2 n`` with a flat floor that
    also covers range-dependent loops such as Approximate Agreement.
    """
    log_n = max(1, math.ceil(math.log2(max(2, n))))
    return max(10_000, 512 * (t + 1) * (log_n * log_n + 8))


@dataclass
class ExecutionResult:
    """Outcome of one simulated execution."""

    n: int
    t: int
    outputs: dict[int, Any]
    corrupted: frozenset[int]
    stats: CommunicationStats
    channel_trace: list[str] = field(default_factory=list)
    trace: list[RoundRecord] | None = None
    #: ``(round_index, party)`` adaptive corruptions requested by the
    #: adversary but clipped by the ``t`` budget (over-powered config).
    clipped_corruptions: list[tuple[int, int]] = field(default_factory=list)
    #: crash-plane event log: ``("down" | "up", round_index, party)`` in
    #: the order the events took effect.
    crash_log: list[tuple[str, int, int]] = field(default_factory=list)
    #: ``(round_index, party)`` crash requests clipped by the shared
    #: ``t`` budget (corrupted + down parties never exceed ``t``).
    clipped_crashes: list[tuple[int, int]] = field(default_factory=list)
    #: number of WAL replays performed by the recovery manager.
    recoveries: int = 0
    #: set by the degradation supervisor when this result was produced
    #: by the HighCostCA fallback path (a
    #: :class:`~repro.sim.supervisor.FallbackRecord`); ``None`` on the
    #: primary path.
    fallback: Any = None
    #: quarantine ledger (wire guards): ``(round_index, src, dst,
    #: reason)`` for byzantine messages discarded by the inbound guard,
    #: capped at the first 256 entries (totals live on
    #: ``stats.quarantined_messages`` / ``stats.rejected_bits``).
    quarantine_log: list[tuple[int, int, int, str]] = field(
        default_factory=list
    )

    @property
    def honest_parties(self) -> list[int]:
        """Ids of the parties that stayed honest."""
        return [p for p in range(self.n) if p not in self.corrupted]

    def common_output(self) -> Any:
        """Return the agreed output, asserting the Agreement property."""
        values = {party: self.outputs[party] for party in self.honest_parties}
        if not values:
            raise SimulationError("no honest parties produced an output")
        iterator = iter(values.values())
        first = next(iterator)
        if any(value != first for value in iterator):
            raise SimulationError(f"honest parties disagree: {values!r}")
        return first

    def assert_convex_valid(
        self, honest_inputs: dict[int, Any] | Sequence[Any]
    ) -> Any:
        """Assert Agreement + Convex Validity; return the common output.

        ``honest_inputs`` may be the full per-party input assignment
        (list indexed by party id, or dict) -- corrupted parties'
        entries are ignored -- or an already-filtered collection of
        honest values (when no index matches a party id in
        ``corrupted``, all values count).
        """
        value = self.common_output()
        if isinstance(honest_inputs, dict):
            items = honest_inputs.items()
        else:
            items = enumerate(honest_inputs)
        honest = [v for p, v in items if p not in self.corrupted]
        if not honest:
            raise SimulationError("no honest inputs to validate against")
        low, high = min(honest), max(honest)
        if not low <= value <= high:
            raise ProtocolViolation(
                f"output {value} outside honest hull [{low}, {high}]",
                monitor="assert_convex_valid",
            )
        return value


@dataclass(slots=True)
class _PartyState:
    generator: Proto[Any]
    finished: bool = False
    output: Any = None
    inbox: dict[int, Any] = field(default_factory=dict)
    started: bool = False


class SynchronousNetwork:
    """Drives one protocol execution under a byzantine adversary."""

    def __init__(
        self,
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
    ) -> None:
        if isinstance(inputs, list):
            inputs = dict(enumerate(inputs))
        if set(inputs) != set(range(n)):
            raise ConfigurationError(
                f"inputs must cover parties 0..{n - 1}, got {sorted(inputs)}"
            )
        self.n = n
        self.t = t
        self.kappa = kappa
        self.inputs = dict(inputs)
        self.adversary = adversary or PassiveAdversary()
        self.protocol_factory = protocol_factory
        self.max_rounds = (
            default_round_budget(n, t) if max_rounds is None else max_rounds
        )
        self.monitors = list(monitors)

        self.corrupted: set[int] = set(
            self.adversary.select_corruptions(n, t)
        )
        if len(self.corrupted) > t:
            raise ConfigurationError(
                f"adversary selected {len(self.corrupted)} > t={t} corruptions"
            )
        if any(not 0 <= p < n for p in self.corrupted):
            raise ConfigurationError("corruption set out of range")

        self.transport = transport
        declared = [
            event if isinstance(event, CrashEvent) else CrashEvent(*event)
            for event in (crashes or ())
        ]
        for event in declared:
            if not 0 <= event.party < n:
                raise ConfigurationError(
                    f"crash schedule names party {event.party}, "
                    f"outside 0..{n - 1}"
                )
        #: declarative crash windows keyed by their down round.
        self._declared_crashes: dict[int, dict[int, int]] = {}
        for event in declared:
            self._declared_crashes.setdefault(event.down, {})[
                event.party
            ] = event.up
        wants_recovery = bool(
            recovery
            or declared
            or getattr(self.adversary, "has_crash_plane", False)
        )
        self._recovery = (
            RecoveryManager(
                protocol_factory,
                self.inputs,
                n,
                t,
                kappa,
                recovery if isinstance(recovery, RecoveryConfig) else None,
            )
            if wants_recovery
            else None
        )
        #: Adversary stage (RoundView, ``deliver``, wire guard, ``adapt``,
        #: crash requests): skipped when round delivery is a pure
        #: function of the yielded Outgoing bundles -- no lossy
        #: transport, no crash or recovery plane, and the exact
        #: PassiveAdversary, which relays corrupted parties' spec
        #: messages verbatim, never adapts and never crashes anyone.
        #: Relaying the spec messages directly delivers the same inboxes
        #: in the same insertion order, so the skip is byte-identical.
        self._adversary_stage = not (
            transport is None
            and self._recovery is None
            and type(self.adversary) is PassiveAdversary
        )
        #: Adversarial crash requests (the adversary's crash plane).
        self._crash_stage = self._recovery is not None and getattr(
            self.adversary, "has_crash_plane", False
        )
        #: Inbound wire guard (hostile-payload plane).  ``True`` derives
        #: limits from the bit envelopes at a default payload length;
        #: pass an explicit :class:`WireLimits` (e.g. from
        #: ``WireLimits.from_envelopes(n, t, ell, kappa)``) for
        #: protocol-accurate bounds.  Only byzantine-origin traffic in
        #: the adversary stage is ever checked -- honest sends and runs
        #: without that stage are untouched, so arming guards cannot
        #: perturb honest accounting.
        if guards is True:
            guards = WireLimits.from_envelopes(n, t, ell=4096, kappa=kappa)
        elif guards is False:
            guards = None
        self._guard = WireGuard(guards) if guards is not None else None
        self.quarantine_log: list[tuple[int, int, int, str]] = []
        #: honest parties currently powered off (crash plane).
        self.down: set[int] = set()
        #: restart round -> parties whose WAL replays at its start.
        self._restart_at: dict[int, set[int]] = {}
        self.crash_log: list[tuple[str, int, int]] = []
        self.clipped_crashes: list[tuple[int, int]] = []

        self.stats = CommunicationStats()
        self.channel_trace: list[str] = []
        self.trace: list[RoundRecord] | None = [] if trace else None
        self.clipped_corruptions: list[tuple[int, int]] = []
        self._states: dict[int, _PartyState] = {}
        for party in range(n):
            ctx = Context(party_id=party, n=n, t=t, kappa=kappa)
            gen = protocol_factory(ctx, self.inputs[party])
            self._states[party] = _PartyState(generator=gen)
        #: RoundRecord stage: a trace or monitors want each round.
        self._observed = self.trace is not None or bool(self.monitors)
        #: two alternating banks of per-party inbox dicts, used when no
        #: stage is armed.  The dicts delivered in round ``r`` are
        #: reused in round ``r + 2``: every protocol consumes its inbox
        #: between consecutive yields, so the bank being refilled is
        #: always two rounds stale and never aliased by a live
        #: generator.  A trace or monitor may retain inboxes, and the
        #: WAL logs them, so those runs get fresh dicts every round.
        self._arena: tuple[dict[int, dict[int, Any]], ...] | None = None
        if not self._adversary_stage and not self._observed:
            self._arena = tuple(
                {party: {} for party in range(n)} for _ in range(2)
            )

    # ------------------------------------------------------------------
    def run(self) -> ExecutionResult:
        """Execute until every honest party has terminated.

        The finished-check comes before the round budget: an execution
        whose honest parties all returned within ``max_rounds`` rounds
        succeeds, and one that needs more raises
        :class:`SimulationError` with the partial trace, stats and
        outputs.
        """
        started = time.perf_counter()
        try:
            counters.bump("sched_instances")
            for monitor in self.monitors:
                monitor.on_start(self)
            round_index = 0
            while not self._all_honest_finished():
                if round_index >= self.max_rounds:
                    raise SimulationError(
                        f"protocol did not terminate within "
                        f"{self.max_rounds} rounds",
                        trace=self.trace,
                        stats=self.stats,
                        outputs=self._partial_outputs(),
                    )
                self._run_round(round_index)
                round_index += 1
                counters.bump("sched_rounds")
            result = ExecutionResult(
                n=self.n,
                t=self.t,
                outputs=self._partial_outputs(),
                corrupted=frozenset(self.corrupted),
                stats=self.stats,
                channel_trace=self.channel_trace,
                trace=self.trace,
                clipped_corruptions=list(self.clipped_corruptions),
                crash_log=list(self.crash_log),
                clipped_crashes=list(self.clipped_crashes),
                recoveries=(
                    self._recovery.recoveries if self._recovery else 0
                ),
                quarantine_log=list(self.quarantine_log),
            )
            for monitor in self.monitors:
                self._monitored(monitor.on_finish, result, self)
            return result
        finally:
            # Wall time rides on the stats object so every exit path --
            # normal completion, SimulationError with partial state,
            # monitor violations -- carries its timing.
            self.stats.wall_s = time.perf_counter() - started

    # ------------------------------------------------------------------
    def _partial_outputs(self) -> dict[int, Any]:
        return {
            party: state.output
            for party, state in self._states.items()
            if state.finished and party not in self.corrupted
        }

    def _monitored(self, hook, *args) -> None:
        """Run a monitor hook, attaching the partial trace on violation."""
        try:
            hook(*args)
        except ProtocolViolation as violation:
            if violation.trace is None:
                violation.trace = self.trace
            raise

    def _all_honest_finished(self) -> bool:
        return all(
            state.finished
            for party, state in self._states.items()
            if party not in self.corrupted
        )

    def _resume(
        self, party: int, state: _PartyState, round_index: int
    ) -> Outgoing | None:
        """Advance one party's generator by one round; None if finished."""
        if state.finished:
            return None
        try:
            if not state.started:
                state.started = True
                outgoing = next(state.generator)
            else:
                outgoing = state.generator.send(state.inbox)
        except StopIteration as stop:
            state.finished = True
            state.output = stop.value
            return None
        except ReproError:
            # The repo's own taxonomy (ConfigurationError, monitor
            # violations, ...) is deliberate signalling, not a party
            # crashed by hostile input -- let it propagate untouched.
            raise
        except Exception as error:
            if party in self.corrupted:
                # A corrupted party's spec code may crash on adversarial
                # inboxes; the adversary simply loses its spec hint.
                state.finished = True
                return None
            # The model forbids byzantine input from crashing honest
            # code: attribute the exception to the party, the round,
            # and a bounded digest of the inbox it was consuming, so
            # fuzz reports separate input-validation bugs from harness
            # bugs and budget errors.  repr()-free on purpose -- the
            # offending payload may be arbitrarily hostile.
            digest = inbox_digest(state.inbox)
            summary = str(error)
            if len(summary) > 200:
                summary = summary[:200] + "..."
            raise HonestPartyError(
                f"honest party {party} raised "
                f"{type(error).__name__} in round {round_index}: "
                f"{summary} (inbox digest {digest})",
                party=party,
                round_index=round_index,
                inbox_digest=digest,
            ) from error
        if not isinstance(outgoing, Outgoing):
            raise SimulationError(
                f"party {party} yielded {type(outgoing).__name__}, "
                "expected Outgoing",
                trace=self.trace,
                stats=self.stats,
                outputs=self._partial_outputs(),
            )
        return outgoing

    # -- crash plane ---------------------------------------------------
    def _process_restarts(self, round_index: int) -> frozenset[int]:
        """Replay the WAL of every party whose restart round arrived."""
        due = sorted(self._restart_at.pop(round_index, ()))
        for party in due:
            replayed = self._recovery.recover(party, self.stats)
            state = self._states[party]
            state.generator = replayed.generator
            state.started = replayed.started
            state.finished = replayed.finished
            state.output = replayed.output
            state.inbox = replayed.inbox
            self.down.discard(party)
            self.crash_log.append(("up", round_index, party))
        return frozenset(due)

    def _accept_crashes(
        self,
        requests: dict[int, int],
        down_round: int,
        pending_corruptions: int = 0,
    ) -> tuple[set[int], set[int]]:
        """Clip crash requests to the shared ``t`` budget and apply them.

        ``requests`` maps party -> restart round; invalid targets
        (corrupted, already down, finished, out of range) are silently
        ignored, over-budget ones are clipped with a warning, exactly
        like over-budget adaptive corruptions.
        """
        valid = {
            party: up
            for party, up in requests.items()
            if 0 <= party < self.n
            and party not in self.corrupted
            and party not in self.down
            and not self._states[party].finished
            and up > down_round
        }
        allowed = max(
            0,
            self.t
            - len(self.corrupted)
            - pending_corruptions
            - len(self.down),
        )
        accepted = set(sorted(valid)[:allowed])
        clipped = set(valid) - accepted
        if clipped:
            self.clipped_crashes.extend(
                (down_round, party) for party in sorted(clipped)
            )
            warnings.warn(
                f"crash budget exhausted at round {down_round}: clipped "
                f"parties {sorted(clipped)} (t={self.t}, corrupted "
                f"{len(self.corrupted)}, down {len(self.down)}) -- the "
                "crash schedule is over-powered and was weakened",
                RuntimeWarning,
                stacklevel=2,
            )
        for party in sorted(accepted):
            self.down.add(party)
            self._restart_at.setdefault(valid[party], set()).add(party)
            self.crash_log.append(("down", down_round, party))
        return accepted, clipped

    def _run_round(self, round_index: int) -> None:
        """One lockstep round: resume, act, deliver, account, observe.

        Parties send, the rushing adversary acts, messages are
        delivered.  The adversary, transport, recovery and RoundRecord
        stages run only when armed (flags fixed in ``__init__``), so an
        unarmed stage costs one flag test per round.
        """
        recovery = self._recovery
        corrupted = self.corrupted
        down = self.down
        states = self._states
        # 0. Crash plane: restarts due now, then declarative crashes
        # whose down round is now (both before any generator resumes).
        restarted: frozenset[int] = frozenset()
        if recovery is not None:
            restarted = self._process_restarts(round_index)
            declared = self._declared_crashes.pop(round_index, None)
            if declared:
                self._accept_crashes(declared, round_index)

        # 1. Resume every running generator (down parties stay frozen).
        # The finished/down guards are hoisted out of ``_resume`` so a
        # long-finished party costs one attribute read, not a call, and
        # the resume count lands in ``sched_resumes`` as one batched
        # bump per round (actual generator touches only).
        outgoings: dict[int, Outgoing] = {}
        resumes = 0
        for party, state in states.items():
            if state.finished or (down and party in down):
                continue
            resumes += 1
            outgoing = self._resume(party, state, round_index)
            if outgoing is not None:
                outgoings[party] = outgoing
        if resumes:
            counters.bump("sched_resumes", resumes)
        if not outgoings:
            # Every generator terminated while consuming last round's
            # inbox -- no network round takes place.
            return

        # Lockstep sanity check: running honest parties share one channel.
        honest_channels = {
            out.channel
            for party, out in outgoings.items()
            if party not in corrupted
        }
        if len(honest_channels) > 1:
            record = RoundRecord(
                round_index=round_index,
                channel="",
                honest_messages=0,
                honest_bits=0,
                byzantine_messages=0,
                corrupted=frozenset(corrupted),
                finished_parties=frozenset(
                    p for p, s in states.items() if s.finished
                ),
                honest_channels=tuple(sorted(honest_channels)),
                down_parties=frozenset(down),
                restarted_parties=restarted,
            )
            if self.trace is not None:
                self.trace.append(record)
            for monitor in self.monitors:
                self._monitored(monitor.on_round, record, self)
            raise SimulationError(
                f"honest parties out of lockstep in round {round_index}: "
                f"{sorted(honest_channels)}",
                trace=self.trace,
                stats=self.stats,
                outputs=self._partial_outputs(),
            )
        channel = next(iter(honest_channels)) if honest_channels else ""
        if honest_channels:
            self.channel_trace.append(channel)

        n = self.n
        stats = self.stats
        # 2. Adversary stage: the rushing adversary acts on the full
        # round view.
        view = None
        if self._adversary_stage:
            honest_outgoing: dict[tuple[int, int], Any] = {}
            spec_outgoing: dict[tuple[int, int], Any] = {}
            channels: dict[int, str] = {}
            for party, out in outgoings.items():
                channels[party] = out.channel
                bucket = (
                    spec_outgoing if party in corrupted else honest_outgoing
                )
                for dst, payload in out.messages.items():
                    if 0 <= dst < n:
                        bucket[(party, dst)] = payload
            view = RoundView(
                round_index=round_index,
                n=n,
                t=self.t,
                kappa=self.kappa,
                corrupted=frozenset(corrupted),
                channels=channels,
                honest_outgoing=dict(honest_outgoing),
                spec_outgoing=dict(spec_outgoing),
                corrupted_inputs={p: self.inputs[p] for p in corrupted},
                down=frozenset(down),
            )
            byz_messages = self.adversary.deliver(view)

            # 3. Transport stage: on a lossy transport every honest
            # payload to a live destination is retransmitted until
            # acked, restoring the lockstep abstraction (overhead lands
            # in the retrans_*/ack_* stats, never in honest_bits).  A
            # timeout carries the stats as they stand before this
            # round's honest bits are recorded.
            if self.transport is not None:
                live_traffic = {
                    link: payload
                    for link, payload in honest_outgoing.items()
                    if link[1] not in down
                }
                try:
                    self.transport.synchronize(
                        round_index, live_traffic, stats
                    )
                except TransportTimeout as timeout:
                    raise SimulationError(
                        str(timeout),
                        trace=self.trace,
                        stats=stats,
                        outputs=self._partial_outputs(),
                    ) from timeout

        # 4. Deliver inboxes and account honest bits: honest messages
        # first in party order, then byzantine ones.  Down parties'
        # inboxes are parked (senders keep retransmitting) instead of
        # delivered.
        if self._arena is not None:
            # Bank r%2 was delivered in round r-2 and has been consumed
            # (every protocol reads its inbox before its next yield).
            inboxes = self._arena[round_index & 1]
            for inbox in inboxes.values():
                inbox.clear()
        else:
            inboxes = {party: {} for party in states}
        # List-indexed view of the inbox dicts: party ids are dense
        # 0..n-1, and a C-level list index beats a dict hash on the
        # innermost (per-message) loop.
        inbox_rows = [inboxes[party] for party in range(n)]
        round_bits = 0
        round_messages = 0
        sender_bits: list[tuple[int, int]] = []
        for party, out in outgoings.items():
            if corrupted and party in corrupted:
                continue
            # A broadcast reuses one payload object for every
            # destination; sizing it once per object is exact (bit_size
            # is pure) and skips the dominant per-message cost.  The
            # one-object memo covers the broadcast shape; bundles with
            # several distinct payloads (e.g. ``distribute``) price
            # each object as before.  Seeded with a private sentinel:
            # ``None`` is a real payload (the protocols' bottom symbol,
            # priced at 1 bit) and must not match an empty memo.
            memo_obj = _NO_PAYLOAD
            memo_bits = 0
            party_sent = 0
            party_messages = 0
            for dst, payload in out.messages.items():
                if not 0 <= dst < n:
                    continue
                inbox_rows[dst][party] = payload
                if dst != party:
                    if payload is memo_obj:
                        bits = memo_bits
                    else:
                        bits = bit_size(payload)
                        memo_obj = payload
                        memo_bits = bits
                    party_sent += bits
                    party_messages += 1
            if party_messages:
                sender_bits.append((party, party_sent))
                round_bits += party_sent
                round_messages += party_messages
        if sender_bits:
            # Post lockstep check every honest sender shares one
            # channel, so the whole round batches into one update.
            stats.record_round_sends(
                channel, sender_bits, round_messages, round_bits
            )
        byz_count = 0
        if view is None:
            # No adversary stage: corrupted parties send their spec
            # messages verbatim.
            for party, out in outgoings.items():
                if party not in corrupted:
                    continue
                for dst, payload in out.messages.items():
                    if 0 <= dst < n:
                        inbox_rows[dst][party] = payload
                        byz_count += 1
        else:
            guard = self._guard
            for (src, dst), payload in byz_messages.items():
                if src not in corrupted or not 0 <= dst < n:
                    continue
                if guard is not None and dst not in corrupted:
                    # Honest parties validate byzantine-origin traffic
                    # before it enters their inbox; out-of-bounds
                    # payloads are quarantined (discarded + attributed),
                    # never raised on.  Corrupted destinations do not
                    # validate -- that is the adversary's own code.
                    counters.bump("guard_checks")
                    reason, bits = guard.check(round_index, src, payload)
                    if reason is not None:
                        counters.bump("guard_quarantined")
                        stats.record_quarantine(bits)
                        if len(self.quarantine_log) < _QUARANTINE_LOG_CAP:
                            self.quarantine_log.append(
                                (round_index, src, dst, reason)
                            )
                        continue
                inbox_rows[dst][src] = payload
                byz_count += 1
        for party, state in states.items():
            if not (down and party in down):
                state.inbox = inboxes[party]

        # 5. Recovery stage: live parties' executed rounds go to their
        # write-ahead logs, down parties' inboxes are parked.
        if recovery is not None:
            honest_senders = {p for p in range(n) if p not in corrupted}
            for party in sorted(down):
                recovery.park(
                    party, round_index, inboxes[party], honest_senders
                )
            for party, out in outgoings.items():
                if party not in corrupted:
                    recovery.log_round(
                        party, round_index, inboxes[party], out
                    )
        stats.record_round()
        counters.bump("net_rounds")
        counters.bump("net_messages", round_messages + byz_count)

        accepted = clipped = crash_accepted = crash_clipped = _NONE
        down_before = frozenset(down) if self._observed else None
        if view is not None:
            accepted, clipped = self._adapt(view, round_index)
            # 6. Adversarial crashes (effective next round), clipped
            # against the combined corruption + down budget.
            if self._crash_stage:
                crash_requests = self.adversary.crash_restarts(view)
                crash_accepted, crash_clipped = self._accept_crashes(
                    {
                        party: up
                        for party, up in crash_requests.items()
                        if party not in accepted
                    },
                    round_index + 1,
                    pending_corruptions=len(accepted),
                )

        # 7. RoundRecord stage.
        if self._observed:
            record = RoundRecord(
                round_index=round_index,
                channel=channel,
                honest_messages=round_messages,
                honest_bits=round_bits,
                byzantine_messages=byz_count,
                corrupted=frozenset(corrupted),
                finished_parties=frozenset(
                    p for p, s in states.items() if s.finished
                ),
                honest_channels=tuple(sorted(honest_channels)),
                new_corruptions=frozenset(accepted),
                clipped_corruptions=frozenset(clipped),
                down_parties=down_before,
                restarted_parties=restarted,
                new_crashes=frozenset(crash_accepted),
                clipped_crashes=frozenset(crash_clipped),
            )
            if self.trace is not None:
                self.trace.append(record)
            for monitor in self.monitors:
                self._monitored(monitor.on_round, record, self)

        if accepted:
            corrupted.update(accepted)

    def _adapt(
        self, view: RoundView, round_index: int
    ) -> tuple[set[int], set[int]]:
        """Adaptive corruptions requested this round (effective next).

        An over-budget ``adapt()`` is clipped deterministically; the
        clipped parties are recorded and warned about rather than
        silently dropped.  Down parties share the same ``t`` budget and
        cannot be corrupted while powered off.
        """
        requested = {
            party
            for party in self.adversary.adapt(view)
            if 0 <= party < self.n
            and party not in self.corrupted
            and party not in self.down
        }
        allowed = max(0, self.t - len(self.corrupted) - len(self.down))
        accepted = set(sorted(requested)[:allowed])
        clipped = requested - accepted
        if clipped:
            self.clipped_corruptions.extend(
                (round_index, party) for party in sorted(clipped)
            )
            warnings.warn(
                f"adaptive corruption budget exhausted in round "
                f"{round_index}: clipped parties {sorted(clipped)} "
                f"(t={self.t}, already corrupted "
                f"{len(self.corrupted)}) -- the adversary configuration "
                "is over-powered and was silently weakened",
                RuntimeWarning,
                stacklevel=3,
            )
        return accepted, clipped
