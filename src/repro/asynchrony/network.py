"""Event-driven asynchronous network simulator.

The paper's conclusions expect its techniques "can be easily extended
to the asynchronous setting for a lower number of corruptions
t < n/5".  The :mod:`repro.asynchrony` subpackage builds the
asynchronous side of that story: this module provides the substrate --
an event-driven message scheduler where the *adversary controls
delivery order* -- on which Bracha's reliable broadcast and the
asynchronous Approximate Agreement of Dolev et al. run.  (Deterministic
asynchronous *exact* agreement -- hence CA -- is impossible by FLP [22];
AA is precisely the relaxation the literature uses to circumvent it,
see Section 1.1.)

Model:

* no rounds; messages sit in a pending pool until the scheduler (an
  adversary-controlled policy) picks one to deliver;
* honest-to-anyone messages are *eventually* delivered: the scheduler
  must always pick some pending message, and byzantine injections are
  budget-limited, so no honest message can be starved forever;
* byzantine parties do not run code; the adversary injects arbitrary
  messages attributed to them between deliveries.  Messages *to* them
  are priced, numbered and shown to the adversary but never pooled:
  nothing would ever deliver them, and a pool keeping them would grow
  without bound and be re-filtered on every step;
* honest parties are reactive objects: ``start()`` once, then
  ``on_message(src, payload)`` per delivery; they may keep processing
  after deciding (required for liveness of e.g. reliable broadcast).

Communication accounting matches the synchronous simulator: every
honest-sent payload is priced by :func:`repro.sim.sizing.bit_size`
(once per broadcast, billed once per destination).

The pool is ``scheduler.lanes`` lists in send order (see
:class:`Scheduler`); a delivery removes its pick with ``list.pop``, a
memmove over at most a few thousand pointers: O(1) interpreter work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import ConfigurationError, SimulationError
from ..perf import counters
from ..sim.metrics import CommunicationStats
from ..sim.sizing import bit_size
from ..sim.wire import WireGuard, WireLimits

__all__ = [
    "AsyncContext",
    "AsyncParty",
    "AsyncNetwork",
    "AsyncResult",
    "Scheduler",
    "FifoScheduler",
    "RandomScheduler",
    "TargetedDelayScheduler",
    "AsyncAdversary",
    "default_delivery_budget",
]


def default_delivery_budget(n: int, t: int) -> int:
    """Delivery cap derived from the protocol-family complexity.

    Asynchronous AA needs ``O(log(range/eps))`` iterations of ``n`` RBC
    instances, each ``O(n^2)`` messages; the range factor is unknown to
    the network, so the budget keeps a generous floor and scales the
    quadratic part with ``n`` and ``t``.  The point is to turn a
    non-terminating execution into a diagnosable
    :class:`~repro.errors.SimulationError` (with partial outputs
    attached), not to ration legitimate runs.
    """
    return max(500_000, 2_000 * n * n * (t + 2))


@dataclass(frozen=True)
class AsyncContext:
    """Per-party parameters (the async twin of ``sim.party.Context``)."""

    party_id: int
    n: int
    t: int
    kappa: int = 128

    def __post_init__(self) -> None:
        if self.n <= 0 or not 0 <= self.t < self.n:
            raise ConfigurationError(
                f"need n > 0 and 0 <= t < n, got n={self.n}, t={self.t}"
            )
        if not 0 <= self.party_id < self.n:
            raise ConfigurationError("party_id out of range")

    def require_resilience(self, denominator: int) -> None:
        """Assert this protocol's ``t < n/denominator`` bound."""
        if denominator * self.t >= self.n:
            raise ConfigurationError(
                f"protocol requires t < n/{denominator}, "
                f"got n={self.n}, t={self.t}"
            )


class AsyncParty:
    """Base class for honest asynchronous protocol logic.

    Subclasses receive an :class:`_PartyAPI` as ``self.api`` providing
    ``send(dst, payload)``, ``broadcast(payload)`` and
    ``decide(output)``.  ``decide`` records the output without stopping
    message processing (asynchronous protocols must keep helping their
    peers after deciding).
    """

    def __init__(self, ctx: AsyncContext) -> None:
        self.ctx = ctx
        self.api: "_PartyAPI" = None  # injected by the network

    def start(self) -> None:
        """Called once before any delivery."""

    def on_message(self, src: int, payload: Any) -> None:
        """Called for every delivered message."""
        raise NotImplementedError


class Scheduler:
    """Delivery policy over the network's pool of deliverable messages.

    The pool is ``lanes`` lists, each in send order.  ``lane_of`` files
    a message into a lane when it is sent; ``pick(count)`` returns the
    index of the next delivery within the first non-empty lane, which
    holds ``count`` messages.
    """

    lanes = 1

    def lane_of(self, src: int, dst: int) -> int:
        return 0

    def pick(self, count: int) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class FifoScheduler(Scheduler):
    """Deliver in send order (the friendliest schedule)."""

    def pick(self, count: int) -> int:
        return 0


class RandomScheduler(Scheduler):
    """Uniformly random pending message (a chaotic but fair schedule)."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    def pick(self, count: int) -> int:
        # the one _randbelow(count) draw rng.choice makes: same schedules
        return self.rng.randrange(count)

    def describe(self) -> str:
        return f"RandomScheduler(seed={self.seed})"


class TargetedDelayScheduler(RandomScheduler):
    """Starve a set of victim parties as long as legally possible.

    Messages to/from victims wait in a second lane that is served only
    when nothing else is pending -- the classic "slow network
    partition" attack that async protocols must survive.
    """

    lanes = 2

    def __init__(self, victims: set[int], seed: int = 0) -> None:
        super().__init__(seed)
        self.victims = set(victims)

    def lane_of(self, src: int, dst: int) -> int:
        return 1 if src in self.victims or dst in self.victims else 0

    def describe(self) -> str:
        victims = sorted(self.victims)
        return f"TargetedDelayScheduler(victims={victims}, seed={self.seed})"


class AsyncAdversary:
    """Byzantine message injection for corrupted parties.

    ``inject`` is called between deliveries and returns up to
    ``budget`` remaining ``(src, dst, payload)`` triples with corrupted
    ``src``.  The total injection budget bounds the adversary (without
    a bound it could starve honest messages forever, violating eventual
    delivery).
    """

    def __init__(self, budget: int = 10_000, seed: int = 0) -> None:
        self.budget = budget
        self.rng = random.Random(seed)

    def select_corruptions(self, n: int, t: int) -> set[int]:
        return set(range(n - t, n))

    def inject(
        self, step: int, corrupted: frozenset[int], n: int, observed: list
    ) -> list[tuple[int, int, Any]]:
        """Messages to add this step (honest traffic so far is visible)."""
        return []


class GarbageAsyncAdversary(AsyncAdversary):
    """Sprays random garbage early in the execution."""

    _MAKERS = (
        lambda rng: rng.getrandbits(32),
        lambda rng: ("ECHO", rng.getrandbits(8)),
        lambda rng: ("READY", None),
        lambda rng: None,
        lambda rng: [1, "x"],
    )

    def inject(self, step, corrupted, n, observed):
        if step > 200 or not corrupted:
            return []
        out = []
        for src in corrupted:
            dst = self.rng.randrange(n)
            maker = self.rng.choice(self._MAKERS)
            out.append((src, dst, maker(self.rng)))
        return out


@dataclass
class AsyncResult:
    """Outcome of an asynchronous execution."""

    n: int
    t: int
    outputs: dict[int, Any]
    corrupted: frozenset[int]
    stats: CommunicationStats
    deliveries: int

    @property
    def honest_parties(self) -> list[int]:
        """Ids of the parties that stayed honest."""
        return [p for p in range(self.n) if p not in self.corrupted]


class _PartyAPI:
    """Capability object handed to each honest party."""

    def __init__(self, network: "AsyncNetwork", party_id: int) -> None:
        self._network = network
        self._party_id = party_id

    def send(self, dst: int, payload: Any) -> None:
        """Queue one message to ``dst`` (priced immediately)."""
        if 0 <= dst < self._network.n:
            self._network._send(self._party_id, (dst,), payload)

    def broadcast(self, payload: Any) -> None:
        """Queue ``payload`` to every party (priced once)."""
        self._network._send(self._party_id, range(self._network.n), payload)

    def decide(self, output: Any) -> None:
        """Record this party's output (processing continues)."""
        self._network._outputs.setdefault(self._party_id, output)


class AsyncNetwork:
    """Drives one asynchronous execution to quiescence."""

    def __init__(
        self,
        party_factory: Callable[[AsyncContext], AsyncParty],
        n: int,
        t: int,
        kappa: int = 128,
        scheduler: Scheduler | None = None,
        adversary: AsyncAdversary | None = None,
        max_deliveries: int | None = None,
        guards: WireLimits | bool | None = None,
    ) -> None:
        self.n = n
        self.t = t
        self.kappa = kappa
        self.scheduler = scheduler or FifoScheduler()
        self.adversary = adversary or AsyncAdversary()
        self.max_deliveries = (
            default_delivery_budget(n, t)
            if max_deliveries is None
            else max_deliveries
        )

        self.corrupted = frozenset(self.adversary.select_corruptions(n, t))
        if len(self.corrupted) > t:
            raise ConfigurationError("adversary over-corrupted")

        #: Inbound wire guard on byzantine injections (hostile-payload
        #: plane).  There are no rounds here, so the per-round ceiling
        #: acts as a cumulative per-sender injection ceiling on top of
        #: the adversary's count budget.  Honest sends are never
        #: checked -- their accounting must stay byte-identical.
        if guards is True:
            guards = WireLimits.from_envelopes(n, t, ell=4096, kappa=kappa)
        elif guards is False:
            guards = None
        self._guard = WireGuard(guards) if guards is not None else None
        self.quarantine_log: list[tuple[int, int, int, str]] = []

        self.stats = CommunicationStats()
        #: deliverable ``(src, dst, payload)`` messages, one list per lane.
        self._lanes: list[list] = [[] for _ in range(self.scheduler.lanes)]
        self._seq = 0
        self._outputs: dict[int, Any] = {}
        self._observed: list[tuple[int, int, Any]] = []
        self._injection_budget = self.adversary.budget

        self._parties: dict[int, AsyncParty] = {}
        for party in range(n):
            if party in self.corrupted:
                continue
            ctx = AsyncContext(party_id=party, n=n, t=t, kappa=kappa)
            instance = party_factory(ctx)
            instance.api = _PartyAPI(self, party)
            self._parties[party] = instance

    # -- internals used by _PartyAPI -----------------------------------
    def _send(self, src: int, dsts, payload: Any) -> None:
        """Price ``payload`` once and queue it to every party in ``dsts``."""
        count = len(dsts)
        bits = bit_size(payload) * count
        self.stats.record_round_sends("async", [(src, bits)], count, bits)
        self._seq += count
        lanes, lane_of = self._lanes, self.scheduler.lane_of
        for dst in dsts:
            message = (src, dst, payload)
            if dst not in self.corrupted:
                lanes[lane_of(src, dst)].append(message)
            self._observed.append(message)

    def _inject(self, src: int, dst: Any, payload: Any) -> None:
        """Queue one byzantine message (guarded when guards are on)."""
        if not 0 <= dst < self.n:
            return
        if self._guard is not None:
            # Quarantine out-of-bounds byzantine injections before they
            # enter the pending pool (discard + attribute; the count
            # still burns the adversary's injection budget).
            counters.bump("guard_checks")
            reason, bits = self._guard.check(0, src, payload)
            if reason is not None:
                counters.bump("guard_quarantined")
                self.stats.record_quarantine(bits)
                if len(self.quarantine_log) < 256:
                    self.quarantine_log.append((self._seq, src, dst, reason))
                return
        self._seq += 1
        if dst not in self.corrupted:
            self._lanes[self.scheduler.lane_of(src, dst)].append(
                (src, dst, payload)
            )

    def _take(self) -> tuple[int, int, Any] | None:
        """Remove the scheduler's next pick; None when nothing is pooled."""
        for lane in self._lanes:
            if lane:
                return lane.pop(self.scheduler.pick(len(lane)))
        return None

    # -- execution -------------------------------------------------------
    def run(self) -> AsyncResult:
        """Execute until all honest parties decided and quiescent."""
        for party in self._parties.values():
            party.start()

        deliveries = step = 0
        while True:
            if not any(self._lanes) and (
                self._outputs.keys() >= self._parties.keys()
            ):
                break
            # byzantine injection (budget-bounded).
            if self._injection_budget > 0:
                injected = self.adversary.inject(
                    step, self.corrupted, self.n, self._observed
                )
                for src, dst, payload in injected[: self._injection_budget]:
                    if src in self.corrupted:
                        self._inject(src, dst, payload)
                        self._injection_budget -= 1
            step += 1

            message = self._take()
            if message is None:
                # Injections only add messages, so the pool was empty
                # at the loop head too, with some party undecided.
                undecided = sorted(self._parties.keys() - self._outputs.keys())
                raise SimulationError(
                    "asynchronous deadlock: honest parties "
                    f"{undecided} undecided but no pending messages "
                    f"after {deliveries} deliveries",
                    stats=self.stats,
                    outputs=dict(self._outputs),
                )
            deliveries += 1
            if deliveries > self.max_deliveries:
                raise SimulationError(
                    f"delivery budget {self.max_deliveries:,} exceeded "
                    f"(n={self.n}, t={self.t}, "
                    f"scheduler={self.scheduler.describe()}): "
                    "likely non-termination",
                    stats=self.stats,
                    outputs=dict(self._outputs),
                )
            src, dst, payload = message
            self._parties[dst].on_message(src, payload)
            self.stats.record_round()  # one scheduler step

        return AsyncResult(
            n=self.n,
            t=self.t,
            outputs=dict(self._outputs),
            corrupted=self.corrupted,
            stats=self.stats,
            deliveries=deliveries,
        )

