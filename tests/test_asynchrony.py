"""Asynchronous substrate tests: scheduler, Bracha RBC, async AA."""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asynchrony import (
    AsyncAdversary,
    AsyncApproximateAgreement,
    AsyncContext,
    AsyncNetwork,
    AsyncParty,
    BrachaRBC,
    FifoScheduler,
    RandomScheduler,
    TargetedDelayScheduler,
    rbc_message,
)
from repro.asynchrony.network import GarbageAsyncAdversary
from repro.errors import ConfigurationError, SimulationError
from repro.sim.wire import WireLimits


# ---------------------------------------------------------------------------
# plumbing: a trivial flood-and-decide protocol
# ---------------------------------------------------------------------------


class EchoOnce(AsyncParty):
    """Broadcast the input; decide on the first message received."""

    def __init__(self, ctx, value):
        super().__init__(ctx)
        self.value = value

    def start(self):
        self.api.broadcast(("HELLO", self.value))

    def on_message(self, src, payload):
        if isinstance(payload, tuple) and payload and payload[0] == "HELLO":
            self.api.decide(payload[1])


SCHEDULERS = [
    FifoScheduler(),
    RandomScheduler(seed=3),
    TargetedDelayScheduler({0}, seed=3),
]
#: Parameter ids (the schedulers' names, without their seeds).
SCHEDULER_IDS = [
    "FifoScheduler",
    "RandomScheduler",
    "TargetedDelayScheduler(victims=[0])",
]


class TestAsyncNetwork:
    @pytest.mark.parametrize(
        "scheduler", SCHEDULERS, ids=SCHEDULER_IDS
    )
    def test_delivery_and_decision(self, scheduler):
        net = AsyncNetwork(
            lambda ctx: EchoOnce(ctx, ctx.party_id),
            n=4, t=1, scheduler=scheduler,
        )
        result = net.run()
        assert set(result.outputs) == {0, 1, 2}

    def test_bits_accounted(self):
        net = AsyncNetwork(lambda ctx: EchoOnce(ctx, 255), n=4, t=1)
        result = net.run()
        # 3 honest parties broadcast ("HELLO", 255): 4 dests each.
        assert result.stats.honest_bits == 3 * 4 * (8 + 8)

    def test_deadlock_detected(self):
        class Mute(AsyncParty):
            def start(self):
                pass

            def on_message(self, src, payload):
                pass

        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            AsyncNetwork(lambda ctx: Mute(ctx), n=4, t=1).run()

    def test_injection_budget_respected(self):
        class Flooder(AsyncAdversary):
            def inject(self, step, corrupted, n, observed):
                return [(src, 0, "spam") for src in corrupted]

        net = AsyncNetwork(
            lambda ctx: EchoOnce(ctx, 1), n=4, t=1,
            adversary=Flooder(budget=10),
        )
        result = net.run()
        assert set(result.outputs) == {0, 1, 2}

    def test_budget_error_names_scheduler_seed(self):
        with pytest.raises(SimulationError, match=r"RandomScheduler\(seed=7\)"):
            AsyncNetwork(
                lambda ctx: EchoOnce(ctx, 1), n=4, t=1,
                scheduler=RandomScheduler(7), max_deliveries=2,
            ).run()
        assert TargetedDelayScheduler({0}, seed=5).describe() == (
            "TargetedDelayScheduler(victims=[0], seed=5)"
        )

    def test_context_validation(self):
        with pytest.raises(ConfigurationError):
            AsyncContext(party_id=0, n=4, t=4)
        ctx = AsyncContext(party_id=0, n=6, t=1)
        ctx.require_resilience(5)
        with pytest.raises(ConfigurationError):
            AsyncContext(party_id=0, n=5, t=1).require_resilience(5)


# ---------------------------------------------------------------------------
# Bracha RBC
# ---------------------------------------------------------------------------


class RbcHarness(AsyncParty):
    """Runs one RBC instance and decides on delivery."""

    def __init__(self, ctx, value, sender=0):
        super().__init__(ctx)
        self.value = value
        self.sender = sender
        self.rbc = None

    def start(self):
        self.rbc = BrachaRBC(
            self.ctx, "test", self.sender, self.api.broadcast,
            on_deliver=self.api.decide,
        )
        if self.ctx.party_id == self.sender:
            self.rbc.broadcast(self.value)

    def on_message(self, src, payload):
        from repro.asynchrony import parse_rbc

        parsed = parse_rbc(payload)
        if parsed and parsed[0] == "test":
            self.rbc.handle(src, parsed[1], parsed[2])


class TestBrachaRBC:
    @pytest.mark.parametrize(
        "scheduler", SCHEDULERS, ids=SCHEDULER_IDS
    )
    def test_validity_honest_sender(self, scheduler):
        net = AsyncNetwork(
            lambda ctx: RbcHarness(ctx, "payload"), n=4, t=1,
            scheduler=scheduler,
        )
        result = net.run()
        assert all(v == "payload" for v in result.outputs.values())
        assert len(result.outputs) == 3

    def test_validity_larger_network(self):
        net = AsyncNetwork(
            lambda ctx: RbcHarness(ctx, 12345), n=7, t=2,
            scheduler=RandomScheduler(1),
        )
        result = net.run()
        assert all(v == 12345 for v in result.outputs.values())

    def test_consistency_under_equivocation(self):
        """A byzantine sender INITs different values to the two halves;
        honest parties that deliver must deliver the SAME value."""

        class EquivocatingSender(AsyncAdversary):
            def inject(self, step, corrupted, n, observed):
                if step > 0:
                    return []
                out = []
                for dst in range(n):
                    value = "AAA" if dst < n // 2 else "BBB"
                    out.append((3, dst, rbc_message("test", "INIT", value)))
                return out

        net = AsyncNetwork(
            lambda ctx: RbcHarness(ctx, None, sender=3), n=4, t=1,
            adversary=EquivocatingSender(),
            scheduler=RandomScheduler(5),
        )
        # deliveries may or may not happen; if the run deadlocks because
        # nobody delivers, that's allowed for a byzantine sender.
        try:
            result = net.run()
        except Exception:
            return
        delivered = set(result.outputs.values())
        assert len(delivered) <= 1

    def test_garbage_does_not_break_delivery(self):
        net = AsyncNetwork(
            lambda ctx: RbcHarness(ctx, b"solid"), n=4, t=1,
            adversary=GarbageAsyncAdversary(budget=50),
            scheduler=RandomScheduler(7),
        )
        result = net.run()
        assert all(v == b"solid" for v in result.outputs.values())

    def test_validator_filters_values(self):
        class ValidatingHarness(RbcHarness):
            def start(self):
                self.rbc = BrachaRBC(
                    self.ctx, "test", 0, self.api.broadcast,
                    on_deliver=self.api.decide,
                    validate=lambda v: isinstance(v, int),
                )
                if self.ctx.party_id == 0:
                    self.rbc.broadcast(777)

        net = AsyncNetwork(lambda ctx: ValidatingHarness(ctx, 777), n=4, t=1)
        result = net.run()
        assert all(v == 777 for v in result.outputs.values())

    def test_only_sender_may_broadcast(self):
        ctx = AsyncContext(party_id=1, n=4, t=1)
        rbc = BrachaRBC(ctx, "x", 0, lambda p: None, lambda v: None)
        with pytest.raises(ValueError):
            rbc.broadcast("value")

    def test_requires_one_third(self):
        ctx = AsyncContext(party_id=0, n=3, t=1)
        with pytest.raises(ConfigurationError):
            BrachaRBC(ctx, "x", 0, lambda p: None, lambda v: None)


# ---------------------------------------------------------------------------
# Asynchronous Approximate Agreement (t < n/5)
# ---------------------------------------------------------------------------

BOUND = 1 << 16


def aa_factory(inputs, epsilon):
    def factory(ctx):
        return AsyncApproximateAgreement(
            ctx, inputs[ctx.party_id], epsilon, BOUND
        )

    return factory


def check_async_aa(inputs, result, epsilon):
    honest = [p for p in range(len(inputs)) if p not in result.corrupted]
    outputs = [result.outputs[p] for p in honest]
    lo = min(inputs[p] for p in honest)
    hi = max(inputs[p] for p in honest)
    for out in outputs:
        assert lo <= out <= hi, f"{out} outside [{lo}, {hi}]"
    spread = max(outputs) - min(outputs)
    assert spread <= epsilon, f"spread {spread} > {epsilon}"


class TestAsyncAA:
    @pytest.mark.parametrize(
        "scheduler", SCHEDULERS, ids=SCHEDULER_IDS
    )
    def test_eps_agreement_n6_t1(self, scheduler):
        inputs = [0, 100, 200, 300, 400, 500]
        net = AsyncNetwork(
            aa_factory(inputs, 1), n=6, t=1, scheduler=scheduler,
        )
        result = net.run()
        check_async_aa(inputs, result, 1)

    def test_eps_agreement_n11_t2(self):
        inputs = [37 * i for i in range(11)]
        net = AsyncNetwork(
            aa_factory(inputs, 2), n=11, t=2,
            scheduler=RandomScheduler(13),
        )
        result = net.run()
        check_async_aa(inputs, result, 2)

    def test_fine_epsilon(self):
        inputs = [0, 64, 128, 192, 256, 320]
        eps = Fraction(1, 16)
        net = AsyncNetwork(
            aa_factory(inputs, eps), n=6, t=1,
            scheduler=RandomScheduler(17),
        )
        result = net.run()
        check_async_aa(inputs, result, eps)

    def test_unanimous(self):
        inputs = [500] * 6
        net = AsyncNetwork(aa_factory(inputs, 1), n=6, t=1)
        result = net.run()
        assert all(v == 500 for v in result.outputs.values())

    def test_garbage_adversary(self):
        inputs = [10 * i for i in range(6)]
        net = AsyncNetwork(
            aa_factory(inputs, 1), n=6, t=1,
            adversary=GarbageAsyncAdversary(budget=100, seed=3),
            scheduler=RandomScheduler(19),
        )
        result = net.run()
        check_async_aa(inputs, result, 1)

    def test_byzantine_extreme_values(self):
        """Corrupted parties RBC extreme (but consistent) values each
        iteration; validity and eps-agreement must survive."""

        class ExtremeInjector(AsyncAdversary):
            def inject(self, step, corrupted, n, observed):
                if step % 7 or step > 600:
                    return []
                out = []
                for src in corrupted:
                    for iteration in range(3):
                        tag = f"it{iteration}/s{src}"
                        for dst in range(n):
                            out.append(
                                (src, dst,
                                 rbc_message(tag, "INIT", BOUND))
                            )
                return out

        inputs = [100, 120, 140, 160, 180, 200]
        net = AsyncNetwork(
            aa_factory(inputs, 1), n=6, t=1,
            adversary=ExtremeInjector(budget=3000, seed=5),
            scheduler=RandomScheduler(23),
        )
        result = net.run()
        check_async_aa(inputs, result, 1)

    def test_requires_one_fifth(self):
        ctx = AsyncContext(party_id=0, n=5, t=1)
        with pytest.raises(ConfigurationError):
            AsyncApproximateAgreement(ctx, 0, 1, BOUND)

    def test_input_bound_enforced(self):
        ctx = AsyncContext(party_id=0, n=6, t=1)
        with pytest.raises(ConfigurationError):
            AsyncApproximateAgreement(ctx, BOUND + 1, 1, BOUND)

    def test_zero_iterations(self):
        inputs = [1, 2, 3, 4, 5, 6]
        net = AsyncNetwork(
            aa_factory(inputs, 10 * BOUND), n=6, t=1
        )
        result = net.run()
        # eps larger than the whole range: parties decide immediately.
        for p, out in result.outputs.items():
            assert out == inputs[p]


# ---------------------------------------------------------------------------
# Event-loop byte identity: goldens captured on the filtered-pending-list
# loop that the deliverable pool replaced
# ---------------------------------------------------------------------------

#: (n, t) -> (inputs, eps, honest bits, honest messages, outputs digest);
#: all three are schedule-independent for these inputs.
GOLDEN_SHAPES = {
    (6, 1): ([100 * i for i in range(6)], 1, 184734, 5610,
             "94dd582fd2ef9e9f"),
    (11, 2): ([37 * i for i in range(11)], 2, 991287, 30096,
              "7a03ae9ff851d73d"),
}
GOLDEN_SCHEDULERS = {
    "fifo": FifoScheduler,
    "random": lambda: RandomScheduler(5),
    "delay0": lambda: TargetedDelayScheduler({0}, 5),
}
GOLDEN_ADVERSARIES = {
    "passive": dict,
    "garbage": lambda: dict(
        adversary=GarbageAsyncAdversary(budget=100, seed=3), guards=True
    ),
    # limits tight enough that most injections are quarantined, so the
    # log pins the sequence numbers (which count messages to corrupted
    # parties too).
    "garbage_tight": lambda: dict(
        adversary=GarbageAsyncAdversary(budget=100, seed=3),
        guards=WireLimits(max_message_bits=24, max_depth=1),
    ),
}
#: (n, t, scheduler, adversary) -> (deliveries, delivery-order digest,
#: quarantined count, quarantine_log digest).
GOLDEN = {
    (6, 1, "fifo", "passive"):
        (4675, "664d0fbc2fd992f1", 0, "4f53cda18c2baa0c"),
    (6, 1, "fifo", "garbage"):
        (4756, "d79d45dffcc1ea3c", 0, "4f53cda18c2baa0c"),
    (6, 1, "fifo", "garbage_tight"):
        (4741, "f62a02ed7e26ba39", 17, "bcd7a219d2e807df"),
    (6, 1, "random", "passive"):
        (4675, "6b0ad7ace83420d1", 0, "4f53cda18c2baa0c"),
    (6, 1, "random", "garbage"):
        (4756, "5fb67b7e6ef8779a", 0, "4f53cda18c2baa0c"),
    (6, 1, "random", "garbage_tight"):
        (4741, "afd2ab77079dcd0a", 17, "0e15c009e7401deb"),
    (6, 1, "delay0", "passive"):
        (4675, "eeb82076f304ab87", 0, "4f53cda18c2baa0c"),
    (6, 1, "delay0", "garbage"):
        (4756, "4ece0e11ac5f3aa1", 0, "4f53cda18c2baa0c"),
    (6, 1, "delay0", "garbage_tight"):
        (4741, "3a70fd0f2aa66a35", 17, "44675d273fede0f5"),
    (11, 2, "fifo", "passive"):
        (24624, "a3be2a3e291ea138", 0, "4f53cda18c2baa0c"),
    (11, 2, "fifo", "garbage"):
        (24696, "c52469faa39703ad", 0, "4f53cda18c2baa0c"),
    (11, 2, "fifo", "garbage_tight"):
        (24681, "4337f3f1eaf27ded", 18, "1e138caf63a19d58"),
    (11, 2, "random", "passive"):
        (24624, "cb919a12d1764464", 0, "4f53cda18c2baa0c"),
    (11, 2, "random", "garbage"):
        (24696, "9ee2ca21a9655693", 0, "4f53cda18c2baa0c"),
    (11, 2, "random", "garbage_tight"):
        (24681, "d125a7c7c0fc7f98", 18, "a7096334b3f9ef3f"),
    (11, 2, "delay0", "passive"):
        (24624, "7c9a4e4764c0cbe1", 0, "4f53cda18c2baa0c"),
    (11, 2, "delay0", "garbage"):
        (24696, "c84ff3a5d1b750fc", 0, "4f53cda18c2baa0c"),
    (11, 2, "delay0", "garbage_tight"):
        (24681, "abb2c6e86f8a95e1", 18, "dc05600ee99dd10c"),
}


def _short_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class RecordingAA(AsyncApproximateAgreement):
    """Async AA that hashes every delivery, in delivery order."""

    def __init__(self, ctx, v_in, epsilon, log):
        super().__init__(ctx, v_in, epsilon, BOUND)
        self._log = log

    def on_message(self, src, payload):
        self._log.update(f"{self.ctx.party_id}<{src}:{payload!r};".encode())
        super().on_message(src, payload)


@pytest.mark.parametrize(
    "case", sorted(GOLDEN), ids=lambda case: "/".join(map(str, case))
)
def test_event_loop_matches_golden(case):
    n, t, scheduler, adversary = case
    inputs, eps, bits, messages, outputs = GOLDEN_SHAPES[(n, t)]
    log = hashlib.sha256()
    net = AsyncNetwork(
        lambda ctx: RecordingAA(ctx, inputs[ctx.party_id], eps, log),
        n=n, t=t, scheduler=GOLDEN_SCHEDULERS[scheduler](),
        **GOLDEN_ADVERSARIES[adversary](),
    )
    result = net.run()
    assert (result.stats.honest_bits, result.stats.honest_messages) == (
        bits, messages
    )
    assert _short_digest(repr(sorted(result.outputs.items())).encode()) == (
        outputs
    )
    assert (
        result.deliveries,
        log.hexdigest()[:16],
        len(net.quarantine_log),
        _short_digest(repr(net.quarantine_log).encode()),
    ) == GOLDEN[case]


# ---------------------------------------------------------------------------
# The deliverable pool against the seed's choose() as a reference model
# ---------------------------------------------------------------------------


@dataclass
class SeedPending:
    """The seed's pool entry: every message sent, in send order."""

    seq: int
    src: int
    dst: int
    payload: Any


def seed_choose(kind, rng, victims, pending):
    """The seed's ``Scheduler.choose`` for each scheduler kind."""
    if kind == "fifo":
        return min(pending, key=lambda m: m.seq)
    if kind == "random":
        return rng.choice(pending)
    preferred = [
        m for m in pending if m.src not in victims and m.dst not in victims
    ]
    return rng.choice(preferred or pending)


class Sink(AsyncParty):
    def on_message(self, src, payload):
        pass


POOL_OPS = st.lists(
    st.tuples(
        st.sampled_from(["send", "broadcast", "pop"]),
        st.integers(0, 7),
        st.integers(0, 7),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["fifo", "random", "delay"]),
    n=st.integers(4, 8),
    seed=st.integers(0, 2**16),
    victims=st.sets(st.integers(0, 7), max_size=3),
    ops=POOL_OPS,
)
def test_pool_pops_like_seed_choose(kind, n, seed, victims, ops):
    scheduler = {
        "fifo": FifoScheduler,
        "random": lambda: RandomScheduler(seed),
        "delay": lambda: TargetedDelayScheduler(victims, seed),
    }[kind]()
    net = AsyncNetwork(Sink, n=n, t=(n - 1) // 3, scheduler=scheduler)
    rng = random.Random(seed)
    pending: list[SeedPending] = []
    sent = 0

    def pop():
        deliverable = [m for m in pending if m.dst not in net.corrupted]
        taken = net._take()
        if not deliverable:
            assert taken is None
            return False
        expected = seed_choose(kind, rng, victims, deliverable)
        pending.remove(expected)
        assert taken == (expected.src, expected.dst, expected.payload)
        return True

    for index, (op, a, b) in enumerate(ops):
        if op == "pop":
            pop()
            continue
        src = a % n
        dsts = range(n) if op == "broadcast" else (b % n,)
        payload = ("op", index)
        for dst in dsts:
            pending.append(SeedPending(sent, src, dst, payload))
            sent += 1
        if src in net.corrupted:
            for dst in dsts:
                net._inject(src, dst, payload)
        else:
            net._send(src, dsts, payload)
    while pop():
        pass
    assert net._seq == sent
