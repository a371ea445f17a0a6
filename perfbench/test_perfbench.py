"""Unit tests for the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.protocol_z import protocol_z  # noqa: E402
from repro.perf import counters  # noqa: E402
from repro.sim.network import SynchronousNetwork  # noqa: E402
from repro.sim.party import Outgoing  # noqa: E402
from repro.sim.runner import run_protocol  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import (  # noqa: E402
    PAPER_LAYERS,
    TimedGenerator,
    Tracer,
    fold_channel,
    instrument,
    timed_factory,
)


@pytest.mark.parametrize(
    "channel, layer",
    [
        ("piZ/sign/ph0/exch", "ba"),
        ("piZ/nat/class/ph2/king", "ba"),
        ("piZ/nat/bsize/p1/vote", "high_cost_ca"),
        ("piZ/nat/flca/fp/i3/root/input", "ba_plus"),
        ("piZ/nat/flca/fp/i3/root/ba_a/ph1/prop", "ba"),
        ("piZ/nat/flca/fp/i3/dist/r2", "lba_plus"),
        ("piZ/nat/flcab/al/hc/interval", "high_cost_ca"),
        ("piZ/nat/flca/go/announce", "get_output"),
        ("piZ/nat/flca/al/ba/ph0/exch", "ba"),
        ("bcast/disperse", "other"),
    ],
)
def test_fold_takes_innermost_recognised_segment(channel, layer):
    assert fold_channel(channel) == layer


def _traced_pi_z(n: int = 7, t: int = 2):
    inputs = workloads.spread_values(workloads.random.Random(7), n, t, 64)
    tracer = Tracer()
    counters.reset()
    with instrument(tracer):
        execution = run_protocol(
            timed_factory(lambda ctx, v: protocol_z(ctx, v), tracer),
            inputs,
            n=n,
            t=t,
            kappa=128,
            trace=True,
        )
    return inputs, tracer, execution, counters.snapshot()


def test_layer_rows_sum_exactly_on_traced_pi_z():
    _, tracer, execution, _ = _traced_pi_z()
    stats = execution.stats
    assert set(tracer.layer_bits) <= set(PAPER_LAYERS)
    assert sum(tracer.layer_bits.values()) == stats.honest_bits
    assert sum(tracer.layer_rounds.values()) == stats.rounds
    assert tracer.layer_rounds["other"] == 0
    # Phase-King PI_BA owns most rounds of a short-value PI_Z run.
    assert tracer.layer_rounds["ba"] > stats.rounds / 2


def test_tracing_is_transparent_on_pi_z():
    inputs, tracer, traced, traced_ops = _traced_pi_z()
    counters.reset()
    plain = run_protocol(
        lambda ctx, v: protocol_z(ctx, v), inputs, n=7, t=2, kappa=128
    )
    assert traced.outputs == plain.outputs
    assert traced.stats.honest_bits == plain.stats.honest_bits
    assert traced.stats.rounds == plain.stats.rounds
    assert traced_ops == counters.snapshot()


def test_self_times_partition_the_root_span():
    _, tracer, _, _ = _traced_pi_z()
    self_ns = tracer.self_ns()
    roots = [
        tracer.end[i] - tracer.start[i]
        for i in range(len(tracer.start))
        if tracer.parent[i] < 0
    ]
    assert sum(self_ns.values()) == sum(roots)
    assert all(value >= 0 for value in self_ns.values())


def test_instrument_restores_every_binding():
    before = SynchronousNetwork.run
    with instrument(Tracer()):
        assert SynchronousNetwork.run is not before
    assert SynchronousNetwork.run is before


def _echo():
    """Yields Outgoing bundles, echoes what it is sent, survives a throw."""
    received = []
    try:
        received.append((yield Outgoing("piZ/sign/ph0/exch")))
    except KeyError as error:
        received.append(("thrown", error.args))
    received.append((yield Outgoing("piZ/nat/flca/fp/i0/dist/r1")))
    return received


def test_proxy_forwards_send_throw_and_return():
    tracer = Tracer()
    proxy = TimedGenerator(_echo(), tracer)
    first = next(proxy)
    assert first.channel == "piZ/sign/ph0/exch"
    second = proxy.throw(KeyError("x"))
    assert second.channel.endswith("dist/r1")
    with pytest.raises(StopIteration) as stop:
        proxy.send({1: "inbox"})
    assert stop.value.value == [("thrown", ("x",)), {1: "inbox"}]
    layers = [tracer.layers[i] for i in tracer.name]
    # The last resume returns instead of yielding: it is charged to the
    # layer of the last channel the party yielded.
    assert layers == ["ba", "lba_plus", "lba_plus"]
    assert not tracer._stack


def test_proxy_close_reaches_the_generator():
    closed = []

    def gen():
        try:
            yield Outgoing("pk/ph0/exch")
        finally:
            closed.append(True)

    proxy = TimedGenerator(gen(), Tracer())
    next(proxy)
    proxy.close()
    assert closed == [True]


@pytest.mark.parametrize(
    "count, percentile, value",
    [
        (1000, 99.0, 990.0),
        (100, 90.0, 90.0),
        (60, 75.0, 45.0),
        (19, 50.0, 10.0),
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(count, percentile, value):
    samples = [float(i) for i in range(1, count + 1)]
    assert run.tail_percentile(samples) == (percentile, value)
    beyond = sum(1 for s in samples if s > value)
    assert beyond >= 10 or percentile == 50.0


def test_decks_are_pure_functions_of_the_seed():
    for name in ("short_value", "long_value", "async_aa"):
        workload = workloads.WORKLOADS[name]
        assert workload.deck(3, 5) == workload.deck(3, 5)
        assert workload.deck(3, 5) != workload.deck(4, 5)


def test_ca_verdict_rejects_an_output_outside_the_hull():
    class Stats:
        honest_bits = rounds = 0

    class Execution:
        corrupted = frozenset({3})
        outputs = {0: 5, 1: 5, 2: 5}
        stats = Stats()

    instance = workloads.CaInstance(4, 1, (1, 2, 3, 99))
    assert workloads.judge_ca(instance, Execution()).verdict == "fail"
    Execution.outputs = {0: 2, 1: 2, 2: 2}
    assert workloads.judge_ca(instance, Execution()).verdict == "ok"
    Execution.outputs = {0: 2, 1: 3, 2: 2}
    assert workloads.judge_ca(instance, Execution()).verdict == "fail"


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, section, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = ["--workload", "short_value", "--seed", "5", "--seconds", "0.1"]
    assert run.main(argv + ["--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {metric["name"]: metric["unit"] for metric in spec[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
