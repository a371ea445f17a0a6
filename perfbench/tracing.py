"""Layer tracing for the benchmark, recorded from outside the program.

Nothing here edits the program: the traced run rebinds a fixed list of
public functions and methods (at their import sites) to thin wrappers
that open and close a span, and wraps every party generator in a
:class:`TimedGenerator` proxy.  :func:`instrument` installs the
wrappers and restores the originals on exit.

A span is ``(layer, start, end, parent span, instance id)``; spans are
kept in flat arrays in memory and written out when the run ends.  A
layer's self time is the sum over its spans of the span's duration
minus the durations of its direct children.

Paper layers are derived from channel labels.  Channel labels are
hierarchical (``piZ/nat/flca/fp/i3/root/ba_a/ph1/prop``) and lockstep
gives each round exactly one honest channel, so every round, and every
generator resume, belongs to the innermost label segment that
:data:`SEGMENT_LAYERS` recognises.
"""

from __future__ import annotations

import functools
import json
import re
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: Paper layers in stack order, then the catch-all for channels of
#: protocols outside the paper stack (baselines in the chaos mix).
PAPER_LAYERS = (
    "pi_z",
    "pi_n",
    "find_prefix",
    "add_last",
    "get_output",
    "high_cost_ca",
    "lba_plus",
    "ba_plus",
    "ba",
    "other",
)

#: Label segment -> paper layer.  ``root`` is the segment ``PI_lBA+``
#: gives its ``PI_BA+`` call on the Merkle root, so the ``input`` and
#: ``vote`` rounds under it belong to ``ba_plus``; ``i<k>`` (one
#: ``PI_lBA+`` instance per FindPrefix iteration) and its ``dist``
#: rounds belong to ``lba_plus``; ``bsize`` is ``PI_N``'s HighCostCA on
#: the block size; every Phase-King phase ``ph<k>`` is ``PI_BA``.
SEGMENT_LAYERS = (
    (re.compile(r"piZ"), "pi_z"),
    (re.compile(r"piN|nat"), "pi_n"),
    (re.compile(r"fpb?"), "find_prefix"),
    (re.compile(r"al|alb|albk"), "add_last"),
    (re.compile(r"go"), "get_output"),
    (re.compile(r"hc|bsize"), "high_cost_ca"),
    (re.compile(r"lba\+|i\d+|dist"), "lba_plus"),
    (re.compile(r"ba\+|root"), "ba_plus"),
    (re.compile(r"pk|tc|ph\d+"), "ba"),
)


def fold_channel(channel: str) -> str:
    """The paper layer owning ``channel``: its innermost known segment."""
    layer = "other"
    for segment in channel.split("/"):
        for pattern, name in SEGMENT_LAYERS:
            if pattern.fullmatch(segment):
                layer = name
                break
    return layer


class Tracer:
    """In-memory span store plus the counts gathered at layer boundaries."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.instance = array("l")
        self._stack: list[int] = []
        #: instance id stamped on every span opened from now on.
        self.current_instance = -1
        #: paper-layer bits and rounds folded from round records.
        self.layer_bits: Counter[str] = Counter()
        self.layer_rounds: Counter[str] = Counter()
        #: boundary counts (transport slots, async deliveries, ...).
        self.counts: Counter[str] = Counter()
        self._fold_cache: dict[str, int] = {}

    def layer_id(self, layer: str) -> int:
        found = self._layer_ids.get(layer)
        if found is None:
            found = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return found

    def channel_layer_id(self, channel: str) -> int:
        found = self._fold_cache.get(channel)
        if found is None:
            found = self._fold_cache[channel] = self.layer_id(
                fold_channel(channel)
            )
        return found

    def open(self, layer_id: int) -> int:
        index = len(self.start)
        self.name.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance.append(self.current_instance)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int, layer_id: int | None = None) -> None:
        self.end[index] = time.perf_counter_ns()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        if layer_id is not None:
            self.name[index] = layer_id

    def fold_rounds(self, records) -> None:
        """Charge each round record's honest bits to its paper layer."""
        for record in records:
            layer = self.layers[self.channel_layer_id(record.channel)]
            self.layer_bits[layer] += record.honest_bits
            self.layer_rounds[layer] += 1

    def self_ns(self) -> dict[str, int]:
        """Self time per layer: span durations minus direct children."""
        start, end, parent = self.start, self.end, self.parent
        children = [0] * len(start)
        for index in range(len(start)):
            up = parent[index]
            if up >= 0:
                children[up] += end[index] - start[index]
        totals = [0] * len(self.layers)
        for index, layer_id in enumerate(self.name):
            totals[layer_id] += end[index] - start[index] - children[index]
        return dict(zip(self.layers, totals))

    def total_ns(self) -> dict[str, int]:
        """Wall time per layer: its spans not nested in a span of its own."""
        name, start, end, parent = self.name, self.start, self.end, self.parent
        totals = [0] * len(self.layers)
        for index, layer_id in enumerate(name):
            up = parent[index]
            if up < 0 or name[up] != layer_id:
                totals[layer_id] += end[index] - start[index]
        return dict(zip(self.layers, totals))

    def write(self, stem: Path) -> None:
        """Write the spans as ``<stem>.json`` (layout) + ``<stem>.bin``."""
        columns = ("name", "start", "end", "parent", "instance")
        with open(f"{stem}.bin", "wb") as handle:
            for column in columns:
                getattr(self, column).tofile(handle)
        layout = {
            "spans": len(self.start),
            "layers": self.layers,
            "columns": [
                [column, getattr(self, column).typecode]
                for column in columns
            ],
            "clock": "time.perf_counter_ns",
        }
        Path(f"{stem}.json").write_text(json.dumps(layout, indent=1))


class TimedGenerator:
    """Transparent proxy over a party generator that times each resume.

    Each resume is one span, charged to the paper layer of the channel
    the resume yields (the final resume, which returns instead, goes to
    the last layer yielded).  ``send``, ``throw`` and ``close`` are
    forwarded unchanged, and the generator's return value travels on
    the re-raised ``StopIteration``.
    """

    __slots__ = ("_gen", "_tracer", "_layer_id")

    def __init__(self, gen, tracer: Tracer) -> None:
        self._gen = gen
        self._tracer = tracer
        self._layer_id = tracer.layer_id("other")

    def __iter__(self) -> "TimedGenerator":
        return self

    def __next__(self):
        return self._resume(self._gen.send, None)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *args):
        return self._resume(self._gen.throw, *args)

    def close(self) -> None:
        self._gen.close()

    def _resume(self, step: Callable, *args):
        tracer = self._tracer
        span = tracer.open(self._layer_id)
        try:
            outgoing = step(*args)
        except BaseException:
            tracer.close(span)
            raise
        channel = getattr(outgoing, "channel", None)
        if channel is not None:
            self._layer_id = tracer.channel_layer_id(channel)
        tracer.close(span, self._layer_id)
        return outgoing


def timed_factory(factory: Callable, tracer: Tracer) -> Callable:
    """Wrap a ``(ctx, input) -> generator`` factory's generators."""

    def build(ctx, value):
        return TimedGenerator(factory(ctx, value), tracer)

    return build


def _spanned(
    fn: Callable, layer_id: int, tracer: Tracer, after: Callable | None
) -> Callable:
    """``fn`` inside one span; ``after(self, result)`` runs once it closes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(layer_id)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(span)
            if after is not None:
                after(args[0], result)

    return wrapper


def _own_methods(base: type, names: tuple[str, ...]):
    """``(class, method)`` pairs defined by ``base`` or its repro subclasses."""
    seen: set[type] = set()
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        if not cls.__module__.startswith("repro."):
            continue
        for name in names:
            if name in cls.__dict__:
                yield cls, name


def _targets(tracer: Tracer) -> list[tuple[Any, str, str, Callable | None]]:
    """``(owner, attribute, layer, after-hook)`` for every traced call."""
    import repro.sim.fuzz  # noqa: F401  (loads every adversary family)
    from repro.asynchrony import network as async_network
    from repro.asynchrony.network import (
        AsyncAdversary,
        AsyncNetwork,
        AsyncParty,
    )
    from repro.coding.gf import BinaryField
    from repro.coding.reed_solomon import ReedSolomonCode
    from repro.crypto import merkle
    from repro.sim import lossy, wire
    from repro.sim import network as sync_network
    from repro.sim.adversary import Adversary
    from repro.sim.invariants import InvariantMonitor
    from repro.sim.lossy import LossyTransport
    from repro.sim.network import SynchronousNetwork
    from repro.sim.recovery import RecoveryManager

    def network_done(network, _result) -> None:
        if network.trace is not None:
            tracer.fold_rounds(network.trace)
        if network.transport is not None:
            stats = network.stats
            tracer.counts["transport_slots"] += stats.transport_slots
            tracer.counts["transport_rounds"] += stats.rounds
            tracer.counts["transport_overhead_bits"] += (
                stats.resilience_overhead_bits
            )

    def async_done(_network, result) -> None:
        if result is not None:
            tracer.counts["async_deliveries"] += result.deliveries

    targets: list[tuple[Any, str, str, Callable | None]] = [
        (SynchronousNetwork, "run", "sim.network", network_done),
        (sync_network, "bit_size", "sim.sizing", None),
        (lossy, "bit_size", "sim.sizing", None),
        (async_network, "bit_size", "sim.sizing", None),
        (wire, "measure_payload", "sim.sizing", None),
        (ReedSolomonCode, "encode", "coding", None),
        (ReedSolomonCode, "decode", "coding", None),
        (BinaryField, "matmul", "coding", None),
        (BinaryField, "mul_vec", "coding", None),
        (merkle, "build", "crypto", None),
        (merkle, "verify", "crypto", None),
        (merkle, "hash_leaves", "crypto", None),
        (merkle, "hash_pair_level", "crypto", None),
        (RecoveryManager, "log_round", "sim.recovery", None),
        (RecoveryManager, "park", "sim.recovery", None),
        (RecoveryManager, "recover", "sim.recovery", None),
        (AsyncNetwork, "run", "asynchrony", async_done),
    ]
    families = (
        (LossyTransport, ("synchronize",), "sim.transport"),
        (
            Adversary,
            ("select_corruptions", "deliver", "adapt", "crash_restarts"),
            "sim.adversary",
        ),
        (AsyncAdversary, ("select_corruptions", "inject"), "sim.adversary"),
        (
            InvariantMonitor,
            ("on_start", "on_round", "on_finish"),
            "sim.invariants",
        ),
        (AsyncParty, ("start", "on_message"), "asynchrony.handler"),
    )
    for base, names, layer in families:
        for cls, name in _own_methods(base, names):
            targets.append((cls, name, layer, None))
    return targets


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install every span wrapper for the duration of the block."""
    saved = []
    try:
        for owner, attr, layer, after in _targets(tracer):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(
                owner,
                attr,
                _spanned(original, tracer.layer_id(layer), tracer, after),
            )
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
