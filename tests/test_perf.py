"""The hot-path acceleration layer (``repro.perf``).

Two contracts under test:

1. **Correctness neutrality**: every cache (execution-scoped RS-encode +
   Merkle-forest memo, decode-matrix reuse, memoized ``wire_bits``) and
   the zero-fault network fast path are byte-for-byte invisible --
   identical outputs, ``CommunicationStats``, channel traces, and round
   traces with the caches on or off, fast path or general path, honest
   or byzantine runs.  Byzantine garbage must never poison an honest
   party's cache.
2. **Deterministic observability**: the operation counters are pure
   functions of the executed config (reproducible across runs once the
   process-level memos are cleared), and the ``repro profile`` document
   diffs cleanly against itself.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.analysis.experiments import make_inputs, measure
from repro.ba.distribution import _encode_and_build, encode_and_accumulate
from repro.coding.reed_solomon import ReedSolomonCode
from repro.core.fixed_length import fixed_length_ca
from repro.crypto import merkle
from repro.errors import CodingError, SimulationError
from repro.perf import config, counters
from repro.perf.profile import (
    ASYNC_CONFIGS,
    QUICK_CONFIGS,
    _run_async_config,
    async_key,
    check_counters,
    config_key,
    hotpath_document,
    load_document,
)
from repro.sim.adversary import PassiveAdversary, RandomGarbageAdversary
from repro.sim.fuzz import standard_registry
from repro.sim.network import SynchronousNetwork
from repro.sim.party import Context, broadcast_round
from repro.sim.runner import run_protocol


def _run_fixed(ell=2048, *, adversary=None, recovery=None, seed=4):
    inputs = make_inputs(7, ell, seed=seed, spread="clustered")
    return run_protocol(
        lambda ctx, v: fixed_length_ca(ctx, v, ell),
        inputs,
        n=7,
        t=2,
        adversary=adversary,
        trace=True,
        recovery=recovery,
    )


def _comparable(result):
    """Everything observable about an execution except wall time."""
    return (
        result.outputs,
        result.corrupted,
        result.channel_trace,
        result.trace,
        dataclasses.replace(result.stats, wall_s=0.0),
    )


# -- correctness neutrality ------------------------------------------------


def test_caches_do_not_change_any_observable_byte():
    with config.caches(True):
        warm = _run_fixed()
    with config.caches(False):
        cold = _run_fixed()
    assert _comparable(warm) == _comparable(cold)


def test_caches_neutral_under_byzantine_garbage():
    with config.caches(True):
        warm = _run_fixed(adversary=RandomGarbageAdversary(seed=11))
    with config.caches(False):
        cold = _run_fixed(adversary=RandomGarbageAdversary(seed=11))
    assert _comparable(warm) == _comparable(cold)


class _SpecFollowingCorruptions(PassiveAdversary):
    """Spec-following, but as a subclass: arms the adversary stage."""


def test_fast_path_matches_general_path():
    """Skipping the adversary stage is byte-identical to running it.

    ``recovery=True`` arms the WAL plane and a PassiveAdversary
    subclass arms the adversary and guard stage; both must match the
    bare run in outputs, stats, traces and operation counters.
    """
    fast = _run_fixed()
    slow = _run_fixed(recovery=True)
    assert _comparable(fast) == _comparable(slow)

    registry = standard_registry()
    for name in sorted(registry):
        spec = registry[name]
        for n, t in ((4, 1), (7, 2)):
            ell = spec.ell_for(n, 16)
            inputs = make_inputs(n, ell, seed=2, spread="spread")
            runs = []
            for adversary_cls in (PassiveAdversary, _SpecFollowingCorruptions):
                network = SynchronousNetwork(
                    spec.build(ell), inputs, n=n, t=t,
                    adversary=adversary_cls(seed=0), trace=True,
                )
                assert network._adversary_stage == (
                    adversary_cls is _SpecFollowingCorruptions
                )
                config.reset_process_caches()
                with counters.capture() as counts:
                    result = network.run()
                runs.append((_comparable(result), counts))
            assert runs[0] == runs[1], (name, n, t)


def test_fast_path_flag():
    def factory(ctx, v):
        return fixed_length_ca(ctx, v, 16)

    inputs = make_inputs(4, 16, seed=0)
    assert not SynchronousNetwork(factory, inputs, n=4, t=1)._adversary_stage
    assert SynchronousNetwork(
        factory, inputs, n=4, t=1, adversary=RandomGarbageAdversary(seed=0)
    )._adversary_stage
    assert SynchronousNetwork(
        factory, inputs, n=4, t=1, recovery=True
    )._adversary_stage


GRID = [(4, 1), (7, 2), (10, 3)]


def _order_probe(ctx, v):
    """Record the exact inbox key order for a few rounds."""
    orders = []
    for _ in range(4):
        inbox = yield from broadcast_round(ctx, "probe", (v, ctx.party_id))
        orders.append(tuple(inbox))
    return tuple(orders)


@pytest.mark.parametrize("n,t", GRID)
@pytest.mark.parametrize("backend", config.available_backends())
def test_arena_inbox_order_matches_general_path(backend, n, t):
    """Plain runs (arena inboxes) vs the WAL-forced general path."""
    with config.use_backend(backend):
        inputs = list(range(n))
        fast = run_protocol(_order_probe, inputs, n=n, t=t)
        slow = run_protocol(_order_probe, inputs, n=n, t=t, recovery=True)
    # The outputs ARE the observed insertion orders, per party per round.
    assert fast.outputs == slow.outputs
    assert dataclasses.replace(
        fast.stats, wall_s=0.0
    ) == dataclasses.replace(slow.stats, wall_s=0.0)


@pytest.mark.parametrize("n,t", GRID)
@pytest.mark.parametrize("backend", config.available_backends())
def test_plain_run_matches_general_path_full_protocol(backend, n, t):
    with config.use_backend(backend):
        inputs = make_inputs(n, 96, seed=3, spread="spread")

        def factory(ctx, v):
            return fixed_length_ca(ctx, v, 96)

        fast = run_protocol(factory, inputs, n=n, t=t)
        slow = run_protocol(factory, inputs, n=n, t=t, recovery=True)
    assert fast.outputs == slow.outputs
    assert fast.channel_trace == slow.channel_trace
    assert dataclasses.replace(
        fast.stats, wall_s=0.0
    ) == dataclasses.replace(slow.stats, wall_s=0.0)


def test_arena_active_only_on_plain_runs():
    def factory(ctx, v):
        return fixed_length_ca(ctx, v, 16)

    inputs = make_inputs(4, 16, seed=0)
    plain = SynchronousNetwork(factory, inputs, n=4, t=1)
    assert plain._arena is not None
    traced = SynchronousNetwork(factory, inputs, n=4, t=1, trace=True)
    assert traced._arena is None
    walled = SynchronousNetwork(factory, inputs, n=4, t=1, recovery=True)
    assert walled._arena is None


def test_sched_counters_account_one_execution():
    inputs = make_inputs(4, 32, seed=1)
    with counters.capture() as counts:
        run_protocol(
            lambda ctx, v: fixed_length_ca(ctx, v, 32), inputs, n=4, t=1
        )
    assert counts["sched_instances"] == 1
    # Every executed round is one scheduler step; net_rounds only
    # counts rounds with actual traffic, so sched_rounds bounds it.
    assert counts["sched_rounds"] >= counts["net_rounds"] > 0
    # Resumes are per-party per-round, minus finished/down parties.
    assert counts["sched_resumes"] >= counts["sched_rounds"]


def test_round_budget_admits_an_execution_that_fits():
    """A run with ``r`` traffic rounds fits ``max_rounds = r + 1``.

    Its last loop iteration only collects the parties' returns, so it
    needs ``r + 1`` iterations; the budget check must come after the
    check that every honest party has finished, not before it.
    """
    inputs = [3, 5, 7, 9]

    def factory(ctx, v):
        return fixed_length_ca(ctx, v, 16)

    unbounded = run_protocol(factory, inputs, n=4, t=1)
    used = unbounded.stats.rounds
    fits = run_protocol(factory, inputs, n=4, t=1, max_rounds=used + 1)
    assert fits.outputs == unbounded.outputs
    assert fits.stats.rounds == used
    with pytest.raises(SimulationError, match=f"within {used} rounds"):
        run_protocol(factory, inputs, n=4, t=1, max_rounds=used)


# -- cache poisoning -------------------------------------------------------


def test_garbled_payloads_cannot_poison_the_encode_cache():
    """The memo maps a payload to *its own* encoding only."""
    ctx = Context(party_id=0, n=4, t=1)
    honest = b"honest value bytes"
    garbled = b"byzantine garbage!"
    with config.caches(True):
        # Garbage first: whatever a byzantine sender makes us decode and
        # re-encode lands under *its* key, not the honest payload's.
        _encode_and_build(ctx, garbled)
        _, shares, root, _ = encode_and_accumulate(ctx, honest)
    with config.caches(False):
        _, ref_shares, ref_root, _ = encode_and_accumulate(ctx, honest)
    assert shares == ref_shares
    assert root == ref_root
    # Distinct payloads occupy distinct entries.
    keys = {key for key in ctx.cache if key[0] == "rs+mt"}
    assert len(keys) == 2


def test_encode_cache_is_execution_scoped():
    a = Context(party_id=0, n=4, t=1)
    b = Context(party_id=0, n=4, t=1)
    with config.caches(True):
        _encode_and_build(a, b"payload")
    assert a.cache and not b.cache
    # cache contents never affect Context identity.
    assert a == b


def test_decode_matrix_cache_survives_garbled_shares():
    code = ReedSolomonCode(5, 3)
    shares = code.encode(b"some value to protect")
    subset = {0: shares[0], 2: shares[2], 4: shares[4]}
    with config.caches(True):
        assert code.decode(subset) == b"some value to protect"
        # Same index set, garbled contents: the cached inverse depends
        # only on the indices, so decoding still inverts correctly and
        # the re-encode check upstream rejects the junk value.
        garbled = dict(subset)
        garbled[2] = bytes(len(shares[2]))
        try:
            junk = code.decode(garbled)
        except CodingError:
            pass  # junk framing is rejected outright -- equally fine
        else:
            assert junk != b"some value to protect"
        # The honest subset still decodes through the cached matrix.
        assert code.decode(subset) == b"some value to protect"


def test_decode_matrix_cached_per_index_tuple():
    # The decode-matrix memo is process-wide; start from a cold cache so
    # a decode earlier in the test session cannot pre-warm this key.
    config.reset_process_caches()
    code = ReedSolomonCode(5, 3)
    shares = code.encode(b"abc")
    subset = {0: shares[0], 1: shares[1], 3: shares[3]}
    with config.caches(True):
        with counters.capture() as first:
            code.decode(subset)
        with counters.capture() as second:
            code.decode(subset)
    assert first.get("gf_matrix_invert", 0) == 1
    assert second.get("gf_matrix_invert", 0) == 0
    with config.caches(False):
        with counters.capture() as uncached:
            code.decode(subset)
    assert uncached.get("gf_matrix_invert", 0) == 1


def test_decode_matrix_cache_lru_eviction(monkeypatch):
    from repro.coding import reed_solomon as rs

    config.reset_process_caches()
    monkeypatch.setattr(rs, "_DECODE_MATRIX_CACHE_MAX", 2)
    code = ReedSolomonCode(5, 3)
    shares = code.encode(b"abc")

    def decode(indices) -> int:
        """Decode from the given share indices; inversions performed."""
        subset = {i: shares[i] for i in indices}
        with counters.capture() as counts:
            assert code.decode(subset) == b"abc"
        return counts.get("gf_matrix_invert", 0)

    with config.caches(True):
        assert decode((0, 1, 2)) == 1
        assert decode((0, 1, 3)) == 1
        # Touch the oldest entry: it becomes most recently used.
        assert decode((0, 1, 2)) == 0
        # At capacity, a new key evicts the true LRU -- (0,1,3), not
        # the refreshed (0,1,2).
        assert decode((0, 1, 4)) == 1
        assert decode((0, 1, 2)) == 0
        assert decode((0, 1, 3)) == 1
    assert len(rs._DECODE_MATRIX_CACHE) == 2
    rs.clear_decode_matrix_cache()
    assert len(rs._DECODE_MATRIX_CACHE) == 0


# -- memoized wire_bits ----------------------------------------------------


def test_merkle_witness_wire_bits_memoized():
    _, witnesses = merkle.build(128, [b"a", b"b", b"c"])
    witness = witnesses[0]
    assert witness._wire_bits_memo is None
    first = witness.wire_bits()
    assert witness._wire_bits_memo == first
    assert witness.wire_bits() == first
    # slots=True: the memo lives in a declared slot, not a __dict__.
    assert not hasattr(witness, "__dict__")
    assert witness == type(witness)(
        index=witness.index, siblings=witness.siblings
    )


def test_merkle_roundtrip_and_defensive_verify():
    root, witnesses = merkle.build(128, [b"x", b"y", b"z"])
    assert merkle.verify(128, root, 1, b"y", witnesses[1])
    assert not merkle.verify(128, root, 1, b"wrong", witnesses[1])
    assert not merkle.verify(128, root, 1, b"y", "not a witness")


# -- deterministic counters ------------------------------------------------


def test_counters_deterministic_across_runs():
    def run_once():
        config.reset_process_caches()
        counters.reset()
        measure("fixed_length_ca", 4, 1, 256, seed=0, spread="spread")
        return counters.snapshot()

    first, second = run_once(), run_once()
    assert first == second
    assert first["net_rounds"] > 0
    assert first["rs_encode"] > 0
    assert first["sha256"] > 0


def test_capture_reports_block_deltas():
    with counters.capture() as ops:
        counters.bump("example", 3)
        with counters.capture() as inner:
            counters.bump("example")
    assert inner == {"example": 1}
    assert ops == {"example": 4}


def test_rs_decode_raises_on_malformed_share_sets():
    code = ReedSolomonCode(5, 3)
    shares = code.encode(b"value")
    with pytest.raises(CodingError):
        code.decode({0: shares[0]})
    with pytest.raises(CodingError):
        code.decode({0: shares[0], 1: shares[1][:-1], 2: shares[2]})


# -- the profile document --------------------------------------------------


def test_hotpath_document_self_checks_clean():
    tiny = [dict(QUICK_CONFIGS[0])]
    doc = hotpath_document(cprofile=False, configs=tiny)
    key = config_key(tiny[0])
    assert key in doc["deterministic"]
    assert doc["deterministic"][key]["counters"]["net_rounds"] > 0
    errors, notes = check_counters(doc, doc)
    assert errors == [] and notes == []


def test_check_counters_flags_regressions_and_improvements():
    tiny = [dict(QUICK_CONFIGS[0])]
    doc = hotpath_document(cprofile=False, configs=tiny)
    key = config_key(tiny[0])
    worse = {
        "deterministic": {
            key: {
                **doc["deterministic"][key],
                "counters": {
                    **doc["deterministic"][key]["counters"],
                    "sha256":
                        doc["deterministic"][key]["counters"]["sha256"] + 1,
                },
            }
        }
    }
    errors, _ = check_counters(worse, doc)
    assert any("sha256 regressed" in e for e in errors)
    improved, notes = check_counters(doc, worse)
    assert improved == []
    assert any("sha256 improved" in n for n in notes)


def test_async_entry_matches_committed_baseline():
    baseline = load_document(
        str(Path(__file__).resolve().parent.parent
            / "benchmarks" / "BENCH_hotpath.json")
    )
    cfg = ASYNC_CONFIGS[0]
    key = async_key(cfg)
    entry, _ = _run_async_config(cfg)
    assert entry == baseline["deterministic"][key]
    shifted = {"deterministic": {
        key: {**entry, "rounds": entry["rounds"] + 1}
    }}
    errors, _ = check_counters(shifted, baseline)
    assert any("rounds changed" in e for e in errors)
