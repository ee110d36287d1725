"""Vector-kernel equivalence tests (``repro.core.kernels``).

The vector batch-ingest kernel is licensed to change *nothing* but
wall-clock time: for any input stream it must leave bit-identical store
state and bit-identical :class:`AccessStats` versus the scalar
reference.  Every test here drives the same operation stream through a
scalar store and a vector store and asserts total equality — contents,
counters, block layout, and a clean full fsck.

``tests/test_differential.py`` extends the same idea to randomized
streams against external oracles (STINGER, dict-of-dicts).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GTConfig
from repro.core.graphtinker import GraphTinker
from repro.core.hashing import (
    initial_bucket,
    initial_bucket_array,
    subblock_index,
    subblock_index_array,
)
from repro.core.store import store_digest
from repro.workloads import rmat_edges

SMALL = dict(pagewidth=16, subblock=8, workblock=4, max_generations=64)
#: Four-cell Subblocks: a few dozen edges of one source already sit at
#: generation 2 and deeper.
TINY = dict(pagewidth=8, subblock=4, workblock=2, max_generations=64)


def assert_equivalent(scalar: GraphTinker, vector: GraphTinker) -> None:
    """Total-state equality: counters, contents, layout, invariants."""
    sa, sb = scalar.stats.as_dict(), vector.stats.as_dict()
    assert sa == sb, {k: (sa[k], sb[k]) for k in sa if sa[k] != sb[k]}
    assert scalar.n_edges == vector.n_edges
    assert scalar.memory_blocks() == vector.memory_blocks()
    s1, d1, w1 = scalar.edge_arrays()
    s2, d2, w2 = vector.edge_arrays()
    assert (sorted(zip(s1.tolist(), d1.tolist(), w1.tolist()))
            == sorted(zip(s2.tolist(), d2.tolist(), w2.tolist())))
    report = vector.fsck(level="full")
    assert report.ok, report.summary()
    assert scalar.fsck(level="full").ok


def run_pair(cfg: GTConfig, ops) -> tuple[GraphTinker, GraphTinker]:
    """Apply ``ops`` (list of ("insert"|"delete", edges[, weights])) to a
    scalar-kernel store and a vector-kernel store; return both."""
    stores = []
    for kernel in ("scalar", "vector"):
        gt = GraphTinker(cfg.with_(kernel=kernel))
        for op in ops:
            if op[0] == "insert":
                _, edges, weights = op
                gt.insert_batch(edges, weights)
            else:
                gt.delete_batch(op[1])
        stores.append(gt)
    return stores[0], stores[1]


def churn_ops(seed: int, rounds: int = 4, nv: int = 150):
    """A duplicate-heavy insert/delete stream (deterministic per seed)."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(rounds):
        n = int(rng.integers(80, 400))
        batch = np.column_stack(
            [rng.integers(0, nv, n), rng.integers(0, nv // 3, n)]
        ).astype(np.int64)
        ops.append(("insert", batch, rng.random(n)))
        nd = int(rng.integers(40, 200))
        ops.append(("delete", np.column_stack(
            [rng.integers(0, nv, nd), rng.integers(0, nv // 3, nd)]
        ).astype(np.int64)))
    return ops


class TestStreamEquivalence:
    @pytest.mark.parametrize("nbatches", [1, 4])
    def test_rmat_insert(self, nbatches):
        edges = rmat_edges(12, 8_000, seed=11)
        weights = np.random.default_rng(5).random(edges.shape[0])
        step = edges.shape[0] // nbatches
        ops = [("insert", edges[i:i + step], weights[i:i + step])
               for i in range(0, edges.shape[0], step)]
        assert_equivalent(*run_pair(GTConfig(), ops))

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_churn(self, seed):
        assert_equivalent(*run_pair(GTConfig(**SMALL), churn_ops(seed)))

    @pytest.mark.parametrize("flag", ["enable_sgh", "enable_cal", "enable_rhh"])
    def test_churn_with_feature_off(self, flag):
        cfg = GTConfig(**{**SMALL, flag: False})
        assert_equivalent(*run_pair(cfg, churn_ops(3)))

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_long_churn(self, seed):
        """Tier-2 stress: a much longer churn stream over a wider id
        space, at the paper's default geometry (deep CAL groups, many
        generations).  Deselected by default; run with ``-m slow``."""
        assert_equivalent(
            *run_pair(GTConfig(), churn_ops(seed, rounds=25, nv=800))
        )

    def test_self_loop_heavy(self):
        rng = np.random.default_rng(9)
        v = rng.integers(0, 50, 300)
        ops = [
            ("insert", np.column_stack([v, v]).astype(np.int64), rng.random(300)),
            ("delete", np.column_stack([v[:100], v[:100]]).astype(np.int64)),
        ]
        assert_equivalent(*run_pair(GTConfig(**SMALL), ops))


class TestEdgeCases:
    def test_empty_batch(self):
        empty = np.empty((0, 2), dtype=np.int64)
        gt = GraphTinker(GTConfig(kernel="vector"))
        assert gt.insert_batch(empty) == 0
        assert gt.delete_batch(empty) == 0
        assert gt.stats.as_dict() == GraphTinker(GTConfig()).stats.as_dict()

    def test_all_duplicates_last_weight_wins(self):
        """One edge repeated through a batch: CAL weight must be the last."""
        edges = np.array([[3, 5]] * 40, dtype=np.int64)
        weights = np.linspace(0.0, 1.0, 40)
        scalar, vector = run_pair(GTConfig(), [("insert", edges, weights)])
        assert_equivalent(scalar, vector)
        assert vector.n_edges == 1
        assert vector.edge_weight(3, 5) == pytest.approx(weights[-1])

    def test_in_batch_duplicates_of_in_batch_inserts(self):
        """Pending-pointer stress: duplicates of edges *placed by this very
        batch* must update the pending CAL record, not append a new one."""
        rng = np.random.default_rng(21)
        base = np.column_stack(
            [rng.integers(0, 20, 120), rng.integers(0, 30, 120)]
        ).astype(np.int64)
        tripled = np.repeat(base, 3, axis=0)
        weights = rng.random(tripled.shape[0])
        scalar, vector = run_pair(GTConfig(**SMALL), [("insert", tripled, weights)])
        assert_equivalent(scalar, vector)
        expect = {}
        for (s, d), w in zip(tripled.tolist(), weights.tolist()):
            expect[(s, d)] = w
        for (s, d), w in expect.items():
            assert vector.edge_weight(s, d) == pytest.approx(w)

    def test_batch_spanning_workblock_full_rehash(self):
        """One source, far more distinct dsts than a page holds: the batch
        must branch out across generations (descents, congestion, rehash)
        identically under both kernels."""
        cfg = GTConfig(pagewidth=8, subblock=8, workblock=4, max_generations=512)
        n = 400
        edges = np.column_stack(
            [np.zeros(n, dtype=np.int64), np.arange(n, dtype=np.int64)]
        )
        weights = np.random.default_rng(2).random(n)
        scalar, vector = run_pair(cfg, [("insert", edges, weights)])
        assert_equivalent(scalar, vector)
        assert vector.stats.branch_descents > 0
        assert vector.n_edges == n

    def test_weights_round_trip(self):
        rng = np.random.default_rng(31)
        edges = np.column_stack(
            [rng.integers(0, 40, 500), rng.integers(0, 60, 500)]
        ).astype(np.int64)
        weights = rng.random(500)
        scalar, vector = run_pair(GTConfig(), [("insert", edges, weights)])
        assert_equivalent(scalar, vector)
        last = {}
        for (s, d), w in zip(edges.tolist(), weights.tolist()):
            last[(s, d)] = w
        for (s, d), w in last.items():
            assert vector.edge_weight(s, d) == pytest.approx(w)
            assert scalar.edge_weight(s, d) == pytest.approx(w)

    def test_delete_with_misses_and_double_deletes(self):
        rng = np.random.default_rng(13)
        edges = np.column_stack(
            [rng.integers(0, 40, 600), rng.integers(0, 50, 600)]
        ).astype(np.int64)
        doomed = np.vstack([edges[:150], edges[:150],          # double deletes
                            np.array([[999, 999], [0, 10_000]])])  # misses
        ops = [("insert", edges, rng.random(600)), ("delete", doomed)]
        scalar, vector = run_pair(GTConfig(**SMALL), ops)
        assert_equivalent(scalar, vector)
        a = GraphTinker(GTConfig(kernel="scalar"))
        b = GraphTinker(GTConfig(kernel="vector"))
        a.insert_batch(edges)
        b.insert_batch(edges)
        assert a.delete_batch(doomed) == b.delete_batch(doomed)

    def test_compact_on_delete_stays_equivalent(self):
        """Compacting deletes couple sources through shared CAL tails, so
        the vector path must delegate — and stay bit-identical."""
        cfg = GTConfig(**SMALL, compact_on_delete=True, cal_block_size=4)
        assert_equivalent(*run_pair(cfg, churn_ops(17)))

    def test_short_weights_truncate_batch(self):
        """The scalar loop zips edges with weights; vector must mirror the
        silent truncation."""
        edges = np.column_stack(
            [np.arange(20, dtype=np.int64), np.arange(20, dtype=np.int64) + 100]
        )
        weights = np.ones(12)
        scalar, vector = run_pair(GTConfig(), [("insert", edges, weights)])
        assert_equivalent(scalar, vector)
        assert vector.n_edges == 12


def assert_bit_identical(scalar: GraphTinker, vector: GraphTinker) -> None:
    """:func:`assert_equivalent` plus digest, raw pool bytes, degrees and
    CAL valid counts."""
    assert_equivalent(scalar, vector)
    assert store_digest(scalar) == store_digest(vector)
    assert scalar.eba.main.raw().tobytes() == vector.eba.main.raw().tobytes()
    assert scalar.eba.overflow.raw().tobytes() == vector.eba.overflow.raw().tobytes()
    assert np.array_equal(scalar.eba.degrees_view(), vector.eba.degrees_view())
    if scalar.cal is not None:
        assert scalar.cal.pool.raw().tobytes() == vector.cal.pool.raw().tobytes()
        assert np.array_equal(scalar.cal._valid_count._data, vector.cal._valid_count._data)
        assert scalar.cal.n_edges == vector.cal.n_edges


def check_delete_pair(cfg: GTConfig, ops) -> list[int]:
    """Apply ``ops`` to two stores that insert alike but delete with the
    scalar and the vector kernel (inserting alike makes their pools
    byte-comparable); assert bit-identity and equal delete returns, and
    return those returns."""
    out = []
    for kernel in ("scalar", "vector"):
        gt = GraphTinker(cfg)
        rets = []
        for op in ops:
            if op[0] == "insert":
                gt.insert_batch(op[1], op[2])
            else:
                rets.append(gt.delete_batch(op[1], kernel=kernel))
        out.append((gt, rets))
    (scalar, s_rets), (vector, v_rets) = out
    assert s_rets == v_rets
    assert_bit_identical(scalar, vector)
    return v_rets


def _pairs(rng, n: int, n_src: int, n_dst: int) -> np.ndarray:
    return np.column_stack(
        [rng.integers(0, n_src, n), rng.integers(0, n_dst, n)]
    ).astype(np.int64)


class TestDeleteKernelEquivalence:
    """The vector delete kernel resolves a batch one generation at a time
    and runs each key's repeats in later passes; these cases pin the
    spots where that could drift from the per-edge scalar delete."""

    def test_key_repeated_in_batch(self):
        rng = np.random.default_rng(41)
        edges = _pairs(rng, 400, 20, 40)
        # Each of the first 30 edges appears 3-5 times, interleaved with
        # one-off deletes, so later repeats scan past their own tombstone.
        reps = np.repeat(edges[:30], rng.integers(3, 6, 30), axis=0)
        doomed = np.vstack([reps, edges[100:160]])[rng.permutation(reps.shape[0] + 60)]
        ops = [("insert", edges, rng.random(400)), ("delete", doomed)]
        [got] = check_delete_pair(GTConfig(**SMALL), ops)
        live = {tuple(e) for e in edges.tolist()}
        assert got == len({tuple(e) for e in doomed.tolist()} & live)

    def test_copies_at_generation_two_and_deeper(self):
        cfg = GTConfig(**TINY)
        edges = np.column_stack(
            [np.zeros(300, dtype=np.int64), np.arange(300, dtype=np.int64)]
        )
        probe = GraphTinker(cfg)
        probe.insert_batch(edges)

        def descents(dst: int) -> int:
            before = probe.stats.branch_descents
            assert probe.eba.find(probe.dense_id(0), dst) is not None
            return probe.stats.branch_descents - before

        assert max(descents(d) for d in range(300)) >= 2
        rng = np.random.default_rng(5)
        ops = [("insert", edges, rng.random(300)),
               ("delete", edges[rng.permutation(300)[:200]])]
        assert check_delete_pair(cfg, ops) == [200]

    @pytest.mark.parametrize("enable_sgh", [True, False])
    def test_absent_sources_and_dsts(self, enable_sgh):
        rng = np.random.default_rng(17)
        edges = _pairs(rng, 300, 30, 40)
        absent_src = np.column_stack([np.arange(500, 520), np.arange(20)])
        absent_dst = np.column_stack([np.arange(20), np.arange(10_000, 10_020)])
        doomed = np.vstack([absent_src, edges[:80], absent_dst]).astype(np.int64)
        ops = [("insert", edges, rng.random(300)), ("delete", doomed)]
        check_delete_pair(GTConfig(**SMALL, enable_sgh=enable_sgh), ops)

    def test_rhh_off_delete_only(self):
        rng = np.random.default_rng(23)
        cfg = GTConfig(**TINY, enable_rhh=False)
        ops = []
        for _ in range(3):
            ops.append(("insert", _pairs(rng, 250, 10, 60), rng.random(250)))
            ops.append(("delete", _pairs(rng, 150, 10, 60)))
        check_delete_pair(cfg, ops)

    @pytest.mark.parametrize("flag", ["enable_cal", "enable_sgh"])
    def test_feature_off(self, flag):
        rng = np.random.default_rng(29)
        cfg = GTConfig(**TINY, **{flag: False})
        edges = _pairs(rng, 400, 15, 80)
        ops = [("insert", edges, rng.random(400)),
               ("delete", np.vstack([edges[:150], edges[:40], _pairs(rng, 60, 30, 90)]))]
        check_delete_pair(cfg, ops)


_DELETE_CFGS = [
    TINY,
    {**TINY, "enable_rhh": False},
    {**TINY, "enable_cal": False, "enable_sgh": False},
]
_batch = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 40)), min_size=1, max_size=60,
)
_bad_delete = st.lists(  # deletes may also name negative ids: always a miss
    st.tuples(st.integers(-1, 6), st.integers(-2, 41)), min_size=1, max_size=60,
)


@settings(max_examples=40, deadline=None)
@given(
    cfg=st.sampled_from(_DELETE_CFGS),
    batches=st.lists(
        st.one_of(st.tuples(st.just("insert"), _batch),
                  st.tuples(st.just("delete"), _batch),
                  st.tuples(st.just("delete"), _bad_delete)),
        min_size=1, max_size=8,
    ),
)
def test_interleaved_insert_delete_batches(cfg, batches):
    ops = []
    for kind, pairs in batches:
        edges = np.array(pairs, dtype=np.int64)
        if kind == "insert":
            ops.append((kind, edges, np.arange(edges.shape[0], dtype=np.float64)))
        else:
            ops.append((kind, edges))
    check_delete_pair(GTConfig(**cfg), ops)


class TestHashArrays:
    """The vectorized hash mirrors must agree with the scalar hashes the
    residue loop (and the scalar kernel) use — a disagreement would send
    fast-pass ops to the wrong Subblock/bucket."""

    @pytest.mark.parametrize("generation", [0, 1, 5, 63])
    def test_subblock_index_array(self, generation):
        dsts = np.random.default_rng(generation).integers(0, 1 << 40, 200)
        got = subblock_index_array(dsts, generation, 8, seed=0xBEEF)
        for d, g in zip(dsts.tolist(), got.tolist()):
            assert g == subblock_index(d, generation, 8, 0xBEEF)

    @pytest.mark.parametrize("generation", [0, 1, 5, 63])
    def test_initial_bucket_array(self, generation):
        dsts = np.random.default_rng(100 + generation).integers(0, 1 << 40, 200)
        got = initial_bucket_array(dsts, generation, 16, seed=0xBEEF)
        for d, g in zip(dsts.tolist(), got.tolist()):
            assert g == initial_bucket(d, generation, 16, 0xBEEF)
