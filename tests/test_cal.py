"""Unit tests for the Coarse Adjacency List EdgeblockArray."""

import numpy as np
import pytest

from repro.core.cal import CAL_INVALID, CoarseAdjacencyList
from repro.core.config import GTConfig


def make(group_width=4, block_size=4):
    return CoarseAdjacencyList(
        GTConfig(cal_group_width=group_width, cal_block_size=block_size)
    )


class TestGrouping:
    def test_group_of(self):
        cal = make(group_width=4)
        assert cal.group_of(0) == 0
        assert cal.group_of(3) == 0
        assert cal.group_of(4) == 1
        assert cal.group_of(1023) == 255

    def test_groups_created_on_demand(self):
        cal = make(group_width=4)
        cal.append(9, 1, 1.0)  # group 2
        assert cal.n_groups == 3

    def test_sources_in_same_group_share_blocks(self):
        """The 'coarse' in CAL: several sources pack into one block."""
        cal = make(group_width=4, block_size=8)
        for src in range(4):
            cal.append(src, src * 10, 1.0)
        assert cal.n_blocks == 1


class TestAppend:
    def test_append_returns_address(self):
        cal = make()
        block, slot = cal.append(0, 7, 2.0)
        assert cal.read_slot(block, slot) == (0, 7, 2.0)

    def test_chain_extension_when_block_full(self):
        cal = make(group_width=4, block_size=2)
        addrs = [cal.append(0, d, 1.0) for d in range(5)]
        blocks = {b for b, _ in addrs}
        assert len(blocks) == 3  # ceil(5/2)
        assert cal.n_edges == 5

    def test_groups_have_independent_chains(self):
        cal = make(group_width=2, block_size=2)
        cal.append(0, 1, 1.0)   # group 0
        cal.append(5, 1, 1.0)   # group 2
        cal.append(1, 2, 1.0)   # group 0 again
        src, dst, w = cal.stream_edges()
        # stream is group-ordered: group 0's two edges first
        assert src.tolist() == [0, 1, 5]


class TestUpdateInvalidate:
    def test_update_weight(self):
        cal = make()
        b, s = cal.append(0, 7, 1.0)
        cal.update_weight(b, s, 9.0)
        assert cal.read_slot(b, s)[2] == 9.0

    def test_invalidate(self):
        cal = make()
        b, s = cal.append(0, 7, 1.0)
        cal.invalidate(b, s)
        assert cal.n_edges == 0
        assert cal.read_slot(b, s)[0] == CAL_INVALID

    def test_invalidate_idempotent(self):
        cal = make()
        b, s = cal.append(0, 7, 1.0)
        cal.invalidate(b, s)
        cal.invalidate(b, s)
        assert cal.n_edges == 0

    def test_invalidate_many_matches_per_pair_calls(self):
        """Repeated and already-invalid addresses are charged once, as a
        loop of :meth:`invalidate` calls would charge them."""
        one, many = make(), make()
        addrs = [one.append(i % 6, i, 1.0) for i in range(20)]
        assert [many.append(i % 6, i, 1.0) for i in range(20)] == addrs
        one.invalidate(*addrs[3])
        many.invalidate(*addrs[3])
        pick = [addrs[i] for i in (0, 5, 5, 3, 12, 0, 19)]
        for b, s in pick:
            one.invalidate(b, s)
        many.invalidate_many(np.array([b for b, _ in pick]), np.array([s for _, s in pick]))
        assert many.n_edges == one.n_edges == 15
        assert many.stats.as_dict() == one.stats.as_dict()
        assert many.pool.raw().tobytes() == one.pool.raw().tobytes()
        assert np.array_equal(many._valid_count._data, one._valid_count._data)

    def test_maintenance_is_o1_no_traversal(self):
        """CAL updates never traverse edges: no block *reads* counted."""
        cal = make(block_size=4)
        for d in range(100):
            cal.append(0, d, 1.0)
        assert cal.stats.seq_block_reads == 0
        assert cal.stats.random_block_reads == 0
        assert cal.stats.cal_updates == 100


class TestStreaming:
    def test_stream_edges_roundtrip(self):
        cal = make(group_width=8, block_size=4)
        expected = []
        for i in range(50):
            src, dst, w = i % 20, i * 3, float(i)
            cal.append(src, dst, w)
            expected.append((src, dst, w))
        src, dst, w = cal.stream_edges()
        got = sorted(zip(src.tolist(), dst.tolist(), w.tolist()))
        assert got == sorted(expected)

    def test_stream_skips_invalidated(self):
        cal = make()
        addrs = [cal.append(0, d, 1.0) for d in range(10)]
        for b, s in addrs[::2]:
            cal.invalidate(b, s)
        src, dst, _ = cal.stream_edges()
        assert sorted(dst.tolist()) == list(range(1, 10, 2))

    def test_stream_counts_sequential_reads(self):
        cal = make(block_size=4)
        for d in range(20):
            cal.append(0, d, 1.0)
        cal.stats.reset()
        cal.stream_edges()
        assert cal.stats.seq_block_reads == cal.n_blocks
        assert cal.stats.random_block_reads == 0

    def test_stream_empty(self):
        cal = make()
        src, dst, w = cal.stream_edges()
        assert src.size == dst.size == w.size == 0

    def test_stream_blocks_yield_views_of_live_slots(self):
        cal = make(block_size=4)
        cal.append(0, 1, 1.0)
        cal.append(0, 2, 2.0)
        chunks = list(cal.stream_blocks())
        assert len(chunks) == 1
        assert chunks[0]["dst"].tolist() == [1, 2]


class TestCompactDelete:
    def test_delete_tail_slot_shrinks(self):
        cal = make(group_width=4, block_size=4)
        addrs = [cal.append(0, d, 1.0) for d in range(3)]
        assert cal.compact_delete(*addrs[-1]) is None  # tail: no move
        assert cal.n_edges == 2

    def test_delete_inner_slot_moves_tail(self):
        cal = make(group_width=4, block_size=4)
        addrs = [cal.append(0, d, float(d)) for d in range(3)]
        moved = cal.compact_delete(*addrs[0])
        assert moved is not None
        src, dst, old_block, old_slot = moved
        assert (src, dst) == (0, 2)
        assert (old_block, old_slot) == addrs[2]
        # the moved copy now lives at the deleted slot
        assert cal.read_slot(*addrs[0]) == (0, 2, 2.0)

    def test_emptied_tail_block_freed_and_unlinked(self):
        cal = make(group_width=4, block_size=2)
        addrs = [cal.append(0, d, 1.0) for d in range(4)]  # two blocks
        blocks_before = cal.n_blocks
        cal.compact_delete(*addrs[3])
        cal.compact_delete(*addrs[2])
        assert cal.n_blocks == blocks_before - 1
        # chain still streams the surviving copies
        _, dst, _ = cal.stream_edges()
        assert sorted(dst.tolist()) == [0, 1]

    def test_group_fully_emptied(self):
        cal = make(group_width=4, block_size=2)
        addrs = [cal.append(0, d, 1.0) for d in range(3)]
        for addr in reversed(addrs):
            cal.compact_delete(*addr)
        assert cal.n_edges == 0
        assert cal.stream_edges()[0].size == 0
        # the group accepts fresh appends afterwards
        cal.append(0, 9, 1.0)
        assert cal.n_edges == 1

    def test_idempotent_on_invalid_slot(self):
        cal = make()
        addr = cal.append(0, 1, 1.0)
        cal.compact_delete(*addr)
        assert cal.compact_delete(*addr) is None

    def test_dense_chain_invariant_under_churn(self, rng):
        from repro.core.cal import CAL_INVALID

        cal = make(group_width=4, block_size=4)
        live = {}
        for i in range(2000):
            if rng.random() < 0.6 or not live:
                src, dst = int(rng.integers(0, 12)), i
                live[(src, dst)] = cal.append(src, dst, 1.0)
                # appends may invalidate stored addresses of later moves,
                # so refresh nothing: moves only happen on delete below.
            else:
                key = next(iter(live))
                addr = live.pop(key)
                moved = cal.compact_delete(*addr)
                if moved is not None:
                    m_src, m_dst, *_ = moved
                    live[(m_src, m_dst)] = addr
        for g in range(cal.n_groups):
            b = cal._group_head[g]
            while b >= 0:
                valid = cal.pool.row(b)["src"] != CAL_INVALID
                if b == cal._group_tail[g]:
                    fill = cal._tail_fill[g]
                    assert valid[:fill].all() and not valid[fill:].any()
                else:
                    assert valid.all()
                b = cal._next[b]


class TestFillFraction:
    def test_full_blocks(self):
        cal = make(block_size=4)
        for d in range(8):
            cal.append(0, d, 1.0)
        assert cal.fill_fraction() == 1.0

    def test_after_invalidation(self):
        cal = make(block_size=4)
        addrs = [cal.append(0, d, 1.0) for d in range(4)]
        cal.invalidate(*addrs[0])
        assert cal.fill_fraction() == 0.75

    def test_empty_structure(self):
        assert make().fill_fraction() == 1.0
