"""The Coarse Adjacency List (CAL) EdgeblockArray (paper Sec. III.B).

GraphTinker's second compaction level: a separate, always-current copy of
every live edge, stored STINGER-style in chained blocks — but *coarse*,
i.e. one chain per **group** of source vertices rather than per vertex, so
each slot also records its source id.  Because groups pack many vertices'
edges into densely filled, sequentially readable blocks, full-processing
analytics can stream the entire edge set with near-contiguous DRAM
accesses and no pre-processing pass.

Updates are O(1): inserts append at the tail of the group's chain; updates
and deletes go straight to the copy through the owning edge-cell's
CAL-pointer, never traversing edges — which is why the paper calls CAL's
maintenance overhead minimal.

Grouping uses the *dense* (SGH-hashed) source ids, so group occupancy
tracks the set of non-empty vertices at every stage of the graph's life.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.config import GTConfig
from repro.core.pool import CAL_CELL_DTYPE, BlockPool
from repro.core.stats import AccessStats

#: ``src`` value marking a vacant / invalidated CAL slot.
CAL_INVALID = np.int64(-1)


def _blank_cal_cells(shape: tuple[int, ...] | int) -> np.ndarray:
    arr = np.zeros(shape, dtype=CAL_CELL_DTYPE)
    arr["src"] = CAL_INVALID
    return arr


class _GrowIntArray:
    """Minimal growable 1-D ``int64`` array with a fill value."""

    __slots__ = ("_data", "_fill")

    def __init__(self, fill: int, initial: int = 8):
        self._fill = fill
        self._data = np.full(initial, fill, dtype=np.int64)

    def ensure(self, n: int) -> None:
        cap = self._data.shape[0]
        if n <= cap:
            return
        new_cap = cap
        while new_cap < n:
            new_cap *= 2
        grown = np.full(new_cap, self._fill, dtype=np.int64)
        grown[:cap] = self._data
        self._data = grown

    def __getitem__(self, i: int) -> int:
        return int(self._data[i])

    def __setitem__(self, i: int, v: int) -> None:
        self._data[i] = v


class CoarseAdjacencyList:
    """Grouped, chained, compact copy of the live edge set."""

    def __init__(self, config: GTConfig, stats: AccessStats | None = None):
        self.config = config
        self.stats = stats if stats is not None else AccessStats()
        self.pool = BlockPool(config.cal_block_size, CAL_CELL_DTYPE, _blank_cal_cells, 4)
        self._n_groups = 0
        self._group_head = _GrowIntArray(-1)
        self._group_tail = _GrowIntArray(-1)
        self._tail_fill = _GrowIntArray(0)
        # Per-pool-block chain links and live-slot counts.
        self._next = _GrowIntArray(-1, 8)
        self._prev = _GrowIntArray(-1, 8)
        self._valid_count = _GrowIntArray(0, 8)
        self._n_valid = 0

    # ------------------------------------------------------------------ #
    @property
    def n_edges(self) -> int:
        """Live (valid) edge copies currently stored."""
        return self._n_valid

    @property
    def n_groups(self) -> int:
        return self._n_groups

    @property
    def n_blocks(self) -> int:
        return self.pool.n_used

    def group_of(self, src: int) -> int:
        """Group id of dense source ``src`` (a contiguous id range)."""
        return src // self.config.cal_group_width

    def _ensure_group(self, group: int) -> None:
        if group < self._n_groups:
            return
        self._group_head.ensure(group + 1)
        self._group_tail.ensure(group + 1)
        self._tail_fill.ensure(group + 1)
        self._n_groups = group + 1

    def _new_block(self, group: int) -> int:
        block = self.pool.allocate()
        self._next.ensure(block + 1)
        self._prev.ensure(block + 1)
        self._valid_count.ensure(block + 1)
        self._next[block] = -1
        self._valid_count[block] = 0
        tail = self._group_tail[group]
        self._prev[block] = tail
        if tail >= 0:
            self._next[tail] = block
        else:
            self._group_head[group] = block
        self._group_tail[group] = block
        self._tail_fill[group] = 0
        return block

    # ------------------------------------------------------------------ #
    # O(1) maintenance (called from the GraphTinker facade)
    # ------------------------------------------------------------------ #
    def append(self, src: int, dst: int, weight: float) -> tuple[int, int]:
        """Copy a newly inserted edge; return its ``(block, slot)`` address.

        The Logical Vertex Array lookup of the paper — find the group's
        last assigned edgeblock and its next free slot — is O(1) here via
        the tail/fill tables.
        """
        group = self.group_of(src)
        self._ensure_group(group)
        block = self._group_tail[group]
        if block < 0 or self._tail_fill[group] >= self.config.cal_block_size:
            block = self._new_block(group)
        slot = self._tail_fill[group]
        row = self.pool.row(block)
        row["src"][slot] = src
        row["dst"][slot] = dst
        row["weight"][slot] = weight
        self._tail_fill[group] = slot + 1
        self._valid_count[block] = self._valid_count[block] + 1
        self._n_valid += 1
        self.stats.cal_updates += 1
        return block, slot

    def append_many(self, srcs: np.ndarray, dsts: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Append many copies in order; return ``(blocks, slots)`` arrays.

        State-identical to calling :meth:`append` once per element: the
        same slot layout, tail/fill evolution, chain links, block
        *allocation order* (and therefore the same pool row ids, free-list
        included) and the same ``cal_updates`` total.  Instead of walking
        edge by edge, the batch is grouped (stably, preserving stream
        order within a group — the only order the layout depends on), each
        group's appends are laid out arithmetically along its virtual slot
        sequence, new-block needs are replayed in original stream order
        against the pool's free list, and cell writes land as per-segment
        slice stores.  This is the vector batch kernel's CAL replay
        primitive.
        """
        n = srcs.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        bs = self.config.cal_block_size
        groups = srcs // self.config.cal_group_width
        order = np.lexsort((np.arange(n), groups))
        g_sorted = groups[order]
        s_sorted = srcs[order]
        d_sorted = dsts[order]
        w_sorted = weights[order]
        uniq_g, starts = np.unique(g_sorted, return_index=True)
        uniq_l = uniq_g.tolist()
        starts_l = starts.tolist()
        starts_l.append(n)
        order_l = order.tolist()
        self._ensure_group(uniq_l[-1])

        # Pass 1: per group, note its starting state and every append that
        # needs a fresh block (the q-th virtual slot with q % bs == 0).
        # Allocation must happen in *original stream order* across groups
        # so free-list reuse and fresh row ids match the scalar replay.
        per_group = []
        group_new_qs: list[range] = []
        events: list[tuple[int, int, int]] = []  # (stream index, group pos, q)
        for gi in range(len(uniq_l)):
            g = uniq_l[gi]
            a, b = starts_l[gi], starts_l[gi + 1]
            tail = self._group_tail[g]
            base = self._tail_fill[g] if tail >= 0 else 0
            per_group.append((g, a, b, base, tail))
            if tail < 0:
                first_new = 0
            else:
                first_new = ((base + bs - 1) // bs) * bs
                if first_new == 0:
                    first_new = bs
            qs = range(first_new, base + (b - a), bs)
            group_new_qs.append(qs)
            for q in qs:
                events.append((order_l[a + q - base], gi, q))
        events.sort()

        pool = self.pool
        free = pool._free
        new_ids: dict[tuple[int, int], int] = {}
        fresh = 0
        reused: list[int] = []
        for _, gi, q in events:
            if free:
                idx = free.pop()
                reused.append(idx)
            else:
                idx = pool._used + fresh
                fresh += 1
            new_ids[(gi, q)] = idx
        if fresh:
            pool._grow_to(pool._used + fresh)
            pool._used += fresh
        for idx in reused:
            pool._data[idx] = pool._blank(pool.block_width)
        if new_ids or per_group:
            max_block = max(
                max(new_ids.values(), default=-1),
                max((t for _, _, _, _, t in per_group), default=-1),
            )
            if max_block >= 0:
                self._next.ensure(max_block + 1)
                self._prev.ensure(max_block + 1)
                self._valid_count.ensure(max_block + 1)

        # Pass 2: link new blocks (mirroring _new_block), write cells
        # segment by segment, update tails/fills/counts, and record each
        # append's address.
        blocks_sorted = np.empty(n, dtype=np.int64)
        slots_sorted = np.empty(n, dtype=np.int64)
        for gi, (g, a, b, base, tail) in enumerate(per_group):
            prev = tail
            for q in group_new_qs[gi]:
                block = new_ids[(gi, q)]
                self._next[block] = -1
                self._valid_count[block] = 0
                self._prev[block] = prev
                if prev >= 0:
                    self._next[prev] = block
                else:
                    self._group_head[g] = block
                prev = block
            pos = a
            while pos < b:
                q = base + (pos - a)
                q_floor = q - (q % bs)
                block = tail if (tail >= 0 and q < bs) else new_ids[(gi, q_floor)]
                take = min(q_floor + bs, base + (b - a)) - q
                sl0 = q - q_floor
                sl1 = sl0 + take
                row = pool.row(block)
                row["src"][sl0:sl1] = s_sorted[pos : pos + take]
                row["dst"][sl0:sl1] = d_sorted[pos : pos + take]
                row["weight"][sl0:sl1] = w_sorted[pos : pos + take]
                self._valid_count[block] = self._valid_count[block] + take
                blocks_sorted[pos : pos + take] = block
                slots_sorted[pos : pos + take] = np.arange(sl0, sl1)
                pos += take
            self._group_tail[g] = prev
            self._tail_fill[g] = ((base + (b - a) - 1) % bs) + 1
        blocks_out = np.empty(n, dtype=np.int64)
        slots_out = np.empty(n, dtype=np.int64)
        blocks_out[order] = blocks_sorted
        slots_out[order] = slots_sorted
        self._n_valid += n
        self.stats.cal_updates += n
        return blocks_out, slots_out

    def update_weight(self, block: int, slot: int, weight: float) -> None:
        """Overwrite the weight of an existing copy via its CAL-pointer."""
        self.pool.row(block)["weight"][slot] = weight
        self.stats.cal_updates += 1

    def invalidate(self, block: int, slot: int) -> None:
        """Flag a copy as deleted via its CAL-pointer (no traversal)."""
        row = self.pool.row(block)
        if row["src"][slot] == CAL_INVALID:
            return
        row["src"][slot] = CAL_INVALID
        self._valid_count[block] = self._valid_count[block] - 1
        self._n_valid -= 1
        self.stats.cal_updates += 1

    def invalidate_many(self, blocks: np.ndarray, slots: np.ndarray) -> None:
        """Vectorized :meth:`invalidate`: same flags and charges as one
        call per ``(block, slot)`` pair, repeated pairs included."""
        blocks = np.asarray(blocks, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        _, first = np.unique(blocks * self.pool.block_width + slots, return_index=True)
        blocks = blocks[first]
        slots = slots[first]
        src = self.pool._data["src"]
        live = src[blocks, slots] != CAL_INVALID
        blocks = blocks[live]
        src[blocks, slots[live]] = CAL_INVALID
        np.subtract.at(self._valid_count._data, blocks, 1)
        self._n_valid -= blocks.shape[0]
        self.stats.cal_updates += blocks.shape[0]

    def read_slot(self, block: int, slot: int) -> tuple[int, int, float]:
        """Return ``(src, dst, weight)`` stored at a CAL address."""
        row = self.pool.row(block)
        return int(row["src"][slot]), int(row["dst"][slot]), float(row["weight"][slot])

    def compact_delete(self, block: int, slot: int):
        """Delete a copy *and keep the group's chain dense*.

        Used by the delete-and-compact mechanism: the hole left at
        ``(block, slot)`` is refilled with the group's **last** live copy
        (the tail slot), the tail shrinks, and a fully emptied tail block
        is unlinked and returned to the pool — so full-processing
        streaming never pays for fragmentation, which is exactly the
        analytics advantage Fig. 15 measures.

        Requires that the group's chain is dense, which holds when every
        delete in this structure's lifetime went through this method
        (enforced by the facade's ``compact_on_delete`` configuration).

        Returns ``None`` when the deleted slot was itself the tail, or
        ``(src, dst, old_block, old_slot)`` describing the copy that
        moved into ``(block, slot)`` so the caller can re-point the
        owning EdgeblockArray cell.
        """
        row = self.pool.row(block)
        if row["src"][slot] == CAL_INVALID:
            return None
        group = self.group_of(int(row["src"][slot]))
        tail_block = self._group_tail[group]
        tail_slot = self._tail_fill[group] - 1
        assert tail_block >= 0 and tail_slot >= 0, "dense-chain invariant broken"

        moved = None
        if (tail_block, tail_slot) != (block, slot):
            tail_row = self.pool.row(tail_block)
            src = int(tail_row["src"][tail_slot])
            dst = int(tail_row["dst"][tail_slot])
            row["src"][slot] = src
            row["dst"][slot] = dst
            row["weight"][slot] = tail_row["weight"][tail_slot]
            tail_row["src"][tail_slot] = CAL_INVALID
            # The deleted copy leaves `block`, the moved copy enters it:
            # net zero there; the tail block loses one.
            self._valid_count[tail_block] = self._valid_count[tail_block] - 1
            self.stats.cal_updates += 2
            moved = (src, dst, tail_block, tail_slot)
        else:
            row["src"][slot] = CAL_INVALID
            self._valid_count[block] = self._valid_count[block] - 1
            self.stats.cal_updates += 1
        self._n_valid -= 1

        # Shrink the tail; unlink and free an emptied tail block.
        self._tail_fill[group] = tail_slot
        if tail_slot == 0:
            prev = self._prev[tail_block]
            self._group_tail[group] = prev
            if prev >= 0:
                self._next[prev] = -1
                self._tail_fill[group] = self.config.cal_block_size
            else:
                self._group_head[group] = -1
                self._tail_fill[group] = 0
            self._prev[tail_block] = -1
            self.pool.free(tail_block)
        return moved

    # ------------------------------------------------------------------ #
    # streaming retrieval (the full-processing load path)
    # ------------------------------------------------------------------ #
    def stream_blocks(self) -> Iterator[np.ndarray]:
        """Yield each chain block's live slots as a structured array view.

        Iteration is group-by-group, chain order within a group: the
        sequential access pattern the paper exploits.  Every block visited
        is charged as one *sequential* block read; blocks whose live count
        is zero are skipped without a charge only if never read — we still
        charge them, as a real streamer must fetch a block to discover it
        is empty.
        """
        for group in range(self._n_groups):
            block = self._group_head[group]
            while block >= 0:
                self.stats.seq_block_reads += 1
                self.stats.cells_scanned += self.config.cal_block_size
                row = self.pool.row(block)
                mask = row["src"] != CAL_INVALID
                if mask.any():
                    yield row[mask]
                block = self._next[block]

    def stream_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Materialise all live edges: ``(src, dst, weight)`` arrays."""
        srcs: list[np.ndarray] = []
        dsts: list[np.ndarray] = []
        weights: list[np.ndarray] = []
        for chunk in self.stream_blocks():
            srcs.append(chunk["src"])
            dsts.append(chunk["dst"])
            weights.append(chunk["weight"])
        if not srcs:
            empty_i = np.empty(0, dtype=np.int64)
            return empty_i, empty_i.copy(), np.empty(0, dtype=np.float64)
        return np.concatenate(srcs), np.concatenate(dsts), np.concatenate(weights)

    def fill_fraction(self) -> float:
        """Live slots / allocated slots — the compaction diagnostic."""
        total = self.pool.n_used * self.config.cal_block_size
        return self._n_valid / total if total else 1.0
