"""Adaptive subdivision tree over the trapping box V0.

Leaves live on dyadic grids: a leaf at depth d with grid indices
(i_0, ..., i_{k-1}) occupies [-R' + i_j * c_d, -R' + (i_j + 1) * c_d]
per real axis, with cell size c_d = 2 R' / 2^d.  R' is a dyadic
rational with 12 fractional bits (snapped by MapModel), so every grid
endpoint is an exact double and the tiling/nesting invariants hold in
exact arithmetic.  Subdivision halves every axis (2^4 children per box
in C^2, 2^2 in C or R^2); ids are never reused.

The live leaves are three parallel numpy arrays, each at its natural
width: ids (int64), depths (int8) and grid indices (int32, n x naxes),
kept in ascending id order, so a leaf's row is its rank among the live
ids.  An index is below 2^31, as the depth cap below is 62 // naxes <=
31; each step that shifts, packs or adds indices widens them first.
Subdivision appends the children, pruning and ``remove_leaves`` keep a
mask; each replaces the arrays and none writes them in place, so a
graph shares the id array of the tree it was built on.  The box bounds
are derived from the arrays on demand.

One address index answers every "which leaves meet this closed box"
question (the edge build, box and point queries, classification,
rendering, the nesting check on load): per live depth, the packed
addresses of the leaves, sorted, and for the depths below the
shallowest live one, the sorted addresses of their leaves' ancestors at
that shallowest depth.  A lookup reaches a deeper grid in two stages:
it expands a query's range at the shallowest depth, keeps the cells
that hold deeper leaves, and expands only the fine cells inside those.
A leaf's indices are packed into one int64 key, axis 0 in the high
bits, so every address needs naxes * depth <= 62 bits; the tree
enforces that as its depth cap.  The last axis sits in the low bits, so
a range's cells along it are one interval of keys: each stage expands
a range into such runs and makes one binary search per run.  The index
and the bounds are rebuilt lazily after each mutation.

When the map commutes with complex conjugation (its
``conjugation_axes``), so does the grid: conjugation takes a depth-d
cell i to 2^d - 1 - i on those axes, and the cell ends to their exact
negatives.  ``conjugate_rows`` pairs each live leaf with its mirror
through the address index, once: the table is carried through every
removal and subdivision that keeps the leaves closed under conjugation.
Escape pruning iterates one leaf of each pair and gives the other the
same decision.

Escape pruning and the edge build's lookup (``lookup_pieces``) treat
each row on its own, so they run in pieces of consecutive rows, one
after another: a piece bounds the temporaries.  A lookup piece gets its
query boxes (the images of its rows) just before it is looked up, and
sorts its own edges.  No output depends on the size of the pieces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import ResourceError, give_back
from .ia import BoxRegion, Interval, UsageError
from .maps import MapModel, batch_backward, batch_forward, forward_orbits

__all__ = [
    "BoxTree",
    "SubdivisionReport",
    "cell_range",
    "init_root",
    "sink_basin_selector",
]

_KEY_BITS = 62  # packed address bits: naxes * depth <= _KEY_BITS
_KEY_END = np.iinfo(np.int64).max  # ends the address index's key arrays
# grid cells covered by the runs of one lookup chunk: a chunk's arrays
# are a few int64s per run and per match, and a run matches at most its cells
_CHUNK_CANDIDATES = 1 << 17
_LOOKUP_PIECE = 1 << 12  # query rows per piece of ``lookup_pieces`` and of the tiling check
_PRUNE_PIECE = 1 << 15  # rows per piece of escape pruning
_BLOWUP_FACTOR = 8.0  # escape pruning keeps a leaf whose iterate is wider than this * R'
_SINK_ITERATES = 12  # orbit length of the sink-basin selector


@dataclass(frozen=True)
class SubdivisionReport:
    selected: int
    created: int
    leaf_count: int
    depths: tuple


class BoxTree:
    """Live leaves over dyadic grids, one per depth, with one address index.

    Every change of the leaves replaces their arrays and never writes
    them in place: a graph built on the tree keeps its ``leaf_ids``
    array as its vertex ids, and it stays as it was."""

    def __init__(self, model: MapModel):
        self.model = model
        self.r_prime = model.r_prime
        self.naxes = model.naxes
        self.max_depth = _KEY_BITS // self.naxes
        self._set(
            np.zeros(1, dtype=np.int64),
            np.zeros(1, dtype=np.int8),
            np.zeros((1, self.naxes), dtype=np.int32),
            1,
        )

    # -- bookkeeping ---------------------------------------------------------

    def _set(self, ids, depths, idx, next_id: int, mirror=None) -> None:
        """Replace the live leaves (ids ascending); drop the derived arrays.
        ``mirror`` is the new leaves' mirror table, where the caller
        derived it from the old one (see ``conjugate_rows``)."""
        self._ids, self._depths, self._idx = ids, depths, idx
        self._next_id = next_id
        self._index = None
        self._conjugates = None if mirror is None else _pairs(mirror)

    def _mirror(self, closed: np.ndarray):
        """The mirror table, when there is one and the set of rows where
        ``closed`` holds is closed under it; else None."""
        mirror = None if self._conjugates is None else self._conjugates[1]
        if mirror is None or not np.array_equal(closed, closed[mirror]):
            return None
        return mirror

    def _keep(self, keep: np.ndarray) -> int:
        """Keep the rows where ``keep`` holds; returns how many were dropped."""
        dropped = len(keep) - int(np.count_nonzero(keep))
        if dropped:
            mirror = self._mirror(keep)
            if mirror is not None:  # renumbered onto the kept rows
                mirror = (np.cumsum(keep) - 1)[mirror[keep]]
            self._set(self._ids[keep], self._depths[keep], self._idx[keep], self._next_id, mirror)
        return dropped

    def _row(self, lid: int) -> int:
        row = int(np.searchsorted(self._ids, lid))
        if row == len(self._ids) or self._ids[row] != lid:
            raise KeyError(lid)
        return row

    @property
    def leaf_ids(self) -> np.ndarray:
        """The live leaf ids, ascending: the tree's array, read it only.
        A later change of the leaves replaces it and leaves it as it is."""
        return self._ids

    @property
    def leaf_count(self) -> int:
        return len(self._ids)

    def live_depths(self) -> list[int]:
        return np.unique(self._depths).tolist()

    def depth_counts(self) -> dict[int, int]:
        depths, counts = np.unique(self._depths, return_counts=True)
        return dict(zip(depths.tolist(), counts.tolist()))

    def address_table(self, lids) -> np.ndarray:
        """Rows (depth, i_0, ..., i_{k-1}) of the live leaves ``lids``:
        the form ``restore`` reads."""
        rows = np.searchsorted(self._ids, lids)
        if not np.array_equal(self._ids[np.minimum(rows, len(self._ids) - 1)], lids):
            raise UsageError("not every id is a live leaf")
        return np.column_stack([self._depths[rows].astype(np.int64), self._idx[rows]])

    # -- exact grid geometry ---------------------------------------------------

    def cell_size(self, depth: int) -> float:
        """2 R' / 2^depth, exact (R' dyadic, power-of-two division)."""
        return math.ldexp(self.r_prime, 1 - depth)

    def epsilon(self) -> float:
        """Max live-leaf side length (cell size of the shallowest depth)."""
        return self.cell_size(int(self._depths.min()))

    def epsilon_min(self) -> float:
        return self.cell_size(int(self._depths.max()))

    def leaf_box(self, lid: int) -> BoxRegion:
        lo, hi = self.leaf_bounds([self._row(lid)])
        return self.model.box_from_axes(
            [Interval(a, b) for a, b in zip(lo[0].tolist(), hi[0].tolist())]
        )

    def live_arrays(self):
        """(ids, depths, indices, lo, hi) of the live leaves, id-sorted.
        The first three are views of the tree's arrays: read them, do
        not write them."""
        return (self._ids, self._depths, self._idx) + self._box_bounds(self._depths, self._idx)

    def leaf_bounds(self, rows):
        """(lo, hi) of the live leaves at ``rows``: those rows of
        ``live_arrays``' bounds, computed for them alone."""
        return self._box_bounds(self._depths[rows], self._idx[rows])

    def _box_bounds(self, depths, idx):
        cells = np.ldexp(self.r_prime, 1 - depths)[:, None]
        lo = -self.r_prime + idx * cells
        hi = -self.r_prime + (idx + 1.0) * cells  # idx + 1 overflows int32 at the cap
        return lo, hi

    # -- subdivision -------------------------------------------------------------

    def subdivide(self, selector: Callable[[int], bool]) -> SubdivisionReport:
        """Replace selected live leaves by their 2-per-axis children.

        Children get fresh ids in the order: selected parents by id, then
        offsets in ``itertools.product((0, 1), repeat=naxes)`` order."""
        n = len(self._ids)
        sel = np.fromiter(map(selector, self._ids.tolist()), dtype=bool, count=n)
        nsel = int(sel.sum())
        if nsel and int(self._depths[sel].max()) + 1 > self.max_depth:
            raise ResourceError(
                f"subdivision would exceed max depth {self.max_depth} "
                f"(packed addresses need naxes*depth <= {_KEY_BITS})"
            )
        offsets = np.array(list(itertools.product((0, 1), repeat=self.naxes)), dtype=np.int32)
        children = (2 * self._idx[sel])[:, None, :] + offsets
        created = len(offsets) * nsel
        keep = ~sel
        mirror = self._mirror(sel)
        if mirror is not None:
            # a child's mirror is the child of its parent's mirror with the
            # offset bits of the conjugation axes flipped
            flip = sum(1 << (self.naxes - 1 - k) for k in self.model.conjugation_axes)
            first_child = n - nsel + len(offsets) * (np.cumsum(sel) - 1)
            mirror = np.concatenate([
                (np.cumsum(keep) - 1)[mirror[keep]],
                (first_child[mirror[sel]][:, None] + (np.arange(len(offsets)) ^ flip)).ravel(),
            ])
        self._set(
            np.concatenate([self._ids[keep], np.arange(self._next_id, self._next_id + created)]),
            np.concatenate([self._depths[keep], np.repeat(self._depths[sel] + 1, len(offsets))]),
            np.concatenate([self._idx[keep], children.reshape(-1, self.naxes)]),
            self._next_id + created,
            mirror,
        )
        return SubdivisionReport(
            selected=nsel,
            created=created,
            leaf_count=len(self._ids),
            depths=tuple(self.live_depths()),
        )

    # -- the address index and its lookup ----------------------------------------

    def _address_index(self) -> list:
        """Per live depth: (depth, sorted packed keys, their rows, the
        sorted distinct keys of the leaves' ancestors at the shallowest
        live depth; at that depth, the keys themselves).  Both key
        arrays end with _KEY_END, above every packed key."""
        if self._index is None:
            self._index = []
            depths = self.live_depths()
            for depth in depths:
                rows = np.flatnonzero(self._depths == depth)
                keys = _pack(self._idx[rows], depth)
                order = np.argsort(keys)
                keys = np.append(keys[order], _KEY_END)
                top = depths[0]
                if depth == top:
                    coarse = keys
                else:
                    coarse = np.append(np.unique(_pack(self._idx[rows] >> (depth - top), top)), _KEY_END)
                self._index.append((depth, keys, rows[order], coarse))
        return self._index

    def lookup(self, lo, hi):
        """Yield (query rows, leaf rows) chunk by chunk: every pair of a
        closed query box [lo[q], hi[q]] (arrays n x naxes) and a live leaf
        meeting it, each pair once.

        Per live depth d, each query gets the exact index range of the
        depth-d cells it meets (``cell_range``).  The range shifted to the
        shallowest live depth is expanded first, and its cells are looked
        up among the ancestors of the depth-d leaves; each ancestor found
        is then expanded into the part of the depth-d range inside it, and
        those cells are looked up among the depth-d leaves.  A depth-d cell
        has one ancestor, so no pair is found twice; at the shallowest
        depth the first stage is the whole lookup.

        Both stages expand a range into runs, not cells (``_expand``):
        the last axis sits in the low bits of the packed key, so a range's
        cells along it form one interval of keys, a run, and one binary
        search per run finds the live keys inside it (``_matches``).  Each
        stage's chunks hold whole items whose runs cover about
        _CHUNK_CANDIDATES cells.
        """
        index = self._address_index()
        for depth, keys, level_rows, coarse in index:
            top = index[0][0]
            shift = depth - top
            i0, i1 = cell_range(lo, hi, self.r_prime, depth)
            rows = np.flatnonzero(~_any_per_row(i0 > i1))
            i0, i1 = i0[rows], i1[rows]
            c0, c1 = i0 >> shift, i1 >> shift
            stage1 = _expand(_pack(c0, top), c1 - c0 + 1, top)
            del c0, c1
            for runs in stage1:
                query, pos = _matches(coarse, runs)
                del runs
                if not shift:
                    yield rows[query], level_rows[pos]
                    continue
                # the depth-d range inside each matched coarse cell
                first, sizes = _clip(i0, i1, query, coarse[pos], top, depth)
                del pos
                for runs in _expand(first, sizes, depth):
                    pair, pos = _matches(keys, runs)
                    yield rows[query[pair]], level_rows[pos]

    def lookup_pieces(self, rows, image):
        """Yield the pairs of ``lookup`` piece by piece, as rows of a CSR
        table: for each piece of _LOOKUP_PIECE consecutive entries of
        ``rows``, in order, ``image(piece)`` gives the query boxes
        (lo, hi), one per entry, and the piece yields the number of
        leaves each box meets and those leaves' rows (int32), sorted by
        (entry, leaf row).  The boxes are made just before their piece
        is looked up, so only one piece's boxes are held at a time.

        An address index built for the pieces is dropped after the last
        one: the edge build, the one caller, is followed by a restriction
        that changes the leaves, and the index is as large as the tree."""
        kept = self._index is not None
        self._address_index()  # built here: the pieces only read it

        for start in range(0, len(rows), _LOOKUP_PIECE):
            piece = rows[start : start + _LOOKUP_PIECE]
            keys = []  # query << 32 | leaf row
            for query, leaf in self.lookup(*image(piece)):
                query <<= 32
                query |= leaf
                keys.append(query)
            key = np.concatenate(keys) if keys else np.empty(0, dtype=np.int64)
            del keys
            key.sort()
            ends = np.searchsorted(key, np.arange(1, len(piece) + 1, dtype=np.int64) << 32)
            key &= 0xFFFFFFFF
            yield np.diff(ends, prepend=0), key.astype(np.int32)
            del key
        if not kept:
            self._index = None

    def conjugate_rows(self):
        """(rows, mirror): the rows whose results must be computed, and
        the row of every live leaf's mirror under complex conjugation,
        or None when nothing is mirrored and ``rows`` are all the rows.

        Conjugation negates the map's ``conjugation_axes``; on a depth-d
        grid it takes cell i to 2^d - 1 - i on those axes.  When every
        live leaf's mirror is a live leaf, the rows are those below their
        mirror's row: one leaf of each mirrored pair, as no leaf below
        the root is its own mirror.
        Otherwise (no such axes, the root alone, or a mirror that is not
        a live leaf) every row is computed.

        The mirror table is searched for once and then kept: removing
        leaves (escape pruning, ``remove_leaves``) renumbers it when the
        leaves removed are closed under conjugation, and ``subdivide``
        extends it to the children when the leaves subdivided are.
        """
        if self._conjugates is None:
            self._conjugates = self._find_conjugates()
        return self._conjugates

    def _find_conjugates(self):
        every = np.arange(len(self._ids)), None
        axes = list(self.model.conjugation_axes)
        if not axes or self._depths.min() == 0:
            return every
        mirror = np.empty(len(self._ids), dtype=np.int64)
        for depth, keys, level_rows, _ in self._address_index():
            idx = self._idx[level_rows].astype(np.int64)
            idx[:, axes] ^= (1 << depth) - 1  # i -> 2^d - 1 - i
            key = _pack(idx, depth)
            pos = np.searchsorted(keys, key)
            if not np.array_equal(keys[pos], key):
                return every
            mirror[level_rows] = level_rows[pos]
        return _pairs(mirror)

    def meeting(self, lo, hi):
        """(query rows, leaf ids) of all the pairs ``lookup`` yields."""
        parts = list(self.lookup(lo, hi))
        if not parts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        query = np.concatenate([q for q, _ in parts])
        return query, self._ids[np.concatenate([r for _, r in parts])]

    # -- queries ---------------------------------------------------------------

    def query_intersect(self, probe: BoxRegion) -> list[int]:
        """Ids of live leaves whose closed boxes meet the closed probe."""
        self.model.check_box(probe)
        axes = probe.axes()
        lo = np.array([[iv.lo for iv in axes]])
        hi = np.array([[iv.hi for iv in axes]])
        return np.sort(self.meeting(lo, hi)[1]).tolist()

    def leaves_containing_point(self, values: tuple) -> list[int]:
        """Live leaves whose closed box contains the point.

        ``values`` are the real axis values (len == naxes).  Points on
        cell boundaries belong to every touching closed cell; a point
        outside V0 or with a non-finite value is in none.
        """
        if len(values) != self.naxes:
            raise UsageError("point does not match the tree's phase space")
        pt = np.array([values], dtype=float)
        return np.sort(self.meeting(pt, pt)[1]).tolist()

    def point_axis_values(self, point: Iterable[complex]) -> tuple:
        """``MapModel.point_axes``: kept for perfbench's coverage check."""
        return self.model.point_axes(point)

    # -- escape pruning ----------------------------------------------------------

    def prune_escaping(self, max_iter: int) -> int:
        """Drop leaves with a forward (or, for Henon kinds, backward)
        interval iterate disjoint from V0 within max_iter steps.

        Iteration for a leaf stops early once its iterate's side length
        exceeds _BLOWUP_FACTOR * R' (enclosure blowup) or the bounds stop
        being finite; such leaves are kept.  Only the ``conjugate_rows``
        are iterated: the iterates of a leaf's mirror are the mirrors of
        its iterates, and every test here is symmetric in each axis.

        The backward pass runs first: every preset's Henon map has
        |a| < 1 and so contracts area (det Df = a), F^-1 expands it, and a
        leaf that is not recurrent leaves V0 sooner backward.  The forward
        pass iterates only the rows the backward pass did not prune.  A
        leaf is pruned iff either direction escapes, and each row's
        iterates do not depend on the other rows, so the pruned set is the
        same in either order, and for any cut of the rows into pieces.

        The rows are iterated in pieces of _PRUNE_PIECE, which bound the
        iterates held at a time; the free memory is handed back to the
        system at the end (``give_back``).
        """
        if max_iter < 1:
            raise UsageError("max_iter must be at least 1")
        model = self.model
        todo, mirror = self.conjugate_rows()
        steps = [batch_backward, batch_forward] if model.is_henon else [batch_forward]
        rp = self.r_prime
        bound = _BLOWUP_FACTOR * rp
        pruned = np.zeros(self.leaf_count, dtype=bool)
        for start in range(0, len(todo), _PRUNE_PIECE):
            rows = todo[start : start + _PRUNE_PIECE]
            out = np.zeros(len(rows), dtype=bool)  # the rows that escape V0
            for step in steps:
                # the positions still iterated in this direction and their iterates
                at = np.flatnonzero(~out)
                cur_lo, cur_hi = self.leaf_bounds(rows[at])
                for _ in range(max_iter):
                    if not len(at):
                        break
                    with np.errstate(over="ignore", invalid="ignore"):
                        cur_lo, cur_hi = step(model, cur_lo, cur_hi)
                    bad = _any_per_row(~(np.isfinite(cur_lo) & np.isfinite(cur_hi)))
                    # a NaN width is on a bad row: there "some width > bound"
                    # and "the largest width > bound" differ, elsewhere not
                    blown = bad | _any_per_row(cur_hi - cur_lo > bound)
                    gone = _any_per_row((cur_lo > rp) | (cur_hi < -rp)) & ~bad
                    out[at[gone]] = True
                    go_on = ~(gone | blown)
                    at, cur_lo, cur_hi = at[go_on], cur_lo[go_on], cur_hi[go_on]
            pruned[rows[out]] = True
        give_back()
        if mirror is not None:
            pruned |= pruned[mirror]
        return self._keep(~pruned)

    def remove_leaves(self, ids) -> int:
        """Drop the live leaves among ``ids`` (an array-like of leaf ids,
        in any order, live or not): their rows are found by one binary
        search each in the ascending live ids."""
        ids = np.asarray(ids, dtype=np.int64).ravel()
        keep = np.ones(len(self._ids), dtype=bool)
        if len(keep):
            rows = np.searchsorted(self._ids, ids)
            keep[rows[self._ids.take(rows, mode="clip") == ids]] = False
        return self._keep(keep)

    @classmethod
    def restore(cls, model: MapModel, addresses) -> "BoxTree":
        """Rebuild a tree from persisted leaf addresses, integer rows
        (depth, i_0, ..., i_{k-1}); leaf ids are 0..n-1 in row order.
        Addresses must be distinct, non-nested grid cells inside V0, no
        deeper than the tree's depth cap.  The tiling is checked a piece
        of rows at a time (``_smallest_clash``), and a clash names the
        smallest pair of rows."""
        tree = cls(model)
        naxes = tree.naxes
        try:
            table = np.array(addresses, dtype=np.int64).reshape(len(addresses), 1 + naxes)
        except (ValueError, TypeError, OverflowError):
            raise UsageError("addresses do not match the map's phase space") from None
        depths, idx = table[:, 0], table[:, 1:]

        def describe(row):
            return f"{int(depths[row])} {tuple(idx[row].tolist())}"

        bad = np.flatnonzero((depths < 0) | (depths > tree.max_depth))
        if len(bad):
            raise UsageError(
                f"address depth {int(depths[bad[0]])} out of range 0..{tree.max_depth} "
                f"(packed addresses need naxes*depth <= {_KEY_BITS})"
            )
        bad = np.flatnonzero(_any_per_row((idx >> depths[:, None]) != 0))
        if len(bad):
            raise UsageError(f"address {describe(bad[0])} outside the grid")
        n = len(table)
        tree._set(np.arange(n, dtype=np.int64), depths.astype(np.int8), idx.astype(np.int32), n)
        del table
        depths, idx = tree._depths, tree._idx  # checked above: they fit
        clash = _smallest_clash(tree)
        if clash is not None:
            a, b = clash
            what = "duplicate" if depths[a] == depths[b] else "nested"
            raise UsageError(f"{what} addresses {describe(a)} and {describe(b)}")
        return tree


def _smallest_clash(tree: BoxTree):
    """The smallest (row, row) pair of distinct live leaves one of which
    holds the other's centre, or None: the leaves tile when none does.
    Rows must be ids.  The centres are looked up _LOOKUP_PIECE rows at
    a time, and a pair may be found from either of its rows' pieces."""
    n = tree.leaf_count
    smallest = n * n  # above the key a * n + b of every pair (a, b)
    for start in range(0, n, _LOOKUP_PIECE):
        lo, hi = tree.leaf_bounds(slice(start, start + _LOOKUP_PIECE))
        centre = 0.5 * (lo + hi)
        query, leaf = tree.meeting(centre, centre)
        query += start
        clash = query != leaf
        key = np.minimum(query, leaf)[clash] * n + np.maximum(query, leaf)[clash]
        smallest = min(smallest, int(key.min(initial=smallest)))
    return divmod(smallest, n) if smallest < n * n else None


def _pack(idx: np.ndarray, depth: int) -> np.ndarray:
    """One int64 key per row of grid indices, axis 0 in the high bits."""
    key = idx[:, 0].astype(np.int64)
    for k in range(1, idx.shape[1]):
        key <<= depth
        key |= idx[:, k]
    return key


def _pairs(mirror: np.ndarray):
    """(rows, mirror): the rows below their mirror's row, one of each
    mirrored pair, and the mirror table."""
    return np.flatnonzero(np.arange(len(mirror)) < mirror), mirror


def _any_per_row(mask: np.ndarray) -> np.ndarray:
    """``mask.any(axis=1)`` of an n x 2 or n x 4 bool array.
    numpy's reduction over so short an axis costs about 25 ns a row, ten
    times this: each row's bytes (0 or 1 each) are read as one unsigned
    integer, which is nonzero iff one of them is."""
    return np.ascontiguousarray(mask).view(f"u{mask.shape[1]}")[:, 0] != 0


def _clip(i0, i1, query, coarse, top: int, depth: int):
    """(first key, sizes) of the depth-``depth`` index ranges of
    ``query`` (rows of [i0, i1]), each clipped to the descendants of its
    depth-``top`` cell ``coarse`` (packed keys); built axis by axis."""
    naxes = i0.shape[1]
    shift = depth - top
    first = np.zeros(len(query), dtype=np.int64)
    sizes = np.empty((len(query), naxes), dtype=np.int64)
    for k in range(naxes):
        cell = (coarse >> (top * (naxes - 1 - k))) & ((1 << top) - 1)
        cell <<= shift
        f0 = np.maximum(i0[query, k], cell)
        cell += (1 << shift) - 1
        np.minimum(i1[query, k], cell, out=cell)
        first <<= depth
        first |= f0
        sizes[:, k] = cell - f0 + 1
    return first, sizes


def _expand(first, sizes, depth: int):
    """Yield (item, key, n) chunk by chunk: the runs of cells of the
    ranges of the items, the depth-``depth`` cells first + o,
    0 <= o < sizes per axis (``first`` packed keys, ``sizes`` n x naxes).
    A run is n cells along the last axis, the keys [key, key + n), one
    per cell of the other axes, and ``item`` names its item.  The runs
    are built one leading axis at a time: each run so far is repeated
    once per cell of the axis, with a ragged arange of those cells.

    A chunk holds whole items whose runs cover about _CHUNK_CANDIDATES
    cells (at least one item)."""
    naxes = sizes.shape[1]
    cells = sizes[:, -1].copy()
    for k in range(naxes - 1):
        cells *= sizes[:, k]
    ends = np.cumsum(cells)
    start = 0
    while start < len(ends):
        done = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + _CHUNK_CANDIDATES, side="right")))
        item, key = np.arange(start, stop), first[start:stop]
        for k in range(naxes - 1):
            size = sizes[item, k]
            ends_k = np.cumsum(size)
            offset = np.arange(ends_k[-1]) - np.repeat(ends_k - size, size)
            offset <<= depth * (naxes - 1 - k)
            offset += np.repeat(key, size)
            item, key = np.repeat(item, size), offset
        yield item, key, sizes[item, -1]
        start = stop


def _matches(keys, runs):
    """(item, position) of every key of ``keys`` inside one of the
    ``runs`` (as ``_expand`` yields them), and the item of its run.

    ``keys`` are sorted and distinct and end with _KEY_END.  One binary
    search per run [k, k + n) finds p, the position of the first key
    >= k.  The keys being distinct integers, keys[p + i] >= k + i, so the
    run's matches are the slice keys[p : p + c] of the keys below k + n,
    and c <= n: pass i tests keys[p + i] < k + n, which holds exactly
    for i < c.  So the passes stop at the first one that matches no run
    (the sentinel, never below, ends each run at the latest), and once
    fewer than half the runs still count, the later passes test only
    those."""
    item, key, n = runs
    pos = np.searchsorted(keys, key)
    count = np.zeros(len(key), dtype=np.int64)
    live, at, end = None, pos.copy(), key + n  # live: the runs still counting, once picked
    while True:
        hit = keys.take(at, mode="clip") < end
        hits = int(np.count_nonzero(hit))
        if not hits:
            break
        if live is not None:
            live, at, end = live[hit], at[hit], end[hit]
            count[live] += 1
        else:
            count += hit
            if 2 * hits < len(hit):
                live = np.flatnonzero(hit)
                at, end = at[live], end[live]
        at += 1
    # the pairs: each run's item c times, and the ragged ranges p .. p + c - 1
    ends = np.cumsum(count)
    pos -= ends
    pos += count
    at = np.repeat(pos, count)
    at += np.arange(len(at))
    return np.repeat(item, count), at


def cell_range(lo, hi, r_prime: float, depth: int):
    """Exact index range [i0, i1] of the closed depth-``depth`` grid cells
    meeting [lo, hi], per element, clipped to [0, 2^depth - 1]; the range
    is empty where i0 > i1, and wherever an endpoint is NaN.

    ``floor((w + R') / c)`` is only an estimate: it lies within one index
    of the answer.  One correction step per end then evaluates the cell
    endpoints ``-R' + i*c`` and ``-R' + i*c + c`` themselves.  Those are
    monotone in i, and exact dyadic doubles (R' has 12 fractional bits,
    c = 2R' / 2^depth), so the range holds exactly the cells that meet
    the interval and its members need no further check.
    """
    cell = math.ldexp(r_prime, 1 - depth)
    nmax = (1 << depth) - 1

    def estimate(w, nan_to):
        x = np.nan_to_num((w + r_prime) / cell, nan=nan_to)
        return np.floor(np.clip(x, -1.0, nmax + 1.0)).astype(np.int64)

    def start(i):
        return -r_prime + i * cell

    # a NaN end estimates past the grid on its own side; the comparisons
    # below are false for it, so i0 > nmax or i1 < 0
    e0 = estimate(lo, nmax + 1.0)
    e1 = estimate(hi, -1.0)
    # lowest i with start(i) + cell >= lo, highest i with start(i) <= hi
    i0 = e0 + 1 - (start(e0) + cell >= lo) - (start(e0 - 1) + cell >= lo)
    i1 = e1 - 1 + (start(e1) <= hi) + (start(e1 + 1) <= hi)
    return np.maximum(i0, 0), np.minimum(i1, nmax)


def init_root(model: MapModel) -> BoxTree:
    """Single live leaf covering V0 (side length 2 R')."""
    return BoxTree(model)


def sink_basin_selector(tree: BoxTree) -> Callable[[int], bool]:
    """Heuristic predicate marking leaves that look like sink-basin boxes.

    Non-rigorous (point arithmetic on leaf centers): a leaf is selected
    when the center's orbit stays sup-norm bounded by R' for
    _SINK_ITERATES steps AND every eigenvalue of the composed derivative
    along that orbit has modulus below 1.  Used only to choose where to
    refine; never in any rigor claim.
    """
    model = tree.model
    ids, _, _, lo, hi = tree.live_arrays()
    pt = model.point_from_axes(list((0.5 * (lo + hi)).T))
    rows, _, multiplier = forward_orbits(model, pt, _SINK_ITERATES, tree.r_prime)
    chosen = set(ids[rows[multiplier < 1.0]].tolist())
    return lambda lid: lid in chosen
