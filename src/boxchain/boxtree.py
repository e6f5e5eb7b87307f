"""Adaptive subdivision tree over the trapping box V0.

Leaves live on dyadic grids: a leaf at depth d with grid indices
(i_0, ..., i_{k-1}) occupies [-R' + i_j * c_d, -R' + (i_j + 1) * c_d]
per real axis, with cell size c_d = 2 R' / 2^d.  R' is a dyadic
rational with 12 fractional bits (snapped by MapModel), so every grid
endpoint is an exact double and the tiling/nesting invariants hold in
exact arithmetic.  Subdivision factor is m = 2 per real axis (2^4
children per box in C^2, 2^2 in C or R^2); addresses are never reused
and pruned leaves are dropped eagerly.

Bulk phases (escape pruning, sink-basin selection) run vectorized over
numpy views of the live leaves; structural mutation happens only in
the bulk commit, so queries between phases are read-only and pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import ResourceError
from .ia import BoxRegion, Interval, UsageError
from .maps import MapModel, batch_backward, batch_forward, sup_bounded

__all__ = [
    "BoxTree",
    "SubdivisionReport",
    "cell_range",
    "init_root",
    "sink_basin_selector",
]


@dataclass(frozen=True)
class SubdivisionReport:
    selected: int
    created: int
    leaf_count: int
    depths: tuple


class BoxTree:
    """Live-leaf registry over dyadic grids, one per depth."""

    def __init__(self, model: MapModel, max_depth: int = 32):
        self.model = model
        self.r_prime = model.r_prime
        self.naxes = model.naxes
        self.m = 2
        self.max_depth = max_depth
        self._live: dict[int, tuple[int, tuple]] = {}
        self._levels: dict[int, dict[tuple, int]] = {}
        self._next_id = 0
        self._cache = None
        root_idx = (0,) * self.naxes
        self._insert(0, root_idx)

    # -- bookkeeping ---------------------------------------------------------

    def _insert(self, depth: int, idx: tuple) -> int:
        lid = self._next_id
        self._next_id += 1
        self._live[lid] = (depth, idx)
        self._levels.setdefault(depth, {})[idx] = lid
        self._cache = None
        return lid

    def _remove(self, lid: int) -> None:
        depth, idx = self._live.pop(lid)
        level = self._levels[depth]
        del level[idx]
        if not level:
            del self._levels[depth]
        self._cache = None

    def __len__(self):
        return len(self._live)

    @property
    def leaf_count(self) -> int:
        return len(self._live)

    def live_ids(self) -> list[int]:
        return sorted(self._live)

    def live_depths(self) -> list[int]:
        return sorted(self._levels)

    def depth_counts(self) -> dict[int, int]:
        return {d: len(lvl) for d, lvl in sorted(self._levels.items())}

    def leaf_address(self, lid: int) -> tuple[int, tuple]:
        return self._live[lid]

    def has_leaf(self, lid: int) -> bool:
        return lid in self._live

    def addresses(self) -> set:
        return set(self._live.values())

    # -- exact grid geometry ---------------------------------------------------

    def cell_size(self, depth: int) -> float:
        """2 R' / 2^depth, exact (R' dyadic, power-of-two division)."""
        return math.ldexp(self.r_prime, 1 - depth)

    def epsilon(self) -> float:
        """Max live-leaf side length (cell size of the shallowest depth)."""
        return self.cell_size(min(self._levels))

    def epsilon_min(self) -> float:
        return self.cell_size(max(self._levels))

    def _axis_interval(self, depth: int, i: int) -> Interval:
        cell = self.cell_size(depth)
        lo = -self.r_prime + i * cell
        return Interval(lo, lo + cell)

    def leaf_box(self, lid: int) -> BoxRegion:
        depth, idx = self._live[lid]
        return self.box_at(depth, idx)

    def box_at(self, depth: int, idx: tuple) -> BoxRegion:
        return self.model.box_from_axes([self._axis_interval(depth, i) for i in idx])

    # -- numpy views -----------------------------------------------------------

    def live_arrays(self):
        """(ids, depths, indices, lo, hi) for all live leaves, id-sorted."""
        if self._cache is None:
            ids = np.array(sorted(self._live), dtype=np.int64)
            n = len(ids)
            depths = np.empty(n, dtype=np.int64)
            idxs = np.empty((n, self.naxes), dtype=np.int64)
            for row, lid in enumerate(ids):
                d, ix = self._live[lid]
                depths[row] = d
                idxs[row] = ix
            cells = np.ldexp(self.r_prime, 1 - depths)
            lo = -self.r_prime + idxs * cells[:, None]
            hi = -self.r_prime + (idxs + 1) * cells[:, None]
            self._cache = (ids, depths, idxs, lo, hi)
        return self._cache

    # -- subdivision -------------------------------------------------------------

    def subdivide(self, selector: Callable[[int], bool]) -> SubdivisionReport:
        """Replace selected live leaves by their 2-per-axis children."""
        selected = [lid for lid in sorted(self._live) if selector(lid)]
        if selected:
            deepest = max(self._live[lid][0] for lid in selected)
            if deepest + 1 > self.max_depth:
                raise ResourceError(
                    f"subdivision would exceed max depth {self.max_depth}"
                )
        offsets = list(itertools.product((0, 1), repeat=self.naxes))
        created = 0
        for lid in selected:
            depth, idx = self._live[lid]
            self._remove(lid)
            base = tuple(2 * i for i in idx)
            for off in offsets:
                self._insert(depth + 1, tuple(b + o for b, o in zip(base, off)))
                created += 1
        return SubdivisionReport(
            selected=len(selected),
            created=created,
            leaf_count=len(self._live),
            depths=tuple(sorted(self._levels)),
        )

    # -- queries ---------------------------------------------------------------

    def query_intersect(self, probe: BoxRegion) -> list[int]:
        """Ids of live leaves whose closed boxes meet the closed probe.

        Only grid cells inside the probe's exact index range per depth
        are examined (the address form of subtree pruning).
        """
        self.model.check_box(probe)
        axes = probe.axes()
        lo = np.array([iv.lo for iv in axes])
        hi = np.array([iv.hi for iv in axes])
        out = []
        for depth, level in self._levels.items():
            i0, i1 = cell_range(lo, hi, self.r_prime, depth)
            if (i0 > i1).any():
                continue
            ranges = list(zip(i0.tolist(), i1.tolist()))
            if math.prod(b - a + 1 for a, b in ranges) <= len(level):
                candidates = itertools.product(*[range(a, b + 1) for a, b in ranges])
                out.extend(lid for lid in map(level.get, candidates) if lid is not None)
            else:
                out.extend(
                    lid
                    for idx, lid in level.items()
                    if all(a <= i <= b for i, (a, b) in zip(idx, ranges))
                )
        out.sort()
        return out

    def leaves_containing_point(self, values: tuple) -> list[int]:
        """Live leaves whose closed box contains the point.

        ``values`` are the real axis values (len == naxes).  Points on
        cell boundaries belong to every touching closed cell.
        """
        if len(values) != self.naxes:
            raise UsageError("point does not match the tree's phase space")
        rp = self.r_prime
        out = []
        for depth, level in self._levels.items():
            cell = self.cell_size(depth)
            nmax = (1 << depth) - 1
            cand_per_axis = []
            ok = True
            for v in values:
                if v < -rp or v > rp:
                    ok = False
                    break
                i = int(math.floor((v + rp) / cell))
                cands = set()
                for j in (i - 1, i, i + 1):
                    if 0 <= j <= nmax:
                        lo = -rp + j * cell
                        if lo <= v <= lo + cell:
                            cands.add(j)
                if not cands:
                    ok = False
                    break
                cand_per_axis.append(sorted(cands))
            if not ok:
                continue
            for idx in itertools.product(*cand_per_axis):
                lid = level.get(idx)
                if lid is not None:
                    out.append(lid)
        out.sort()
        return out

    def point_axis_values(self, point: Iterable[complex]) -> tuple:
        return self.model.point_axes(point)

    # -- escape pruning ----------------------------------------------------------

    def prune_escaping(self, max_iter: int, blowup_factor: float = 8.0) -> int:
        """Drop leaves with a forward (or, for Henon kinds, backward)
        interval iterate disjoint from V0 within max_iter steps.

        Iteration for a leaf stops early once its iterate's side length
        exceeds blowup_factor * R' (enclosure blowup) or the bounds stop
        being finite; such leaves are kept.
        """
        if max_iter < 1:
            raise UsageError("max_iter must be at least 1")
        ids, _, _, lo, hi = self.live_arrays()
        pruned = np.zeros(len(ids), dtype=bool)
        directions = [batch_forward]
        if self.model.is_henon:
            directions.append(batch_backward)
        rp = self.r_prime
        bound = blowup_factor * rp
        for step in directions:
            cur_lo = lo.copy()
            cur_hi = hi.copy()
            active = ~pruned
            for _ in range(max_iter):
                if not active.any():
                    break
                with np.errstate(over="ignore", invalid="ignore"):
                    nlo, nhi = step(self.model, cur_lo[active], cur_hi[active])
                cur_lo[active] = nlo
                cur_hi[active] = nhi
                bad = ~np.isfinite(nlo).all(axis=1) | ~np.isfinite(nhi).all(axis=1)
                blown = bad | ((nhi - nlo).max(axis=1) > bound)
                escaped = ((nlo > rp) | (nhi < -rp)).any(axis=1) & ~bad
                rows = np.flatnonzero(active)
                pruned[rows[escaped]] = True
                active[rows[escaped | blown]] = False
        for lid in ids[pruned]:
            self._remove(int(lid))
        return int(pruned.sum())

    def remove_leaves(self, ids: Iterable[int]) -> int:
        n = 0
        for lid in ids:
            if lid in self._live:
                self._remove(lid)
                n += 1
        return n

    @classmethod
    def restore(cls, model: MapModel, addresses, max_depth: int = 32) -> "BoxTree":
        """Rebuild a tree from persisted (depth, idx) leaf addresses;
        leaf ids are assigned 0..n-1 in the given order.  Addresses must
        be distinct, non-nested grid cells inside V0."""
        tree = cls(model, max_depth=max_depth)
        tree.remove_leaves(tree.live_ids())
        tree._next_id = 0
        for depth, idx in addresses:
            idx = tuple(idx)
            if len(idx) != tree.naxes:
                raise UsageError("address does not match the map's phase space")
            if not 0 <= depth <= max_depth:
                raise UsageError(f"address depth {depth} out of range")
            if min(idx) < 0 or max(idx) >= 1 << depth:
                raise UsageError(f"address {idx} outside the depth-{depth} grid")
            if idx in tree._levels.get(depth, ()):
                raise UsageError(f"duplicate address {depth} {idx}")
            tree._insert(depth, idx)
        # leaves tile: no address lies inside another (checked from the deeper one)
        for outer, depth in itertools.combinations(tree.live_depths(), 2):
            for idx in tree._levels[depth]:
                anc = tuple(i >> (depth - outer) for i in idx)
                if anc in tree._levels[outer]:
                    raise UsageError(f"nested addresses {outer} {anc} and {depth} {idx}")
        return tree


def cell_range(lo, hi, r_prime: float, depth: int):
    """Exact index range [i0, i1] of the closed depth-``depth`` grid cells
    meeting [lo, hi], per element, clipped to [0, 2^depth - 1]; the range
    is empty where i0 > i1.

    ``floor((w + R') / c)`` is only an estimate: it lies within one index
    of the answer.  One correction step per end then evaluates the cell
    endpoints ``-R' + i*c`` and ``-R' + i*c + c`` themselves.  Those are
    monotone in i, and exact dyadic doubles (R' has 12 fractional bits,
    c = 2R' / 2^depth), so the range holds exactly the cells that meet
    the interval and its members need no further check.
    """
    cell = math.ldexp(r_prime, 1 - depth)
    nmax = (1 << depth) - 1

    def estimate(w):
        return np.floor(np.clip((w + r_prime) / cell, -1.0, nmax + 1.0)).astype(np.int64)

    def start(i):
        return -r_prime + i * cell

    e0 = estimate(lo)
    e1 = estimate(hi)
    # lowest i with start(i) + cell >= lo, highest i with start(i) <= hi
    i0 = e0 + 1 - (start(e0) + cell >= lo) - (start(e0 - 1) + cell >= lo)
    i1 = e1 - 1 + (start(e1) <= hi) + (start(e1 + 1) <= hi)
    return np.maximum(i0, 0), np.minimum(i1, nmax)


def init_root(model: MapModel, max_depth: int = 32) -> BoxTree:
    """Single live leaf covering V0 (side length 2 R')."""
    return BoxTree(model, max_depth=max_depth)


def sink_basin_selector(
    tree: BoxTree, iterates: int = 12, threshold: float = 1.0
) -> Callable[[int], bool]:
    """Heuristic predicate marking leaves that look like sink-basin boxes.

    Non-rigorous (point arithmetic on leaf centers): a leaf is selected
    when the center's orbit stays sup-norm bounded by R' for `iterates`
    steps AND every eigenvalue of the composed derivative along that
    orbit has modulus below `threshold`.  Used only to choose where to
    refine; never in any rigor claim.
    """
    if iterates < 1:
        raise UsageError("iterates must be at least 1")
    if not 0.0 < threshold <= 1.0:
        raise UsageError("threshold must lie in (0, 1]")
    model = tree.model
    ids, _, _, lo, hi = tree.live_arrays()
    mid = 0.5 * (lo + hi)
    rp = tree.r_prime
    n = len(ids)
    pt = model.coords_from_axes(
        list(mid.T), lambda re, im: re.astype(complex) if im is None else re + 1j * im
    )
    ok = np.ones(n, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        if model.is_henon:
            m00 = np.ones(n, dtype=complex)
            m01 = np.zeros(n, dtype=complex)
            m10 = np.zeros(n, dtype=complex)
            m11 = np.ones(n, dtype=complex)
            a = model.a
            for _ in range(iterates):
                j00 = 2.0 * pt[0]
                n00 = j00 * m00 - a * m10
                n01 = j00 * m01 - a * m11
                m00, m01, m10, m11 = n00, n01, m00, m01
                pt = model.point_forward(pt)
                ok &= sup_bounded(pt, rp)
            tr = m00 + m11
            det = m00 * m11 - m01 * m10
            disc = np.sqrt(tr * tr - 4.0 * det)
            lmax = np.maximum(np.abs((tr + disc) / 2.0), np.abs((tr - disc) / 2.0))
            small = np.isfinite(lmax) & (lmax < threshold)
        else:
            prod = np.ones(n, dtype=complex)
            for _ in range(iterates):
                prod = prod * model.point_derivative(pt)
                pt = model.point_forward(pt)
                ok &= sup_bounded(pt, rp)
            small = np.isfinite(np.abs(prod)) & (np.abs(prod) < threshold)
    chosen = set(ids[ok & small].tolist())
    return lambda lid: lid in chosen
