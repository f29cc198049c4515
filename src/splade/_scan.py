"""Exact branch-and-bound argmax of the rectangle contrast over a box of corners.

The search space is one integer range of lower corners and one of upper
corners per axis: every corner for the naive estimator, a window around each
coarse corner for the refinement.  A pair is scored by its squared contrast
(S - v*tbar)^2 / (v*(n - v)) (S = sum inside, v = volume, n = cell count,
tbar = grand mean).  Each search tabulates its own cells: only those of the
hull of its corners, less ref = rint(tbar).  It builds one prefix table of
three channels on a leading axis from those centred cells.  Channel 0, a
contiguous table of its own, holds sums S' of the cells, so that
S - v*tbar = S' - v*(tbar - ref), read off the table in 2^d terms through
``lattice.box_sums`` with the corners taken relative to the hull.  Centring
on an integer keeps integer cells exact, and tbar - ref is exact (Sterbenz),
so two rectangles of equal volume and equal sum score the same bits and the
tie rule below decides between them; and the table's magnitude, with it the
rounding allowances, does not grow with the data's level.

Rather than score every pair, the search works on nodes: a node holds one
range of lo corners and one of hi corners per axis, as table indices.  Every
rectangle of a node contains its smallest rectangle R_min (largest lo, smallest
hi) and lies inside its largest R_max (smallest lo, largest hi).  The
table's channels 1 and 2 bound every rectangle R of the node: Y+ sums
max(x - tbar, 0) and Q sums (x - tbar)^2.  With Z(R) = S(R) - v*tbar and
Y-(R) = Y+(R) - Z(R) (the sums of max(tbar - x, 0), not stored), the node's
R have

    |Z(R)| <= max(Y+(R_max) - Y-(R_min), Y-(R_max) - Y+(R_min))
            = Y+(R_max) - Y+(R_min) + max(Z(R_min), -Z(R_max))

(Z and Y+ of an empty R_min are 0), and v*(n - v) is at least its minimum
over the node's admissible integer volumes, which is reached at an end of that
volume interval.  The ratio of the two is the subwindow bound of Lampert,
Blaschko & Hofmann (CVPR 2008), as used for rectangular scan statistics by
Neill & Moore (KDD 2004).  Its denominator is smallest where R_min is empty or
thin, so there it is loose; but by Cauchy-Schwarz every R of the node also has

    Z(R)^2 <= v * Q(R) <= v * Q(R_max),  so  score <= Q(R_max) / (n - v_b)

with v_b the node's largest admissible volume, free of the smallest one.  A
node's bound is the smaller of the two, each widened for rounding:

* ``slack`` bounds the absolute error of any one sum (the score and Y+
  channels, and the scorer's own 2^d terms and v*(tbar - ref)) by
  4^d * (cells + 1) unit roundoffs of ``scale``, a bound on every magnitude
  involved, with cells the hull's cell count; it widens the shell numerator,
  and in the Cauchy-Schwarz term it covers the error of the scorer's Z, which
  enters the score as Z / sqrt(v).
* ``q_err`` bounds how far sqrt(Q(R_max) + q_err) must reach to cover the
  exact Q of the hull's cells; see ``_rounding_allowances``.

Both are sums over the hull of |x - ref| and (x - tbar)^2.  An offset on every
cell moves ref with it (to the nearest integer), so it changes each |x - ref|
by at most 1 and no (x - tbar)^2: the search prunes as well at any level of
the data.

The search runs in levels.  The root is halved _ROOT_SPLITS times before
anything is bounded, since the first levels would prune nothing and one bound
call costs about the same for any node count up to a few hundred.  Each level
then bounds its nodes with one corner set (every node's R_max and R_min
together) and one ``box_sums`` call over the three channels, which yields Z,
Y+ and Q of each; the Zs are scored, the best score raising the incumbent.
It drops the nodes the incumbent rules out, and halves each survivor twice,
each time along its longest range; a node of at most _LEAF_PAIRS pairs is
never split but becomes a leaf.  The leaves are then scored
highest-bound-first in batches of at most _BATCH_PAIRS pairs, and the bound is
re-checked against the rising incumbent before each batch.  A search space of
at most _BATCH_PAIRS pairs is scored whole, as one leaf, since bounding it
would cost more than it saves.

Only nonempty pairs are scored (lo < hi on every axis).  On each axis a
leaf's nonempty pairs are set by its two range lengths and the gap from its
first lo corner to its first hi corner; leaves of a batch that agree in all
three on every axis share one vectorized gather of channel 0.  An axis whose
ranges overlap lists its nonempty pairs, and an axis whose pairs are all
nonempty keeps its two ranges as a product, so that each corner term reads
one range and not every pair.  A 15 x 22 search scored whole thus reads
30,360 pairs, not the 108,900 of its four ranges' product.

Every scored pair goes through one deterministic tie rule: maximal |contrast|,
then smallest volume, then lexicographically smallest lower corner, then upper
corner.  The result is therefore exactly the pair that scoring every candidate
would return.

All state lives in one ``_Search`` per call, so concurrent calls share nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import LatticeError, Rect, block_sums, box_sums, prefix_table

_LEAF_PAIRS = 256
_BATCH_PAIRS = 1 << 18
# Halvings of the root before the first bound.  One ``_bound`` call costs
# about the same (~0.2 ms on a 2-core x86 machine) for any count up to ~256
# nodes, and the levels above 256 nodes prune nothing, so they are skipped.
_ROOT_SPLITS = 8
_EPS = 1e-9
_UNIT_ROUNDOFF = 2.0**-53


class NoAdmissibleRectError(LatticeError):
    """Candidate set empty after volume and ordering constraints."""


class DegenerateScanError(LatticeError):
    """Every admissible candidate has zero contrast (constant data)."""


# The best pair so far is the key (-score_sq, volume, lo, hi): the smaller
# key wins, so ``min`` applies the tie rule.  _NONE: no admissible pair yet.
_NONE = (math.inf,)


def best_rectangle(cells, lo, hi, vol_min: float, vol_max: float) -> tuple[Rect, float]:
    """Return the admissible (lo, hi) pair maximizing |contrast| over the array
    ``cells`` (any strides), with its score.

    ``lo[k]`` / ``hi[k]`` are ``range``s (step 1) of the lower / upper corners
    on axis k, within ``0..cells.shape[k]``.  Admissible pairs satisfy
    ``lo < hi`` coordinatewise and ``vol_min < volume < vol_max`` (both strict).
    """
    cells = np.asarray(cells, dtype=np.float64)
    n = cells.size
    vmax = min(float(vol_max), float(n))
    vmin = max(float(vol_min), 0.0)
    if not all(lo) or not all(hi):
        raise NoAdmissibleRectError("empty candidate axis")

    search = _Search(cells, lo, hi, vmin, vmax)
    best = search.run()
    if best == _NONE:
        raise NoAdmissibleRectError(
            f"no candidate with volume in ({vmin}, {vmax}) and lo < hi"
        )
    neg_score_sq, _, lo, hi = best
    if neg_score_sq == 0.0:
        raise DegenerateScanError("all admissible contrasts are zero")
    return Rect(lo, hi).shift(search.hull), math.sqrt(-neg_score_sq)


class _Search:
    """One branch-and-bound search; see the module docstring."""

    def __init__(self, cells, lo, hi, vmin, vmax):
        d = cells.ndim
        self.d = d
        self.n = cells.size
        tbar = block_sums(cells, [(0,)] * d).item() / self.n
        ref = float(np.rint(tbar))
        self.delta = tbar - ref  # exact, by Sterbenz
        # the hull of the corners: every box a pair reads lies inside it
        self.hull = tuple(min(l.start, h.start) for l, h in zip(lo, hi))
        top = [max(l[-1], h[-1]) for l, h in zip(lo, hi)]
        self.centred = cells[tuple(slice(h, t) for h, t in zip(self.hull, top))] - ref
        y = self.centred - self.delta
        # channel 0 (S') scores pairs; channels 1 (Y+) and 2 (Q) bound nodes
        self.tables = prefix_table([self.centred, np.maximum(y, 0.0), y * y])
        # the root node: slot k < d is lo on axis k, slot d + k is hi, as table indices
        self.root = np.array(
            [[[r.start - h, r.stop - h] for r, h in zip(lo + hi, self.hull + self.hull)]], dtype=np.int32
        )
        # the admissible volumes: integers v with vmin < v < vmax
        self.v_first = max(math.floor(vmin) + 1, 1)
        self.v_last = math.ceil(vmax) - 1

    def run(self) -> tuple:
        """The key of the best pair, or _NONE."""
        nodes = self.root
        if _pairs(nodes)[0] <= _BATCH_PAIRS:
            return self._score_leaves(nodes, _NONE)
        self._rounding_allowances()
        best, incumbent = _NONE, -1.0
        leaves, leaf_bounds = [], []
        nodes = _split(nodes, _ROOT_SPLITS)
        while len(nodes):
            bound, seed = self._bound(nodes)
            incumbent = max(incumbent, seed)
            keep = bound >= incumbent * (1.0 - _EPS)
            nodes, bound = nodes[keep], bound[keep]
            is_leaf = _pairs(nodes) <= _LEAF_PAIRS
            leaves.append(nodes[is_leaf])
            leaf_bounds.append(bound[is_leaf])
            nodes = _split(nodes[~is_leaf], 2)

        leaf_bounds = np.concatenate(leaf_bounds)
        order = np.argsort(-leaf_bounds, kind="stable")
        leaves = np.concatenate(leaves)[order]
        leaf_bounds = leaf_bounds[order]
        ends = np.cumsum(_pairs(leaves))
        start = 0
        while start < len(leaves):
            threshold = incumbent * (1.0 - _EPS)
            if leaf_bounds[start] < threshold:
                break
            done = ends[start - 1] if start else 0
            stop = max(int(np.searchsorted(ends, done + _BATCH_PAIRS, side="right")), start + 1)
            batch = leaves[start:stop][leaf_bounds[start:stop] >= threshold]
            best = self._score_leaves(batch, best)
            incumbent = max(incumbent, -best[0])
            start = stop
        return best

    def _rounding_allowances(self):
        """The bound's rounding allowances ``slack`` and ``q_err``, for the
        Y+ and Q channels of ``tables``.

        Let x' = fl(c - ref) be the centred hull cells the score channel sums,
        y the exact deviations c - tbar (tbar as computed), and
        y' = fl(x' - (tbar - ref)) those the Y+ and Q channels sum.  To first
        order in the unit roundoff u, every cell, every partial sum of the
        score and Y+ channels, every v*|tbar - ref| and every |Z| is at most

            scale = sum |x'| + cells * |tbar - ref|

        (the sums over the hull's cells), since |y'| <= |x'| + |tbar - ref|
        and no box holds more than ``cells`` cells.  ``slack`` is
        4^d * (cells + 1) unit roundoffs of ``scale`` (see the module
        docstring).

        ``q_err`` covers the rounding in Q.  Each y' errs by at most
        2 * u * scale <= delta = 4^d * u * scale, so by the triangle
        inequality over the cells of a box R,
        sqrt(Q_y(R)) <= sqrt(Q_y'(R)) + eta with eta = sqrt(cells) * delta.
        Squaring y', the prefix sums of the squares (terms >= 0) and the 2^d
        corner terms err by at most q_abs = 4^d * (cells + 1) * u * Q_tot,
        with Q_tot the channel's total, so Q_y'(R) <= Q(R) + q_abs and
        Q(R) + q_abs <= Q_tot + 3 * q_abs.  Squaring out,

            sqrt(Q_y(R)) <= sqrt(Q(R) + q_abs) + eta <= sqrt(Q(R) + q_err)
            with q_err = q_abs + eta * (2 * sqrt(Q_tot + 3 * q_abs) + eta).

        Neither ``scale`` nor Q_tot grows with an offset on every cell.
        """
        d = self.d
        cells = self.centred.size
        roundoffs = 4.0**d * (cells + 1) * _UNIT_ROUNDOFF
        scale = float(np.abs(self.centred).sum()) + cells * abs(self.delta)
        self.slack = roundoffs * scale
        q_tot = float(self.tables[2][(-1,) * d])  # the whole hull's sum
        q_abs = roundoffs * q_tot
        eta = math.sqrt(cells) * 4.0**d * _UNIT_ROUNDOFF * scale
        self.q_err = q_abs + eta * (2.0 * math.sqrt(q_tot + 3.0 * q_abs) + eta)

    def _sums(self, channels, lo, hi):
        """Box sums of the first ``channels`` channels of ``tables``, with channel
        0 turned into S - v*tbar = S' - v*(tbar - ref), and the volumes of the
        pairs given by per-axis corner arrays (hull-relative table indices).

        ``lo[k]`` / ``hi[k]`` broadcast to one shape.  Empty pairs have volume 0
        and an arbitrary contrast.
        """
        sums = box_sums(self.tables[:channels], lo, hi)
        volf = np.maximum(hi[0] - lo[0], 0).astype(np.float64)
        for k in range(1, self.d):
            volf = volf * np.maximum(hi[k] - lo[k], 0)
        sums[0] -= volf * self.delta
        return sums, volf

    def _scores(self, z, volf, out=None):
        """Squared contrasts of ``_sums``' pairs; inadmissible pairs score -1."""
        s = np.square(z, out=out)
        with np.errstate(over="ignore"):  # only empty pairs, about to be masked
            s /= np.maximum((self.n - volf) * volf, 1e-300)
        s[(volf < self.v_first) | (volf > self.v_last)] = -1.0
        return s

    def _bound(self, nodes):
        """Each node's squared-score bound (-inf when no volume is admissible),
        and the best squared score among the nodes' R_max and R_min."""
        d, m = self.d, len(nodes)
        first, last = nodes[:, :, 0], nodes[:, :, 1] - 1
        # one corner set: every node's R_max, then every node's R_min (may be empty)
        lo = np.concatenate((first[:, :d], last[:, :d])).T
        hi = np.concatenate((last[:, d:], first[:, d:])).T
        (z, y, q), volf = self._sums(3, lo, hi)
        seed = float(self._scores(z, volf).max())
        v_out, v_in = volf[:m], volf[m:]
        va = np.maximum(v_in, self.v_first)
        vb = np.minimum(v_out, self.v_last)
        den = np.minimum(va * (self.n - va), vb * (self.n - vb))

        z_out, z_in = z[:m], z[m:]
        y_out, y_in, q_out = y[:m], y[m:], q[:m]
        empty = v_in == 0
        z_in[empty] = 0.0
        y_in[empty] = 0.0
        num = y_out - y_in + np.maximum(z_in, -z_out) + self.slack
        with np.errstate(divide="ignore", invalid="ignore"):
            cs = np.sqrt(q_out + self.q_err) + self.slack
            bound = np.minimum(num * num / den, cs * cs / (self.n - vb))
            bound = np.where(va <= vb, bound, -np.inf)
        return bound, seed

    def _score_leaves(self, leaves, best):
        """Score every nonempty pair of the leaves; return the smaller of ``best``
        and their best key."""
        d = self.d
        starts = leaves[:, :, 0]
        lens = leaves[:, :, 1] - starts
        # on axis k a leaf's pairs are set by its two range lengths and the gap
        # from its first lo to its first hi, clipped to where no pair or every
        # pair is nonempty
        gaps = np.clip(starts[:, d:] - starts[:, :d], 1 - lens[:, d:], lens[:, :d])
        # leaves of one signature, in runs: lexsort is stable and ~5x faster
        # here than np.unique(axis=0), which sorts the rows as raw bytes
        sigs = np.concatenate((lens, gaps), axis=1)
        order = np.lexsort(sigs.T)
        sigs = sigs[order]
        cuts = np.flatnonzero(np.any(sigs[1:] != sigs[:-1], axis=1)) + 1
        for start, stop in zip([0, *cuts.tolist()], [*cuts.tolist(), len(order)]):
            sig = sigs[start].tolist()
            offsets = [_axis_pairs(sig[k], sig[d + k], sig[2 * d + k]) for k in range(d)]
            if not all(lo_off.size for lo_off, _ in offsets):
                continue
            members = leaves[order[start:stop]]
            # each axis's offsets on their own one or two slots, plus the
            # members' first corners on a last slot: the leaf axis goes last
            # so that the broadcast passes run long inner loops
            rank = sum(lo_off.ndim for lo_off, _ in offsets)
            lo, hi, at = [], [], 0
            for k, (lo_off, hi_off) in enumerate(offsets):
                pad = (1,) * at, (1,) * (rank - at - lo_off.ndim + 1)
                lo.append(lo_off.reshape(pad[0] + lo_off.shape + pad[1]) + members[:, k, 0])
                hi.append(hi_off.reshape(pad[0] + hi_off.shape + pad[1]) + members[:, d + k, 0])
                at += lo_off.ndim
            (z,), volf = self._sums(1, lo, hi)
            score = self._scores(z, volf, out=z)
            top = float(score.max())
            if top < 0.0 or -top > best[0]:
                continue
            sel = score == top
            vmin = float(volf[sel].min())
            if (-top, vmin) > best[:2]:
                continue
            sel &= volf == vmin
            hits = np.unravel_index(np.flatnonzero(sel), sel.shape)
            corners = min(zip(*(c[hits].tolist() for c in np.broadcast_arrays(*lo, *hi))))
            best = min(best, (-top, int(vmin), corners[:d], corners[d:]))
        return best


def _axis_pairs(lo_len, hi_len, gap):
    """Offsets into a lo range of ``lo_len`` and a hi range of ``hi_len`` corners,
    the hi range starting ``gap`` after the lo range, that broadcast to the
    axis's pairs with lo < hi.

    When every pair is nonempty they are the two ranges on two slots: a
    corner term then reads one range only, and the score's 2^d terms read
    fewer cells than it has pairs.  Listed instead, those pairs made the
    4-D 10^4 call of perfbench's detect-nd workload 48 ms where this takes
    29 ms, and its 3-D 24^3 call 28 ms where this takes 22 ms (2-core x86
    machine).  Otherwise
    they list the nonempty pairs on one slot, each i with every j from
    max(i + 1 - gap, 0) on.  Listed by ``np.nonzero`` of a lo_len x hi_len
    mask, they made a 128-point 1-D search scored whole 0.36 ms and a
    512-point one 8.6 ms, level with scoring the whole product (0.38 and
    9.0 ms); the counts below take 0.31 and 6.9 ms.
    """
    if gap >= lo_len:
        return np.arange(lo_len)[:, None], np.arange(hi_len)[None, :]
    first = np.maximum(np.arange(lo_len) + 1 - gap, 0)
    counts = np.maximum(hi_len - first, 0)
    i = np.repeat(np.arange(lo_len), counts)
    j = np.arange(i.size) - np.repeat(np.cumsum(counts) - counts - first, counts)
    return i, j


def _pairs(nodes):
    return np.prod(nodes[:, :, 1] - nodes[:, :, 0], axis=1, dtype=np.int64)


def _split(nodes, times=1):
    """Halve every node of more than _LEAF_PAIRS pairs ``times`` times, each
    time along its longest candidate range; smaller nodes stay whole.

    The cut falls at the largest power of two below the range length, so most
    leaves get power-of-two lengths and a batch has few distinct leaf shapes.
    """
    for _ in range(times):
        big = _pairs(nodes) > _LEAF_PAIRS
        parents = nodes[big]
        rows = np.arange(len(parents))
        lengths = parents[:, :, 1] - parents[:, :, 0]
        slot = np.argmax(lengths, axis=1)
        _, exp = np.frexp(lengths[rows, slot] - 1)
        mid = parents[rows, slot, 0] + (1 << (exp - 1))
        left, right = parents.copy(), parents.copy()
        left[rows, slot, 1] = mid
        right[rows, slot, 0] = mid
        nodes = np.concatenate([nodes[~big], left, right])
    return nodes
