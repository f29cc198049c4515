"""Exact branch-and-bound argmax of the rectangle contrast over product candidate sets.

The search space is the Cartesian product of per-axis lower-corner candidates
and per-axis upper-corner candidates.  A pair is scored by its squared contrast
(S - v*tbar)^2 / (v*(n - v)) (S = sum inside, v = volume, n = cell count,
tbar = grand mean), read off the prefix table in 2^d terms through
``lattice.box_sums``, all relative to the table's window (the candidates are
shifted by its origin once).

Rather than score every pair, the search works on nodes: a node holds one
index range of lo candidates and one of hi candidates per axis.  Every
rectangle of a node contains its smallest rectangle R_min (largest lo, smallest
hi) and lies inside its largest R_max (smallest lo, largest hi).  Two prefix
tables, stacked on a last axis and built from the cell values the prefix table
encodes, bound every rectangle R of the node: Y+ of max(x - tbar, 0) and Q of
(x - tbar)^2.  With Z(R) = S(R) - v*tbar and Y-(R) = Y+(R) - Z(R) (the table of
max(tbar - x, 0), not stored), the node's R have

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

* ``slack`` bounds the absolute error of any one sum of the tables (the prefix
  table, its differencing into cells, the Y+ table and the scorer's own 2^d
  terms) by 4^d * (cells + 1) unit roundoffs of the largest magnitude
  involved; it widens the shell numerator, and in the Cauchy-Schwarz term it
  covers the error of the scorer's Z, which enters the score as Z / sqrt(v).
* ``q_err`` bounds how far sqrt(Q(R_max) + q_err) must reach to cover the
  exact Q of the encoded cells; see ``_build_bound_tables``.  It grows
  linearly with the tables' magnitude, so an offset on every cell (which Q
  does not see) barely loosens the term.

The search runs in levels.  The root is halved _ROOT_SPLITS times before
anything is bounded, since the first levels would prune nothing and one bound
call costs about the same for any node count up to a few hundred.  Each level
then bounds its nodes with one corner set (every node's R_max and R_min
together: one pass over the prefix table, which yields Z of each and scores
them, the best score raising the incumbent, and one over the Y+/Q table), drops the nodes the incumbent rules out, and halves each survivor
twice, each time along its longest range; a node of at most _LEAF_PAIRS pairs
is never split but becomes a leaf.  The leaves are then scored
highest-bound-first in batches of at most _BATCH_PAIRS pairs, leaves of a batch
with equal range lengths sharing one vectorized gather, and the bound is
re-checked against the rising incumbent before each batch.  A search space of
at most _BATCH_PAIRS pairs is scored whole, as one leaf, since bounding it
would cost more than it saves.

Every scored pair goes through one deterministic tie rule: maximal |contrast|,
then smallest volume, then lexicographically smallest lower corner, then upper
corner.  The result is therefore exactly the pair that scoring every candidate
would return.

All state lives in one ``_Search`` per call, so concurrent calls share nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import LatticeError, PrefixSum, Rect, box_sums, prefix_table, table_cells

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


def best_rectangle(ps: PrefixSum, lo_axes, hi_axes, vol_min: float, vol_max: float) -> tuple[Rect, float]:
    """Return the admissible (lo, hi) pair maximizing |contrast|, with its score.

    ``lo_axes[k]`` / ``hi_axes[k]`` are ascending int arrays of per-axis corner
    candidates.  Admissible pairs satisfy ``lo < hi`` coordinatewise and
    ``vol_min < volume < vol_max`` (both strict).
    """
    n = ps.size
    vmax = min(float(vol_max), float(n))
    vmin = max(float(vol_min), 0.0)
    lo_axes = [np.asarray(a, dtype=np.int64) for a in lo_axes]
    hi_axes = [np.asarray(a, dtype=np.int64) for a in hi_axes]
    if any(a.size == 0 for a in lo_axes) or any(a.size == 0 for a in hi_axes):
        raise NoAdmissibleRectError("empty candidate axis")

    best = _Search(ps, lo_axes, hi_axes, vmin, vmax).run()
    if best == _NONE:
        raise NoAdmissibleRectError(
            f"no candidate with volume in ({vmin}, {vmax}) and lo < hi"
        )
    neg_score_sq, _, lo, hi = best
    if neg_score_sq == 0.0:
        raise DegenerateScanError("all admissible contrasts are zero")
    return Rect(lo, hi).shift(tuple(-o for o in ps.origin)), math.sqrt(-neg_score_sq)


class _Search:
    """One branch-and-bound search; see the module docstring."""

    def __init__(self, ps, lo_axes, hi_axes, vmin, vmax):
        d = len(ps.dims)
        self.d = d
        self.n = ps.size
        self.tbar = ps.total / self.n
        self.table = ps.table
        # slot k < d: lo on axis k; slot d + k: hi; as table indices
        self.cands = [a + o for a, o in zip(lo_axes + hi_axes, ps.origin + ps.origin)]
        self.vmin, self.vmax = vmin, vmax
        # integer volumes v with vmin < v < vmax
        self.v_first = max(math.floor(vmin) + 1, 1)
        self.v_last = math.ceil(vmax) - 1

    def run(self) -> tuple:
        """The key of the best pair, or _NONE."""
        nodes = np.array([[[0, a.size] for a in self.cands]], dtype=np.int32)
        if _pairs(nodes)[0] <= _BATCH_PAIRS:
            return self._score_leaves(nodes, _NONE)
        self._build_bound_tables()
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

    def _build_bound_tables(self):
        """Y+ and Q over the hull of the candidates (stacked on a last axis of
        2), and the bound's rounding allowances ``slack`` and ``q_err``.

        ``slack`` is 4^d * (cells + 1) unit roundoffs u of ``scale``, the
        largest magnitude a sum involves (see the module docstring).

        ``q_err`` covers the rounding in Q.  Let y be the exact deviations
        x - tbar of the encoded cells and y' those formed here: differencing
        the table and subtracting tbar err by at most delta = 4^d * u * scale
        per cell, so by the triangle inequality over the cells of a box R,
        sqrt(Q_y(R)) <= sqrt(Q_y'(R)) + eta with eta = sqrt(cells) * delta.
        Squaring y', the prefix sums of the squares (terms >= 0) and the 2^d
        corner terms err by at most q_abs = 4^d * (cells + 1) * u * Q_tot,
        with Q_tot the table's total, so Q_y'(R) <= Q(R) + q_abs and
        Q(R) + q_abs <= Q_tot + 3 * q_abs.  Squaring out,

            sqrt(Q_y(R)) <= sqrt(Q(R) + q_abs) + eta <= sqrt(Q(R) + q_err)
            with q_err = q_abs + eta * (2 * sqrt(Q_tot + 3 * q_abs) + eta).

        Q_tot does not see an offset on every cell and eta grows with scale,
        so q_err grows linearly in the tables' magnitude; an allowance of
        roundoffs * scale^2 would swamp Q once the cells sit near 1e3.
        """
        d = self.d
        lo_axes, hi_axes = self.cands[:d], self.cands[d:]
        self.hull = np.array([min(int(lo[0]), int(hi[0])) for lo, hi in zip(lo_axes, hi_axes)])
        top = [max(int(lo[-1]), int(hi[-1])) for lo, hi in zip(lo_axes, hi_axes)]
        sub = self.table[tuple(slice(o, t + 1) for o, t in zip(self.hull, top))]
        y = table_cells(sub, d) - self.tbar
        self.ytab = prefix_table(np.stack((np.maximum(y, 0.0), y * y), axis=-1), d)
        # The entries read accumulate every cell below ``top``, not only the hull's.
        cells = math.prod(top)
        roundoffs = 4.0**d * (cells + 1) * _UNIT_ROUNDOFF
        scale = float(np.abs(sub).max()) + abs(self.tbar * self.n) + float(np.abs(y).sum())
        self.slack = roundoffs * scale
        q_tot = float(self.ytab[(-1,) * d + (1,)])
        q_abs = roundoffs * q_tot
        eta = math.sqrt(cells) * 4.0**d * _UNIT_ROUNDOFF * scale
        self.q_err = q_abs + eta * (2.0 * math.sqrt(q_tot + 3.0 * q_abs) + eta)

    def _contrasts(self, lo, hi):
        """S - v*tbar and the volume of every pair given by per-axis corner arrays.

        ``lo[k]`` / ``hi[k]`` broadcast to one shape.  Empty pairs have volume 0
        and an arbitrary contrast.
        """
        z = box_sums(self.table, lo, hi)
        volf = np.maximum(hi[0] - lo[0], 0).astype(np.float64)
        for k in range(1, self.d):
            volf = volf * np.maximum(hi[k] - lo[k], 0)
        z -= volf * self.tbar
        return z, volf

    def _scores(self, z, volf, out=None):
        """Squared contrasts of ``_contrasts``' pairs; inadmissible pairs score -1."""
        s = np.square(z, out=out)
        with np.errstate(over="ignore"):  # only empty pairs, about to be masked
            s /= np.maximum((self.n - volf) * volf, 1e-300)
        s[(volf <= self.vmin) | (volf >= self.vmax)] = -1.0
        return s

    def _bound(self, nodes):
        """Each node's squared-score bound (-inf when no volume is admissible),
        and the best squared score among the nodes' R_max and R_min."""
        d, m = self.d, len(nodes)
        first, last = nodes[:, :, 0], nodes[:, :, 1] - 1
        # one corner set: every node's R_max, then every node's R_min (may be empty)
        lo_at = np.concatenate((first[:, :d], last[:, :d]))
        hi_at = np.concatenate((last[:, d:], first[:, d:]))
        lo = [self.cands[k][lo_at[:, k]] for k in range(d)]
        hi = [self.cands[d + k][hi_at[:, k]] for k in range(d)]
        z, volf = self._contrasts(lo, hi)
        seed = float(self._scores(z, volf).max())
        v_out, v_in = volf[:m], volf[m:]
        va = np.maximum(v_in, self.v_first)
        vb = np.minimum(v_out, self.v_last)
        den = np.minimum(va * (self.n - va), vb * (self.n - vb))

        o = self.hull
        yq = box_sums(self.ytab, [a - b for a, b in zip(lo, o)], [a - b for a, b in zip(hi, o)])
        z_out, z_in = z[:m], z[m:]
        y_out, y_in, q_out = yq[:m, 0], yq[m:, 0], yq[:m, 1]
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
        """Score every pair of the leaves; return the smaller of ``best`` and their best key."""
        lens = leaves[:, :, 1] - leaves[:, :, 0]
        sigs, group = np.unique(lens, axis=0, return_inverse=True)
        group = group.reshape(-1)
        nslots = 2 * self.d
        for g, sig in enumerate(sigs):
            members = leaves[group == g]
            m = len(members)
            # candidate values per slot; the leaf axis goes last so the
            # broadcast passes run long inner loops
            axes = []
            for j in range(nslots):
                shape = [1] * nslots + [m]
                shape[j] = int(sig[j])
                vals = self.cands[j][np.arange(sig[j])[:, None] + members[:, j, 0]]
                axes.append(vals.reshape(shape))
            z, volf = self._contrasts(axes[: self.d], axes[self.d :])
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
            corners = min(
                tuple(int(axes[j].reshape(-1, m)[hits[j][h], i]) for j in range(nslots))
                for h, i in enumerate(hits[-1])
            )
            best = min(best, (-top, int(vmin), corners[: self.d], corners[self.d :]))
        return best


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
