"""Independent brute-force oracles used to cross-check the fast paths.

Nothing here touches PrefixSum or the vectorized scan: sums are direct cell
loops and set metrics run on explicit boolean masks, so these stay valid
reference implementations no matter how the production code evolves.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np

from splade.calibrate import CalibrationError
from splade.lattice import BlockPartition, Grid, Rect, shifted


def direct_rect_sum(grid: Grid, r: Rect) -> float:
    if r.is_empty:
        return 0.0
    return float(grid.data[r.slices()].sum())


def all_rects(dims):
    axes = [
        [(lo, hi) for lo in range(n) for hi in range(lo + 1, n + 1)] for n in dims
    ]
    for combo in itertools.product(*axes):
        yield Rect(tuple(c[0] for c in combo), tuple(c[1] for c in combo))


def brute_force_search(grid: Grid, lambda1: float, lambda2: float, lo_axes=None, hi_axes=None):
    """Exhaustive argmax by direct summation; same tie-break as production.

    Corners range over ``lo_axes[k]`` / ``hi_axes[k]`` per axis (default: every
    corner).  Scores are compared exactly, as the rational
    score_sq = (n*S - v*T)^2 / (v*(n - v)) of the float sums (n^2 times the
    squared contrast), so rectangles whose scores tie in exact arithmetic
    (integer data) fall to the volume and corner tie-break.  Returns
    ``(score_sq, rect)``, or None when no candidate is admissible.
    """
    n = grid.size
    total = Fraction(float(grid.data.sum()))
    if lo_axes is None:
        lo_axes = [range(m) for m in grid.dims]
    if hi_axes is None:
        hi_axes = [range(1, m + 1) for m in grid.dims]
    best = None
    for lo in itertools.product(*lo_axes):
        for hi in itertools.product(*hi_axes):
            r = Rect(lo, hi)
            v = r.volume()
            if r.is_empty or not n * lambda1 < v < n * lambda2 or v >= n:
                continue
            s = Fraction(direct_rect_sum(grid, r))
            score_sq = Fraction((n * s - v * total) ** 2, v * (n - v))
            key = (-score_sq, v, r.lo, r.hi)
            if best is None or key < best[0]:
                best = (key, r)
    return None if best is None else (-best[0][0], best[1])


def brute_force_ls(grid: Grid, lambda1: float, lambda2: float, lo_axes=None, hi_axes=None) -> Rect:
    """The rectangle of ``brute_force_search``, which must exist and score above zero."""
    found = brute_force_search(grid, lambda1, lambda2, lo_axes, hi_axes)
    assert found is not None and found[0] > 0
    return found[1]


def rect_mask(dims, r: Rect) -> np.ndarray:
    m = np.zeros(dims, dtype=bool)
    if not r.is_empty:
        m[r.slices()] = True
    return m


def mask_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    union = int((a | b).sum())
    if union == 0:
        return 0.0
    return int((a ^ b).sum()) / union


def mask_hausdorff(truth_rects, est_rects, dims) -> float:
    """Two-sided Hausdorff over explicit masks, backgrounds included."""

    def members(rects):
        sets = [rect_mask(dims, r) for r in rects if not r.is_empty]
        bg = np.ones(dims, dtype=bool)
        for m in sets:
            bg &= ~m
        if bg.any():
            sets.append(bg)
        return sets

    a = members(truth_rects)
    b = members(est_rects)
    if not a and not b:
        return 0.0
    if not a or not b:
        return 1.0
    fwd = max(min(mask_jaccard(x, y) for y in b) for x in a)
    bwd = max(min(mask_jaccard(y, x) for x in a) for y in b)
    return max(fwd, bwd)


def brute_force_components(mask: np.ndarray, part: BlockPartition, min_cells: int, connectivity: str):
    """Breadth-first search over the nonzero blocks of ``mask``.

    Neighbours (sharing a face, or for "faces+corners" any face, edge or
    corner) join when their mask values agree.  Components covering more than
    ``min_cells`` cells are returned as sorted tuples of block indices, ordered
    by their smallest member.
    """
    offsets = [
        o for o in itertools.product((-1, 0, 1), repeat=mask.ndim)
        if any(o) and (connectivity == "faces+corners" or sum(map(abs, o)) == 1)
    ]
    vols = part.volumes()
    seen = np.zeros(mask.shape, dtype=bool)
    comps = []
    for start in np.argwhere(mask):
        start = tuple(int(x) for x in start)
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for off in offsets:
                nxt = tuple(c + o for c, o in zip(cur, off))
                if any(not 0 <= x < m for x, m in zip(nxt, mask.shape)):
                    continue
                if mask[nxt] == mask[cur] and not seen[nxt]:
                    seen[nxt] = True
                    comp.append(nxt)
                    queue.append(nxt)
        if sum(int(vols[c]) for c in comp) > min_cells:
            comps.append(tuple(sorted(comp)))
    comps.sort()
    return comps


def bartlett_weight(lag, bandwidths) -> float:
    """Product Bartlett weight prod_k max(0, 1 - |lag_k| / b_k)."""
    w = 1.0
    for l, b in zip(lag, bandwidths):
        w *= max(0.0, 1.0 - abs(l) / b)
    return w


def brute_force_lrv(data: np.ndarray, mask: np.ndarray, bandwidths) -> tuple[float, bool]:
    """Bartlett long-run variance as the direct double sum over masked cell pairs.

    sum_{x, y} K(x - y) c(x) c(y) / count, with c the masked cells centred on
    their mean and K the product Bartlett kernel of ``bandwidths``; a negative
    value is replaced by the plain masked variance and flagged, as
    ``masked_lrv`` does.
    """
    cells = [tuple(int(i) for i in x) for x in np.argwhere(mask)]
    mean = sum(float(data[x]) for x in cells) / len(cells)
    total = 0.0
    for x in cells:
        for y in cells:
            w = bartlett_weight([a - b for a, b in zip(x, y)], bandwidths)
            total += w * (float(data[x]) - mean) * (float(data[y]) - mean)
    sigma2 = total / len(cells)
    if sigma2 < 0.0:
        return sum((float(data[x]) - mean) ** 2 for x in cells) / len(cells), True
    return sigma2, False


def lag_sum_lrv(data: np.ndarray, mask: np.ndarray, bandwidths) -> tuple[float, bool]:
    """Bartlett long-run variance as one grid pass per lag in the kernel's half-box.

    The same double sum as ``masked_lrv``, summed lag by lag: every lag and its
    mirror image share one product of the centred grid with its shifted copy.
    """
    count = int(mask.sum())
    if count == 0:
        raise CalibrationError("empty estimation region")
    d = data.ndim
    if len(bandwidths) != d:
        raise CalibrationError(f"need {d} bandwidths, got {len(bandwidths)}")
    centered = np.where(mask, data - data[mask].mean(), 0.0)

    lag_ranges = [range(-int(math.ceil(b)) + 1, int(math.ceil(b))) for b in bandwidths]
    total = 0.0
    for lag in itertools.product(*lag_ranges):
        if lag > tuple([0] * d):
            continue  # add symmetric partner instead
        w = bartlett_weight(lag, bandwidths)
        if w == 0.0:
            continue
        dst, src = shifted(lag, data.shape)
        term = float(np.sum(centered[src] * centered[dst]))
        total += w * term if lag == tuple([0] * d) else 2.0 * w * term

    sigma2 = total / count
    if sigma2 < 0.0:
        return float(np.sum(centered[mask] ** 2) / count), True
    return sigma2, False
