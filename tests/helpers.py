"""Independent brute-force oracles used to cross-check the fast paths.

Nothing here touches the vectorized scan: sums are direct cell loops (or, in
``fancy_box_sums``, tuple fancy indexing of a prefix table) and set metrics run
on explicit boolean masks, so these stay valid reference implementations no
matter how the production code evolves.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np

from splade.calibrate import BOUNDARY_BETA, CalibrationError, threshold_q
from splade.detect import resolve_envelope_overlaps
from splade.lattice import BlockPartition, Grid, Rect, shifted
from splade.simulate import SimulationError, frechet_centering
from splade.single import window_half_width


def direct_rect_sum(grid: Grid, r: Rect) -> float:
    if r.is_empty:
        return 0.0
    return float(grid.data[r.slices()].sum())


def fancy_box_sums(table: np.ndarray, lo, hi) -> np.ndarray:
    """Box sums of a prefix table read by tuple fancy indexing, one corner term
    at a time in ``itertools.product((0, 1), repeat=d)`` order, over the
    table's last ``d`` axes; leading axes carry through."""
    d = len(lo)
    lead = table.shape[:-d]
    s = np.zeros(lead + np.broadcast(*lo, *hi).shape)
    for mask in itertools.product((0, 1), repeat=d):
        term = table[(Ellipsis,) + tuple(l if m else h for l, h, m in zip(lo, hi, mask))]
        # a term of fewer corner axes lines up with the boxes' trailing axes
        term = term.reshape(lead + (1,) * (s.ndim - term.ndim) + term.shape[len(lead) :])
        if sum(mask) & 1:
            s -= term
        else:
            s += term
    return s


def strided(a, fill):
    """``a`` as a view with a stride of 2 cells on every axis; the cells between are ``fill``."""
    big = np.full(tuple(2 * n for n in a.shape), fill, dtype=a.dtype)
    view = big[(slice(None, None, 2),) * a.ndim]
    view[...] = a
    return view


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


def coordinate_layer_mask(dims, beta: float) -> np.ndarray:
    """The boundary layer from its coordinate test: the cells with some 1-based
    coordinate i_k <= n_k^beta or >= n_k - n_k^beta + 1, one float test per axis."""
    mask = np.zeros(dims, dtype=bool)
    for k, n in enumerate(dims):
        t = n**beta
        coord = np.arange(1, n + 1, dtype=np.float64)
        line = (coord <= t) | (coord >= n - t + 1.0)
        shape = [1] * len(dims)
        shape[k] = n
        mask |= line.reshape(shape)
    return mask


def bartlett_weight(lag, bandwidths) -> float:
    """Product Bartlett weight prod_k max(0, 1 - |lag_k| / b_k)."""
    w = 1.0
    for l, b in zip(lag, bandwidths):
        w *= max(0.0, 1.0 - abs(l) / b)
    return w


def brute_force_lrv(data: np.ndarray, mask: np.ndarray, bandwidths) -> tuple[float, bool]:
    """Bartlett long-run variance as the direct double sum over masked cell pairs.

    sum_{x, y} K(x - y) c(x) c(y) / count, with c the masked cells centred on
    their mean and K the product Bartlett kernel of ``bandwidths``.  A negative
    value is replaced by the plain masked variance and flagged.  The kernel is
    positive semi-definite, so only rounding could make one; ``masked_lrv``
    sums squares and has no such branch.
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


def whole_grid_sar(rng, dims, rho, tol=1e-10, max_sweeps=1000):
    """The sar field by Jacobi sweeps over the whole grid, eps <- rho * (W eps / counts) + e.

    Each cell's neighbour sum starts from 0.0 and adds its neighbour at -1,
    then at +1, along each axis in turn, as ``gen_field`` does.  Raises
    ``SimulationError`` where ``gen_field`` does.
    """

    def neighbour_sum(x):
        out = np.zeros(x.shape)
        for ax in range(x.ndim):
            for step in (1, -1):
                dst, src = shifted([step if k == ax else 0 for k in range(x.ndim)], x.shape)
                out[dst] += x[src]
        return out

    e = rng.standard_normal(dims)
    if rho == 0.0:
        return e
    counts = neighbour_sum(np.ones(dims))
    if not counts.all():
        raise SimulationError(f"sar needs at least two cells, got dims {dims}")
    eps = e.copy()
    for _ in range(max_sweeps):
        new = rho * (neighbour_sum(eps) / counts) + e
        delta = float(np.max(np.abs(new - eps)))
        eps = new
        if delta < tol:
            return eps
    raise SimulationError(f"sar fixed point did not converge within {max_sweeps} sweeps (rho={rho})")


def per_offset_max_stable(rng, dims, tail_index, base):
    """The max-stable field as one weighted maximum per stencil offset s >= 0.

    The stencil holds every s with base^(s_1+...+s_d) >= 1e-6, its weights
    formed as one numpy power of the offsets' sums.
    """
    d = len(dims)
    kmax = int(math.floor(math.log(1e-6) / math.log(base)))
    offsets = np.array([s for s in itertools.product(range(kmax + 1), repeat=d) if sum(s) <= kmax])
    weights = base ** offsets.sum(axis=1).astype(np.float64)
    u = rng.random(tuple(n + kmax for n in dims))
    np.maximum(u, np.finfo(np.float64).tiny, out=u)
    innov = (-np.log(u)) ** (-1.0 / tail_index) - frechet_centering(tail_index)
    out = np.full(dims, -np.inf)
    for off, w in zip(offsets, weights):
        sl = tuple(slice(kmax - off[k], kmax - off[k] + dims[k]) for k in range(d))
        np.maximum(out, w * innov[sl], out=out)
    return out - out.mean()


class OnThreshold(Exception):
    """``brute_force_detect`` met a decision that rounding may take either way."""


def _blocks(part: BlockPartition):
    return [(idx, part.block(idx)) for idx in np.ndindex(*part.counts)]


def _exact_mean(data: np.ndarray, r: Rect) -> float:
    return math.fsum(data[r.slices()].ravel().tolist()) / r.volume()


def _oracle_search(cells: np.ndarray, err: float, lambda1: float, lambda2: float, lo_axes=None, hi_axes=None):
    """``brute_force_search``'s rectangle, or None where the search would raise
    (no admissible candidate, or only zero contrasts).

    Each non-empty candidate is scored alone by ``brute_force_search``, and the
    smallest key (-score, volume, lo, hi) wins, as in one call over them all.
    Raises ``OnThreshold`` when a candidate of another volume or sum ties the
    best (see ``brute_force_detect``).
    """
    grid = Grid.from_array(cells)
    lo_axes = lo_axes or [range(m) for m in cells.shape]
    hi_axes = hi_axes or [range(1, m + 1) for m in cells.shape]
    scored = []
    for lo in itertools.product(*lo_axes):
        above = [[h for h in hk if h > l] for hk, l in zip(hi_axes, lo)]
        for hi in itertools.product(*above):
            found = brute_force_search(grid, lambda1, lambda2, [[l] for l in lo], [[h] for h in hi])
            if found is not None:
                scored.append(found)
    if not scored:
        return None
    score, rect = min(scored, key=lambda f: (-f[0], f[1].volume(), f[1].lo, f[1].hi))
    if score == 0:
        return None
    top = math.sqrt(score)
    margin = 8.0 * math.sqrt(cells.size) * err
    own = (rect.volume(), direct_rect_sum(grid, rect))
    for s, r in scored:
        if math.sqrt(s) >= top - margin and (r.volume(), direct_rect_sum(grid, r)) != own:
            raise OnThreshold(f"{r} ties {rect}")
    return rect


def _oracle_algorithm1(cells: np.ndarray, params, err: float):
    """``algorithm1`` on ``cells``: a search of every rectangle of the strided
    subsample, then of the corner windows around its corners on the full cells.
    None where ``splade_detect`` takes the envelope as degenerate."""
    dims, n = cells.shape, cells.size
    strides = [max(1, math.floor(m**params.alpha)) for m in dims]
    if any(-(-m // l) < 4 for m, l in zip(dims, strides)):
        return None
    sample = cells[tuple(slice(None, None, l) for l in strides)]
    lam = min(4.0 / sample.size, 0.49)
    coarse = _oracle_search(sample, err, lam, 1.0 - lam)
    if coarse is None:
        return None
    lo_axes, hi_axes = [], []
    for k, (m, l) in enumerate(zip(dims, strides)):
        hw = window_half_width(l, m, n, len(dims), params.kappa, params.window_const)
        c_lo, c_hi = l * coarse.lo[k], l * coarse.hi[k]
        lo_axes.append(range(max(0, c_lo - hw), min(m - 1, c_lo + hw) + 1))
        hi_axes.append(range(max(1, c_hi - hw), min(m, c_hi + hw) + 1))
    return _oracle_search(cells, err, 0.0, 1.0, lo_axes, hi_axes)


def brute_force_detect(grid: Grid, cfg) -> dict:
    """``splade_detect`` written directly: its ``k_hat``, ``patches``, ``jumps``
    and ``diagnostics``, as a dict.

    Block means are exact sums of sliced cells (``math.fsum``) over the block
    volume, components come from ``brute_force_components``, the layer from
    ``coordinate_layer_mask``, the long-run variance from ``lag_sum_lrv``, both
    stages of every envelope search from ``brute_force_search`` on the sliced
    cells, and the jumps from exact sums.  Shared with the package are only
    closed forms and geometry with tests of their own: ``threshold_q``,
    ``BlockPartition``, ``window_half_width`` and the envelope cut
    ``resolve_envelope_overlaps``, a closed form in the two components' boxes
    whose own property test checks that its outputs are disjoint, lie inside
    its inputs and keep every box that some axis separates
    (``test_envelope_cut_separates_and_keeps_separable_boxes``).

    Rounding may decide a test that the exact values pass by a hair; this
    raises ``OnThreshold`` instead.  For a grid of N cells of magnitude at most
    |x|, a sum read off a search's float64 prefix table errs by less than
    err = 1e-12 * N * |x|: the table holds cells less the integer nearest
    their mean, each at most 2|x|, and its 2^d entries are each off by at most
    2 * sum(n_k) * N * |x| unit roundoffs, which stays below err while
    2^d * sum(n_k) < 4500, as for every grid of up to 40 cells per axis in
    ranks 1 to 4.  A block mean or a jump, summed straight from the cells,
    errs by less.  So:

    * a block mean m sits on its threshold q when
      | |m - mu0| - q | <= 1e-12 * q + err, the first term covering the
      relative rounding of sigma;
    * a search over a box of n cells ties when a candidate of another volume
      or sum has a sqrt(score_sq) within 8 * sqrt(n) * err of the best one's.
      ``brute_force_search``'s sqrt(score_sq) is n * |z| / sqrt(v * (n - v))
      with z = S - v * T / n off by at most 2 * err and v * (n - v) >= n - 1,
      so each of the two scores errs by at most 4 * sqrt(n) * err.  A box and
      its complement, both candidates, always tie.
    """
    data = grid.data
    dims, d, n = grid.dims, grid.ndim, grid.size
    lo_cell, hi_cell = float(data.min()), float(data.max())
    part = BlockPartition.build(dims, cfg.alpha)
    blocks = _blocks(part)
    bandwidths = [math.ceil(m ** (1.0 / (2 * d))) for m in dims]
    min_cells = math.ceil(cfg.min_size_factor * n**cfg.alpha * math.sqrt(math.log(n)))
    means = {idx: _exact_mean(data, r) for idx, r in blocks}
    err = 1e-12 * n * max(-lo_cell, hi_cell)  # bounds a table sum's rounding

    mu0, sigma = cfg.mu0, cfg.sigma
    estimated = mu0 is None or sigma is None
    if estimated:
        layer = coordinate_layer_mask(dims, BOUNDARY_BETA)
        if mu0 is None:
            mu0 = float(data[layer].mean())
        if sigma is None:
            sigma = math.sqrt(lag_sum_lrv(data, layer, bandwidths)[0])

    def first_stage(mu0, sigma):
        floor = 64.0 * np.finfo(np.float64).eps * max(hi_cell - mu0, mu0 - lo_cell)
        signs = np.zeros(part.counts, dtype=np.int64)
        for idx, r in blocks:
            q = threshold_q(sigma, r.volume(), part.num_blocks, cfg.kappa_level) if sigma > 0.0 else 0.0
            q = max(q, floor)
            dev = abs(means[idx] - mu0)
            if abs(dev - q) <= 1e-12 * q + err:
                raise OnThreshold(f"block {idx}: |mean - mu0| = {dev!r}, q = {q!r}")
            if dev > q:
                signs[idx] = 1 if means[idx] > mu0 else -1
        return signs, brute_force_components(signs, part, min_cells, cfg.connectivity)

    signs, comps = first_stage(mu0, sigma)
    fallback = False
    if estimated and any(layer[part.block(b).slices()].any() for c in comps for b in c):
        fallback = True
        clean = np.ones(dims, dtype=bool)
        for idx, r in blocks:
            if signs[idx]:
                clean[r.slices()] = False
        clean_count = int(clean.sum())
        if cfg.mu0 is None:
            mu0 = float(np.median(data[clean] if clean_count >= 256 else data))
        if cfg.sigma is None and clean_count >= 256:
            sigma = math.sqrt(lag_sum_lrv(data, clean, bandwidths)[0])
        signs, comps = first_stage(mu0, sigma)

    bboxes, envs = [], []
    reach = [cfg.envelope_margin_blocks * l for l in part.strides]
    for comp in comps:
        cell_lo = [min(part.block(b).lo[k] for b in comp) for k in range(d)]
        cell_hi = [max(part.block(b).hi[k] for b in comp) for k in range(d)]
        bboxes.append(Rect(tuple(cell_lo), tuple(cell_hi)))
        envs.append(Rect(tuple(max(0, a - r) for a, r in zip(cell_lo, reach)),
                         tuple(min(m, b + r) for b, r, m in zip(cell_hi, reach, dims))))
    envs = resolve_envelope_overlaps(envs, bboxes)

    patches, degenerate = [], 0
    for bbox, env in zip(bboxes, envs):
        rect = None if env.is_empty else _oracle_algorithm1(data[env.slices()], cfg.stage2, err)
        if rect is not None:
            patches.append(rect.shift(env.lo))
            continue
        degenerate += 1
        if not env.is_empty and not bbox.intersect(env).is_empty:
            patches.append(bbox.intersect(env))
    patches.sort(key=lambda r: (r.lo, r.hi))

    vols = part.volumes()
    interior = math.prod(part.strides)
    return {
        "k_hat": len(patches),
        "patches": tuple(patches),
        "jumps": tuple(_exact_mean(data, r) - mu0 for r in patches),
        "diagnostics": {
            "mu0": mu0,
            "sigma": sigma,
            "q": threshold_q(sigma, interior, part.num_blocks, cfg.kappa_level) if sigma > 0.0 else 0.0,
            "flagged_blocks": int(np.count_nonzero(signs)),
            "component_cells": [int(sum(int(vols[b]) for b in c)) for c in comps],
            "fallback": fallback,
            "degenerate_envelopes": degenerate,
        },
    }
