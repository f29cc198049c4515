"""Multi-patch detection: block testing, component filtering, and refinement.

Pipeline: partition the lattice into blocks of side floor(n_k^alpha); test
every block mean against the max-calibrated Gaussian threshold; group flagged
blocks into connected components (split by contrast sign, so adjacent patches
with opposite jumps never merge); discard components covering too few cells;
envelope each surviving component in a margin-expanded bounding box, cutting
each overlapping pair of envelopes once, at the midpoint between their
components' bounding boxes across the axis where those lie furthest apart;
and run the two-stage single-patch search independently inside each
envelope.  No table of the whole grid is built: block means and jumps are
summed straight from the cells, and each search tabulates only the cells of
the hull of its corner ranges.

When the baseline mean or the long-run variance is estimated and a surviving
component touches the boundary calibration layer (the layer has a cell inside
the component's bounding box), the layer estimates are treated as
contaminated: the pipeline re-estimates both quantities on the cells outside
all flagged blocks and re-runs the first stage once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from ._scan import DegenerateScanError, NoAdmissibleRectError
from .calibrate import BOUNDARY_BETA, boundary_layer_mask, default_bandwidths, masked_lrv, median, threshold_q
from .lattice import BlockPartition, Grid, LatticeError, Rect, block_sums, shifted
from .lattice import build_prefix_sum  # noqa: F401 -- unused here; perfbench/tracer.py looks the name up
from .single import Stage1Params, SubsampleError, algorithm1

_FALLBACK_MIN_CELLS = 256  # below this, a masked re-estimate is too thin to trust
# Largest accepted |cell|.  The scan's squared contrasts grow like n^3 * x^2.  The
# long-run variance squares window sums of centred cells (each at most 2 * |x|)
# over windows of prod_k b_k <= ~2^d * sqrt(n) cells, so every window sum stays
# below 2 * prod_k b_k * |x|; with ~2^d * n windows its sum of squares stays below
# ~2^(3d+2) * n^2 * x^2.  At |x| <= 1e100 all of it stays below float64's 1.8e308
# for any grid of fewer than 1e30 cells in up to 50 dimensions.
_MAX_ABS = 1e100
# Smallest accepted nonzero spread max - min: the long-run variance squares
# moving sums of centred cells, and below a spread of ~1e-154 those squares
# fall under float64's smallest normal 2.2e-308, so sigma loses bits or reads 0.
_MIN_SPREAD = 1e-100


class DetectionError(LatticeError):
    """Invalid detector configuration or undersized grid."""


def block_means(data: np.ndarray, part: BlockPartition) -> np.ndarray:
    """Mean over each (possibly truncated) block of ``part``, summed from the cells ``data``.

    ``data`` may have any strides; the result does not depend on them
    (``lattice.block_sums``).
    """
    return block_sums(data, [part.edges(ax)[:-1] for ax in range(data.ndim)]) / part.volumes()


def flag_blocks(means: np.ndarray, q, mu0: float) -> np.ndarray:
    """Blocks whose centered mean exceeds the threshold: |mean - mu0| > q.

    ``q`` may be a scalar or an array broadcast over the block lattice (needed
    when truncated edge blocks get their own volume-matched threshold).
    """
    if np.any(np.asarray(q) < 0.0):
        raise DetectionError("threshold must be >= 0")
    return np.abs(means - mu0) > q


CONNECTIVITIES = ("faces", "faces+corners")  # the neighbours a block joins: faces only, or the 3^d cube


def _neighbor_offsets(d: int, connectivity: str):
    """Unit offsets to face neighbours, or to every neighbour in the 3^d cube."""
    if connectivity not in CONNECTIVITIES:
        raise DetectionError(f"unknown connectivity {connectivity!r}")
    reach = 1 if connectivity == "faces" else d
    return [o for o in product((-1, 0, 1), repeat=d) if 0 < sum(map(abs, o)) <= reach]


def components(mask: np.ndarray, part: BlockPartition, min_cells: int, connectivity: str = "faces"):
    """Connected components of the flagged-block graph, small ones discarded.

    ``mask`` is boolean, or signed (-1/0/+1): nonzero blocks are flagged, and
    neighbours join only when their values agree, so patches of opposite sign
    never merge.  A component survives when the total cell count covered by
    its blocks exceeds ``min_cells``.  Returns components as sorted tuples of
    block multi-indices, ordered by their smallest member.
    """
    offsets = _neighbor_offsets(mask.ndim, connectivity)
    flagged = mask != 0
    # Label propagation: every block starts with its own flat index; a pass
    # takes the smallest label among same-valued neighbours, then the label's
    # label.  At the fixed point a component carries its smallest member.
    labels = np.arange(mask.size).reshape(mask.shape)
    links = []
    for off in offsets:
        dst, src = shifted(off, mask.shape)
        same = flagged[dst] & (mask[dst] == mask[src])
        if same.any():
            links.append((dst, src, same))
    while True:
        before = labels.copy()
        for dst, src, same in links:
            view = labels[dst]
            np.minimum(view, labels[src], out=view, where=same)
        labels = labels.ravel()[labels]
        if np.array_equal(labels, before):
            break
    roots = labels[flagged]
    covered = np.bincount(roots, weights=part.volumes()[flagged])
    keep = covered[roots] > min_cells
    comps = {}  # root -> members, in C order, which is sorted order
    for root, block in zip(roots[keep].tolist(), np.argwhere(flagged)[keep].tolist()):
        comps.setdefault(root, []).append(tuple(block))
    return [tuple(comps[root]) for root in sorted(comps)]


def envelope(comp, part: BlockPartition, margin_blocks: int) -> Rect:
    """The component's cells' bounding box grown by ``margin_blocks`` whole blocks per side,
    clipped to the domain; margin 0 gives the bounding box itself."""
    if not comp:
        raise DetectionError("empty component has no envelope")
    if margin_blocks < 0:
        raise DetectionError("margin_blocks must be >= 0")
    return part.cells([i - margin_blocks for i in map(min, zip(*comp))],
                      [i + margin_blocks for i in map(max, zip(*comp))])


def _cut_pair(a: Rect, b: Rect, box_a: Rect, box_b: Rect) -> tuple[Rect, Rect]:
    """Cut two envelopes apart at the midpoint between their components' boxes.

    The cut runs across the axis where the boxes lie furthest apart, so each
    envelope keeps its own box whenever the boxes are disjoint on some axis;
    boxes that overlap on every axis split their least overlap evenly.  The
    cut only shrinks the envelopes and leaves them disjoint.
    """
    gaps = [max(lb - ha, la - hb) for la, ha, lb, hb in zip(box_a.lo, box_a.hi, box_b.lo, box_b.hi)]
    ax = int(np.argmax(gaps))
    if box_a.lo[ax] + box_a.hi[ax] > box_b.lo[ax] + box_b.hi[ax]:
        return _cut_pair(b, a, box_b, box_a)[::-1]
    cut = (box_a.hi[ax] + box_b.lo[ax]) // 2
    a_hi, b_lo = list(a.hi), list(b.lo)
    a_hi[ax] = max(a.lo[ax], min(a.hi[ax], cut))
    b_lo[ax] = min(b.hi[ax], max(b.lo[ax], cut))
    return Rect(a.lo, tuple(a_hi)), Rect(tuple(b_lo), b.hi)


def resolve_envelope_overlaps(envelopes, bboxes):
    """Cut every overlapping pair of envelopes apart, in one pass over the pairs.

    A cut leaves its pair disjoint and later cuts only shrink, so one pass
    leaves every pair disjoint.
    """
    envs = list(envelopes)
    for i, j in combinations(range(len(envs)), 2):
        if not envs[i].intersect(envs[j]).is_empty:
            envs[i], envs[j] = _cut_pair(envs[i], envs[j], bboxes[i], bboxes[j])
    return envs


@dataclass(frozen=True)
class SpladeConfig:
    """All tuning for the detector; None for mu0/sigma means estimate them."""

    alpha: float = 0.5
    kappa_level: float = 0.05
    stage2: Stage1Params = Stage1Params()
    envelope_margin_blocks: int = 2
    min_size_factor: float = 1.0
    mu0: float | None = None
    sigma: float | None = None
    connectivity: str = "faces"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DetectionError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.kappa_level < 1.0:
            raise DetectionError("kappa_level must be in (0, 1)")
        if not 0.0 < self.min_size_factor < math.inf:
            raise DetectionError(f"min_size_factor must be finite and > 0, got {self.min_size_factor}")
        if self.mu0 is not None and not math.isfinite(self.mu0):
            raise DetectionError(f"mu0 must be finite, got {self.mu0}")
        if self.sigma is not None and not 0.0 <= self.sigma < math.inf:
            raise DetectionError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.envelope_margin_blocks < 0:
            raise DetectionError("envelope_margin_blocks must be >= 0")
        _neighbor_offsets(1, self.connectivity)


@dataclass(frozen=True)
class Detection:
    """Detected rectangles, with per-patch mean contrasts; ``k_hat`` is read off the patches."""

    patches: tuple[Rect, ...]
    jumps: tuple[float, ...]
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.jumps) != len(self.patches):
            raise DetectionError(f"{len(self.patches)} patches but {len(self.jumps)} jumps")

    @property
    def k_hat(self) -> int:
        return len(self.patches)


def min_component_cells(n: int, alpha: float, factor: float) -> int:
    """Survival threshold for component cell counts: factor * n^alpha * sqrt(ln n), capped at n
    (no component covers more, so the cap changes no outcome; an inf product reads n)."""
    return math.ceil(min(factor * n**alpha * math.sqrt(math.log(n)), n))


def _first_stage(means, vols, part, mu0, sigma, lo, hi, cfg, min_cells):
    """Thresholds matched to the block volumes ``vols`` (before their floor; 0 when sigma is 0), the
    blocks they flag, and those blocks' components split by sign; ``lo``/``hi`` are the grid's extremes."""
    q = threshold_q(sigma, vols, part.num_blocks, cfg.kappa_level) if sigma > 0.0 else np.zeros(vols.shape)
    # floor at machine-noise scale so ulp residue (e.g. from baseline
    # subtraction) never reads as signal when sigma-hat collapses to ~0
    floor = 64.0 * np.finfo(np.float64).eps * max(hi - mu0, mu0 - lo)
    flags = flag_blocks(means, np.maximum(q, floor), mu0)
    return q, flags, components(np.sign(means - mu0) * flags, part, min_cells, cfg.connectivity)


def _blocks_to_cells(flags: np.ndarray, part: BlockPartition) -> np.ndarray:
    """Cell-level mask: every cell of the blocks set in ``flags``."""
    for ax in range(flags.ndim):
        flags = np.repeat(flags, np.diff(part.edges(ax)), axis=ax)
    return flags


def splade_detect(grid: Grid, cfg: SpladeConfig | None = None) -> Detection:
    """Run the full pipeline and return the detected patches.

    Deterministic given (grid, cfg); repeated calls are identical.  A grid
    with a NaN or infinite cell, with a cell beyond 1e100 in magnitude, or
    with a nonzero spread max - min below 1e-100, is rejected with
    ``DetectionError``.
    """
    if cfg is None:
        cfg = SpladeConfig()
    # One range pass, with no grid-sized temporary: NaN and inf show up in the
    # extremes, and cells are counted only on that rare path.
    lo, hi = float(grid.data.min()), float(grid.data.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        non_finite = grid.size - int(np.count_nonzero(np.isfinite(grid.data)))
        raise DetectionError(f"grid has {non_finite} non-finite cells (NaN or inf)")
    if max(-lo, hi) > _MAX_ABS:
        raise DetectionError(f"grid has a cell of magnitude {max(-lo, hi):.3g} > {_MAX_ABS:g}: "
                             "the detector's squared sums would overflow; rescale the data")
    if 0.0 < hi - lo < _MIN_SPREAD:
        raise DetectionError(f"grid has a spread max - min of {hi - lo:.3g} < {_MIN_SPREAD:g}: "
                             "the detector's squared sums would underflow; rescale the data")
    part = BlockPartition.build(grid.dims, cfg.alpha)
    if any(m < 4 for m in part.counts):
        raise DetectionError(
            f"grid needs >= 4 blocks per axis at alpha={cfg.alpha}, got {part.counts}"
        )
    bandwidths = default_bandwidths(grid.dims)
    min_cells = min_component_cells(grid.size, cfg.alpha, cfg.min_size_factor)

    mu0, sigma = cfg.mu0, cfg.sigma
    estimated = mu0 is None or sigma is None
    if estimated:
        layer = boundary_layer_mask(grid.dims, BOUNDARY_BETA)
        # one gather: the layer's mean is mu0, and the LRV's centre even when mu0 is given
        centre = float(grid.data[layer].mean())
        if mu0 is None:
            mu0 = centre
        if sigma is None:
            sigma = math.sqrt(masked_lrv(grid.data, layer, bandwidths, centre))

    means, vols = block_means(grid.data, part), part.volumes()
    q, flags, comps = _first_stage(means, vols, part, mu0, sigma, lo, hi, cfg, min_cells)
    bboxes = [envelope(c, part, 0) for c in comps]

    fallback = False
    # The layer is an OR of per-axis slabs, so the cells outside it form one box,
    # and a set of blocks misses the layer exactly when their bounding box does.
    if estimated and any(layer[b.slices()].any() for b in bboxes):
        # Anomalies reach into the calibration layer: re-estimate on the cells
        # outside every flagged block, then redo the first stage once.
        fallback = True
        clean = _blocks_to_cells(~flags, part)
        values = grid.data[clean]  # one gather: the median, the count and the LRV's centre
        enough = values.size >= _FALLBACK_MIN_CELLS
        if cfg.mu0 is None:
            mu0 = median(values if enough else grid.data)
        if cfg.sigma is None and enough:
            sigma = math.sqrt(masked_lrv(grid.data, clean, bandwidths, float(values.mean())))
        del clean, values  # grid-sized: free them before stage 2's tables set the call's peak
        q, flags, comps = _first_stage(means, vols, part, mu0, sigma, lo, hi, cfg, min_cells)
        bboxes = [envelope(c, part, 0) for c in comps]

    envs = [envelope(c, part, cfg.envelope_margin_blocks) for c in comps]
    envs = resolve_envelope_overlaps(envs, bboxes)

    patches, degenerate = [], 0
    for bbox, env in zip(bboxes, envs):
        if env.is_empty:
            degenerate += 1
            continue
        try:
            cells = Grid.from_array(grid.data[env.slices()])
            patches.append(algorithm1(cells, cfg.stage2).shift(env.lo))
        except (SubsampleError, DegenerateScanError, NoAdmissibleRectError):
            degenerate += 1
            clipped = bbox.intersect(env)
            if not clipped.is_empty:
                patches.append(clipped)

    patches.sort()
    whole = [(0,)] * grid.ndim  # one block: the patch
    jumps = tuple(block_sums(grid.data[r.slices()], whole).item() / r.volume() - mu0 for r in patches)

    diagnostics = {
        "mu0": mu0,
        "sigma": sigma,
        "q": float(q.flat[0]),  # block 0 is never truncated: a full block's threshold
        "flagged_blocks": int(flags.sum()),
        "component_cells": [int(vols[tuple(np.transpose(c))].sum()) for c in comps],
        "fallback": fallback,
        "degenerate_envelopes": degenerate,
    }
    return Detection(patches=tuple(patches), jumps=jumps, diagnostics=diagnostics)
