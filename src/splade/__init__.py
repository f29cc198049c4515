"""Axis-aligned anomalous patch localization on lattices under spatial dependence."""

from .calibrate import boundary_layer_mask, default_bandwidths, threshold_q
from .detect import (
    Detection,
    SpladeConfig,
    block_means,
    components,
    envelope,
    flag_blocks,
    splade_detect,
)
from .lattice import (
    BlockPartition,
    Grid,
    LatticeError,
    PatchSet,
    PrefixSum,
    Rect,
    build_prefix_sum,
    rect_sum,
)
from .metrics import BenchRecord, ari, hausdorff, jaccard_distance, labels_from_patches
from .simulate import FieldSpec, canonical_scenario, gen_field, inject_patches
from .single import SearchBounds, Stage1Params, algorithm1, naive_ls, subsample

__all__ = [
    "BenchRecord",
    "BlockPartition",
    "Detection",
    "FieldSpec",
    "Grid",
    "LatticeError",
    "PatchSet",
    "PrefixSum",
    "Rect",
    "SearchBounds",
    "SpladeConfig",
    "Stage1Params",
    "algorithm1",
    "ari",
    "block_means",
    "boundary_layer_mask",
    "build_prefix_sum",
    "canonical_scenario",
    "components",
    "default_bandwidths",
    "envelope",
    "flag_blocks",
    "gen_field",
    "hausdorff",
    "inject_patches",
    "jaccard_distance",
    "labels_from_patches",
    "naive_ls",
    "rect_sum",
    "splade_detect",
    "subsample",
    "threshold_q",
]
