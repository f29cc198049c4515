"""Synthetic noise fields and mean-field patch injection.

Field kinds:

* ``iid-gaussian`` — independent N(0,1) cells.
* ``sar`` — spatial autoregression eps = rho*W*eps + e with row-normalized
  nearest-neighbor weights (2, 3, or 4 neighbors at corners/edges/interior),
  solved by fixed-point iteration.
* ``linear`` — finitely supported moving average sum_s a_s * e_{i-s}.
* ``m-dependent`` — order-m uniform moving average, unit variance.
* ``max-stable`` — weighted maximum of demeaned Frechet(alpha~) innovations
  over a geometric decay stencil a_s = base^(s_1 + ... + s_d), s >= 0,
  truncated below 1e-6; the output field is demeaned empirically.

Generators are pure functions of (spec, dims): the same seed yields a
bit-identical field.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from itertools import product

import numpy as np

from .lattice import Grid, LatticeError, PatchSet, Rect, shifted

FIELD_KINDS = ("iid-gaussian", "sar", "linear", "m-dependent", "max-stable")

_SAR_TOL = 1e-10
_SAR_MAX_SWEEPS = 1000
_STENCIL_CUTOFF = 1e-6


class SimulationError(LatticeError):
    """Invalid field spec or failed generation."""


@dataclass(frozen=True)
class FieldSpec:
    """Noise recipe; only the parameters of the chosen kind are read."""

    kind: str
    seed: int = 0
    rho: float = 0.0  # sar
    stencil: tuple = ()  # linear: ((offset tuple, coeff), ...)
    m: int = 1  # m-dependent
    tail_index: float = 3.0  # max-stable Frechet alpha~
    decay_base: float = 0.6  # max-stable stencil base

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise SimulationError(f"unknown field kind {self.kind!r}")
        for name, want in [("seed", numbers.Integral), ("m", numbers.Integral), ("rho", numbers.Real),
                           ("tail_index", numbers.Real), ("decay_base", numbers.Real)]:
            value = getattr(self, name)
            if not isinstance(value, want):
                what = "an integer" if want is numbers.Integral else "a number"
                raise SimulationError(f"{name} must be {what}, got {value!r}")
        try:
            stencil = tuple((tuple(operator.index(x) for x in off), float(c)) for off, c in self.stencil)
        except (TypeError, ValueError):
            raise SimulationError(
                f"stencil must be [[offset, coefficient], ...] with integer offsets, got {self.stencil!r}"
            ) from None
        object.__setattr__(self, "stencil", stencil)
        if self.kind == "sar" and not 0.0 <= self.rho < 1.0:
            raise SimulationError(f"sar needs 0 <= rho < 1, got {self.rho}")
        if self.kind == "max-stable":
            if not self.tail_index > 2.0:  # NaN too
                raise SimulationError("max-stable needs tail_index > 2 (finite variance)")
            if not 0.0 < self.decay_base < 1.0:
                raise SimulationError("decay_base must be in (0, 1)")
        if self.kind == "linear" and not self.stencil:
            raise SimulationError("linear field needs a non-empty stencil")
        if self.kind == "m-dependent" and self.m < 1:
            raise SimulationError("m-dependent needs m >= 1")


def _neighbor_stats(dims):
    """In-bounds neighbor count of every cell (2, 3 or 4 in 2-D), as float64."""
    return _neighbor_sum(np.ones(dims), np.empty(dims))


def _neighbor_sum(x, out):
    """Sum over each cell's in-bounds nearest neighbors, written into ``out``."""
    out[...] = 0.0
    for ax in range(x.ndim):
        for step in (1, -1):  # this order fixes the float sums, hence every sar field
            dst, src = shifted([step if k == ax else 0 for k in range(x.ndim)], x.shape)
            out[dst] += x[src]
    return out


def _gen_sar(rng, dims, rho):
    e = rng.standard_normal(dims)
    if rho == 0.0:
        return e
    counts = _neighbor_stats(dims)
    if not counts.all():  # only a one-cell grid has a cell without neighbours
        raise SimulationError(f"sar needs at least two cells, got dims {dims}")
    eps = e.copy()
    buf = np.empty_like(e)
    for _ in range(_SAR_MAX_SWEEPS):
        new = rho * (_neighbor_sum(eps, buf) / counts) + e
        delta = float(np.max(np.abs(new - eps)))
        eps, buf = new, eps
        if delta < _SAR_TOL:
            return eps
    raise SimulationError(
        f"sar fixed point did not converge within {_SAR_MAX_SWEEPS} sweeps (rho={rho})"
    )


def _gen_linear(rng, dims, stencil):
    offsets, coeffs = zip(*stencil)
    d = len(dims)
    if any(len(o) != d for o in offsets):
        raise SimulationError("stencil offset rank does not match dims")
    pad_lo = [max(0, max(o[k] for o in offsets)) for k in range(d)]
    pad_hi = [max(0, -min(o[k] for o in offsets)) for k in range(d)]
    padded = rng.standard_normal(tuple(n + pad_lo[k] + pad_hi[k] for k, n in enumerate(dims)))
    out = np.zeros(dims, dtype=np.float64)
    for off, c in zip(offsets, coeffs):
        sl = tuple(
            slice(pad_lo[k] - off[k], pad_lo[k] - off[k] + dims[k]) for k in range(d)
        )
        out += c * padded[sl]
    return out


def _gen_m_dependent(rng, dims, m):
    # _gen_linear reads the draw at x - offset, so offsets from +m down to -m
    # sum the window [x - m, x + m]^d in ascending order, as they always have
    stencil = [(off, 1.0) for off in product(range(m, -m - 1, -1), repeat=len(dims))]
    return _gen_linear(rng, dims, stencil) / (2 * m + 1) ** (len(dims) / 2.0)


def decay_stencil(base: float, d: int):
    """Offsets s >= 0 with weight base^(s_1+...+s_d) >= 1e-6, plus the weights."""
    kmax = int(math.floor(math.log(_STENCIL_CUTOFF) / math.log(base)))
    axes = [np.arange(kmax + 1)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    keep = grid.sum(axis=1) <= kmax
    offsets = grid[keep]
    weights = base ** offsets.sum(axis=1).astype(np.float64)
    return offsets, weights


def frechet_centering(tail_index: float) -> float:
    """Mean of a Frechet(tail_index) draw, subtracted to center innovations."""
    return math.gamma(1.0 - 1.0 / tail_index)


def _gen_max_stable(rng, dims, tail_index, base):
    d = len(dims)
    offsets, weights = decay_stencil(base, d)
    pad = int(offsets.max())
    u = rng.random(tuple(n + pad for n in dims))
    np.maximum(u, np.finfo(np.float64).tiny, out=u)
    innov = (-np.log(u)) ** (-1.0 / tail_index) - frechet_centering(tail_index)
    out = np.full(dims, -np.inf)
    for off, w in zip(offsets, weights):
        sl = tuple(slice(pad - off[k], pad - off[k] + dims[k]) for k in range(d))
        np.maximum(out, w * innov[sl], out=out)
    out -= out.mean()
    return out


def gen_field(spec: FieldSpec, dims) -> Grid:
    """Generate a mean-zero stationary noise field on the given lattice."""
    dims = tuple(int(x) for x in dims)
    rng = np.random.default_rng(int(spec.seed) & (2**64 - 1))
    if spec.kind == "iid-gaussian":
        data = rng.standard_normal(dims)
    elif spec.kind == "sar":
        data = _gen_sar(rng, dims, spec.rho)
    elif spec.kind == "linear":
        data = _gen_linear(rng, dims, spec.stencil)
    elif spec.kind == "m-dependent":
        data = _gen_m_dependent(rng, dims, spec.m)
    elif spec.kind == "max-stable":
        data = _gen_max_stable(rng, dims, spec.tail_index, spec.decay_base)
    else:  # pragma: no cover - guarded by FieldSpec
        raise SimulationError(f"unknown field kind {spec.kind!r}")
    return Grid.from_array(data)


def inject_patches(noise: Grid, patchset: PatchSet) -> Grid:
    """Add the baseline level everywhere and each patch jump inside its rectangle."""
    for r in patchset.rects:
        if not r.within(noise.dims):
            raise SimulationError(f"patch {r} out of bounds for dims {noise.dims}")
    data = noise.data + patchset.baseline
    for r, jump in patchset.patches:
        data[r.slices()] += jump
    return Grid.from_array(data)


def _frac_rect(n: int, fx: tuple[float, float], fy: tuple[float, float]) -> Rect:
    def snap(f: float) -> int:
        return int(math.floor(f * n + 0.5))

    return Rect((snap(fx[0]), snap(fy[0])), (snap(fx[1]), snap(fy[1])))


# Canonical 2-D layouts (fractions of N, x-range then y-range).  These pin the
# two standard benchmark scenes: three rectangles with jumps (+d, +d, -d), and
# four quadrant squares plus a center square with jumps (d, 2d, 3d, 4d, 5d).
_CONFIG1 = (
    ((0.15, 0.35), (0.15, 0.85), 1.0),
    ((0.55, 0.85), (0.55, 0.85), 1.0),
    ((0.55, 0.85), (0.15, 0.45), -1.0),
)
_SQUARE_SIDE = 0.18
_CONFIG2_CENTERS = (
    ((0.25, 0.25), 1.0),  # bottom left
    ((0.25, 0.75), 2.0),  # top left
    ((0.75, 0.75), 3.0),  # top right
    ((0.75, 0.25), 4.0),  # bottom right
    ((0.50, 0.50), 5.0),  # center
)


def canonical_scenario(name: str, n: int, jump: float) -> PatchSet:
    """The two benchmark patch layouts, scaled to an n-by-n grid."""
    if n < 64:
        raise SimulationError(f"scenario needs N >= 64, got {n}")
    if jump == 0.0:
        raise SimulationError("jump must be nonzero")
    if name == "config1":
        patches = tuple(
            (_frac_rect(n, fx, fy), mult * jump) for fx, fy, mult in _CONFIG1
        )
    elif name == "config2":
        half = _SQUARE_SIDE / 2.0
        patches = tuple(
            (
                _frac_rect(n, (cx - half, cx + half), (cy - half, cy + half)),
                mult * jump,
            )
            for (cx, cy), mult in _CONFIG2_CENTERS
        )
    else:
        raise SimulationError(f"unknown scenario {name!r}")
    return PatchSet(patches=patches, baseline=0.0)
