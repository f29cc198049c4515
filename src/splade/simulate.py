"""Synthetic noise fields and mean-field patch injection.

Field kinds:

* ``iid-gaussian`` — independent N(0,1) cells.
* ``sar`` — spatial autoregression eps = rho*W*eps + e with row-normalized
  nearest-neighbor weights (2, 3, or 4 neighbors at corners/edges/interior),
  solved by fixed-point (Jacobi) sweeps.  Each sweep walks the grid in strips
  of about ``_STRIP_CELLS`` cells along the first axis, forming a strip's
  neighbour sum, its new values and its step while the strip is in cache, so
  a sweep makes no temporary the size of the grid.
* ``linear`` — finitely supported moving average sum_s a_s * e_{i-s}.
* ``m-dependent`` — order-m uniform moving average, unit variance.
* ``max-stable`` — weighted maximum of demeaned Frechet(alpha~) innovations
  over a geometric decay stencil a_s = base^(s_1 + ... + s_d), s >= 0,
  truncated below 1e-6; the output field is demeaned empirically.  The
  stencil is taken by distance shells: the innovations' maximum over each
  shell s_1 + ... + s_d = m comes from the previous shell's by one maximum per
  axis, and is weighted once.

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
# Cells per strip of a sar sweep, which also reads one row on each side of it.
# On a 2-core x86 guest, 2^15 and 2^16 were the fastest sizes, within noise of
# each other, on 512^2 to 2048^2, 96^3, 40^3, 16^4 and 1-D 262144.  Smaller strips
# pay numpy's per-call cost more often: 2^12 made 1024^2 1.6x and 2048^2 1.5x
# slower.  Larger ones fall out of cache: 2^18 made 2048^2 1.4x slower.  The
# smaller of the two keeps the step buffer at an eighth of a 512^2 grid.
_STRIP_CELLS = 2**15
_STENCIL_CUTOFF = 1e-6
# Cells a max-stable draw, or the offset grid of ``decay_stencil``, may hold:
# 2^27 float64 cells are 1 GiB.  The stencil reaches shell
# kmax = floor(log(1e-6) / log(base)) and the draw pads every axis by kmax, so
# at base 0.99 (kmax = 1374) a 16^3 field would draw 1390^3 = 2.7e9 cells; at
# base 0.6 (kmax = 27) a 4096^2 field draws 1.7e7.
_MAX_STABLE_CELLS = 2**27


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


def _neighbor_sum(x, lo, hi, out):
    """Sum over the in-bounds nearest neighbours of rows ``lo:hi`` (axis 0) of ``x``, into ``out``.

    Every cell starts from 0.0 and adds its neighbour at -1, then at +1, on
    axis 0 and then on each further axis: this order fixes the float sums,
    hence every sar field.
    """
    n = x.shape[0]
    out[...] = 0.0
    a, b = max(lo, 1), min(hi, n - 1)
    out[a - lo :] += x[a - 1 : hi - 1]
    out[: b - lo] += x[lo + 1 : b + 1]
    rows = x[lo:hi]
    for ax in range(1, x.ndim):
        for step in (1, -1):
            dst, src = shifted([step if k == ax else 0 for k in range(x.ndim)], rows.shape)
            out[dst] += rows[src]
    return out


def _gen_sar(rng, dims, rho):
    """Jacobi sweeps eps <- rho * (W eps) + e, each walked in strips of rows along axis 0.

    A strip of about ``_STRIP_CELLS`` cells is summed, scaled and stepped while
    it is in cache, and written into the second grid buffer; the sweep reads
    one row on each side of it from the first.
    """
    e = rng.standard_normal(dims)
    if rho == 0.0:
        return e
    n = dims[0]
    counts = _neighbor_sum(np.ones(dims), 0, n, np.empty(dims))
    if not counts.all():  # only a one-cell grid has a cell without neighbours
        raise SimulationError(f"sar needs at least two cells, got dims {dims}")
    eps, new = e.copy(), np.empty_like(e)
    rows = max(1, _STRIP_CELLS // (e.size // n))
    steps = np.empty((rows,) + dims[1:])
    for _ in range(_SAR_MAX_SWEEPS):
        delta = 0.0
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            strip = _neighbor_sum(eps, lo, hi, new[lo:hi])
            strip /= counts[lo:hi]
            strip *= rho
            strip += e[lo:hi]
            step = np.subtract(strip, eps[lo:hi], out=steps[: hi - lo])
            delta = max(delta, float(np.max(np.abs(step, out=step))))
        eps, new = new, eps
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


def _shell_weights(base: float, shape_at, what: str):
    """Weights base^m of the stencil's shells m = 0..kmax, the last m with base^m >= 1e-6.

    ``shape_at(kmax)`` is the shape of the ``what`` the caller allocates next;
    raises ``SimulationError`` first when it holds more than
    ``_MAX_STABLE_CELLS`` cells.
    """
    kmax = int(math.floor(math.log(_STENCIL_CUTOFF) / math.log(base)))
    cells = math.prod(shape_at(kmax))
    if cells > _MAX_STABLE_CELLS:
        raise SimulationError(
            f"max-stable {what} at decay_base {base} would hold {cells:.3g} cells (stencil reach "
            f"{kmax} per axis), over the budget of {_MAX_STABLE_CELLS} cells; lower decay_base or the grid"
        )
    return base ** np.arange(kmax + 1, dtype=np.float64)


def decay_stencil(base: float, d: int):
    """Offsets s >= 0 with weight base^(s_1+...+s_d) >= 1e-6, plus the weights."""
    # the offsets come from a meshgrid of d integer arrays of (kmax + 1)^d cells
    shells = _shell_weights(base, lambda kmax: (d,) + (kmax + 1,) * d, "stencil")
    axes = [np.arange(shells.size)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    offsets = grid[grid.sum(axis=1) < shells.size]
    return offsets, shells[offsets.sum(axis=1)]


def frechet_centering(tail_index: float) -> float:
    """Mean of a Frechet(tail_index) draw, subtracted to center innovations."""
    return math.gamma(1.0 - 1.0 / tail_index)


def _next_shell(shell):
    """Shell m's maxima from shell m - 1's: cell j (y = j + m) is the largest of shell m - 1's
    cells j + 1 - e_k, one per axis k."""
    d = shell.ndim
    size = [n - 1 for n in shell.shape]
    back = [shell[tuple(slice(int(i != k), int(i != k) + size[i]) for i in range(d))] for k in range(d)]
    nxt = back[0].copy()
    for view in back[1:]:
        np.maximum(nxt, view, out=nxt)
    return nxt


def _gen_max_stable(rng, dims, tail_index, base):
    """max_s base^|s| * innov[x - s], taken one distance shell |s| = m at a time.

    The shell maxima R_m(y) = max over s >= 0 with |s| = m of innov[y - s]
    follow from R_m(y) = max_k R_(m-1)(y - e_k), each on the cells y whose
    every offset stays in the padded draw.  Rounding keeps w * a monotone in a
    for w > 0, so max_m w_m * R_m has the bits of the maximum over every offset.
    """
    weights = _shell_weights(base, lambda kmax: tuple(n + kmax for n in dims), f"draw for dims {tuple(dims)}")
    pad = weights.size - 1
    u = rng.random(tuple(n + pad for n in dims))
    np.maximum(u, np.finfo(np.float64).tiny, out=u)
    shell = np.negative(np.log(u, out=u), out=u)  # the innovations, formed in place
    shell **= -1.0 / tail_index
    shell -= frechet_centering(tail_index)
    out = np.full(dims, -np.inf)
    for m, w in enumerate(weights):
        if m:
            shell = _next_shell(shell)
        np.maximum(out, w * shell[tuple(slice(pad - m, pad - m + n) for n in dims)], out=out)
    out -= out.mean()
    return out


def gen_field(spec: FieldSpec, dims) -> Grid:
    """Generate a mean-zero stationary noise field on the given lattice."""
    dims = tuple(int(x) for x in dims)
    if not dims or min(dims) < 1:
        raise SimulationError(f"field dims must be positive, got {dims}")
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
