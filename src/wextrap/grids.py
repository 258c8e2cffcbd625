"""Dyadic cube families, midpoint quadrature, and weighted grid norms.

Everything downstream measures class constants as maxima of per-cube
quantities over a finite cube family, so the reported values are always
lower bounds for the suprema they stand in for.  Averages carry a
refinement-doubling divergence check that promotes non-integrable
singularities to +inf.

Under the midpoint rule the k-th doubling of a cube's average is the mean of
the base-resolution means of its 2^(dk) sub-cubes one level k further down,
so the divergence chain is sub-cube base quadrature: `family_averages` first
takes every layer's base means, then runs each layer's chain.  An unshifted
layer reads its sub-cubes' means off the family's own level+k layer where the
family holds it; every other chain evaluates only its suspect cubes'
sub-cubes.  Either way a cube's value depends on that cube alone.

Inside `quadrature_memo()` (one scope per CLI run) `family_averages` keeps
each result per (function, resolution, family without its max_level).
Since a cube's value depends on that cube alone and `batches()` is
level-major, a family is served from a deeper family's stored values as
their first len(family) entries, bit for bit; only a deeper family computes
again, and its values replace the shallower ones.  The function is part of
the key, so inside a scope it must be hashable, as every parsed weight and
symbol is.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

# An average is declared divergent when the midpoint sums keep growing over
# three successive node-count doublings AND the total growth factor exceeds
# DIVERGENCE_RATIO.  Power singularities |x|^a with a <= -1 grow by a factor
# 8^(-1-a) over the chain, and the logarithmic borderline case grows by
# 1 + 3 log(2)/(log M + c), so both clear 1.3 at the resolutions this
# laboratory runs at.  Integrable singularities do not always stay below it:
# for exponents near -1 the midpoint means converge as slowly as O(h^(1+a)),
# and off the nodes they keep growing through every doubling.  The means of
# |x - 0.37|^(-5/6) grow 1.139 -> 1.474 (64 -> 512 nodes) on [-4, 4], exact
# value 1.889, and 1.804 -> 2.497 on [0, 4], exact value 3.130, where the
# ratio 1.38 flags an integrable weight as +inf (ROADMAP.md, item 1).
# Cubes whose per-doubling growth drops below GROWTH_FLOOR leave the chain
# early (their limit exists).
DIVERGENCE_RATIO = 1.3
DIVERGENCE_DOUBLINGS = 3
GROWTH_FLOOR = 1.02

DEFAULT_RESOLUTION = 128

# Largest cube batch a per-layer reduction sees, in base-resolution nodes, so
# that the node arrays of a batch and of its doublings stay small.  Smaller
# slices are no faster on deep families, and with them glibc's malloc hands
# each slice's freed arrays back to the system, so every slice page-faults
# its memory afresh.
_BATCH_NODES = 2 ** 16

# The memo of `family_averages` in the innermost open `quadrature_memo()`
# scope: key -> (max_level, per-cube values); None outside every scope.
_memo: Optional[dict] = None


class EvaluationError(ValueError):
    """A function could not be evaluated at quadrature nodes."""


@dataclass(frozen=True)
class Cube:
    """Axis-parallel cube given by its center and sidelength."""

    center: tuple[float, ...]
    side: float

    def __post_init__(self):
        if self.side <= 0:
            raise ValueError("cube sidelength must be positive")
        if len(self.center) not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")

    @property
    def dim(self) -> int:
        return len(self.center)

    def nodes(self, resolution: int) -> np.ndarray:
        """Midpoint quadrature nodes, shape (resolution**dim,) or (..., 2).

        Nodes sit at cell midpoints, so they never touch the cube boundary;
        with even resolutions they also avoid the center hyperplanes.
        """
        centers = np.asarray([self.center], dtype=float)
        out = _batch_nodes(centers, self.side, resolution)
        return out[0]


def _midpoint_offsets(dim: int, resolution: int) -> np.ndarray:
    u = (np.arange(resolution) + 0.5) / resolution - 0.5
    if dim == 1:
        return u
    u1, u2 = np.meshgrid(u, u, indexing="ij")
    return np.stack([u1.ravel(), u2.ravel()], axis=-1)


def _batch_nodes(centers: np.ndarray, side: float, resolution: int) -> np.ndarray:
    """Nodes for a batch of equal-size cubes: (ncubes, resolution**dim[, dim])."""
    dim = centers.shape[1]
    offs = _midpoint_offsets(dim, resolution)
    if dim == 1:
        return centers[:, 0][:, None] + side * offs[None, :]
    return centers[:, None, :] + side * offs[None, :, :]


@dataclass(frozen=True)
class CubeFamily:
    """Finite dyadic family over [-L, L]^d, optionally with shifted layers.

    Level k tiles the domain with 2^k cubes per axis of sidelength 2L/2^k.
    Shifts are distinct fractions of the sidelength in [0, 1) and act
    periodically: each shifted layer keeps the full cube count of its level,
    and quadrature nodes of a cube poking past the boundary wrap back into
    the domain.
    """

    dim: int
    half_width: float
    min_level: int
    max_level: int
    shifts: tuple[float, ...] = (0.0,)
    origin: tuple[float, ...] = ()

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("cube families support d in {1, 2} only")
        if self.half_width <= 0:
            raise ValueError("domain half-width must be positive")
        if not (0 <= self.min_level <= self.max_level):
            raise ValueError("need 0 <= min_level <= max_level")
        if not self.shifts:
            raise ValueError("shift set must be nonempty")
        # A shift outside [0, 1) or a repeated one lays the same cubes again.
        if not all(0 <= s < 1 for s in self.shifts):
            raise ValueError("shifts must lie in [0, 1)")
        if len(set(self.shifts)) != len(self.shifts):
            raise ValueError("shifts must be distinct")
        if not self.origin:
            object.__setattr__(self, "origin", (0.0,) * self.dim)
        elif len(self.origin) != self.dim:
            raise ValueError("origin dimension mismatch")

    def levels(self) -> range:
        return range(self.min_level, self.max_level + 1)

    def side(self, level: int) -> float:
        return 2.0 * self.half_width / 2 ** level

    def _axis(self, level: int, shift: float, offset_side: float) -> np.ndarray:
        """Cube-center coordinates of a level along one axis, offset by
        shift * offset_side and wrapped into the domain, before the origin.
        A layer is offset by its own side; the sub-cubes of a shifted layer
        carry their parent layer's offset."""
        L = self.half_width
        ax = -L + (np.arange(2 ** level) + 0.5) * self.side(level) \
            + shift * offset_side
        if shift:
            ax = (ax + L) % (2.0 * L) - L
        return ax

    def _centers(self, ax: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Centers (len(index), dim) of the cubes with flat layer indices
        `index` (row-major in 2-D) on the axis coordinates ax."""
        if self.dim == 1:
            return ax[index][:, None] + self.origin[0]
        n = len(ax)
        return (np.stack([ax[index // n], ax[index % n]], axis=-1)
                + np.asarray(self.origin)[None, :])

    def batches(self) -> Iterator[tuple[int, float, np.ndarray, float]]:
        """Yield (level, shift, centers (ncubes, dim), side) per layer."""
        for level in self.levels():
            side = self.side(level)
            index = np.arange((2 ** level) ** self.dim)
            for shift in self.shifts:
                yield (level, shift,
                       self._centers(self._axis(level, shift, side), index), side)

    def subcube_centers(self, level: int, shift: float, sub_index: np.ndarray,
                        k: int) -> np.ndarray:
        """Centers of the level+k sub-cubes `sub_index` (flat, as
        `subcube_index` gives them) of the layer (level, shift), by the
        formula of `batches()`: on an unshifted layer they are bit-equal to
        the family's own level+k centers."""
        return self._centers(self._axis(level + k, shift, self.side(level)),
                             sub_index)

    def cubes(self) -> list[Cube]:
        out = []
        for _, _, centers, side in self.batches():
            for c in centers:
                out.append(Cube(tuple(float(v) for v in c), side))
        return out

    def __len__(self) -> int:
        per_level = sum((2 ** level) ** self.dim for level in self.levels())
        return len(self.shifts) * per_level

    def grown(self, extra_levels: int = 2) -> "CubeFamily":
        return CubeFamily(self.dim, self.half_width, self.min_level,
                          self.max_level + extra_levels, self.shifts, self.origin)

    def node_transform(self):
        """Periodic wrap into the domain; None when no layer is shifted."""
        if all(s == 0 for s in self.shifts):
            return None
        L = self.half_width
        period = 2.0 * L
        o = self.origin[0] if self.dim == 1 else np.asarray(self.origin)[None, :]

        def wrap(x):
            # Bit-identical to (x - o + L) % period - L + o.  On [-period,
            # 2 period) that remainder is one exact fold, which covers every
            # node of a family: a node lies within side/2 <= L of a center
            # inside the domain.
            y = x - o
            y += L
            if y.min() < -period or y.max() >= 2.0 * period:
                np.remainder(y, period, out=y)
            else:
                np.subtract(y, period, out=y, where=y >= period)
                np.add(y, period, out=y, where=y < 0)
            y -= L
            y += o
            return y

        return wrap

    def descriptor(self) -> dict:
        return {
            "dim": self.dim,
            "half_width": self.half_width,
            "min_level": self.min_level,
            "max_level": self.max_level,
            "shifts": list(self.shifts),
            "origin": list(self.origin),
        }


def build_cube_family(dim: int, half_width: float, min_level: int, max_level: int,
                      shifts: Sequence[float] = (0.0,)) -> CubeFamily:
    return CubeFamily(dim, float(half_width), int(min_level), int(max_level),
                      tuple(float(s) for s in shifts))


def _evaluate(fn: Callable, nodes: np.ndarray, spacing: float) -> np.ndarray:
    """Evaluate fn at nodes; a singular node is perturbed before giving up."""
    vals = np.asarray(fn(nodes), dtype=float)
    if np.isfinite(vals).all():
        return vals
    bad = ~np.isfinite(vals)
    nudged = nodes.copy()
    nudged[bad] = nodes[bad] + 0.25 * spacing
    vals = np.where(bad, np.asarray(fn(nudged), dtype=float), vals)
    if not np.isfinite(vals).all():
        raise EvaluationError("function not evaluable at quadrature nodes")
    return vals


def _node_values(fn: Callable, centers: np.ndarray, side: float,
                 resolution: int, transform) -> np.ndarray:
    """fn at the quadrature nodes of a cube batch: (ncubes, resolution**dim)."""
    dim = centers.shape[1]
    nodes = _batch_nodes(centers, side, resolution)
    flat = nodes.reshape(-1) if dim == 1 else nodes.reshape(-1, dim)
    if transform is not None:
        flat = transform(flat)
    return _evaluate(fn, flat, side / resolution).reshape(len(centers), -1)


def _divergence_chain(v0: np.ndarray, doubled: Callable) -> np.ndarray:
    """The base means v0 of a layer, +inf where the average diverges.

    doubled(index, k) gives the k-th doubling's means of the cubes `index`.
    A cube is flagged when its average grows monotonically (per-doubling
    ratio above GROWTH_FLOOR) through DIVERGENCE_DOUBLINGS doublings and the
    total growth factor exceeds DIVERGENCE_RATIO.
    """
    index = np.arange(len(v0))
    prev = v0
    for k in range(1, DIVERGENCE_DOUBLINGS + 1):
        cur = doubled(index, k)
        growing = np.abs(cur) > GROWTH_FLOOR * np.abs(prev)
        if not growing.any():
            return v0
        index, prev = index[growing], cur[growing]
    first = v0[index]
    nonzero = np.abs(first) > 0
    total = np.zeros(len(index))
    total[nonzero] = np.abs(prev[nonzero]) / np.abs(first[nonzero])
    out = v0.copy()
    out[index[total > DIVERGENCE_RATIO]] = np.inf
    return out


def subcube_index(dim: int, level: int, index: np.ndarray, k: int) -> np.ndarray:
    """Flat level+k indices of the 2^(dk) sub-cubes of each level cube in
    `index`: shape (len(index), 2^(dk)), row-major in 2-D."""
    K = 2 ** k
    j = np.arange(K)
    if dim == 1:
        return index[:, None] * K + j[None, :]
    n = 2 ** level
    rows = (index // n)[:, None, None] * K + j[None, :, None]
    cols = (index % n)[:, None, None] * K + j[None, None, :]
    return (rows * (n * K) + cols).reshape(len(index), -1)


def _check_resolution(resolution: int) -> None:
    # With one node per cube an average is a point value, so every Ap
    # quantity <w>_Q <w^(-1/(p-1))>_Q^(p-1) would read exactly 1.
    if resolution < 2:
        raise ValueError("resolution must be at least 2")


def _sliced(reduce: Callable, centers: np.ndarray, side: float,
            resolution: int, transform) -> np.ndarray:
    """reduce(centers, side, transform) over slices of at most _BATCH_NODES
    base nodes.  Every reduction works per cube, so the slicing does not
    change a bit."""
    step = max(1, _BATCH_NODES // resolution ** centers.shape[1])
    return np.concatenate([reduce(centers[i:i + step], side, transform)
                           for i in range(0, len(centers), step)])


def _per_layer(family: CubeFamily, resolution: int, reduce: Callable) -> np.ndarray:
    """Concatenate reduce(centers, side, transform) over the family's layers,
    sliced as `_sliced` does; transform is the family's periodic node wrap."""
    _check_resolution(resolution)
    transform = family.node_transform()
    return np.concatenate([_sliced(reduce, centers, side, resolution, transform)
                           for _, _, centers, side in family.batches()])


def average(fn: Callable, cube: Cube, resolution: int) -> float:
    """Midpoint-rule average of fn over a cube; +inf if refinement diverges.

    The returned value is the resolution**dim node approximation of
    |Q|^-1 * integral(fn, Q).  The node count is doubled up to three times;
    a value that keeps growing through the doublings with total growth
    factor above DIVERGENCE_RATIO is reported as +inf.  The cube is the
    one-cube family centered on it.
    """
    family = CubeFamily(cube.dim, cube.side / 2, 0, 0, origin=cube.center)
    return float(family_averages(family, fn, resolution)[0])


@contextlib.contextmanager
def quadrature_memo():
    """A scope in which `family_averages` computes each result once.

    The memo holds 8 bytes per cube and is dropped on exit, when the outer
    scope's memo (or none) is back in place.  Inside a scope the function
    must be hashable, as every parsed weight and symbol is: it is part of
    the key.
    """
    global _memo
    outer, _memo = _memo, {}
    try:
        yield
    finally:
        _memo = outer


def family_averages(family: CubeFamily, fn: Callable,
                    resolution: int) -> np.ndarray:
    """Per-cube averages over the whole family, +inf where divergent.

    Inside `quadrature_memo()` a family whose (function, resolution, family
    without max_level) was computed at least as deep is read off the stored
    values, as a fresh array.
    """
    if _memo is None:
        return _family_averages(family, fn, resolution)
    key = (fn, resolution, family.dim, family.half_width, family.min_level,
           family.shifts, family.origin)
    held = _memo.get(key)
    if held is None or held[0] < family.max_level:
        held = _memo[key] = (family.max_level,
                             _family_averages(family, fn, resolution))
    return held[1][:len(family)].copy()


def _family_averages(family: CubeFamily, fn: Callable,
                     resolution: int) -> np.ndarray:
    def means(centers, side, transform):
        return _node_values(fn, centers, side, resolution, transform).mean(axis=1)

    _check_resolution(resolution)
    transform = family.node_transform()
    layers = [(level, shift, _sliced(means, centers, side, resolution, transform))
              for level, shift, centers, side in family.batches()]
    held = {(level, shift): v0 for level, shift, v0 in layers}

    def chain(level, shift, v0):
        def doubled(index, k):
            sub = subcube_index(family.dim, level, index, k)
            if not shift and (level + k, shift) in held:
                return held[(level + k, shift)][sub].mean(axis=1)
            centers = family.subcube_centers(level, shift, sub.ravel(), k)
            return _sliced(means, centers, family.side(level + k), resolution,
                           transform).reshape(sub.shape).mean(axis=1)

        return _divergence_chain(v0, doubled)

    return np.concatenate([chain(*layer) for layer in layers])


def family_extrema(family: CubeFamily, fn: Callable, resolution: int,
                   mode: str = "min") -> np.ndarray:
    """Per-cube extremum of fn over quadrature nodes (essential inf/sup proxy)."""
    reducer = np.min if mode == "min" else np.max

    def extremum(centers, side, transform):
        vals = _node_values(fn, centers, side, resolution, transform)
        return reducer(vals, axis=1)

    return _per_layer(family, resolution, extremum)


def family_oscillations(family: CubeFamily, fn: Callable,
                        resolution: int) -> np.ndarray:
    """Per-cube mean oscillation < |fn - <fn>_Q| >_Q over quadrature nodes."""

    def oscillation(centers, side, transform):
        vals = _node_values(fn, centers, side, resolution, transform)
        return np.abs(vals - vals.mean(axis=1, keepdims=True)).mean(axis=1)

    return _per_layer(family, resolution, oscillation)


@dataclass(frozen=True)
class Grid:
    """Uniform midpoint-offset grid on [-L, L]^d with n nodes per axis."""

    dim: int
    n: int
    half_width: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("grids support d in {1, 2} only")
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise ValueError("grid resolution must be a power of two")
        if self.half_width <= 0:
            raise ValueError("half-width must be positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    def axis_nodes(self) -> np.ndarray:
        return -self.half_width + (np.arange(self.n) + 0.5) * self.spacing

    def flat_nodes(self) -> np.ndarray:
        ax = self.axis_nodes()
        if self.dim == 1:
            return ax
        x1, x2 = np.meshgrid(ax, ax, indexing="ij")
        return np.stack([x1.ravel(), x2.ravel()], axis=-1)

    def size(self) -> int:
        return self.n ** self.dim


@dataclass(frozen=True)
class GridFunction:
    """Samples of a function at grid nodes; values may be complex."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values)
        expected = (self.grid.n,) * self.grid.dim
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} != {expected}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable) -> "GridFunction":
        vals = np.asarray(fn(grid.flat_nodes()))
        return cls(grid, vals.reshape((grid.n,) * grid.dim))

    def flat(self) -> np.ndarray:
        return self.values.ravel()

    def map(self, op) -> "GridFunction":
        return GridFunction(self.grid, op(self.values))


def weighted_lp_norm(f: GridFunction, p: float, weight=None) -> float:
    """(sum |f|^p w * cell_volume)^(1/p) over the grid."""
    if p <= 0:
        raise ValueError("norm exponent must be positive")
    absf = np.abs(f.flat())
    if weight is None:
        w = 1.0
    else:
        w = np.asarray(weight(f.grid.flat_nodes()), dtype=float)
    total = float(np.sum(absf ** p * w)) * f.grid.cell_volume
    return total ** (1.0 / p)
