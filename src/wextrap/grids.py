"""Dyadic cube families, midpoint quadrature, and weighted grid norms.

Everything downstream measures class constants as maxima of per-cube
quantities over a finite cube family, so the reported values are always
lower bounds for the suprema they stand in for.  Averages carry a
refinement-doubling divergence check that promotes non-integrable
singularities to +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

# An average is declared divergent when the midpoint sums keep growing over
# three successive node-count doublings AND the total growth factor exceeds
# DIVERGENCE_RATIO.  Power singularities |x|^a with a <= -1 grow by a factor
# 8^(-1-a) over the chain, and the logarithmic borderline case grows by
# 1 + 3 log(2)/(log M + c), so both clear 1.3 at the resolutions this
# laboratory runs at, while integrable singularities settle well below it.
# Cubes whose per-doubling growth drops below GROWTH_FLOOR leave the chain
# early (their limit exists).
DIVERGENCE_RATIO = 1.3
DIVERGENCE_DOUBLINGS = 3
GROWTH_FLOOR = 1.02

DEFAULT_RESOLUTION = 128


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
    Shifts are fractions of the sidelength and act periodically: each shifted
    layer keeps the full cube count of its level, and quadrature nodes of a
    cube poking past the boundary wrap back into the domain.
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
        if not self.origin:
            object.__setattr__(self, "origin", (0.0,) * self.dim)
        elif len(self.origin) != self.dim:
            raise ValueError("origin dimension mismatch")

    def levels(self) -> range:
        return range(self.min_level, self.max_level + 1)

    def batches(self) -> Iterator[tuple[int, float, np.ndarray, float]]:
        """Yield (level, shift, centers (ncubes, dim), side) per layer."""
        L = self.half_width
        for level in self.levels():
            n = 2 ** level
            side = 2.0 * L / n
            base = -L + (np.arange(n) + 0.5) * side
            for shift in self.shifts:
                ax = base + shift * side
                if shift:
                    ax = (ax + L) % (2.0 * L) - L
                if self.dim == 1:
                    centers = ax[:, None] + self.origin[0]
                else:
                    c1, c2 = np.meshgrid(ax, ax, indexing="ij")
                    centers = np.stack([c1.ravel(), c2.ravel()], axis=-1)
                    centers = centers + np.asarray(self.origin)[None, :]
                yield level, shift, centers, side

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
        o = np.asarray(self.origin)

        def wrap(x):
            if self.dim == 1:
                return (x - o[0] + L) % (2.0 * L) - L + o[0]
            return (x - o[None, :] + L) % (2.0 * L) - L + o[None, :]

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
    bad = ~np.isfinite(vals)
    if bad.any():
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


def _checked_means(fn, centers, side, resolution, divergence_ratio,
                   transform=None) -> np.ndarray:
    """Means at the base resolution for a cube batch, +inf where divergent.

    A cube is flagged when its average grows monotonically (per-doubling
    ratio above GROWTH_FLOOR) through DIVERGENCE_DOUBLINGS doublings and the
    total growth factor exceeds divergence_ratio.
    """
    v0 = _node_values(fn, centers, side, resolution, transform).mean(axis=1)
    prev = v0
    suspect = np.ones(len(centers), dtype=bool)
    res = resolution
    last = v0.copy()
    for _ in range(DIVERGENCE_DOUBLINGS):
        res *= 2
        cur = np.full_like(prev, np.nan)
        cur[suspect] = _node_values(fn, centers[suspect], side, res,
                                    transform).mean(axis=1)
        growing = suspect & (np.abs(cur) > GROWTH_FLOOR * np.abs(prev))
        if not growing.any():
            return v0
        suspect = growing
        last[suspect] = cur[suspect]
        prev = cur
    total = np.zeros(len(centers))
    nonzero = suspect & (np.abs(v0) > 0)
    total[nonzero] = np.abs(last[nonzero]) / np.abs(v0[nonzero])
    return np.where(suspect & (total > divergence_ratio), np.inf, v0)


def _check_resolution(resolution: int) -> None:
    # With one node per cube an average is a point value, so every Ap
    # quantity <w>_Q <w^(-1/(p-1))>_Q^(p-1) would read exactly 1.
    if resolution < 2:
        raise ValueError("resolution must be at least 2")


def _per_layer(family: CubeFamily, resolution: int, reduce: Callable) -> np.ndarray:
    """Concatenate reduce(centers, side, transform) over the family's layers;
    transform is the family's periodic node wrap."""
    _check_resolution(resolution)
    transform = family.node_transform()
    return np.concatenate([reduce(centers, side, transform)
                           for _, _, centers, side in family.batches()])


def average(fn: Callable, cube: Cube, resolution: int,
            divergence_ratio: float = DIVERGENCE_RATIO) -> float:
    """Midpoint-rule average of fn over a cube; +inf if refinement diverges.

    The returned value is the resolution**dim node approximation of
    |Q|^-1 * integral(fn, Q).  The node count is doubled up to three times;
    a value that keeps growing through the doublings with total growth
    factor above divergence_ratio is reported as +inf.
    """
    _check_resolution(resolution)
    centers = np.asarray([cube.center], dtype=float)
    return float(_checked_means(fn, centers, cube.side, resolution,
                                divergence_ratio)[0])


def family_averages(family: CubeFamily, fn: Callable, resolution: int,
                    divergence_ratio: float = DIVERGENCE_RATIO) -> np.ndarray:
    """Per-cube averages over the whole family, +inf where divergent."""
    return _per_layer(family, resolution, lambda centers, side, transform:
                      _checked_means(fn, centers, side, resolution,
                                     divergence_ratio, transform))


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
