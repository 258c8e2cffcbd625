"""Desk-scale discretizations of the three application operators and their
commutators with bounded-mean-oscillation symbols.

Every operator acts on 1-D grids.  Kernel operators act on truncated
non-periodic grids as quadrature double sums, each output point's kernel
matrix a window of one translation-invariant offset table built once per
call.  The Fourier multiplier acts on the periodic grid through discrete
transforms.  Every operator exposes `apply` for a single pair and
`apply_pairs` for stacks of inputs (the column generator used by the
compactness lab).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .grids import Grid, GridFunction

# Sub-nodes per axis of the fractional kernel's singular-cell average.
_OVERSAMPLE = 8


def _offsets(grid: Grid) -> np.ndarray:
    """Node differences (-(n-1), ..., n-1) * h of a 1-D grid."""
    return np.arange(-(grid.n - 1), grid.n) * grid.spacing


def _window(T: np.ndarray, n: int, ix: int) -> np.ndarray:
    """Kernel matrix of output node ix of an n-node grid, from its offset table."""
    lo = n - 1 - ix
    return T[lo:lo + n, lo:lo + n]


class BilinearOperator:
    """Interface: apply to one pair or to stacks of tabulated inputs."""

    def apply(self, f1: GridFunction, f2: GridFunction) -> GridFunction:
        grid = f1.grid
        out = self.apply_pairs(f1.flat()[None, :], f2.flat()[None, :], grid)
        return GridFunction(grid, out[0, 0].reshape((grid.n,) * grid.dim))

    def apply_pairs(self, F1: np.ndarray, F2: np.ndarray,
                    grid: Grid) -> np.ndarray:
        """Map stacks (n1, size) x (n2, size) to outputs (n1, n2, size)."""
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError


class _KernelOperator(BilinearOperator):
    """Shared double-sum machinery.

    Subclasses give the offset table T[i, j] = k(0, u_i, u_j) on the
    offsets u = (-(n-1), ..., n-1) * h of a 1-D grid; the kernel matrix
    K_x[a, b] = k(x, y_a, y_b) of output node ix is the window of T starting
    at offset n - 1 - ix in both axes.  `_kernel_matrix` builds K_x directly,
    as the reference the offset table is tested against.
    """

    def _kernel_matrix(self, x, nodes, grid: Grid, x_index: int) -> np.ndarray:
        raise NotImplementedError

    def _offset_table(self, grid: Grid) -> np.ndarray:
        raise NotImplementedError

    def apply_pairs(self, F1, F2, grid):
        if grid.dim != 1:
            raise ValueError(f"a 1-D kernel on a {grid.dim}-D grid")
        n = grid.n
        dtype = np.result_type(F1.dtype, F2.dtype, float)
        out = np.zeros((F1.shape[0], F2.shape[0], n), dtype=dtype)
        vol = grid.cell_volume
        T = self._offset_table(grid)
        for ix in range(n):
            out[:, :, ix] = (F1 @ _window(T, n, ix) @ F2.T) * vol * vol
        return out


@dataclass(frozen=True)
class FractionalIntegralOperator(_KernelOperator):
    """Positive-kernel smoothing operator of order beta.

    conventions:
      homogeneous: kernel (|x-y1|^2 + |x-y2|^2)^((beta-2d)/2), homogeneity
        degree beta - 2d, the degree the classical mapping theorems govern.
      as_printed: kernel (|x-y1|^2 + |x-y2|^2)^(-(2d-beta)), i.e. the same
        base with a doubled exponent.

    The quadrature cell containing the kernel singularity (y1 = y2 = x)
    contributes its cell-averaged kernel computed by 8x oversampling that
    excludes the singular point.
    """

    beta: float
    convention: str = "homogeneous"

    def __post_init__(self):
        if not (0 < self.beta < 2):
            raise ValueError("need 0 < beta < 2d = 2")
        if self.convention not in ("homogeneous", "as_printed"):
            raise ValueError("unknown kernel exponent convention")

    def _exponent(self) -> float:
        power = self.beta - 2
        return power / 2.0 if self.convention == "homogeneous" else power

    def kernel(self, x, y1, y2) -> np.ndarray:
        s = np.abs(x - y1) ** 2 + np.abs(x - y2) ** 2
        with np.errstate(divide="ignore"):
            return s ** self._exponent()

    def _kernel_matrix(self, x, nodes, grid, x_index):
        d1 = np.abs(x - nodes) ** 2
        with np.errstate(divide="ignore"):
            K = (d1[:, None] + d1[None, :]) ** self._exponent()
        K[x_index, x_index] = self._singular_cell_average(x, grid)
        return K

    def _offset_table(self, grid):
        u2 = _offsets(grid) ** 2
        with np.errstate(divide="ignore"):
            T = (u2[:, None] + u2[None, :]) ** self._exponent()
        T[grid.n - 1, grid.n - 1] = self._singular_cell_average(0.0, grid)
        return T

    def _singular_cell_average(self, x, grid) -> float:
        k = _OVERSAMPLE
        y = x + grid.spacing * ((np.arange(k) + 0.5) / k - 0.5)
        s = (y[:, None] - x) ** 2 + (y[None, :] - x) ** 2
        vals = s ** self._exponent()
        finite = np.isfinite(vals)
        return float(vals[finite].mean())

    def descriptor(self):
        return {"type": "fractional_integral", "beta": self.beta,
                "dim": 1, "convention": self.convention}


@dataclass(frozen=True)
class KernelSpec:
    """An explicit kernel with its advertised smoothness order."""

    kernel: Callable
    smoothness_order: float
    truncation_radius: float = 0.25

    def __post_init__(self):
        if self.truncation_radius <= 0:
            raise ValueError("truncation radius must be positive")


@dataclass(frozen=True)
class TruncatedKernelOperator(_KernelOperator):
    """rho-truncated singular integral: the region |(y1,y2)-(x,x)| <= rho
    is removed, so the operator is the documented truncation, never a
    principal-value limit.

    The kernel must be translation invariant, k(x, y1, y2) =
    k(0, y1 - x, y2 - x): on a 1-D grid every output point reads its kernel
    matrix from one offset table.  The table is checked against the kernel
    evaluated directly at the first and last output node, and a kernel that
    disagrees there raises ValueError.
    """

    spec: KernelSpec

    def _check_spacing(self, grid):
        if grid.spacing >= self.spec.truncation_radius:
            raise ValueError("grid spacing must be below the truncation radius")

    def _truncated(self, K, r2):
        K = np.asarray(K, dtype=float)
        K[r2 <= self.spec.truncation_radius ** 2] = 0.0
        return K

    def _offset_table(self, grid):
        self._check_spacing(grid)
        u = _offsets(grid)
        T = np.asarray(self.spec.kernel(0.0, u[:, None], u[None, :]),
                       dtype=float)
        # Compared before truncation, so rounding at the radius cannot flag
        # an invariant kernel.
        nodes, n = grid.flat_nodes(), grid.n
        for ix in (0, n - 1):
            direct = np.asarray(self.spec.kernel(nodes[ix], nodes[:, None],
                                                 nodes[None, :]), dtype=float)
            scale = np.max(np.abs(direct), where=np.isfinite(direct),
                           initial=0.0)
            if not np.allclose(_window(T, n, ix), direct, rtol=1e-9,
                               atol=1e-12 * scale, equal_nan=True):
                raise ValueError("kernel is not translation invariant: the "
                                 "offset table disagrees with k(x, y1, y2) at "
                                 f"x = {nodes[ix]}")
        u2 = u ** 2
        return self._truncated(T, u2[:, None] + u2[None, :])

    def _kernel_matrix(self, x, nodes, grid, x_index):
        self._check_spacing(grid)
        d1 = np.abs(x - nodes) ** 2
        K = self.spec.kernel(x, nodes[:, None], nodes[None, :])
        return self._truncated(K, d1[:, None] + d1[None, :])

    def descriptor(self):
        return {"type": "truncated_kernel", "dim": 1,
                "rho": self.spec.truncation_radius,
                "smoothness_order": self.spec.smoothness_order}


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(1 - t > 0, np.exp(-1.0 / np.maximum(1 - t, 1e-300)), 0.0)
    return a / (a + b)


def littlewood_paley_bump() -> Callable:
    """Smooth bump supported where 1/2 <= |xi1| + |xi2| <= 2 whose dyadic
    dilates sum to one away from the origin (telescoping construction)."""

    def chi(t):
        return _smoothstep(2.0 - np.asarray(t, dtype=float))

    def bump(xi1, xi2):
        rho = np.abs(np.asarray(xi1, dtype=float))
        rho = rho + np.abs(np.asarray(xi2, dtype=float))
        return chi(rho) - chi(2.0 * rho)

    return bump


@dataclass(frozen=True)
class SymbolSpec:
    """Bilinear multiplier symbol with its dyadic-piece regularity data."""

    sigma: Callable
    bump: Callable = field(default_factory=littlewood_paley_bump)
    s: Optional[float] = None
    s_vec: Optional[tuple[float, float]] = None
    name: str = "custom"

    def descriptor(self):
        return {"type": "symbol", "name": self.name, "s": self.s,
                "s_vec": list(self.s_vec) if self.s_vec else None}


@dataclass(frozen=True)
class FourierMultiplierOperator(BilinearOperator):
    """Frequency-side bilinear operator on the periodic grid.

    Output at grid points equals the inverse transform of the folded
    (aliased) frequency-diagonal sums of sigma(xi1, xi2) f1^(xi1) f2^(xi2);
    with the identity symbol this reproduces the pointwise product exactly.
    """

    symbol: SymbolSpec

    def _sigma_matrix(self, grid: Grid) -> np.ndarray:
        freqs = np.fft.fftfreq(grid.n, d=grid.spacing)
        return np.asarray(self.symbol.sigma(freqs[:, None], freqs[None, :]),
                          dtype=complex)

    def apply_pairs(self, F1, F2, grid):
        n = grid.n
        sig = self._sigma_matrix(grid)
        H1 = np.fft.fft(F1, axis=1)
        H2 = np.fft.fft(F2, axis=1)
        rows = np.arange(n)
        gather = (rows[:, None] - rows[None, :]) % n  # (k, k2) -> k1 index
        sig_gathered = sig[gather, rows[None, :]]
        out = np.zeros((F1.shape[0], F2.shape[0], n), dtype=complex)
        for i in range(F1.shape[0]):
            C = sig_gathered * H1[i][gather]
            G = C @ H2.T  # (n freq, n2)
            out[i] = (np.fft.ifft(G, axis=0) / n).T
        return out

    def descriptor(self):
        return {"type": "fourier_multiplier", "dim": 1,
                "symbol": self.symbol.descriptor()}


@dataclass(frozen=True)
class RankOneOperator(BilinearOperator):
    """T(f1, f2) = profile * <f1, g1> <f2, g2>: the rank-one archetype."""

    profile: Callable
    g1: Callable
    g2: Callable

    def apply_pairs(self, F1, F2, grid):
        nodes = grid.flat_nodes()
        vol = grid.cell_volume
        prof = np.asarray(self.profile(nodes))
        a = (F1 * np.asarray(self.g1(nodes))[None, :]).sum(axis=1) * vol
        b = (F2 * np.asarray(self.g2(nodes))[None, :]).sum(axis=1) * vol
        return a[:, None, None] * b[None, :, None] * prof[None, None, :]

    def descriptor(self):
        return {"type": "rank_one"}


@dataclass(frozen=True)
class ZeroOperator(BilinearOperator):
    def apply_pairs(self, F1, F2, grid):
        return np.zeros((F1.shape[0], F2.shape[0], grid.size()))

    def descriptor(self):
        return {"type": "zero"}


@dataclass(frozen=True)
class CommutatorSpec:
    """Commutator of a base operator against a symbol pair.

    index (1,0) multiplies against the first slot, (0,1) against the second,
    and (1,1) iterates the two.  Symbol class tags are bookkeeping for
    experiments: 'cmo_like' marks a smooth compactly supported symbol,
    'bmo_not_cmo' the canonical logarithm.
    """

    index: tuple[int, int]
    b1: Optional[Callable] = None
    b2: Optional[Callable] = None
    tags: tuple[str, str] = ("custom", "custom")

    def __post_init__(self):
        if self.index not in ((1, 0), (0, 1), (1, 1)):
            raise ValueError("commutator index must be (1,0), (0,1) or (1,1)")
        if self.index[0] and self.b1 is None:
            raise ValueError("first-slot commutator needs b1")
        if self.index[1] and self.b2 is None:
            raise ValueError("second-slot commutator needs b2")

    def descriptor(self):
        return {"type": "commutator", "index": list(self.index),
                "tags": list(self.tags)}


@dataclass(frozen=True)
class CommutatorOperator(BilinearOperator):
    base: BilinearOperator
    spec: CommutatorSpec

    def apply_pairs(self, F1, F2, grid):
        nodes = grid.flat_nodes()
        ix, iy = self.spec.index
        if ix and iy:
            b1 = np.asarray(self.spec.b1(nodes))
            b2 = np.asarray(self.spec.b2(nodes))
            t00 = self.base.apply_pairs(F1, F2, grid)
            t10 = self.base.apply_pairs(F1 * b1[None, :], F2, grid)
            t01 = self.base.apply_pairs(F1, F2 * b2[None, :], grid)
            t11 = self.base.apply_pairs(F1 * b1[None, :], F2 * b2[None, :], grid)
            return (b2 * b1 * t00 - b2 * t10) - (b1 * t01 - t11)
        if ix:
            b1 = np.asarray(self.spec.b1(nodes))
            return (b1 * self.base.apply_pairs(F1, F2, grid)
                    - self.base.apply_pairs(F1 * b1[None, :], F2, grid))
        b2 = np.asarray(self.spec.b2(nodes))
        return (b2 * self.base.apply_pairs(F1, F2, grid)
                - self.base.apply_pairs(F1, F2 * b2[None, :], grid))

    def descriptor(self):
        return {**self.spec.descriptor(), "base": self.base.descriptor()}


def smooth_bump(halfwidth: float = 2.0, amplitude: float = 1.0,
                center: float = 0.0) -> Callable:
    """C^inf bump supported in [center - halfwidth, center + halfwidth]."""

    def b(x):
        x = np.asarray(x, dtype=float)
        t = (x - center) / halfwidth
        inside = np.abs(t) < 1
        out = np.zeros_like(t)
        with np.errstate(divide="ignore", over="ignore"):
            out[inside] = amplitude * np.exp(-1.0 / (1.0 - t[inside] ** 2))
        return out

    return b


def log_symbol(center: float = 0.0) -> Callable:
    """log |x - center|: bounded mean oscillation without vanishing oscillation."""

    def b(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.log(np.abs(x - center))

    return b


def symbol_sobolev_norm(symbol: SymbolSpec, s: Optional[float] = None,
                        s_vec: Optional[Sequence[float]] = None,
                        j_range: Sequence[int] = range(-8, 9),
                        freq_halfwidth: float = 4.0,
                        freq_resolution: int = 128) -> float:
    """sup over j of the Sobolev norm of the dyadic piece bump * sigma(2^j .).

    The piece is sampled on a frequency-space grid, transformed discretely,
    and weighted by (1 + |zeta|^2)^s (or the componentwise product when a
    vector order is given).
    """
    if s is None:
        s = symbol.s
    if s_vec is None:
        s_vec = symbol.s_vec
    if (s is None) == (s_vec is None):
        raise ValueError("exactly one of s, s_vec must be given")
    n = freq_resolution
    B = freq_halfwidth
    dxi = 2.0 * B / n
    ax = -B + (np.arange(n) + 0.5) * dxi
    X1, X2 = np.meshgrid(ax, ax, indexing="ij")
    zeta = np.fft.fftfreq(n, d=dxi)
    Z1, Z2 = np.meshgrid(zeta, zeta, indexing="ij")
    if s is not None:
        weight = (1.0 + Z1 ** 2 + Z2 ** 2) ** float(s)
    else:
        s1, s2 = s_vec
        weight = (1.0 + Z1 ** 2) ** float(s1) * (1.0 + Z2 ** 2) ** float(s2)
    dzeta = 1.0 / (n * dxi)
    best = 0.0
    bump = symbol.bump
    for j in j_range:
        scale = 2.0 ** j
        vals = np.asarray(bump(X1, X2) * symbol.sigma(scale * X1, scale * X2),
                          dtype=complex)
        ft = np.fft.fft2(vals) * dxi * dxi
        norm_sq = float(np.sum(weight * np.abs(ft) ** 2)) * dzeta * dzeta
        best = max(best, math.sqrt(norm_sq))
    return best
