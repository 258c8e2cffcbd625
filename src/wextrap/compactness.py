"""Finite-dimensional compactness proxy: discretize bilinear operators,
measure approximation-number decay, and contrast symbol classes.

The proxy works in a weighted-L2 surrogate: inputs and output are rescaled
by square roots of the weights so the surrogate norms are Euclidean and the
approximation numbers are singular values.  This is deliberate and is the
lab's single biggest simplification: general-exponent approximation numbers
admit no exact finite algorithm, and the compact/non-compact contrast is a
qualitative shadow.  Every report records the convention.

No finite computation proves or refutes compactness; verdicts are
family-relative experimental conventions with thresholds in config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .grids import DEFAULT_RESOLUTION, CubeFamily, Grid, weighted_lp_norm
from .operators import BilinearOperator, CommutatorOperator, CommutatorSpec
from .weights import bmo_norm

NORM_CONVENTION = "weighted-l2-surrogate"

DEFAULT_BASIS_SIZE = 32
DEFAULT_BUDGET = 2 ** 26
DEFAULT_CONTRAST_FACTOR = 2.0
DEGENERATE_TAIL = 1e-12


class MemoryBudgetError(ValueError):
    """Requested discretization exceeds the configured size budget."""


def indicator_basis(grid: Grid, n_basis: int) -> np.ndarray:
    """Stack of coarse-cell indicators, one row per coarse cell."""
    if grid.dim != 1:
        raise NotImplementedError("bases implemented for d = 1")
    if grid.n % n_basis:
        raise ValueError("basis size must divide the grid resolution")
    block = grid.n // n_basis
    F = np.zeros((n_basis, grid.n))
    for i in range(n_basis):
        F[i, i * block:(i + 1) * block] = 1.0
    return F


def fourier_basis(grid: Grid, n_basis: int) -> np.ndarray:
    """Low-frequency complex exponentials on the periodic grid."""
    if grid.dim != 1:
        raise NotImplementedError("bases implemented for d = 1")
    x = grid.axis_nodes()
    ks = np.fft.fftfreq(n_basis, d=1.0 / n_basis)  # 0, 1, ..., -1 ordering
    xi = ks / (2.0 * grid.half_width)
    return np.exp(2j * np.pi * xi[:, None] * x[None, :])


@dataclass(frozen=True)
class DiscretizedBilinearMap:
    """Linear action on coefficient tensors, rescaled to Euclidean norms."""

    matrix: np.ndarray
    refinement: int
    basis_sizes: tuple[int, int]
    norm_convention: str
    descriptor: dict


def discretize(op: BilinearOperator, grid: Grid,
               weights: Optional[tuple] = None,
               exponents: Optional[tuple] = None,
               basis: str = "indicator",
               n_basis: tuple[int, int] = (DEFAULT_BASIS_SIZE, DEFAULT_BASIS_SIZE),
               budget: int = DEFAULT_BUDGET) -> DiscretizedBilinearMap:
    """Materialize the operator's action on basis pairs with surrogate norms.

    `weights` is (w1, w2, w_out) of WeightSpec or None entries; the nominal
    `exponents` are recorded in the descriptor but the surrogate norm is
    always the weighted L2 one.
    """
    n1, n2 = n_basis
    if n1 * n2 * grid.size() > budget:
        raise MemoryBudgetError(
            f"{n1}x{n2} basis at refinement {grid.n} exceeds budget {budget}")
    if basis == "indicator":
        F1, F2 = indicator_basis(grid, n1), indicator_basis(grid, n2)
    elif basis == "fourier":
        F1, F2 = fourier_basis(grid, n1), fourier_basis(grid, n2)
    else:
        raise ValueError("basis must be 'indicator' or 'fourier'")

    cols = op.apply_pairs(F1, F2, grid)  # (n1, n2, size)
    nodes = grid.flat_nodes()
    vol = grid.cell_volume
    w1, w2, w_out = (None, None, None) if weights is None else weights
    wo = np.ones(grid.size()) if w_out is None else np.asarray(w_out(nodes), float)
    out_scale = np.sqrt(wo * vol)

    def gram_half_inv(F, w):
        wv = np.ones(grid.size()) if w is None else np.asarray(w(nodes), float)
        G = (F * wv[None, :]) @ F.conj().T * vol
        evals, evecs = np.linalg.eigh(G)
        if np.any(evals <= 0):
            raise ValueError("weighted basis Gram matrix is not positive definite")
        return evecs @ np.diag(evals ** -0.5) @ evecs.conj().T

    # Whiten each input axis of the (n1, n2, size) column tensor; this is
    # M @ kron(Gi1, Gi2) for the (size, n1*n2) column matrix M.
    Gi1 = gram_half_inv(F1, w1)
    Gi2 = gram_half_inv(F2, w2)
    cols = np.tensordot(Gi1, cols * out_scale[None, None, :], axes=(0, 0))
    M = np.matmul(Gi2.T, cols).reshape(n1 * n2, grid.size()).T

    desc = {
        "operator": op.descriptor(),
        "refinement": grid.n,
        "half_width": grid.half_width,
        "basis": basis,
        "basis_sizes": [n1, n2],
        "weights": [None if w is None else w.descriptor()
                    for w in (w1, w2, w_out)],
        "exponents": None if exponents is None else [str(e) for e in exponents],
        "norm_convention": NORM_CONVENTION,
    }
    return DiscretizedBilinearMap(M, grid.n, (n1, n2), NORM_CONVENTION, desc)


@dataclass(frozen=True)
class ApproxNumberReport:
    """Nonincreasing sequence a_k: distance to rank-(k-1) maps in the
    surrogate norm (singular values of the rescaled representation)."""

    values: tuple[float, ...]
    refinement: int
    norm_convention: str
    descriptor: dict

    def tail_indicator(self, k_probe: int) -> float:
        a1 = self.values[0]
        if a1 <= 0:
            return 0.0
        k = min(k_probe, len(self.values))
        return self.values[k - 1] / a1

    def rows(self) -> list[dict]:
        a1 = self.values[0] if self.values else 0.0
        return [{"k": k + 1, "a_k": v,
                 "a_k_over_a1": (v / a1 if a1 > 0 else 0.0)}
                for k, v in enumerate(self.values)]


def approximation_numbers(dmap: DiscretizedBilinearMap,
                          k_max: int) -> ApproxNumberReport:
    svals = np.linalg.svd(dmap.matrix, compute_uv=False)
    vals = np.zeros(k_max)
    take = min(k_max, len(svals))
    vals[:take] = svals[:take]
    return ApproxNumberReport(tuple(float(v) for v in vals), dmap.refinement,
                              dmap.norm_convention, dmap.descriptor)


@dataclass(frozen=True)
class ContrastCell:
    refinement: int
    symbol_class: str
    a1: float
    a_probe: float
    tail: float
    report: ApproxNumberReport


@dataclass(frozen=True)
class ContrastReport:
    verdict: str
    cells: tuple[ContrastCell, ...]
    k_probe: int
    contrast_factor: float
    amplitude_scale: float
    provenance: dict

    def csv_rows(self) -> list[dict]:
        rows = []
        for cell in self.cells:
            for r in cell.report.rows():
                rows.append({"N": cell.refinement,
                             "symbol_class": cell.symbol_class, **r})
        return rows

    def descriptor(self) -> dict:
        return {
            "verdict": self.verdict,
            "k_probe": self.k_probe,
            "contrast_factor": self.contrast_factor,
            "amplitude_scale": self.amplitude_scale,
            "cells": [{"N": c.refinement, "symbol_class": c.symbol_class,
                       "a1": c.a1, "a_probe": c.a_probe, "tail": c.tail}
                      for c in self.cells],
            "provenance": self.provenance,
        }


def matched_amplitude(b_cmo: Callable, b_bmo: Callable, family: CubeFamily,
                      resolution: int = DEFAULT_RESOLUTION) -> float:
    """Scale for b_cmo so both symbols carry the same measured oscillation."""
    n_bmo = bmo_norm(b_bmo, family, resolution).value
    n_cmo = bmo_norm(b_cmo, family, resolution).value
    if n_cmo <= 0:
        raise ValueError("reference symbol has zero oscillation")
    return n_bmo / n_cmo


def compactness_contrast(base_op: BilinearOperator, b_cmo: Callable,
                         b_bmo: Callable, index: tuple[int, int],
                         refinements: Sequence[int], k_probe: int,
                         half_width: float = 4.0,
                         weights: Optional[tuple] = None,
                         exponents: Optional[tuple] = None,
                         n_basis: tuple[int, int] = (DEFAULT_BASIS_SIZE,
                                                     DEFAULT_BASIS_SIZE),
                         contrast_factor: float = DEFAULT_CONTRAST_FACTOR,
                         bmo_family: Optional[CubeFamily] = None,
                         bmo_resolution: int = DEFAULT_RESOLUTION,
                         monotonicity_slack: float = 1e-9) -> ContrastReport:
    """Tail contrast between commutators with vanishing-oscillation-class and
    rough symbols across refinements.

    The verdict is 'contrast_confirmed' when, at every refinement, the smooth
    symbol's tail a_{k_probe}/a_1 is below tail_rough/contrast_factor and the
    smooth tails are nonincreasing in the refinement; 'degenerate_skipped'
    when every tail vanishes; 'inconclusive' otherwise.
    """
    if sorted(refinements) != list(refinements):
        raise ValueError("refinement list must be increasing")
    fam = bmo_family or CubeFamily(1, half_width, 0, 8)
    scale = matched_amplitude(b_cmo, b_bmo, fam, bmo_resolution)
    b_cmo_scaled = lambda x: scale * np.asarray(b_cmo(x))

    def commutator(b, tag):
        if index == (1, 1):
            spec = CommutatorSpec(index, b, b, (tag, tag))
        elif index == (1, 0):
            spec = CommutatorSpec(index, b1=b, tags=(tag, tag))
        else:
            spec = CommutatorSpec(index, b2=b, tags=(tag, tag))
        return CommutatorOperator(base_op, spec)

    cells = []
    for N in refinements:
        grid = Grid(1, int(N), half_width)
        for tag, b in (("cmo", b_cmo_scaled), ("bmo", b_bmo)):
            op = commutator(b, tag)
            dmap = discretize(op, grid, weights, exponents, "indicator", n_basis)
            rep = approximation_numbers(dmap, k_probe)
            tail = rep.tail_indicator(k_probe)
            cells.append(ContrastCell(int(N), tag, rep.values[0],
                                      rep.values[min(k_probe, len(rep.values)) - 1],
                                      tail, rep))

    cmo_tails = [c.tail for c in cells if c.symbol_class == "cmo"]
    bmo_tails = [c.tail for c in cells if c.symbol_class == "bmo"]
    if all(t < DEGENERATE_TAIL for t in cmo_tails + bmo_tails):
        verdict = "degenerate_skipped"
    else:
        separated = all(tc < tb / contrast_factor
                        for tc, tb in zip(cmo_tails, bmo_tails))
        nonincreasing = all(cmo_tails[i + 1] <= cmo_tails[i] + monotonicity_slack
                            for i in range(len(cmo_tails) - 1))
        verdict = ("contrast_confirmed" if separated and nonincreasing
                   else "inconclusive")
    provenance = {
        "operator": base_op.descriptor(),
        "index": list(index),
        "refinements": [int(n) for n in refinements],
        "half_width": half_width,
        "n_basis": list(n_basis),
        "norm_convention": NORM_CONVENTION,
        "bmo_family": fam.descriptor(),
        "bmo_resolution": bmo_resolution,
        "monotonicity_slack": monotonicity_slack,
        "degenerate_tail": DEGENERATE_TAIL,
    }
    return ContrastReport(verdict, tuple(cells), k_probe, contrast_factor,
                          scale, provenance)


@dataclass(frozen=True)
class SweepRow:
    label: str
    weight_params: dict
    max_ratio: float
    best_trial: str
    class_constant: Optional[float]

    def descriptor(self) -> dict:
        return {"label": self.label, "weight_params": self.weight_params,
                "max_ratio": self.max_ratio, "best_trial": self.best_trial,
                "class_constant": self.class_constant}


def boundedness_sweep(op: BilinearOperator, grid: Grid,
                      exponents: tuple[float, float, float],
                      weight_rows: Sequence[dict],
                      trials: Sequence[tuple[str, Callable, Callable]]) -> list[SweepRow]:
    """Operator-norm lower bounds over trial pairs, per weight row.

    Each weight row is {'label', 'w1', 'w2', 'w_out', 'params',
    'class_constant'} with WeightSpec or None entries; each trial is
    (name, f1_fn, f2_fn) of node-callables.  The reported ratio is
    ||T(f1, f2)||_{q, w_out} / (||f1||_{q1, w1} ||f2||_{q2, w2}).
    """
    from .grids import GridFunction

    q1, q2, q = exponents
    rows = []
    for wr in weight_rows:
        best = 0.0
        best_name = ""
        for name, f1_fn, f2_fn in trials:
            f1 = GridFunction.from_callable(grid, f1_fn)
            f2 = GridFunction.from_callable(grid, f2_fn)
            out = op.apply(f1, f2)
            denom = (weighted_lp_norm(f1, q1, wr.get("w1"))
                     * weighted_lp_norm(f2, q2, wr.get("w2")))
            if denom == 0:
                continue
            ratio = weighted_lp_norm(out, q, wr.get("w_out")) / denom
            if ratio > best:
                best, best_name = ratio, name
        rows.append(SweepRow(wr.get("label", ""), wr.get("params", {}),
                             best, best_name, wr.get("class_constant")))
    return rows
