"""Weight descriptors and every Muckenhoupt-type class constant of the lab.

Weights form a small closed algebra (constants, power weights, a logarithmic
blow-up, tabulated samples, products and powers) so that every transformed
weight needed by the characterizations and the interpolation solver is again
a descriptor with exact pointwise evaluation.  Exponents are kept as exact
rationals wherever the caller provides them.

All class constants are maxima over a finite CubeFamily and therefore lower
bounds; membership verdicts use the documented stability proxy (finite value
that grows by less than `threshold` when the family gains two levels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .grids import (DEFAULT_RESOLUTION, DIVERGENCE_RATIO, CubeFamily,
                    GridFunction, family_averages, family_extrema,
                    family_oscillations)

ExponentLike = Union[Fraction, int, float, str]


def as_fraction(x: ExponentLike) -> Fraction:
    """Coerce to Fraction; strings like '1/5' or '0.2' convert exactly."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10 ** 12)
    raise TypeError(f"cannot interpret {x!r} as a rational exponent")


def conjugate(p: Fraction) -> Union[Fraction, float]:
    """Holder conjugate p/(p-1); conjugate of 1 is +inf."""
    p = as_fraction(p)
    if p < 1:
        raise ValueError("conjugate needs p >= 1")
    if p == 1:
        return math.inf
    return p / (p - 1)


def _norm(x: np.ndarray, center) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return np.abs(x - float(center[0] if not np.isscalar(center) else center))
    d0 = x[..., 0] - float(center[0])
    d1 = x[..., 1] - float(center[1])
    # Bit-identical to sqrt(sum(d ** 2, axis=-1)), without numpy's slow
    # reduction over an axis of length 2.
    return np.sqrt(d0 * d0 + d1 * d1)


class WeightSpec:
    """Base class of the weight algebra; instances are positive a.e."""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def pow(self, e: ExponentLike) -> "WeightSpec":
        e = as_fraction(e)
        if e == 1:
            return self
        return PowerOfWeight(self, e)

    def __mul__(self, other: "WeightSpec") -> "WeightSpec":
        return ProductWeight((self, other))

    def simplify(self) -> "WeightSpec":
        return self

    def descriptor(self) -> dict:
        raise NotImplementedError


def _exp_to_jsonable(e):
    if isinstance(e, Fraction):
        return f"{e.numerator}/{e.denominator}"
    return float(e)


@dataclass(frozen=True)
class ConstantWeight(WeightSpec):
    value: float = 1.0

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("constant weight must be positive")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        n = x.shape[0] if x.ndim else 1
        return np.full(n, float(self.value))

    def pow(self, e):
        return ConstantWeight(float(self.value) ** float(as_fraction(e)))

    def descriptor(self):
        return {"type": "constant", "value": float(self.value)}


@dataclass(frozen=True)
class PowerWeight(WeightSpec):
    """|x - center|^exponent with the Euclidean distance."""

    center: tuple[float, ...] = (0.0,)
    exponent: Fraction = Fraction(0)

    def __post_init__(self):
        c = self.center
        if np.isscalar(c):
            c = (float(c),)
        object.__setattr__(self, "center", tuple(float(v) for v in c))
        object.__setattr__(self, "exponent", as_fraction(self.exponent))

    def __call__(self, x):
        return _norm(x, self.center) ** float(self.exponent)

    def pow(self, e):
        return PowerWeight(self.center, self.exponent * as_fraction(e))

    def descriptor(self):
        return {"type": "power", "center": list(self.center),
                "exponent": _exp_to_jsonable(self.exponent)}


@dataclass(frozen=True)
class LogBlowupWeight(WeightSpec):
    """log(e + 1/|x - center|): a canonical unbounded class-one weight."""

    center: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        c = self.center
        if np.isscalar(c):
            c = (float(c),)
        object.__setattr__(self, "center", tuple(float(v) for v in c))

    def __call__(self, x):
        r = _norm(x, self.center)
        with np.errstate(divide="ignore"):
            return np.log(math.e + 1.0 / r)

    def descriptor(self):
        return {"type": "log_blowup", "center": list(self.center)}


@dataclass(frozen=True)
class TabulatedWeight(WeightSpec):
    """Nearest-node lookup into positive grid samples."""

    samples: GridFunction

    def __post_init__(self):
        if np.any(np.asarray(self.samples.values, dtype=float) <= 0):
            raise ValueError("tabulated weight samples must be positive")

    def __call__(self, x):
        g = self.samples.grid
        x = np.asarray(x, dtype=float)
        pts = x[:, None] if (g.dim == 1 and x.ndim == 1) else x
        idx = np.clip(((pts + g.half_width) / g.spacing - 0.5).round().astype(int),
                      0, g.n - 1)
        if g.dim == 1:
            return np.asarray(self.samples.values, dtype=float)[idx[:, 0]]
        return np.asarray(self.samples.values, dtype=float)[idx[:, 0], idx[:, 1]]

    def descriptor(self):
        return {"type": "tabulated", "n": self.samples.grid.n,
                "half_width": self.samples.grid.half_width}


@dataclass(frozen=True)
class ProductWeight(WeightSpec):
    factors: tuple[WeightSpec, ...]

    def __call__(self, x):
        out = None
        for f in self.factors:
            v = f(x)
            out = v if out is None else out * v
        return out

    def simplify(self):
        return _simplify(self)

    def descriptor(self):
        return {"type": "product", "factors": [f.descriptor() for f in self.factors]}


@dataclass(frozen=True)
class PowerOfWeight(WeightSpec):
    base: WeightSpec
    exponent: Fraction

    def __post_init__(self):
        object.__setattr__(self, "exponent", as_fraction(self.exponent))

    def __call__(self, x):
        return self.base(x) ** float(self.exponent)

    def pow(self, e):
        return PowerOfWeight(self.base, self.exponent * as_fraction(e))

    def simplify(self):
        return _simplify(self)

    def descriptor(self):
        return {"type": "power_of", "base": self.base.descriptor(),
                "exponent": _exp_to_jsonable(self.exponent)}


def _collect(spec: WeightSpec, outer: Fraction, powers: dict, others: list,
             const: list) -> None:
    if isinstance(spec, ProductWeight):
        for f in spec.factors:
            _collect(f, outer, powers, others, const)
    elif isinstance(spec, PowerOfWeight):
        _collect(spec.base, outer * spec.exponent, powers, others, const)
    elif isinstance(spec, PowerWeight):
        powers[spec.center] = powers.get(spec.center, Fraction(0)) + outer * spec.exponent
    elif isinstance(spec, ConstantWeight):
        const.append((spec.value, outer))
    else:
        others.append((spec, outer))


def _simplify(spec: WeightSpec) -> WeightSpec:
    powers: dict = {}
    others: list = []
    const: list = []
    _collect(spec, Fraction(1), powers, others, const)
    factors: list[WeightSpec] = []
    c = 1.0
    for value, e in const:
        c *= float(value) ** float(e)
    if c != 1.0:
        factors.append(ConstantWeight(c))
    for center in sorted(powers):
        if powers[center] != 0:
            factors.append(PowerWeight(center, powers[center]))
    for base, e in others:
        factors.append(base if e == 1 else PowerOfWeight(base, e))
    if not factors:
        return ConstantWeight(1.0)
    if len(factors) == 1:
        return factors[0]
    return ProductWeight(tuple(factors))


@dataclass(frozen=True)
class Exponents:
    """An exponent vector with its harmonic sum and derived quantities."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(as_fraction(v) for v in self.values)
        if any(v < 1 for v in vals):
            raise ValueError("exponent entries must be >= 1")
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, j):
        return self.values[j]

    @property
    def harmonic(self) -> Fraction:
        return 1 / sum(Fraction(1, 1) / v for v in self.values)

    def conjugates(self) -> tuple:
        return tuple(conjugate(v) for v in self.values)

    def rescaled(self, s: "Exponents") -> tuple[Fraction, ...]:
        """Componentwise ratios p_j / s_j (may be 1 when p_j == s_j)."""
        if len(s) != len(self):
            raise ValueError("length mismatch")
        return tuple(p / sj for p, sj in zip(self.values, s.values))

    def descriptor(self):
        return [_exp_to_jsonable(v) for v in self.values]


def exponents(*values: ExponentLike) -> Exponents:
    return Exponents(tuple(as_fraction(v) for v in values))


WeightVector = tuple[WeightSpec, ...]


def composite_weight(wvec: Sequence[WeightSpec],
                     pvec: Optional[Exponents] = None) -> WeightSpec:
    """The coupled weight prod_j w_j^(p/p_j); plain product when pvec is None."""
    wvec = tuple(wvec)
    if pvec is None:
        out: WeightSpec = ProductWeight(wvec) if len(wvec) > 1 else wvec[0]
        return out.simplify()
    if len(pvec) != len(wvec):
        raise ValueError("weight vector and exponent vector lengths differ")
    p = pvec.harmonic
    parts = tuple(w.pow(p / pj) for w, pj in zip(wvec, pvec.values))
    out = ProductWeight(parts) if len(parts) > 1 else parts[0]
    return out.simplify()


class Verdict(str, Enum):
    MEMBER = "member"
    NON_MEMBER = "non_member"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ClassConstant:
    """A family-relative lower bound for a class constant, never a supremum.

    `quantities` holds the per-cube values it maximises, in the family's
    `batches()` order; they are not part of the descriptor.
    """

    value: float
    tag: str
    family: dict
    resolution: int
    quantities: np.ndarray = field(compare=False, repr=False)

    def descriptor(self) -> dict:
        return {"value": self.value, "tag": self.tag, "family": self.family,
                "resolution": self.resolution}


@dataclass(frozen=True)
class MembershipReport:
    verdict: Verdict
    value: float
    grown_value: float
    growth: float
    tag: str
    family: dict
    growth_levels: int
    threshold: float

    def descriptor(self) -> dict:
        return {"verdict": self.verdict.value, "value": self.value,
                "grown_value": self.grown_value, "growth": self.growth,
                "tag": self.tag, "family": self.family,
                "growth_levels": self.growth_levels, "threshold": self.threshold}


def _max_or_inf(quantities: np.ndarray) -> float:
    if np.isnan(quantities).any():
        raise FloatingPointError("class constant produced NaN per-cube values")
    return float(np.max(quantities))


def _constant(quantities: np.ndarray, tag: str, family: CubeFamily,
              resolution: int) -> ClassConstant:
    return ClassConstant(_max_or_inf(quantities), tag, family.descriptor(),
                         resolution, quantities)


def _coupled_quantities(nu: WeightSpec, a, slots, family: CubeFamily,
                        resolution: int, divergence_ratio: float) -> np.ndarray:
    """Per-cube <nu>_Q^a prod_j <w_j^(e_j)>_Q^(g_j) for slots (w_j, e_j, g_j).

    A slot with e_j None is degenerate and contributes (inf_Q w_j)^(g_j).
    """
    with np.errstate(divide="ignore", over="ignore"):
        out = family_averages(family, nu, resolution, divergence_ratio) ** float(a)
        for w, e, g in slots:
            if e is None:
                base = family_extrema(family, w, resolution, mode="min")
            else:
                base = family_averages(family, w.pow(e), resolution,
                                       divergence_ratio)
            out = out * base ** float(g)
    return out


def muckenhoupt_quantities(w: WeightSpec, p: ExponentLike, family: CubeFamily,
                           resolution: int = DEFAULT_RESOLUTION,
                           divergence_ratio: float = DIVERGENCE_RATIO) -> np.ndarray:
    """Per-cube quantities <w>_Q <w^(-1/(p-1))>_Q^(p-1); p = 1 uses 1/inf_Q w."""
    p = as_fraction(p)
    if p < 1:
        raise ValueError("class exponent must satisfy p >= 1")
    if p == 1:
        # Outside _coupled_quantities: x * y**-1.0 can differ from x / y
        # in the last bit.
        avg_w = family_averages(family, w, resolution, divergence_ratio)
        inf_w = family_extrema(family, w, resolution, mode="min")
        with np.errstate(divide="ignore"):
            return avg_w / inf_w
    return _coupled_quantities(w, 1, [(w, -1 / (p - 1), p - 1)], family,
                               resolution, divergence_ratio)


def muckenhoupt_constant(w: WeightSpec, p: ExponentLike, family: CubeFamily,
                         resolution: int = DEFAULT_RESOLUTION,
                         divergence_ratio: float = DIVERGENCE_RATIO) -> ClassConstant:
    q = muckenhoupt_quantities(w, p, family, resolution, divergence_ratio)
    return _constant(q, f"Ap({as_fraction(p)})", family, resolution)


def muckenhoupt_pq_constant(w: WeightSpec, p: ExponentLike, q: ExponentLike,
                            family: CubeFamily,
                            resolution: int = DEFAULT_RESOLUTION,
                            divergence_ratio: float = DIVERGENCE_RATIO) -> ClassConstant:
    """sup_Q <w^q>^(1/q) <w^(-p')>^(1/p') over the family, for 1 < p <= q."""
    p, q = as_fraction(p), as_fraction(q)
    if not (1 < p <= q):
        raise ValueError("need 1 < p <= q < inf")
    pc = conjugate(p)
    vals = _coupled_quantities(w.pow(q), 1 / q, [(w, -pc, 1 / pc)], family,
                               resolution, divergence_ratio)
    return _constant(vals, f"Apq({p},{q})", family, resolution)


def multilinear_quantities(wvec: Sequence[WeightSpec], pvec: Exponents,
                           family: CubeFamily,
                           resolution: int = DEFAULT_RESOLUTION,
                           divergence_ratio: float = DIVERGENCE_RATIO) -> np.ndarray:
    """Per-cube <nu>^(1/p) prod <w_j^(1-p_j')>^(1/p_j'); p_j = 1 uses 1/inf w_j.

    This is the limited-range quantity with s = (1, ..., 1).
    """
    ones = Exponents((Fraction(1),) * len(pvec))
    return multilinear_limited_range_quantities(wvec, pvec, ones, family,
                                                resolution, divergence_ratio)


def multilinear_constant(wvec: Sequence[WeightSpec], pvec: Exponents,
                         family: CubeFamily,
                         resolution: int = DEFAULT_RESOLUTION,
                         divergence_ratio: float = DIVERGENCE_RATIO) -> ClassConstant:
    q = multilinear_quantities(wvec, pvec, family, resolution, divergence_ratio)
    return _constant(q, f"MultAp({pvec.descriptor()})", family, resolution)


def multilinear_limited_range_quantities(wvec: Sequence[WeightSpec],
                                         pvec: Exponents, svec: Exponents,
                                         family: CubeFamily,
                                         resolution: int = DEFAULT_RESOLUTION,
                                         divergence_ratio: float = DIVERGENCE_RATIO) -> np.ndarray:
    """Per-cube <nu>^(1/p) prod <w_j^(1-(p_j/s_j)')>^(1/s_j - 1/p_j).

    The degenerate branch p_j = s_j contributes (inf_Q w_j)^(-1/p_j).
    """
    wvec = tuple(wvec)
    if len(svec) != len(pvec):
        raise ValueError("limited-range exponent vectors differ in length")
    if not all(sj <= pj for sj, pj in zip(svec.values, pvec.values)):
        raise ValueError("need s_j <= p_j componentwise")
    slots = [(w, None, -1 / pj) if pj == sj
             else (w, 1 - conjugate(pj / sj), 1 / sj - 1 / pj)
             for w, pj, sj in zip(wvec, pvec.values, svec.values)]
    return _coupled_quantities(composite_weight(wvec, pvec), 1 / pvec.harmonic,
                               slots, family, resolution, divergence_ratio)


def multilinear_limited_range_constant(wvec: Sequence[WeightSpec],
                                       pvec: Exponents, svec: Exponents,
                                       family: CubeFamily,
                                       resolution: int = DEFAULT_RESOLUTION,
                                       divergence_ratio: float = DIVERGENCE_RATIO) -> ClassConstant:
    q = multilinear_limited_range_quantities(wvec, pvec, svec, family,
                                             resolution, divergence_ratio)
    tag = f"MultApS({pvec.descriptor()},{svec.descriptor()})"
    return _constant(q, tag, family, resolution)


def multilinear_offdiag_quantities(wvec: Sequence[WeightSpec], pvec: Exponents,
                                   p_star: ExponentLike, family: CubeFamily,
                                   resolution: int = DEFAULT_RESOLUTION,
                                   divergence_ratio: float = DIVERGENCE_RATIO) -> np.ndarray:
    """Per-cube <nu^(p*)>^(1/p*) prod <w_j^(-p_j')>^(1/p_j'); p_j = 1 uses 1/inf w_j."""
    wvec = tuple(wvec)
    p_star = as_fraction(p_star)
    p = pvec.harmonic
    m = len(wvec)
    if not (Fraction(1, m) < p <= p_star):
        raise ValueError("need 1/m < p <= p* < inf")
    slots = [(w, None, -1) if pj == 1
             else (w, -conjugate(pj), 1 / conjugate(pj))
             for w, pj in zip(wvec, pvec.values)]
    return _coupled_quantities(composite_weight(wvec).pow(p_star), 1 / p_star,
                               slots, family, resolution, divergence_ratio)


def multilinear_offdiag_constant(wvec: Sequence[WeightSpec], pvec: Exponents,
                                 p_star: ExponentLike, family: CubeFamily,
                                 resolution: int = DEFAULT_RESOLUTION,
                                 divergence_ratio: float = DIVERGENCE_RATIO) -> ClassConstant:
    q = multilinear_offdiag_quantities(wvec, pvec, p_star, family, resolution,
                                       divergence_ratio)
    tag = f"MultApQ({pvec.descriptor()},{as_fraction(p_star)})"
    return _constant(q, tag, family, resolution)


def bmo_quantities(b: Callable, family: CubeFamily,
                   resolution: int = DEFAULT_RESOLUTION) -> np.ndarray:
    """Per-cube mean oscillation < |b - <b>_Q| >_Q."""
    return family_oscillations(family, b, resolution)


def bmo_norm(b: Callable, family: CubeFamily,
             resolution: int = DEFAULT_RESOLUTION) -> ClassConstant:
    q = bmo_quantities(b, family, resolution)
    return _constant(q, "BMO", family, resolution)


def membership(constant_fn: Callable[[CubeFamily], ClassConstant],
               family: CubeFamily, growth_levels: int = 2,
               threshold: float = 0.01) -> MembershipReport:
    """Stability-proxy membership verdict relative to (family, budget).

    A finite value that grows by less than `threshold` when the family gains
    `growth_levels` levels reads as membership; +inf anywhere reads as
    non-membership; finite but unstable values are inconclusive.

    constant_fn runs once, on the grown family.  Per-cube quantities do not
    depend on max_level and `batches()` is level-major, so the base family's
    quantities are the first len(family) of the grown family's.
    """
    grown = constant_fn(family.grown(growth_levels))
    value = _max_or_inf(grown.quantities[:len(family)])
    if math.isinf(grown.value):
        verdict = Verdict.NON_MEMBER
        growth = math.inf
    else:
        growth = grown.value / value - 1.0 if value > 0 else 0.0
        verdict = Verdict.MEMBER if growth < threshold else Verdict.INCONCLUSIVE
    return MembershipReport(verdict, value, grown.value, growth, grown.tag,
                            family.descriptor(), growth_levels, threshold)
