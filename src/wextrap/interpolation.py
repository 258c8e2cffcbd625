"""Constructive interpolation-parameter solver.

Given a target exponent/weight pair and an auxiliary pair in the same
multilinear class family, the solver searches a decreasing schedule of
interpolation parameters theta and certifies the largest one for which

  * the intermediate exponents are admissible for the case,
  * every transformed weight passes a direct reverse-Holder check at the
    exponent demanded by the Holder-splitting functions,
  * the convexity identities hold pointwise to tight tolerance, and
  * the intermediate weight vector has a finite, stable class constant.

All exponent algebra is exact rational arithmetic; floating point enters
only through quadrature.  The four Holder-splitting check functions of each
verification share one algebraic shape, parametrized by a quadruple
(P, R, Q, Mfac); see `split_exponents`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .characterization import DEFAULT_RHI_CONSTANT, reverse_holder_check
from .grids import DEFAULT_RESOLUTION, CubeFamily
from .weights import (Exponents, MembershipReport, Verdict, WeightSpec,
                      as_fraction, composite_weight, conjugate, membership,
                      muckenhoupt_constant, multilinear_limited_range_constant,
                      multilinear_offdiag_constant)

Frac = Fraction

DEFAULT_THETA_SCHEDULE = tuple(Frac(1, 2 ** k) for k in range(1, 21))

IDENTITY_TOLERANCE = 1e-10


class DegenerateParameterError(ValueError):
    """An intermediate exponent denominator vanished or left its range."""


def _recip_sum(values: Sequence[Frac]) -> Frac:
    return sum(Frac(1) / as_fraction(v) for v in values)


def _harmonic(values: Sequence[Frac]) -> Frac:
    return 1 / _recip_sum(values)


def intermediate_exponents(r: Sequence, q: Sequence, theta) -> tuple[Frac, ...]:
    """Solve 1/r_j = (1-theta)/p_j + theta/q_j for p_j, exactly."""
    theta = as_fraction(theta)
    if not (0 <= theta < 1):
        raise ValueError("theta must lie in [0, 1)")
    out = []
    for rj, qj in zip(r, q):
        denom = Frac(1) / as_fraction(rj) - theta / as_fraction(qj)
        if denom <= 0:
            raise DegenerateParameterError(
                f"1/r_j - theta/q_j = {denom} is not positive")
        out.append((1 - theta) / denom)
    return tuple(out)


def intermediate_weights_diagonal(wvec: Sequence[WeightSpec],
                                  vvec: Sequence[WeightSpec],
                                  r: Sequence, q: Sequence,
                                  theta) -> tuple[WeightSpec, ...]:
    """u_j = w_j^(p_j/(r_j(1-theta))) * v_j^(-p_j theta/(q_j(1-theta)))."""
    theta = as_fraction(theta)
    if theta >= 1:
        raise DegenerateParameterError("theta must be below 1")
    p = intermediate_exponents(r, q, theta)
    out = []
    for wj, vj, rj, qj, pj in zip(wvec, vvec, r, q, p):
        e1 = pj / (as_fraction(rj) * (1 - theta))
        e2 = -pj * theta / (as_fraction(qj) * (1 - theta))
        out.append((wj.pow(e1) * vj.pow(e2)).simplify())
    return tuple(out)


def intermediate_weights_offdiagonal(wvec: Sequence[WeightSpec],
                                     vvec: Sequence[WeightSpec],
                                     theta) -> tuple[WeightSpec, ...]:
    """u_j = w_j^(1/(1-theta)) * v_j^(-theta/(1-theta))."""
    theta = as_fraction(theta)
    if theta >= 1:
        raise DegenerateParameterError("theta must be below 1")
    e1 = Frac(1) / (1 - theta)
    e2 = -theta / (1 - theta)
    return tuple((wj.pow(e1) * vj.pow(e2)).simplify()
                 for wj, vj in zip(wvec, vvec))


@dataclass(frozen=True)
class SplitExponents:
    """Holder-splitting data (eps, delta) and the four check functions."""

    eps: Frac
    delta: Frac
    rho: Frac
    sigma: Frac
    tau: Frac
    phi: Frac

    @property
    def t(self) -> Frac:
        """Reverse-Holder exponent demanded by this split."""
        return max(self.rho, self.tau)

    def descriptor(self) -> dict:
        return {k: str(getattr(self, k))
                for k in ("eps", "delta", "rho", "sigma", "tau", "phi")}


def split_exponents(P, R, Q, Mfac, theta) -> SplitExponents:
    """Solve rho = sigma, tau = phi for (eps, delta) and evaluate all four.

    The shared shape is
      rho   = P (1+eps) / (R (1-theta)),
      sigma = theta P (Mfac Q - 1)(1+eps) / (Q eps (1-theta)),
      tau   = P (Mfac R - 1)(1+delta) / (R (1-theta)(Mfac P - 1)),
      phi   = theta P (1+delta) / (Q delta (1-theta)(Mfac P - 1)),
    with solution eps = theta R (Mfac Q - 1)/Q, delta = theta R/(Q (Mfac R - 1)).
    At theta = 0 the split degenerates to eps = delta = 0 and sigma, phi are
    extended by their limits rho(0) = tau(0) = 1.
    """
    P, R, Q, Mfac, theta = map(as_fraction, (P, R, Q, Mfac, theta))
    if Mfac * R <= 1:
        raise DegenerateParameterError("Mfac * R <= 1 makes delta degenerate")
    if Mfac * P <= 1:
        raise DegenerateParameterError("Mfac * P <= 1 makes tau degenerate")
    eps = theta * R * (Mfac * Q - 1) / Q
    delta = theta * R / (Q * (Mfac * R - 1))
    rho = P * (1 + eps) / (R * (1 - theta))
    tau = P * (Mfac * R - 1) * (1 + delta) / (R * (1 - theta) * (Mfac * P - 1))
    if theta == 0:
        return SplitExponents(eps, delta, rho, rho, tau, tau)
    sigma = theta * P * (Mfac * Q - 1) * (1 + eps) / (Q * eps * (1 - theta))
    phi = theta * P * (1 + delta) / (Q * delta * (1 - theta) * (Mfac * P - 1))
    return SplitExponents(eps, delta, rho, sigma, tau, phi)


def holder_split_diagonal(r: Sequence, q: Sequence, s: Sequence,
                          theta, j: int) -> SplitExponents:
    """Component split of the limited-range verification for slot j."""
    r = tuple(map(as_fraction, r))
    q = tuple(map(as_fraction, q))
    s = tuple(map(as_fraction, s))
    s_h = _harmonic(s)
    rt, qt = r[j] / s[j], q[j] / s[j]
    if rt <= 1 or qt <= 1:
        raise ValueError("need r_j > s_j and q_j > s_j")
    pt = intermediate_exponents((rt,), (qt,), theta)[0]
    if pt <= 1:
        raise DegenerateParameterError("intermediate exponent left (s_j, inf)")
    return split_exponents(conjugate(pt), conjugate(rt), conjugate(qt),
                           s[j] / s_h, theta)


def holder_split_diagonal_nu(r: Sequence, q: Sequence, s: Sequence,
                             theta) -> SplitExponents:
    """Split of the coupled-weight verification in the limited-range case."""
    r_h = _harmonic(tuple(map(as_fraction, r)))
    q_h = _harmonic(tuple(map(as_fraction, q)))
    s_h = _harmonic(tuple(map(as_fraction, s)))
    p_h = intermediate_exponents((r_h,), (q_h,), theta)[0]
    return split_exponents(p_h, r_h, q_h, 1 / s_h, theta)


def holder_split_offdiagonal(r: Sequence, q: Sequence, theta, j: int,
                             m: int) -> SplitExponents:
    """Component split of the off-diagonal verification for slot j."""
    r = tuple(map(as_fraction, r))
    q = tuple(map(as_fraction, q))
    pj = intermediate_exponents((r[j],), (q[j],), theta)[0]
    if pj <= 1:
        raise DegenerateParameterError("intermediate exponent left (1, inf)")
    return split_exponents(conjugate(pj), conjugate(r[j]), conjugate(q[j]),
                           Frac(m), theta)


def holder_split_offdiagonal_nu(r: Sequence, q: Sequence, alpha, theta,
                                m: int) -> SplitExponents:
    """Split of the coupled-weight verification in the off-diagonal case."""
    alpha = as_fraction(alpha)
    r_h = _harmonic(tuple(map(as_fraction, r)))
    q_h = _harmonic(tuple(map(as_fraction, q)))
    p_h = intermediate_exponents((r_h,), (q_h,), theta)[0]
    return split_exponents(_smoothed(p_h, alpha), _smoothed(r_h, alpha),
                           _smoothed(q_h, alpha), Frac(m), theta)


def _smoothed(p: Frac, alpha: Frac) -> Frac:
    """1/p* = 1/p - alpha; requires the result to be a positive exponent."""
    inv = Frac(1) / p - alpha
    if inv <= 0:
        raise DegenerateParameterError("smoothing gap pushes exponent past infinity")
    return 1 / inv


@dataclass(frozen=True)
class WeightClassPair:
    """A transformed weight together with the scalar class it must inhabit."""

    weight: WeightSpec
    class_exponent: Frac

    def descriptor(self) -> dict:
        return {"weight": self.weight.descriptor(),
                "class_exponent": str(self.class_exponent)}


# The two case classes are the only code that knows how the cases differ:
# their admissible exponents, class constant, intermediate weights, Holder
# splits and measured-bound pairs.  The solver and the certificate recheck
# run one path over these methods.  `splits` and `pairs` are keyed by check
# label, in check order: "component_0", ..., "component_{m-1}", "coupled".
# A check's pairs are (target, r-side source, q-side source, exponents of
# the measured product bound).

@dataclass(frozen=True)
class DiagonalCase:
    """Limited-range case with parameters s_j >= 1; a componentwise case
    certifies each slot by its own scalar solve."""

    s: tuple[Frac, ...]
    componentwise: bool = False

    def __post_init__(self):
        object.__setattr__(self, "s", tuple(as_fraction(v) for v in self.s))
        if any(v < 1 for v in self.s):
            raise ValueError("limited-range parameters must satisfy s_j >= 1")

    @property
    def tag(self) -> str:
        return "diagonal_componentwise" if self.componentwise else "diagonal_vector"

    def descriptor(self) -> dict:
        return {"tag": self.tag, "s": [str(v) for v in self.s]}

    def scalar(self, j: int, m: int) -> DiagonalCase:
        """The one-slot case of slot j in a componentwise solve."""
        return DiagonalCase((self.s[j],))

    def input_problem(self, q, r) -> Optional[str]:
        """Range check on the two given exponent vectors.

        Harmonic reciprocal sums of the inputs may touch 1 (weak inequality);
        the certified output obeys the strict inequality.
        """
        if len(self.s) != len(r):
            raise ValueError("limited-range parameter length mismatch")
        if any(qj <= sj for qj, sj in zip(q, self.s)):
            return "q_j <= s_j"
        if any(rj <= sj for rj, sj in zip(r, self.s)):
            return "r_j <= s_j"
        if _recip_sum(q) > 1 or _recip_sum(r) > 1:
            return "input harmonic reciprocal sum exceeds 1"
        return None

    def output_problem(self, p) -> Optional[str]:
        if any(pj <= sj for pj, sj in zip(p, self.s)):
            return "p_j <= s_j"
        if _recip_sum(p) >= 1:
            return "1/p >= 1"
        return None

    def p_star(self, p) -> None:
        return None

    def class_constant(self, weights, exps: Exponents, family, resolution):
        return multilinear_limited_range_constant(weights, exps, Exponents(self.s),
                                                  family, resolution)

    def intermediate_weights(self, w, v, r, q, theta) -> tuple[WeightSpec, ...]:
        return intermediate_weights_diagonal(w, v, r, q, theta)

    def splits(self, r, q, theta) -> dict:
        out = {f"component_{j}": holder_split_diagonal(r, q, self.s, theta, j)
               for j in range(len(r))}
        out["coupled"] = holder_split_diagonal_nu(r, q, self.s, theta)
        return out

    def pairs(self, q, r, p, v, w, u, theta) -> dict:
        s_h = _harmonic(self.s)
        out = {}
        for j, sj in enumerate(self.s):
            rt, qt, pt = r[j] / sj, q[j] / sj, p[j] / sj
            mt = sj / s_h
            Rt, Qt, Pt = conjugate(rt), conjugate(qt), conjugate(pt)
            out[f"component_{j}"] = (
                WeightClassPair(u[j].pow(1 - Pt).simplify(), mt * Pt),
                WeightClassPair(w[j].pow(1 - Rt).simplify(), mt * Rt),
                WeightClassPair(v[j].pow(1 - Qt).simplify(), mt * Qt),
                (Qt / (Qt - theta * Rt),
                 theta * rt * (qt - 1) / (qt - theta * rt)))
        r_h, q_h, p_h = _harmonic(r), _harmonic(q), _harmonic(p)
        out["coupled"] = (
            WeightClassPair(composite_weight(u, Exponents(p)), p_h / s_h),
            WeightClassPair(composite_weight(w, Exponents(r)), r_h / s_h),
            WeightClassPair(composite_weight(v, Exponents(q)), q_h / s_h),
            (q_h / (q_h - theta * r_h), theta * r_h / (q_h - theta * r_h)))
        return out


@dataclass(frozen=True)
class OffdiagonalCase:
    """Off-diagonal case with smoothing gap alpha >= 0 on the harmonic sums;
    a componentwise case splits alpha evenly over the scalar solves."""

    alpha: Frac
    componentwise: bool = False

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")

    @property
    def tag(self) -> str:
        return ("offdiagonal_componentwise" if self.componentwise
                else "offdiagonal_vector")

    def descriptor(self) -> dict:
        return {"tag": self.tag, "alpha": str(self.alpha)}

    def scalar(self, j: int, m: int) -> OffdiagonalCase:
        return OffdiagonalCase(self.alpha / m)

    def input_problem(self, q, r) -> Optional[str]:
        """Range check on the two given exponent vectors."""
        if any(qj <= 1 for qj in q) or any(rj <= 1 for rj in r):
            return "q_j or r_j not in (1, inf)"
        if not (self.alpha < _recip_sum(q) < self.alpha + 1):
            return "1/q outside (alpha, alpha+1)"
        if not (self.alpha < _recip_sum(r) < self.alpha + 1):
            return "1/r outside (alpha, alpha+1)"
        return None

    def output_problem(self, p) -> Optional[str]:
        if any(pj <= 1 for pj in p):
            return "p_j <= 1"
        if not (self.alpha < _recip_sum(p) < self.alpha + 1):
            return "1/p outside (alpha, alpha+1)"
        return None

    def p_star(self, p) -> Frac:
        """1/p* = 1/p_1 + ... + 1/p_m - alpha."""
        return _smoothed(_harmonic(p), self.alpha)

    def class_constant(self, weights, exps: Exponents, family, resolution):
        return multilinear_offdiag_constant(weights, exps, self.p_star(exps),
                                            family, resolution)

    def intermediate_weights(self, w, v, r, q, theta) -> tuple[WeightSpec, ...]:
        return intermediate_weights_offdiagonal(w, v, theta)

    def splits(self, r, q, theta) -> dict:
        m = len(r)
        out = {f"component_{j}": holder_split_offdiagonal(r, q, theta, j, m)
               for j in range(m)}
        out["coupled"] = holder_split_offdiagonal_nu(r, q, self.alpha, theta, m)
        return out

    def pairs(self, q, r, p, v, w, u, theta) -> dict:
        m = len(r)
        out = {}
        for j in range(m):
            Rj, Qj, Pj = conjugate(r[j]), conjugate(q[j]), conjugate(p[j])
            out[f"component_{j}"] = (
                WeightClassPair(u[j].pow(-Pj).simplify(), m * Pj),
                WeightClassPair(w[j].pow(-Rj).simplify(), m * Rj),
                WeightClassPair(v[j].pow(-Qj).simplify(), m * Qj),
                (Qj / (Qj - theta * Rj),
                 theta * r[j] * (q[j] - 1) / (q[j] - theta * r[j])))
        r_star, q_star, p_star = self.p_star(r), self.p_star(q), self.p_star(p)
        out["coupled"] = (
            WeightClassPair(composite_weight(u).pow(p_star).simplify(), m * p_star),
            WeightClassPair(composite_weight(w).pow(r_star).simplify(), m * r_star),
            WeightClassPair(composite_weight(v).pow(q_star).simplify(), m * q_star),
            (p_star / (r_star * (1 - theta)),
             theta * p_star / (q_star * (1 - theta))))
        return out


Case = Union[DiagonalCase, OffdiagonalCase]


def parse_case(d: dict) -> Case:
    """The case a `descriptor()` describes (the inverse of `descriptor`)."""
    tag = d.get("tag")
    if tag in ("diagonal_vector", "diagonal_componentwise"):
        return DiagonalCase(tuple(d["s"]), tag == "diagonal_componentwise")
    if tag in ("offdiagonal_vector", "offdiagonal_componentwise"):
        return OffdiagonalCase(d["alpha"], tag == "offdiagonal_componentwise")
    raise ValueError(f"unknown case tag {tag!r}")


@dataclass(frozen=True)
class RhiEntry:
    pair: WeightClassPair
    t: float
    constant: float
    max_ratio: float
    passes: bool

    def descriptor(self) -> dict:
        return {**self.pair.descriptor(), "t": self.t, "constant": self.constant,
                "max_ratio": self.max_ratio, "passes": self.passes}


@dataclass(frozen=True)
class SplitCheck:
    """One verification: the split, its reverse-Holder entries, and the
    measured-bound data (target pair and the two source pairs)."""

    label: str
    split: SplitExponents
    rhi: tuple[RhiEntry, ...]
    target: WeightClassPair
    source_r: WeightClassPair
    source_q: WeightClassPair
    bound_exponents: tuple[Frac, Frac]

    def descriptor(self) -> dict:
        return {"label": self.label, "split": self.split.descriptor(),
                "rhi": [e.descriptor() for e in self.rhi],
                "target": self.target.descriptor(),
                "bound_exponents": [str(v) for v in self.bound_exponents]}


@dataclass(frozen=True)
class ProductBound:
    label: str
    lhs: float
    rhs_factors: tuple[float, float]
    rhs_exponents: tuple[str, str]
    rhs: float
    ratio: float

    def descriptor(self) -> dict:
        return {"label": self.label, "lhs": self.lhs,
                "rhs_factors": list(self.rhs_factors),
                "rhs_exponents": list(self.rhs_exponents),
                "rhs": self.rhs, "ratio": self.ratio}


@dataclass(frozen=True)
class ThetaCertificate:
    case: dict
    theta: Frac
    schedule_index: int
    p: tuple[Frac, ...]
    p_harmonic: Frac
    p_star: Optional[Frac]
    u: tuple[WeightSpec, ...]
    checks: tuple[SplitCheck, ...]
    identity_residuals: dict
    u_membership: MembershipReport
    product_bounds: tuple[ProductBound, ...]
    provenance: dict

    def to_json_dict(self) -> dict:
        return {
            "case": self.case,
            "theta": str(self.theta),
            "schedule_index": self.schedule_index,
            "p": [str(v) for v in self.p],
            "p_harmonic": str(self.p_harmonic),
            "p_star": None if self.p_star is None else str(self.p_star),
            "u": [w.descriptor() for w in self.u],
            "checks": [c.descriptor() for c in self.checks],
            "identity_residuals": self.identity_residuals,
            "u_membership": self.u_membership.descriptor(),
            "product_bounds": [b.descriptor() for b in self.product_bounds],
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class ComponentwiseCertificate:
    case: dict
    components: tuple[ThetaCertificate, ...]
    common_theta: Frac
    provenance: dict

    def to_json_dict(self) -> dict:
        return {
            "case": self.case,
            "common_theta": str(self.common_theta),
            "components": [c.to_json_dict() for c in self.components],
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class SolveFailure:
    case: dict
    blocking_check: str
    trail: tuple[dict, ...]
    provenance: dict

    def to_json_dict(self) -> dict:
        return {"case": self.case, "blocking_check": self.blocking_check,
                "trail": list(self.trail), "provenance": self.provenance}


@dataclass(frozen=True)
class SolveOutcome:
    success: bool
    certificate: Optional[Union[ThetaCertificate, ComponentwiseCertificate]]
    failure: Optional[SolveFailure]

    def to_json_dict(self) -> dict:
        body = (self.certificate.to_json_dict() if self.success
                else self.failure.to_json_dict())
        return {"success": self.success, **body}


def _sample_points(family: CubeFamily, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    L = family.half_width
    if family.dim == 1:
        return rng.uniform(-L, L, size=count)
    return rng.uniform(-L, L, size=(count, 2))


def _relative_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    scale = np.maximum(np.abs(lhs), 1e-300)
    return float(np.max(np.abs(lhs - rhs) / scale))


def convexity_identity_check(theta, p: Sequence, q: Sequence, r: Sequence,
                             u: Sequence[WeightSpec], v: Sequence[WeightSpec],
                             w: Sequence[WeightSpec], case: Case,
                             samples: int = 1000,
                             family: Optional[CubeFamily] = None,
                             seed: int = 0) -> dict:
    """Residuals of the exponent and weight convexity identities.

    The exponent identities are evaluated in exact rational arithmetic; the
    weight identities are checked pointwise at sample points as relative
    residuals.
    """
    theta = as_fraction(theta)
    p = tuple(map(as_fraction, p))
    q = tuple(map(as_fraction, q))
    r = tuple(map(as_fraction, r))
    exp_residual = max(abs(Frac(1) / rj - (1 - theta) / pj - theta / qj)
                       for rj, pj, qj in zip(r, p, q))
    pts = _sample_points(family or CubeFamily(1, 4.0, 0, 0), samples, seed)

    diagonal = isinstance(case, DiagonalCase)
    w_res = 0.0
    for uj, vj, wj, pj, qj, rj in zip(u, v, w, p, q, r):
        if diagonal:
            lhs = wj(pts) ** float(1 / rj)
            rhs = uj(pts) ** float((1 - theta) / pj) * vj(pts) ** float(theta / qj)
        else:
            lhs = wj(pts)
            rhs = uj(pts) ** float(1 - theta) * vj(pts) ** float(theta)
        w_res = max(w_res, _relative_residual(lhs, rhs))

    p_h, q_h, r_h = _harmonic(p), _harmonic(q), _harmonic(r)
    nu_exp_residual = abs(Frac(1) / r_h - (1 - theta) / p_h - theta / q_h)
    if diagonal:
        nu_u = composite_weight(u, Exponents(p))
        nu_v = composite_weight(v, Exponents(q))
        nu_w = composite_weight(w, Exponents(r))
        lhs = nu_w(pts) ** float(1 / r_h)
        rhs = (nu_u(pts) ** float((1 - theta) / p_h)
               * nu_v(pts) ** float(theta / q_h))
    else:
        nu_u = composite_weight(u)
        nu_v = composite_weight(v)
        nu_w = composite_weight(w)
        lhs = nu_w(pts)
        rhs = nu_u(pts) ** float(1 - theta) * nu_v(pts) ** float(theta)
    nu_res = _relative_residual(lhs, rhs)
    return {
        "exponent_residual": float(exp_residual),
        "nu_exponent_residual": float(nu_exp_residual),
        "weight_identity_max": w_res,
        "nu_identity_max": nu_res,
        "samples": int(pts.shape[0]),
    }


def _run_rhi(label: str, split: SplitExponents, pairs: tuple, family, c_rhi,
             resolution) -> SplitCheck:
    """One check, with the reverse-Holder entries of its two source pairs."""
    target, source_r, source_q, bound_exponents = pairs
    t = float(split.t)
    entries = []
    for pair in (*_class_pair_expand(source_r), *_class_pair_expand(source_q)):
        passes, ratio = reverse_holder_check(pair.weight, t, c_rhi, family,
                                             resolution)
        entries.append(RhiEntry(pair, t, c_rhi, ratio, passes))
    return SplitCheck(label, split, tuple(entries), *pairs)


def _class_pair_expand(pair: WeightClassPair):
    """The pair itself and its duality partner, both needing reverse-Holder."""
    dual = WeightClassPair(
        pair.weight.pow(Frac(-1) / (pair.class_exponent - 1)).simplify(),
        conjugate(pair.class_exponent))
    return pair, dual


def product_bound_check(certificate: ThetaCertificate, family: CubeFamily,
                        resolution: int = DEFAULT_RESOLUTION) -> tuple[ProductBound, ...]:
    """Evaluate the measured class-constant product bounds for every check.

    The ratio lhs/rhs is recorded, never asserted: the analytic bound hides
    an unknown absolute constant.
    """
    bounds = []
    for check in certificate.checks:
        lhs, cR, cQ = (muckenhoupt_constant(pair.weight, pair.class_exponent,
                                            family, resolution).value
                       for pair in (check.target, check.source_r,
                                    check.source_q))
        aR, aQ = check.bound_exponents
        rhs = cR ** float(aR) * cQ ** float(aQ)
        ratio = lhs / rhs if rhs > 0 else math.inf
        bounds.append(ProductBound(check.label, lhs, (cR, cQ),
                                   (str(aR), str(aQ)), rhs, ratio))
    return tuple(bounds)


def solve_theta(case: Case, qvec: Sequence, rvec: Sequence,
                vvec: Sequence[WeightSpec], wvec: Sequence[WeightSpec],
                family: CubeFamily, c_rhi: float = DEFAULT_RHI_CONSTANT,
                theta_schedule: Sequence[Frac] = DEFAULT_THETA_SCHEDULE,
                resolution: int = DEFAULT_RESOLUTION,
                growth_levels: int = 2, stability_threshold: float = 0.01,
                identity_samples: int = 1000, seed: int = 0) -> SolveOutcome:
    """Certify the largest schedule parameter passing every check.

    The (qvec, vvec) pair is the auxiliary scale, (rvec, wvec) the target;
    the certified intermediate pair (p(theta), u(theta)) satisfies the
    convexity identities against both.  Componentwise cases run one scalar
    solve per slot and bundle the scalar certificates.
    """
    qvec = tuple(as_fraction(v) for v in qvec)
    rvec = tuple(as_fraction(v) for v in rvec)
    vvec = tuple(vvec)
    wvec = tuple(wvec)
    m = len(rvec)
    if not (len(qvec) == len(vvec) == len(wvec) == m):
        raise ValueError("vector length mismatch")
    problem = case.input_problem(qvec, rvec)

    provenance = {
        "c_rhi": c_rhi, "resolution": resolution,
        "growth_levels": growth_levels,
        "stability_threshold": stability_threshold,
        "identity_samples": identity_samples, "seed": seed,
        "family": family.descriptor(),
        "schedule": [str(as_fraction(t)) for t in theta_schedule],
        "q": [str(v) for v in qvec], "r": [str(v) for v in rvec],
        "v": [w.descriptor() for w in vvec],
        "w": [w.descriptor() for w in wvec],
    }
    case_d = case.descriptor()

    def failure(blocking_check: str, trail: tuple) -> SolveOutcome:
        return SolveOutcome(False, None, SolveFailure(case_d, blocking_check,
                                                      trail, provenance))

    if problem:
        return failure(f"hypothesis:exponents:{problem}", ())

    if case.componentwise:
        certs = []
        for j in range(m):
            outcome = solve_theta(case.scalar(j, m), (qvec[j],), (rvec[j],),
                                  (vvec[j],), (wvec[j],), family, c_rhi,
                                  theta_schedule, resolution, growth_levels,
                                  stability_threshold, identity_samples, seed)
            if not outcome.success:
                fail = outcome.failure
                return failure(f"component_{j}:{fail.blocking_check}", fail.trail)
            certs.append(outcome.certificate)
        common = min(c.theta for c in certs)
        return SolveOutcome(True, ComponentwiseCertificate(
            case_d, tuple(certs), common, provenance), None)

    def class_constant(weights, exps):
        return lambda fam: case.class_constant(weights, Exponents(exps), fam,
                                               resolution)

    for side, weights, exps in (("v", vvec, qvec), ("w", wvec, rvec)):
        rep = membership(class_constant(weights, exps), family, growth_levels,
                         stability_threshold)
        if rep.verdict is not Verdict.MEMBER:
            return failure(f"hypothesis:membership:{side}:{rep.verdict.value}",
                           (rep.descriptor(),))

    trail = []
    for idx, theta in enumerate(theta_schedule):
        theta = as_fraction(theta)
        step = {"theta": str(theta)}
        try:
            p = intermediate_exponents(rvec, qvec, theta)
            bad = case.output_problem(p)
            if bad:
                step["failed"] = f"admissibility:{bad}"
                trail.append(step)
                continue
            uvec = case.intermediate_weights(wvec, vvec, rvec, qvec, theta)
            splits = case.splits(rvec, qvec, theta)
            pairs = case.pairs(qvec, rvec, p, vvec, wvec, uvec, theta)
        except DegenerateParameterError as exc:
            step["failed"] = f"degenerate:{exc}"
            trail.append(step)
            continue

        checks = []
        for label, split in splits.items():
            checks.append(_run_rhi(label, split, pairs[label], family, c_rhi,
                                   resolution))
            if not all(entry.passes for entry in checks[-1].rhi):
                step["failed"] = f"rhi:{label}"
                break
        if "failed" in step:
            trail.append(step)
            continue

        residuals = convexity_identity_check(theta, p, qvec, rvec, uvec, vvec,
                                             wvec, case, identity_samples,
                                             family, seed)
        if max(residuals["exponent_residual"], residuals["nu_exponent_residual"],
               residuals["weight_identity_max"],
               residuals["nu_identity_max"]) >= IDENTITY_TOLERANCE:
            step["failed"] = "identities"
            trail.append(step)
            continue

        u_rep = membership(class_constant(uvec, p), family, growth_levels,
                           stability_threshold)
        if u_rep.verdict is not Verdict.MEMBER:
            step["failed"] = f"u_membership:{u_rep.verdict.value}"
            trail.append(step)
            continue

        cert = ThetaCertificate(case_d, theta, idx, p, _harmonic(p),
                                case.p_star(p), uvec, tuple(checks), residuals,
                                u_rep, (), provenance)
        cert = replace(cert, product_bounds=product_bound_check(cert, family,
                                                                resolution))
        return SolveOutcome(True, cert, None)

    last = trail[-1].get("failed", "") if trail else "empty schedule"
    return failure(f"exhausted_schedule:{last}", tuple(trail))


def recheck_certificate_json(doc: dict) -> list[str]:
    """Re-derive a serialized certificate's rational data and compare.

    Returns a list of discrepancies; an empty list means the certificate
    revalidates.  A componentwise bundle is rechecked component by component
    and against its own case, exponents and common theta.  A document that
    cannot be rebuilt is reported as unparseable, never raised.
    """
    try:
        if "components" in doc:
            return _recheck_bundle(doc)
        return _recheck_theta(doc)
    except (ArithmeticError, AttributeError, LookupError, TypeError,
            ValueError) as exc:
        return [f"unparseable: {type(exc).__name__}: {exc}"]


def _exponent_vectors(doc: dict) -> tuple[tuple[Frac, ...], tuple[Frac, ...]]:
    prov = doc["provenance"]
    return (tuple(Frac(v) for v in prov["q"]),
            tuple(Frac(v) for v in prov["r"]))


def _recheck_bundle(doc: dict) -> list[str]:
    case = parse_case(doc["case"])
    q, r = _exponent_vectors(doc)
    comps = doc["components"]
    if not case.componentwise:
        return [f"case {case.tag} has no components"]
    if not (len(comps) == len(q) == len(r)):
        return [f"{len(comps)} components for {len(q)} q and {len(r)} r entries"]
    problems: list[str] = []
    for k, comp in enumerate(comps):
        if comp["case"] != case.scalar(k, len(comps)).descriptor():
            problems.append(f"component_{k}: case is not slot {k} of the bundle's")
        if _exponent_vectors(comp) != ((q[k],), (r[k],)):
            problems.append(f"component_{k}: q/r are not the bundle's entry {k}")
        problems += [f"component_{k}: {p}" for p in recheck_certificate_json(comp)]
    if Frac(doc["common_theta"]) != min(Frac(c["theta"]) for c in comps):
        problems.append("common_theta is not the components' minimum")
    return problems


def _recheck_theta(doc: dict) -> list[str]:
    case = parse_case(doc["case"])
    theta = Frac(doc["theta"])
    q, r = _exponent_vectors(doc)
    p = tuple(Frac(v) for v in doc["p"])
    p_harmonic = Frac(doc["p_harmonic"])
    p_star = None if doc["p_star"] is None else Frac(doc["p_star"])
    checks = doc["checks"]
    labels = [check["label"] for check in checks]
    problems: list[str] = []
    bad_input = case.input_problem(q, r)
    if bad_input:
        problems.append(f"input exponents: {bad_input}")
    if not (0 < theta < 1):
        problems.append("theta outside (0, 1)")
    try:
        expected_p = intermediate_exponents(r, q, theta)
        splits = case.splits(r, q, theta)
        expected_star = case.p_star(expected_p)
    except ValueError as exc:
        return problems + [f"exponents degenerate: {exc}"]
    if expected_p != p:
        problems.append("intermediate exponents do not re-derive")
    for rj, pj, qj in zip(r, p, q):
        if Frac(1) / rj != (1 - theta) / pj + theta / qj:
            problems.append("convexity identity fails")
    if p_harmonic != _harmonic(p):
        problems.append("harmonic sum mismatch")
    if p_star != expected_star:
        problems.append("p_star does not re-derive")
    if labels != list(splits):
        return problems + [f"checks {labels} are not {list(splits)}"]

    for check in checks:
        label = check["label"]
        if splits[label].descriptor() != check["split"]:
            problems.append(f"split data for {label} does not re-derive")
        if Frac(check["split"]["rho"]) != Frac(check["split"]["sigma"]):
            problems.append(f"rho != sigma in {label}")
        if Frac(check["split"]["tau"]) != Frac(check["split"]["phi"]):
            problems.append(f"tau != phi in {label}")
        if not all(entry["passes"] for entry in check["rhi"]):
            problems.append(f"reverse-Holder entry failed in {label}")
    return problems
