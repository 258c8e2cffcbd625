"""Componentwise characterizations of the multilinear classes, the duality
transform, and the reverse-Holder check.

The two characterizations reduce a multilinear class membership to scalar
class memberships of transformed weights; `verify_equivalence` checks the
two routes against each other with the stability proxy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .grids import DEFAULT_RESOLUTION, CubeFamily, family_averages
from .weights import (ClassConstant, Exponents, MembershipReport, Verdict,
                      WeightSpec, as_fraction, composite_weight, conjugate,
                      membership, muckenhoupt_constant)


def dual_weight(w: WeightSpec, p) -> tuple[WeightSpec, Fraction]:
    """The duality transform (w^(1-p'), p') for p > 1."""
    p = as_fraction(p)
    if p <= 1:
        raise ValueError("duality transform needs p > 1")
    pc = conjugate(p)
    return w.pow(1 - pc), pc


@dataclass(frozen=True)
class CriterionEntry:
    """One scalar membership demanded by a componentwise criterion.

    `component` is the index of the weight the transform applies to, or None
    for the entry on the coupled weight.  `exponent` is the power applied to
    the base weight and `class_exponent` the scalar class it must belong to;
    `class_exponent == 1` marks a degenerate branch.
    """

    label: str
    component: Optional[int]
    exponent: Fraction
    class_exponent: Fraction

    def realize(self, wvec: Sequence[WeightSpec],
                pvec: Optional[Exponents] = None) -> WeightSpec:
        if self.component is None:
            base = composite_weight(wvec, pvec)
        else:
            base = wvec[self.component]
        return base.pow(self.exponent).simplify()

    def descriptor(self) -> dict:
        return {"label": self.label, "component": self.component,
                "exponent": str(self.exponent),
                "class_exponent": str(self.class_exponent)}


@dataclass(frozen=True)
class ComponentCriterion:
    """A conjunction of scalar class memberships equivalent to a multilinear one."""

    kind: str
    entries: tuple[CriterionEntry, ...]
    couples_exponents: bool  # whether the nu-entry uses the coupled weight with pvec

    def descriptor(self) -> dict:
        return {"kind": self.kind,
                "entries": [e.descriptor() for e in self.entries]}


def limited_range_criterion(pvec: Exponents, svec: Exponents) -> ComponentCriterion:
    """Scalar equivalents of the limited-range multilinear condition.

    For p_j != s_j the j-th entry is w_j^(1-(p_j/s_j)') in the scalar class
    with exponent p_j s_j / (s (p_j - s_j)); the p_j = s_j branch degenerates
    to w_j^(s/p_j) in the class-one condition.  The coupled weight must lie
    in the scalar class with exponent p/s.
    """
    if len(pvec) != len(svec):
        raise ValueError("length mismatch")
    if not all(1 <= sj <= pj for sj, pj in zip(svec.values, pvec.values)):
        raise ValueError("need 1 <= s_j <= p_j")
    s = svec.harmonic
    p = pvec.harmonic
    entries = []
    for j, (pj, sj) in enumerate(zip(pvec.values, svec.values)):
        if pj == sj:
            entries.append(CriterionEntry(f"component_{j}", j, s / pj, Fraction(1)))
        else:
            e = 1 - conjugate(pj / sj)
            t = (pj * sj) / (s * (pj - sj))
            entries.append(CriterionEntry(f"component_{j}", j, e, t))
    entries.append(CriterionEntry("coupled", None, Fraction(1), p / s))
    return ComponentCriterion("limited_range", tuple(entries), True)


def offdiag_criterion(pvec: Exponents, p_star) -> ComponentCriterion:
    """Scalar equivalents of the off-diagonal multilinear condition.

    For p_j > 1 the j-th entry is w_j^(-p_j') in the scalar class with
    exponent m p_j'; the p_j = 1 branch degenerates to w_j^(1/m) in the
    class-one condition.  The plain product weight raised to p* must lie in
    the scalar class with exponent m p*.  The harmonic p must exceed 1/m,
    as for the direct quantity: p = 1/m (every p_j = 1) raises ValueError.
    """
    p_star = as_fraction(p_star)
    m = len(pvec)
    p = pvec.harmonic
    if not (Fraction(1, m) < p <= p_star):
        raise ValueError("need 1/m < p <= p* < inf")
    entries = []
    for j, pj in enumerate(pvec.values):
        if pj == 1:
            entries.append(CriterionEntry(f"component_{j}", j, Fraction(1, m),
                                          Fraction(1)))
        else:
            pjc = conjugate(pj)
            entries.append(CriterionEntry(f"component_{j}", j, -pjc, m * pjc))
    entries.append(CriterionEntry("coupled", None, p_star, m * p_star))
    return ComponentCriterion("offdiag", tuple(entries), False)


@dataclass(frozen=True)
class EquivalenceReport:
    direct: MembershipReport
    components: tuple[tuple[str, MembershipReport], ...]
    componentwise_verdict: Verdict
    agree: Optional[bool]

    @property
    def conclusive(self) -> bool:
        return (self.direct.verdict is not Verdict.INCONCLUSIVE
                and self.componentwise_verdict is not Verdict.INCONCLUSIVE)

    def descriptor(self) -> dict:
        return {
            "direct": self.direct.descriptor(),
            "components": [{"label": lab, **rep.descriptor()}
                           for lab, rep in self.components],
            "componentwise_verdict": self.componentwise_verdict.value,
            "agree": self.agree,
        }


def _conjoin(verdicts: Sequence[Verdict]) -> Verdict:
    if any(v is Verdict.NON_MEMBER for v in verdicts):
        return Verdict.NON_MEMBER
    if all(v is Verdict.MEMBER for v in verdicts):
        return Verdict.MEMBER
    return Verdict.INCONCLUSIVE


def verify_equivalence(wvec: Sequence[WeightSpec], criterion: ComponentCriterion,
                       direct_fn: Callable[[CubeFamily], ClassConstant],
                       family: CubeFamily, pvec: Optional[Exponents] = None,
                       resolution: int = DEFAULT_RESOLUTION,
                       growth_levels: int = 2,
                       threshold: float = 0.01) -> EquivalenceReport:
    """Compare the direct multilinear verdict with the componentwise conjunction."""
    direct = membership(direct_fn, family, growth_levels, threshold)
    comps = []
    for entry in criterion.entries:
        spec = entry.realize(wvec, pvec if criterion.couples_exponents else None)
        rep = membership(
            lambda fam, s=spec, t=entry.class_exponent: muckenhoupt_constant(
                s, t, fam, resolution),
            family, growth_levels, threshold)
        comps.append((entry.label, rep))
    cw = _conjoin([rep.verdict for _, rep in comps])
    if direct.verdict is Verdict.INCONCLUSIVE or cw is Verdict.INCONCLUSIVE:
        agree = None
    else:
        agree = direct.verdict is cw
    return EquivalenceReport(direct, tuple(comps), cw, agree)


# The comparison constant hides the absolute constant of the reverse-Holder
# inequality; 2 keeps certificates reproducible and can be raised by callers.
DEFAULT_RHI_CONSTANT = 2.0


def reverse_holder_check(w: WeightSpec, t: float, constant: float,
                         family: CubeFamily,
                         resolution: int = DEFAULT_RESOLUTION) -> tuple[bool, float]:
    """Check <w^t>_Q^(1/t) <= C <w>_Q on every cube; returns (passes, max ratio)."""
    base = family_averages(family, w, resolution)
    powered = family_averages(family, w.pow(as_fraction(t)), resolution)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = powered ** (1.0 / float(t))
        ratios = np.where(np.isfinite(base) & np.isfinite(lhs), lhs / base, np.inf)
    worst = float(np.max(ratios))
    passes = bool(np.all(np.isfinite(lhs)) and np.all(lhs <= constant * base))
    return passes, worst
