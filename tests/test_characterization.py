"""Duality, componentwise criteria and equivalence checks."""

import math
from fractions import Fraction

import numpy as np
import pytest

import wextrap as wx
from wextrap import cli
from wextrap.characterization import (dual_weight, limited_range_criterion,
                                      offdiag_criterion, verify_equivalence)
from wextrap.weights import multilinear_offdiag_quantities

F = Fraction


def power(a):
    return wx.PowerWeight((0.0,), wx.as_fraction(a))


def family(max_level=6, L=4.0):
    return wx.build_cube_family(1, L, 0, max_level)


class TestDualWeight:
    def test_unit_weight_self_dual_point(self):
        w, pc = dual_weight(wx.ConstantWeight(1), 2)
        assert pc == 2
        x = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(w(x), 1.0)

    def test_p_two_flips_exponent_sign(self):
        w, pc = dual_weight(power(F(1, 2)), 2)
        assert pc == 2
        assert w.simplify() == power(F(-1, 2))

    def test_p_three_halves_negated(self):
        # 1 - p' = -1/2 at p = 3, and p' = 3/2
        w, pc = dual_weight(power(F(2, 7)), 3)
        assert pc == F(3, 2)
        assert w.simplify() == power(F(-1, 7))

    def test_rejects_p_at_most_one(self):
        with pytest.raises(ValueError):
            dual_weight(power(0), 1)

    def test_duality_identity_for_constants(self):
        # the p'-class constant of w^(1-p') equals the p-class constant of w
        # raised to 1/(p-1); exact per cube on shared quadrature nodes
        rng = np.random.default_rng(17)
        fam = family(7)
        for _ in range(10):
            a = F(int(rng.integers(-5, 6)), 10)
            p = F(int(rng.integers(13, 33)), 10)
            w = power(a)
            base = wx.muckenhoupt_constant(w, p, fam, 32).value
            if not math.isfinite(base):
                continue
            dual, pc = dual_weight(w, p)
            lhs = wx.muckenhoupt_constant(dual, pc, fam, 32).value
            rhs = base ** float(1 / (p - 1))
            assert abs(lhs - rhs) / rhs < 1e-9


class TestLimitedRangeCriterion:
    def test_plain_case_exponents(self):
        # p = (2,2), s = (1,1): components w_j^(-1) in the 4-class, coupled
        # weight in the 2-class
        crit = limited_range_criterion(wx.exponents(2, 2), wx.exponents(1, 1))
        comp = [e for e in crit.entries if e.component is not None]
        assert all(e.exponent == -1 for e in comp)
        assert all(e.class_exponent == 4 for e in comp)
        nu = [e for e in crit.entries if e.component is None][0]
        assert nu.exponent == 1 and nu.class_exponent == 2

    def test_degenerate_branch(self):
        # p_1 = s_1 = 2 turns the first entry into the class-one condition
        # on w_1^(s/p_1)
        crit = limited_range_criterion(wx.exponents(2, 3), wx.exponents(2, 1))
        first = crit.entries[0]
        s = wx.exponents(2, 1).harmonic
        assert first.class_exponent == 1
        assert first.exponent == s / 2

    def test_scalar_reduction_is_duality(self):
        # m = 1, s = 1: the component entry is exactly the duality transform
        crit = limited_range_criterion(wx.Exponents((F(3),)), wx.Exponents((F(1),)))
        comp, nu = crit.entries
        assert nu.exponent == 1 and nu.class_exponent == 3
        w = power(F(2, 5))
        dual, pc = dual_weight(w, 3)
        assert comp.realize((w,)) == dual.simplify()
        assert comp.class_exponent == pc

    def test_realized_weights_are_power_weights(self):
        crit = limited_range_criterion(wx.exponents(2, 2), wx.exponents(1, 1))
        wvec = (power(F(3, 10)), power(F(3, 10)))
        nu_entry = crit.entries[-1]
        assert nu_entry.realize(wvec, wx.exponents(2, 2)) == power(F(3, 10))


class TestOffdiagCriterion:
    def test_plain_case_exponents(self):
        crit = offdiag_criterion(wx.exponents(2, 2), 2)
        comp = [e for e in crit.entries if e.component is not None]
        assert all(e.exponent == -2 for e in comp)
        assert all(e.class_exponent == 4 for e in comp)
        nu = [e for e in crit.entries if e.component is None][0]
        assert nu.exponent == 2 and nu.class_exponent == 4

    def test_unit_exponent_branch(self):
        crit = offdiag_criterion(wx.exponents(1, 2), 2)
        first = crit.entries[0]
        assert first.class_exponent == 1
        assert first.exponent == F(1, 2)

    def test_harmonic_p_of_one_over_m_refused_on_every_route(self):
        # every p_j = 1 gives p = 1/m; the criterion, the direct quantity and
        # the parse all need 1/m < p
        pvec = wx.exponents(1, 1)
        with pytest.raises(ValueError, match="1/m < p"):
            offdiag_criterion(pvec, 2)
        with pytest.raises(ValueError, match="1/m < p"):
            multilinear_offdiag_quantities((power(0), power(0)), pvec, 2,
                                           family(2), 8)
        with pytest.raises(cli.ConfigError, match="1/m < p"):
            cli._offdiag_p_star(2, pvec)

    def test_scalar_reduction_matches_two_index_constant(self):
        # m = 1 degenerates to the classical two-index condition
        w = power(F(1, 8))
        fam = family(6)
        a = wx.multilinear_offdiag_constant((w,), wx.Exponents((F(2),)), 3,
                                            fam, 32).value
        b = wx.muckenhoupt_pq_constant(w, 2, 3, fam, 32).value
        assert a == b


class TestVerifyEquivalence:
    def test_unit_weights_agree(self):
        wvec = (wx.ConstantWeight(1), wx.ConstantWeight(1))
        p, s = wx.exponents(2, 2), wx.exponents(1, 1)
        crit = limited_range_criterion(p, s)
        rep = verify_equivalence(
            wvec, crit,
            lambda f: wx.multilinear_limited_range_constant(wvec, p, s, f, 32),
            family(4), p, 32)
        assert rep.agree is True
        assert rep.direct.verdict is wx.Verdict.MEMBER

    def test_small_powers_agree(self):
        wvec = (power(F(3, 10)), power(F(3, 10)))
        p, s = wx.exponents(2, 2), wx.exponents(1, 1)
        crit = limited_range_criterion(p, s)
        rep = verify_equivalence(
            wvec, crit,
            lambda f: wx.multilinear_limited_range_constant(wvec, p, s, f, 64),
            family(6), p, 64)
        assert rep.agree is True
        assert rep.direct.verdict is wx.Verdict.MEMBER

    def test_planar_instance_agrees(self):
        fam = wx.build_cube_family(2, 2.0, 0, 3)
        wvec = (wx.PowerWeight((0.0, 0.0), F(3, 10)),
                wx.PowerWeight((0.0, 0.0), F(3, 10)))
        p, s = wx.exponents(2, 2), wx.exponents(1, 1)
        crit = limited_range_criterion(p, s)
        rep = verify_equivalence(
            wvec, crit,
            lambda f: wx.multilinear_limited_range_constant(wvec, p, s, f, 16),
            fam, p, 16)
        assert rep.agree is True
        assert rep.direct.verdict is wx.Verdict.MEMBER

    def test_large_powers_diverge_on_both_sides(self):
        wvec = (power(2), power(2))
        p, s = wx.exponents(2, 2), wx.exponents(1, 1)
        crit = limited_range_criterion(p, s)
        rep = verify_equivalence(
            wvec, crit,
            lambda f: wx.multilinear_limited_range_constant(wvec, p, s, f, 32),
            family(5), p, 32)
        assert rep.agree is True
        assert rep.direct.verdict is wx.Verdict.NON_MEMBER
        assert rep.componentwise_verdict is wx.Verdict.NON_MEMBER
