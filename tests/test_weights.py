"""Weight algebra and class-constant tests.

Power-weight membership oracles used throughout (d = 1):
  |x|^a in the p-class      iff -1 < a < p - 1,
  |x|^a in the (p, q)-class iff -1/q < a < 1/p'.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import wextrap as wx
from wextrap.weights import (_norm, bmo_quantities,
                             multilinear_limited_range_quantities,
                             multilinear_quantities, parse_weight)

F = Fraction


def power(a) -> wx.PowerWeight:
    return wx.PowerWeight((0.0,), wx.as_fraction(a))


def family(max_level=8, L=4.0, min_level=0, shifts=(0.0,)):
    return wx.build_cube_family(1, L, min_level, max_level, shifts)


class TestWeightAlgebra:
    def test_power_simplification_is_exact(self):
        w = power(F(1, 5))
        u = (w.pow(F(3, 2)) * w.pow(F(-1, 2))).simplify()
        assert u == power(F(1, 5))

    def test_constant_power(self):
        w = wx.ConstantWeight(4.0).pow(F(1, 2))
        assert w == wx.ConstantWeight(2.0)

    def test_pointwise_product_and_power(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.1, 3.0, 50)
        w = power(F(1, 3))
        v = wx.LogBlowupWeight((0.0,))
        combo = (w * v).pow(F(2))
        np.testing.assert_allclose(combo(x), (w(x) * v(x)) ** 2, rtol=1e-13)

    def test_constant_weight_must_be_positive(self):
        with pytest.raises(ValueError):
            wx.ConstantWeight(0.0)


class TestParseWeight:
    @pytest.mark.parametrize("w", [
        wx.ConstantWeight(2.0), power(F(2, 7)),
        wx.PowerWeight((0.5, -0.25), F(-1, 3)), wx.LogBlowupWeight((0.3,)),
        wx.ProductWeight((power(F(1, 2)), wx.ConstantWeight(3.0))),
        wx.PowerOfWeight(wx.LogBlowupWeight((0.0, 1.0)), F(-3, 2))],
        ids=["constant", "power", "planar", "log", "product", "power_of"])
    def test_inverts_descriptor(self, w):
        assert parse_weight(w.descriptor()) == w

    def test_unknown_types_rejected(self):
        tabulated = {"type": "tabulated", "n": 8, "half_width": 1.0}
        for desc in ({"type": "mystery"}, tabulated):
            with pytest.raises(ValueError, match="unknown weight type"):
                parse_weight(desc)


class TestCompositeWeight:
    def test_unit_weights(self):
        nu = wx.composite_weight((wx.ConstantWeight(1), wx.ConstantWeight(1)),
                                 wx.exponents(3, 7))
        x = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(nu(x), 1.0)

    def test_exponent_arithmetic(self):
        # both entries |x|^1 at p = (4,4): harmonic sum 2, powers 1/2 each
        nu = wx.composite_weight((power(1), power(1)), wx.exponents(4, 4))
        assert nu == power(F(1))

    def test_absorbing_constant_component(self):
        # nu = w^(p/p_1) with p = 1, p_1 = 2
        w = power(F(2, 5))
        nu = wx.composite_weight((w, wx.ConstantWeight(1)), wx.exponents(2, 2))
        assert nu == power(F(1, 5))

    def test_plain_product(self):
        nu = wx.composite_weight((power(F(1, 3)), power(F(1, 6))))
        assert nu == power(F(1, 2))


class TestExponents:
    def test_harmonic_and_conjugates(self):
        e = wx.exponents(2, 2)
        assert e.harmonic == F(1)
        assert e.conjugates() == (F(2), F(2))

    def test_conjugate_of_one_is_infinite(self):
        assert wx.conjugate(F(1)) == math.inf

    def test_entries_below_one_rejected(self):
        with pytest.raises(ValueError):
            wx.exponents(F(1, 2), 2)

    def test_rescaled(self):
        e = wx.exponents(3, 4)
        assert e.rescaled(wx.exponents(1, 2)) == (F(3), F(2))


class TestScalarConstants:
    def test_unit_weight_gives_one(self):
        k = wx.muckenhoupt_constant(wx.ConstantWeight(1), 2, family(4))
        assert k.value == pytest.approx(1.0, abs=1e-12)

    def test_power_weight_finite_and_stabilizing(self):
        w = power(F(1, 2))
        v1 = wx.muckenhoupt_constant(w, 2, family(8), 64).value
        v2 = wx.muckenhoupt_constant(w, 2, family(10), 64).value
        assert math.isfinite(v2)
        assert v2 <= v1 * 1.01
        # closed-form window: -1 < 1/2 < 1 so the weight is a member
        assert v2 >= 1.0

    def test_nonmember_flagged_infinite(self):
        # a = 1 at p = 2 sits on the boundary a = p - 1; the dual average
        # <|x|^-1> diverges on cubes touching the origin
        k = wx.muckenhoupt_constant(power(1), 2, family(6), 64)
        assert k.value == math.inf

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            wx.muckenhoupt_constant(power(0), F(1, 2), family(2))

    def test_class_one_branch(self):
        # |x|^a is in the class-one condition iff -1 < a <= 0
        fam = family(8)
        small = wx.muckenhoupt_constant(power(F(-1, 4)), 1, fam, 64)
        assert math.isfinite(small.value)
        assert small.value >= 1.0 - 1e-9


class TestTwoIndexConstants:
    def test_unit_weight(self):
        for p, q in [(F(3, 2), 2), (2, 2), (2, 4)]:
            k = wx.muckenhoupt_pq_constant(wx.ConstantWeight(1), p, q, family(3))
            assert k.value == pytest.approx(1.0, abs=1e-12)

    def test_power_window_interior_finite(self):
        # window (-1/q, 1/p'): p = 2, q = 3 gives (-1/3, 1/2)
        k = wx.muckenhoupt_pq_constant(power(F(1, 4)), 2, 3, family(8), 64)
        assert math.isfinite(k.value)

    def test_boundary_exponent_flagged(self):
        # a = 1/p' makes <w^(-p')> log-divergent
        k = wx.muckenhoupt_pq_constant(power(F(1, 2)), 2, 2, family(6), 64)
        assert k.value == math.inf

    def test_rejects_bad_exponent_order(self):
        with pytest.raises(ValueError):
            wx.muckenhoupt_pq_constant(power(0), 3, 2, family(2))


class TestMultilinearConstants:
    def test_unit_weights_give_one(self):
        ones = (wx.ConstantWeight(1), wx.ConstantWeight(1))
        fam = family(4)
        assert wx.multilinear_constant(ones, wx.exponents(2, 2), fam).value \
            == pytest.approx(1.0, abs=1e-12)
        assert wx.multilinear_limited_range_constant(
            ones, wx.exponents(3, 3), wx.exponents(1, 1), fam).value \
            == pytest.approx(1.0, abs=1e-12)
        assert wx.multilinear_offdiag_constant(
            ones, wx.exponents(2, 2), 2, fam).value == pytest.approx(1.0, abs=1e-12)

    def test_small_power_weights_finite(self):
        wvec = (power(F(1, 5)), power(F(1, 5)))
        fam = family(8)
        k = wx.multilinear_limited_range_constant(
            wvec, wx.exponents(2, 2), wx.exponents(1, 1), fam, 64)
        assert math.isfinite(k.value)
        k2 = wx.multilinear_offdiag_constant(wvec, wx.exponents(2, 2), 2, fam, 64)
        assert math.isfinite(k2.value)

    def test_degenerate_branch_uses_infimum(self):
        # p_j = s_j branch on cubes away from the origin stays finite
        fam = wx.CubeFamily(1, 0.5, 0, 4, origin=(2.5,))
        wvec = (power(F(1, 2)), power(F(1, 2)))
        vals = multilinear_limited_range_quantities(
            wvec, wx.exponents(2, 2), wx.exponents(2, 2), fam, 32)
        assert np.all(np.isfinite(vals))

    def test_unit_branch_uses_infimum(self):
        fam = wx.CubeFamily(1, 0.5, 0, 4, origin=(2.5,))
        vals = multilinear_quantities((power(F(1, 2)), wx.ConstantWeight(1)),
                                      wx.exponents(1, 2), fam, 32)
        assert np.all(np.isfinite(vals))

    def test_coupled_divergence_flagged(self):
        # w_1 = |x|^-1 has integrable w_1^(-p') but nu^(p*) = |x|^(-2)
        wvec = (power(-1), wx.ConstantWeight(1))
        k = wx.multilinear_offdiag_constant(wvec, wx.exponents(2, 2), 2,
                                            family(6), 64)
        assert k.value == math.inf

    def test_rejects_s_above_p(self):
        with pytest.raises(ValueError):
            wx.multilinear_limited_range_constant(
                (power(0), power(0)), wx.exponents(2, 2), wx.exponents(3, 1),
                family(2))

    def test_rejects_s_of_other_length(self):
        # zip over (p, s) would silently drop the second slot
        with pytest.raises(ValueError):
            wx.multilinear_limited_range_constant(
                (power(0), power(0)), wx.exponents(2, 2), wx.exponents(1),
                family(2))


class TestBmoNorm:
    def test_constant_has_zero_oscillation(self):
        k = wx.bmo_norm(lambda x: np.full_like(x, 3.3), family(4))
        assert k.value == pytest.approx(0.0, abs=1e-14)

    def test_linear_oscillation_closed_form(self):
        # <|x - c|> over [c-h, c+h] is h/2, so the family value is L/2
        for L in (1.0, 4.0):
            fam = wx.build_cube_family(1, L, 0, 5)
            vals = bmo_quantities(lambda x: x, fam, 64)
            assert vals[0] == pytest.approx(L / 2, rel=1e-6)
            k = wx.bmo_norm(lambda x: x, fam, 64)
            assert k.value == pytest.approx(L / 2, rel=1e-6)

    def test_log_is_bounded_mean_oscillation(self):
        b = lambda x: np.log(np.abs(x))
        small = wx.bmo_norm(b, family(8), 64).value
        large = wx.bmo_norm(b, family(10), 64).value
        assert math.isfinite(large)
        assert large <= small * 1.01


class TestInvariants:
    def test_family_monotonicity_exact(self):
        w = power(F(2, 5))
        sub = wx.muckenhoupt_constant(w, 2, family(6), 32).value
        sup = wx.muckenhoupt_constant(w, 2, family(8), 32).value
        assert sub <= sup

    def test_holder_floor(self):
        rng = np.random.default_rng(21)
        fam = family(5)
        for _ in range(8):
            a = F(rng.integers(-8, 10), 12)
            p = F(rng.integers(13, 40), 12)
            k = wx.muckenhoupt_constant(power(a), p, fam, 32)
            if math.isfinite(k.value):
                assert k.value >= 1.0 - 1e-9

    def test_multilinear_holder_floor(self):
        rng = np.random.default_rng(22)
        fam = family(5)
        for _ in range(6):
            a1, a2 = (F(rng.integers(-4, 5), 10) for _ in range(2))
            k = wx.multilinear_constant((power(a1), power(a2)),
                                        wx.exponents(2, 3), fam, 32)
            if math.isfinite(k.value):
                assert k.value >= 1.0 - 1e-9

    def test_dilation_covariance(self):
        # families over [-2,2] and [-4,4] are related by doubling; power
        # weights make the per-cube quantities exactly scale invariant
        w = power(F(1, 2))
        a = wx.muckenhoupt_constant(w, 2, family(7, L=2.0), 64).value
        b = wx.muckenhoupt_constant(w, 2, family(7, L=4.0), 64).value
        assert abs(a - b) / b < 1e-9

    def test_limited_range_reduces_to_plain(self):
        wvec = (power(F(3, 10)), power(F(-1, 5)))
        pvec = wx.exponents(2, 3)
        fam = family(6)
        a = wx.multilinear_limited_range_constant(
            wvec, pvec, wx.exponents(1, 1), fam, 64).value
        b = wx.multilinear_constant(wvec, pvec, fam, 64).value
        assert a == b

    def test_bmo_translation_invariance(self):
        x0 = 1.25
        base = wx.bmo_norm(lambda x: np.log(np.abs(x)), family(6, L=2.0), 64)
        shifted_family = wx.CubeFamily(1, 2.0, 0, 6, origin=(x0,))
        shifted = wx.bmo_norm(lambda x: np.log(np.abs(x - x0)),
                              shifted_family, 64)
        assert shifted.value == pytest.approx(base.value, rel=1e-12)


class TestShiftedFamilies:
    def test_shifted_layers_sharpen_the_lower_bound(self):
        # for |x|^(1/2) at p = 2 the per-interval quantity
        # g(u) = ((1+u)^1.5 + (1-u)^1.5)((1+u)^0.5 + (1-u)^0.5)/3 on
        # [a-h, a+h], u = a/h, peaks near u = 0.9 (g ~ 1.50), while flush
        # and symmetric cubes (the unshifted dyadic positions) give 4/3
        w = power(F(1, 2))
        plain = wx.muckenhoupt_constant(w, 2, family(8), 128).value
        shifted = wx.muckenhoupt_constant(
            w, 2, family(8, shifts=(0.0, 0.25, 0.5, 0.75)), 128).value
        assert plain == pytest.approx(4.0 / 3.0, rel=0.04)
        assert shifted > plain * 1.03

    def test_closed_form_envelope_bounds_family_value(self):
        us = np.linspace(0, 1, 2001)
        g = ((1 + us) ** 1.5 + (1 - us) ** 1.5) \
            * ((1 + us) ** 0.5 + (1 - us) ** 0.5) / 3.0
        envelope = g.max()
        w = power(F(1, 2))
        shifted = wx.muckenhoupt_constant(
            w, 2, family(8, shifts=tuple(np.arange(8) / 8.0)), 128).value
        assert shifted <= envelope * 1.001
        assert shifted >= envelope * 0.93


class TestTwoDimensional:
    def test_planar_power_weight_member(self):
        # |x|^a in the plane is in the 2-class iff -2 < a < 2
        fam = wx.build_cube_family(2, 2.0, 0, 3)
        w = wx.PowerWeight((0.0, 0.0), F(1, 2))
        rep = wx.membership(lambda f: wx.muckenhoupt_constant(w, 2, f, 16), fam)
        assert rep.verdict is wx.Verdict.MEMBER

    def test_planar_nonintegrable_flagged(self):
        fam = wx.build_cube_family(2, 2.0, 0, 2)
        w = wx.PowerWeight((0.0, 0.0), F(-5, 2))
        k = wx.muckenhoupt_constant(w, 2, fam, 16)
        assert k.value == math.inf


class TestPlanarNorm:
    @pytest.mark.parametrize("center", [(0.0, 0.0), (0.37, -1.29)])
    def test_matches_sum_of_squares(self, center):
        c = np.asarray(center)
        rng = np.random.default_rng(5)
        on_axes = [center, (c[0], 2.5), (-3.0, c[1]), (c[0] + 1e-9, c[1]),
                   (0.0, 0.0), (4.0, -4.0)]
        x = np.concatenate([rng.uniform(-4.0, 4.0, (4096, 2)), on_axes,
                            wx.Cube(center, 0.5).nodes(16)])
        old = np.sqrt(np.sum((x - c[None, :]) ** 2, axis=-1))
        assert np.array_equal(_norm(x, center), old)


class TestInPlaceWeights:
    """The weights work in place on their own fresh arrays: same bits as the
    plain formulas, and the nodes they are given stay untouched."""

    EXPONENTS = [F(1, 2), 2, -1, 1, 0, F(-5, 6), F(1, 3)]

    @staticmethod
    def nodes(center):
        c = np.asarray(center)
        rng = np.random.default_rng(9)
        if len(center) == 1:
            return np.concatenate([rng.uniform(-4, 4, 999), c])
        return np.concatenate([rng.uniform(-4, 4, (999, 2)), c[None, :]])

    @staticmethod
    def old_norm(x, center):
        if x.ndim == 1:
            return np.abs(x - center[0])
        d0, d1 = x[:, 0] - center[0], x[:, 1] - center[1]
        return np.sqrt(d0 * d0 + d1 * d1)

    @pytest.mark.parametrize("center", [(0.37,), (0.37, -1.29)])
    def test_match_plain_formulas(self, center):
        x = self.nodes(center)
        before = x.copy()
        r = self.old_norm(x, center)
        assert np.array_equal(_norm(x, center), r)
        with np.errstate(divide="ignore"):
            for e in self.EXPONENTS:
                got = wx.PowerWeight(center, e)(x)
                assert np.array_equal(got, r ** float(F(e)))
            old_log = np.log(math.e + 1.0 / r)
        assert np.array_equal(wx.LogBlowupWeight(center)(x), old_log)
        assert np.isinf(old_log[-1])
        assert np.array_equal(x, before)


class TestMembership:
    def test_infinite_value_is_non_member(self):
        rep = wx.membership(
            lambda f: wx.muckenhoupt_constant(power(2), 2, f, 32), family(6))
        assert rep.verdict is wx.Verdict.NON_MEMBER

    def test_stable_value_is_member(self):
        rep = wx.membership(
            lambda f: wx.muckenhoupt_constant(power(F(1, 2)), 2, f, 32),
            family(8))
        assert rep.verdict is wx.Verdict.MEMBER
        assert rep.growth < 0.01

    @pytest.mark.parametrize("fam, w", [
        (family(6), power(F(1, 2))),
        (family(6, shifts=(0.0, 0.25)), wx.PowerWeight((0.37,), F(-1, 2))),
        (wx.build_cube_family(2, 2.0, 0, 2),
         wx.PowerWeight((0.3, -0.7), F(1, 2))),
        (family(5), power(2)),
    ], ids=["plain", "shifted", "planar", "divergent"])
    def test_one_grown_pass_gives_the_base_constant(self, fam, w):
        calls = []

        def constant_fn(f):
            calls.append(f)
            return wx.muckenhoupt_constant(w, 2, f, 16)

        rep = wx.membership(constant_fn, fam)
        base = wx.muckenhoupt_constant(w, 2, fam, 16)
        assert calls == [fam.grown(2)]
        assert rep.value == base.value
        assert rep.grown_value == wx.muckenhoupt_constant(
            w, 2, fam.grown(2), 16).value
        assert (rep.tag, rep.family) == (base.tag, base.family)
        assert math.isinf(rep.value) == (w == power(2))
