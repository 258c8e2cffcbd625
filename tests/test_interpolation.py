"""Interpolation solver tests: exact exponent algebra, Holder splits,
end-to-end certificates, and product bounds."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import wextrap as wx
from wextrap.interpolation import (DegenerateParameterError,
                                   DiagonalCase, OffdiagonalCase,
                                   convexity_identity_check, holder_split_diagonal,
                                   holder_split_diagonal_nu,
                                   holder_split_offdiagonal,
                                   holder_split_offdiagonal_nu,
                                   intermediate_exponents,
                                   intermediate_weights_diagonal,
                                   intermediate_weights_offdiagonal,
                                   parse_case, product_bound_check,
                                   recheck_certificate_json, solve_theta,
                                   split_exponents)
from wextrap.serialization import canonical_json

F = Fraction


def power(a):
    return wx.PowerWeight((0.0,), wx.as_fraction(a))


def family(max_level=6, L=4.0):
    return wx.build_cube_family(1, L, 0, max_level)


def rng_fraction(rng, lo, hi, den=12):
    return F(int(rng.integers(int(lo * den), int(hi * den) + 1)), den)


class TestIntermediateExponents:
    def test_theta_zero_returns_target(self):
        assert intermediate_exponents((2, 3), (5, 7), 0) == (F(2), F(3))

    def test_worked_value(self):
        p = intermediate_exponents((2,), (4,), F(1, 2))
        assert p == (F(4, 3),)

    def test_equal_pair_fixed_point(self):
        for theta in (F(1, 8), F(1, 3), F(7, 9)):
            assert intermediate_exponents((2, 5), (2, 5), theta) == (F(2), F(5))

    def test_degenerate_denominator_signalled(self):
        with pytest.raises(DegenerateParameterError):
            intermediate_exponents((4,), (2,), F(1, 2))

    def test_convexity_identity_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            r = rng_fraction(rng, 1.5, 4)
            q = rng_fraction(rng, 1.5, 4)
            theta = F(int(rng.integers(1, 8)), 8)
            try:
                p = intermediate_exponents((r,), (q,), theta)[0]
            except DegenerateParameterError:
                continue
            assert F(1) / r - (1 - theta) / p - theta / q == 0


class TestIntermediateWeights:
    def test_theta_zero_diagonal(self):
        w = (power(F(1, 5)), power(F(-1, 10)))
        v = (power(F(1, 2)), power(F(1, 3)))
        u = intermediate_weights_diagonal(w, v, (2, 2), (3, 3), 0)
        assert u == w

    def test_interpolating_point_with_itself(self):
        w = (power(F(1, 5)), power(F(1, 5)))
        for theta in (F(1, 4), F(1, 2)):
            u = intermediate_weights_diagonal(w, w, (2, 2), (4, 4), theta)
            assert u == w
            u2 = intermediate_weights_offdiagonal(w, w, theta)
            assert u2 == w

    def test_diagonal_pointwise_identity(self):
        w = (power(F(1, 5)),)
        v = (power(F(-1, 10)),)
        r, q, theta = (2,), (4,), F(1, 4)
        u = intermediate_weights_diagonal(w, v, r, q, theta)
        p = intermediate_exponents(r, q, theta)
        rng = np.random.default_rng(5)
        x = rng.uniform(-4, 4, 1000)
        lhs = w[0](x) ** float(F(1, 2))
        rhs = u[0](x) ** float((1 - theta) / p[0]) * v[0](x) ** float(theta / 4)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_offdiagonal_exponent_arithmetic(self):
        u = intermediate_weights_offdiagonal((power(F(1, 10)),),
                                             (wx.ConstantWeight(1),), F(1, 2))
        assert u[0] == power(F(1, 5))


class TestHolderSplits:
    def test_split_vanishes_at_zero(self):
        se = holder_split_diagonal((2, 2), (3, 3), (1, 1), 0, 0)
        assert se.eps == 0 and se.delta == 0
        assert se.rho == 1 and se.tau == 1
        se2 = holder_split_offdiagonal((2, 2), (3, 3), 0, 1, 2)
        assert se2.rho == 1 and se2.tau == 1

    def test_diagonal_worked_value(self):
        # s = (1,1), r = q = (2,2), theta = 1/10: conjugates are 2, the
        # slot multiplier is 2, so eps = (1/10) * 2 * (2*2-1)/2 = 3/10
        se = holder_split_diagonal((2, 2), (2, 2), (1, 1), F(1, 10), 0)
        assert se.eps == F(3, 10)

    def test_offdiagonal_worked_value(self):
        se = holder_split_offdiagonal((2, 2), (2, 2), F(1, 10), 0, 2)
        assert se.eps == F(3, 10)

    def test_equal_pair_residual_zero_at_random_thetas(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            theta = F(int(rng.integers(1, 10)), 16)
            se = holder_split_diagonal((2, 3), (2, 3), (1, 1), theta, 1)
            assert se.rho == se.sigma
            assert se.tau == se.phi

    def test_random_tuples_make_all_four_match(self):
        rng = np.random.default_rng(13)
        count = 0
        tries = 0
        while count < 30 and tries < 500:
            tries += 1
            r = rng_fraction(rng, 1.25, 4)
            q = rng_fraction(rng, 1.25, 4)
            theta = F(int(rng.integers(1, 6)), 16)
            try:
                se = holder_split_offdiagonal((r, r), (q, q), theta, 0, 2)
            except DegenerateParameterError:
                continue
            assert se.rho == se.sigma and se.tau == se.phi
            assert abs(float(se.rho - se.sigma)) <= 1e-12
            count += 1
        assert count == 30

    def test_matches_numeric_root_of_matching_equation(self):
        # independently solve rho(eps) = sigma(eps) by bisection in floats
        r, q, theta, m = F(3), F(2), F(1, 8), 2
        R, Q = r / (r - 1), q / (q - 1)
        p = intermediate_exponents((r,), (q,), theta)[0]
        P = p / (p - 1)

        def gap(eps):
            rho = float(P) * (1 + eps) / (float(R) * (1 - float(theta)))
            sigma = (float(theta) * float(P) * (m * float(Q) - 1) * (1 + eps)
                     / (float(Q) * eps * (1 - float(theta))))
            return rho - sigma

        lo, hi = 1e-6, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gap(lo) * gap(mid) <= 0:
                hi = mid
            else:
                lo = mid
        se = holder_split_offdiagonal((r,) * 2, (q,) * 2, theta, 0, m)
        assert 0.5 * (lo + hi) == pytest.approx(float(se.eps), rel=1e-10)

    def test_degeneracy_signalled(self):
        with pytest.raises(DegenerateParameterError):
            split_exponents(F(2), F(1), F(2), F(1), F(1, 4))

    def test_coupled_variants_share_shape(self):
        se = holder_split_diagonal_nu((3, 3), (2, 2), (1, 1), F(1, 8))
        assert se.rho == se.sigma and se.tau == se.phi
        se2 = holder_split_offdiagonal_nu((4, 4), (2, 2), F(1, 4), F(1, 8), 2)
        assert se2.rho == se2.sigma and se2.tau == se2.phi


class TestSolveTheta:
    def test_trivial_instance_takes_first_theta(self):
        w = (power(F(1, 5)), power(F(1, 5)))
        out = solve_theta(DiagonalCase((F(1), F(1))), (3, 3), (3, 3),
                          w, w, family(5), resolution=32)
        assert out.success
        assert out.certificate.theta == F(1, 2)
        assert out.certificate.u == w

    def test_diagonal_worked_instance(self):
        w = (power(F(1, 5)), power(F(1, 5)))
        out = solve_theta(DiagonalCase((F(1), F(1))), (2, 2), (3, 3),
                          w, w, family(6), resolution=64)
        assert out.success
        cert = out.certificate
        assert 0 < cert.theta < 1
        assert cert.u_membership.verdict is wx.Verdict.MEMBER
        assert cert.identity_residuals["exponent_residual"] == 0.0
        assert cert.identity_residuals["weight_identity_max"] < 1e-10
        # independently confirm membership of u via the componentwise route
        from wextrap.characterization import limited_range_criterion, verify_equivalence
        p = wx.Exponents(cert.p)
        crit = limited_range_criterion(p, wx.exponents(1, 1))
        rep = verify_equivalence(
            cert.u, crit,
            lambda f: wx.multilinear_limited_range_constant(
                cert.u, p, wx.exponents(1, 1), f, 64),
            family(6), p, 64)
        assert rep.direct.verdict is wx.Verdict.MEMBER
        assert rep.agree is True

    def test_offdiagonal_worked_instance(self):
        w = (power(F(1, 5)), power(F(1, 5)))
        out = solve_theta(OffdiagonalCase(F(1, 4)), (2, 2), (4, 4),
                          w, w, family(6), resolution=64)
        assert out.success
        cert = out.certificate
        assert 1 / cert.p_harmonic - 1 / cert.p_star == F(1, 4)
        assert cert.u_membership.verdict is wx.Verdict.MEMBER

    def test_success_monotone_over_schedule_suffix(self):
        w = (power(F(1, 5)), power(F(1, 5)))
        fam = family(5)
        first = solve_theta(DiagonalCase((F(1), F(1))), (2, 2), (3, 3),
                            w, w, fam, resolution=32)
        assert first.success
        idx = first.certificate.schedule_index
        from wextrap.interpolation import DEFAULT_THETA_SCHEDULE
        for theta in DEFAULT_THETA_SCHEDULE[idx:idx + 4]:
            out = solve_theta(DiagonalCase((F(1), F(1))), (2, 2), (3, 3),
                              w, w, fam, theta_schedule=(theta,), resolution=32)
            assert out.success

    def test_hypothesis_violation_reported(self):
        # w = |x|^2 is far outside every admissible class
        w = (power(2), power(2))
        out = solve_theta(DiagonalCase((F(1), F(1))), (2, 2), (3, 3),
                          w, w, family(5), resolution=32)
        assert not out.success
        assert out.failure.blocking_check.startswith("hypothesis:membership")

    def test_inadmissible_input_exponents_reported(self):
        w = (power(F(1, 5)), power(F(1, 5)))
        out = solve_theta(DiagonalCase((F(1), F(1))), (2, 2), (1, 1),
                          w, w, family(4), resolution=32)
        assert not out.success
        assert out.failure.blocking_check.startswith("hypothesis:exponents")

    def test_componentwise_matches_scalar_runs(self):
        w = (power(F(1, 5)), power(F(3, 10)))
        v = (power(F(1, 10)), power(F(1, 5)))
        fam = family(4)
        out = solve_theta(DiagonalCase((F(1), F(1)), componentwise=True),
                          (2, 2), (3, 4), v, w, fam, resolution=32)
        assert out.success
        bundle = out.certificate
        for j, (qj, rj) in enumerate([(2, 3), (2, 4)]):
            scalar = solve_theta(DiagonalCase((F(1),)), (qj,), (rj,),
                                 (v[j],), (w[j],), fam, resolution=32)
            assert scalar.success
            assert canonical_json(bundle.components[j].to_json_dict()) \
                == canonical_json(scalar.certificate.to_json_dict())
        assert bundle.common_theta == min(c.theta for c in bundle.components)

    def test_componentwise_offdiagonal_uses_half_gap(self):
        w = (power(F(1, 5)), power(F(1, 5)))
        fam = family(4)
        out = solve_theta(OffdiagonalCase(F(1, 4), componentwise=True),
                          (2, 2), (4, 4), w, w, fam, resolution=32)
        assert out.success
        scalar = solve_theta(OffdiagonalCase(F(1, 8)), (2,), (4,),
                             (w[0],), (w[0],), fam, resolution=32)
        assert canonical_json(out.certificate.components[0].to_json_dict()) \
            == canonical_json(scalar.certificate.to_json_dict())


class TestIdentityCheck:
    def test_constructed_weights_have_tiny_residual(self):
        w = (power(F(1, 5)), power(F(-1, 10)))
        v = (power(F(1, 10)), power(F(1, 5)))
        r, q, theta = (2, 2), (4, 4), F(1, 4)
        u = intermediate_weights_diagonal(w, v, r, q, theta)
        p = intermediate_exponents(r, q, theta)
        rep = convexity_identity_check(theta, p, q, r, u, v, w,
                                       DiagonalCase((F(1), F(1))), 1000)
        assert rep["exponent_residual"] == 0.0
        assert rep["weight_identity_max"] < 1e-12
        assert rep["nu_identity_max"] < 1e-12

    def test_perturbation_detected_at_first_order(self):
        w = (power(F(1, 5)),)
        v = (power(F(1, 10)),)
        r, q, theta = (2,), (4,), F(1, 4)
        u = intermediate_weights_diagonal(w, v, r, q, theta)
        p = intermediate_exponents(r, q, theta)
        bump = 1e-3
        u_pert = (wx.ConstantWeight(1.0 + bump) * u[0],)
        rep = convexity_identity_check(theta, p, q, r, u_pert, v, w,
                                       DiagonalCase((F(1),)), 500)
        expected = bump * float((1 - theta) / p[0])
        assert rep["weight_identity_max"] == pytest.approx(expected, rel=0.01)

    def test_offdiagonal_coupled_identity(self):
        w = (power(F(1, 5)), power(F(1, 10)))
        v = (power(F(-1, 10)), power(F(1, 20)))
        theta = F(1, 8)
        u = intermediate_weights_offdiagonal(w, v, theta)
        p = intermediate_exponents((4, 4), (2, 2), theta)
        rep = convexity_identity_check(theta, p, (2, 2), (4, 4), u, v, w,
                                       OffdiagonalCase(F(1, 4)), 1000)
        assert rep["nu_identity_max"] < 1e-12

    def test_limit_consistency(self):
        w = (power(F(1, 5)),)
        v = (power(F(-1, 10)),)
        r, q = (F(2),), (F(3),)
        x = np.linspace(0.5, 3.5, 64)
        prev_dev = None
        for theta in (F(1, 10), F(1, 100), F(1, 1000)):
            p = intermediate_exponents(r, q, theta)
            u = intermediate_weights_diagonal(w, v, r, q, theta)
            dev = max(abs(float(p[0] - r[0])),
                      float(np.max(np.abs(u[0](x) - w[0](x)))))
            if prev_dev is not None:
                assert dev < prev_dev
            prev_dev = dev
        assert prev_dev < 1e-2


class TestProductBounds:
    def test_unit_weights_give_ratio_one(self):
        ones = (wx.ConstantWeight(1), wx.ConstantWeight(1))
        out = solve_theta(DiagonalCase((F(1), F(1))), (2, 2), (3, 3),
                          ones, ones, family(4), resolution=32)
        assert out.success
        for bound in out.certificate.product_bounds:
            assert bound.lhs == pytest.approx(1.0, abs=1e-9)
            assert bound.rhs == pytest.approx(1.0, abs=1e-9)
            assert bound.ratio == pytest.approx(1.0, abs=1e-9)

    def test_equal_pair_exponent_sum_near_one(self):
        # with v = w and q = r the component bound exponents sum to
        # 1 + theta*q_tilde/(1-theta), i.e. 1 + O(theta)
        w = (power(F(1, 5)), power(F(1, 5)))
        fam = family(4)
        for theta in (F(1, 4), F(1, 8), F(1, 16)):
            out = solve_theta(DiagonalCase((F(1), F(1))), (3, 3), (3, 3),
                              w, w, fam, theta_schedule=(theta,), resolution=32)
            assert out.success
            for check in out.certificate.checks:
                aR, aQ = check.bound_exponents
                assert abs(float(aR + aQ - 1)) <= float(3 * theta / (1 - theta)) + 1e-12

    def test_worked_instance_ratios_finite(self):
        w = (power(F(1, 5)), power(F(1, 5)))
        out = solve_theta(DiagonalCase((F(1), F(1))), (2, 2), (3, 3),
                          w, w, family(5), resolution=32)
        assert out.success
        bounds = product_bound_check(out.certificate, family(5), 32)
        for b in bounds:
            assert math.isfinite(b.ratio)
            assert b.ratio > 0


@pytest.fixture(scope="module")
def certificates():
    """Diagonal and off-diagonal certificates, vector and componentwise
    (case, outcome)."""
    w = (power(F(1, 5)), power(F(1, 5)))
    out = {}
    for name, case, q, r in (
            ("diagonal", DiagonalCase((F(1), F(1))), (2, 2), (3, 3)),
            ("offdiagonal", OffdiagonalCase(F(1, 4)), (2, 2), (4, 4)),
            ("diagonal_componentwise",
             DiagonalCase((F(1), F(1)), componentwise=True), (2, 2), (3, 3)),
            ("offdiagonal_componentwise",
             OffdiagonalCase(F(1, 4), componentwise=True), (2, 2), (4, 4))):
        outcome = solve_theta(case, q, r, w, w, family(4), resolution=32)
        assert outcome.success
        out[name] = case, outcome
    return out


class TestCaseAlgebra:
    @pytest.mark.parametrize("case", [
        DiagonalCase((F(1), F(3, 2))),
        DiagonalCase((F(1), F(3, 2)), componentwise=True),
        OffdiagonalCase(F(1, 4)),
        OffdiagonalCase(F(1, 4), componentwise=True)])
    def test_parse_case_inverts_descriptor(self, case):
        assert parse_case(case.descriptor()) == case

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown case tag"):
            parse_case({"tag": "nonsense", "s": ["1"]})

    @pytest.mark.parametrize("name", ["diagonal", "offdiagonal"])
    def test_split_labels_are_certificate_checks(self, certificates, name):
        case, outcome = certificates[name]
        cert = outcome.certificate
        r = tuple(F(v) for v in cert.provenance["r"])
        q = tuple(F(v) for v in cert.provenance["q"])
        splits = case.splits(r, q, cert.theta)
        assert list(splits) == [c.label for c in cert.checks]
        assert [splits[c.label] for c in cert.checks] \
            == [c.split for c in cert.checks]

    @pytest.mark.parametrize("name", ["diagonal", "offdiagonal",
                                      "diagonal_componentwise",
                                      "offdiagonal_componentwise"])
    def test_recheck_refuses_tampered_certificate(self, certificates, name):
        doc = certificates[name][1].certificate.to_json_dict()
        assert recheck_certificate_json(doc) == []

        def tampered(**changes):
            bad = json.loads(json.dumps(doc))
            bad.update(changes)
            return bad

        if "components" in doc:
            other = ({"tag": "offdiagonal_componentwise", "alpha": "0"}
                     if name.startswith("diagonal")
                     else {"tag": "diagonal_componentwise", "s": ["1", "1"]})
            q = doc["provenance"]["q"]
            forgeries = [
                tampered(components=doc["components"][:1]),
                tampered(common_theta=str(F(doc["common_theta"]) * 2)),
                tampered(case=other),
                tampered(case={**doc["case"], "tag": other["tag"]}),
                tampered(provenance={**doc["provenance"],
                                     "q": [q[0], str(F(q[1]) + 1)]}),
            ]
        else:
            forgeries = [
                tampered(checks=[]),
                tampered(checks=[c for c in doc["checks"]
                                 if c["label"] == "coupled"]),
                tampered(checks=doc["checks"][::-1]),
                tampered(checks=[{**doc["checks"][0], "label": "component_x"}]
                         + doc["checks"][1:]),
                tampered(case={**doc["case"], "tag": "mystery"}),
                tampered(p_star="7"),
            ]
        for bad in forgeries:
            assert recheck_certificate_json(bad) != []

    @pytest.mark.parametrize("name", ["diagonal", "offdiagonal"])
    @pytest.mark.parametrize("forge", ["zero_exponent", "check_without_split"])
    def test_recheck_reports_malformed_certificate(self, certificates, name,
                                                   forge):
        bad = json.loads(json.dumps(
            certificates[name][1].certificate.to_json_dict()))
        if forge == "zero_exponent":
            bad["p"] = ["0", "3"]
        else:
            del bad["checks"][0]["split"]
        problems = recheck_certificate_json(bad)
        assert len(problems) == 1 and problems[0].startswith("unparseable: ")
