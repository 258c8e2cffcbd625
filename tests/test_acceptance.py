"""Acceptance suite: one test per criterion, each printing a PASS line.

All tolerances are pinned here.  Verdict thresholds for the contrast
experiments were fixed after oracle runs and live in the preset configs.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import wextrap as wx
from wextrap.characterization import (dual_weight, limited_range_criterion,
                                      offdiag_criterion, verify_equivalence)
from wextrap.cli import run_experiment
from wextrap.interpolation import (DiagonalCase, OffdiagonalCase,
                                   convexity_identity_check,
                                   holder_split_diagonal,
                                   holder_split_diagonal_nu,
                                   holder_split_offdiagonal,
                                   holder_split_offdiagonal_nu,
                                   intermediate_exponents,
                                   intermediate_weights_diagonal,
                                   intermediate_weights_offdiagonal,
                                   recheck_certificate_json, solve_theta)
from wextrap.presets import PRESETS, preset_config
from wextrap.serialization import canonical_json
from wextrap.weights import Verdict

F = Fraction


def power(a):
    return wx.PowerWeight((0.0,), wx.as_fraction(a))


def report(name, ok, detail=""):
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


class TestCriterion1PowerWeightOracle:
    def test_membership_grid_matches_closed_form(self):
        t0 = time.time()
        exponents = [F(-3, 2), F(-9, 10), F(-1, 2), F(0), F(1, 2), F(9, 10),
                     F(3, 2)]
        orders = [F(3, 2), F(2), F(3)]
        family = wx.build_cube_family(1, 4.0, 0, 12)
        cases = [(a, p) for a in exponents for p in orders if a != p - 1]
        assert len(cases) == 20  # the boundary combo a = p - 1 is inadmissible
        mismatches = []
        for a, p in cases:
            w = power(a)
            rep = wx.membership(
                lambda f, w=w, p=p: wx.muckenhoupt_constant(w, p, f, 64),
                family)
            expected = (Verdict.MEMBER if (-1 < a < p - 1)
                        else Verdict.NON_MEMBER)
            if rep.verdict is not expected:
                mismatches.append((a, p, rep.verdict.value))
        elapsed = time.time() - t0
        report("1 power-weight oracle",
               not mismatches and elapsed < 60.0,
               f"20/20 matched in {elapsed:.1f}s" if not mismatches
               else f"mismatches: {mismatches}")


class TestCriterion2Duality:
    def test_duality_identity_tight(self):
        rng = np.random.default_rng(101)
        family = wx.build_cube_family(1, 4.0, 0, 8)
        checked = 0
        worst = 0.0
        while checked < 10:
            a = F(int(rng.integers(-6, 7)), 10)
            p = F(int(rng.integers(12, 35)), 10)
            w = power(a)
            base = wx.muckenhoupt_constant(w, p, family, 64).value
            if not math.isfinite(base):
                continue
            dual, pc = dual_weight(w, p)
            lhs = wx.muckenhoupt_constant(dual, pc, family, 64).value
            rhs = base ** float(1 / (p - 1))
            worst = max(worst, abs(lhs - rhs) / rhs)
            checked += 1
        report("2 duality identity", worst < 1e-9,
               f"10 pairs, worst relative gap {worst:.2e}")


def _realized_exponents(entries, wvec, pvec):
    out = []
    for entry in entries:
        spec = entry.realize(wvec, pvec)
        spec = spec.simplify()
        e = float(spec.exponent) if isinstance(spec, wx.PowerWeight) else 0.0
        out.append(e)
        if entry.class_exponent > 1:
            out.append(-e / (float(entry.class_exponent) - 1.0))
    return out


def _clear_of_marginal_band(exps):
    return all(not (-1.45 < e < -0.7) for e in exps)


class TestCriterion3CharacterizationEquivalence:
    def _run_batch(self, theorem, seed):
        rng = np.random.default_rng(seed)
        family = wx.build_cube_family(1, 4.0, 0, 6)
        orders = [F(3, 2), F(2), F(5, 2), F(3)]
        agreements, inconclusive, total = 0, 0, 0
        while total < 20:
            p1, p2 = (orders[int(i)] for i in rng.integers(0, 4, 2))
            a1, a2 = (F(int(v), 20) for v in rng.integers(-12, 13, 2))
            pvec = wx.Exponents((p1, p2))
            wvec = (power(a1), power(a2))
            if theorem == "limited_range":
                svec = wx.exponents(1, 1)
                crit = limited_range_criterion(pvec, svec)
                direct = (lambda f, wv=wvec, pv=pvec, sv=svec:
                          wx.multilinear_limited_range_constant(wv, pv, sv, f, 64))
                carried = pvec
            else:
                p_star = pvec.harmonic + F(int(rng.integers(0, 3)), 4)
                if p_star < 1:
                    p_star = pvec.harmonic
                crit = offdiag_criterion(pvec, p_star)
                direct = (lambda f, wv=wvec, pv=pvec, ps=p_star:
                          wx.multilinear_offdiag_constant(wv, pv, ps, f, 64))
                carried = pvec if crit.couples_exponents else None
            if not _clear_of_marginal_band(
                    _realized_exponents(crit.entries, wvec, pvec)):
                continue
            total += 1
            rep = verify_equivalence(wvec, crit, direct, family, pvec, 64)
            if not rep.conclusive:
                inconclusive += 1
            elif rep.agree:
                agreements += 1
        conclusive = total - inconclusive
        return agreements, conclusive, inconclusive

    def test_limited_range_batch(self):
        agreements, conclusive, inconclusive = self._run_batch("limited_range",
                                                               202)
        report("3 equivalence (limited range)",
               agreements == conclusive and inconclusive <= 2,
               f"{agreements}/{conclusive} agree, {inconclusive} inconclusive")

    def test_offdiagonal_batch(self):
        agreements, conclusive, inconclusive = self._run_batch("offdiag", 203)
        report("3 equivalence (off-diagonal)",
               agreements == conclusive and inconclusive <= 2,
               f"{agreements}/{conclusive} agree, {inconclusive} inconclusive")


def _random_diagonal_tuple(rng):
    s = (F(1), F(1)) if rng.integers(0, 2) else (F(9, 8), F(5, 4))
    grid_choices = [F(7, 4), F(2), F(5, 2), F(3), F(7, 2)]
    r = tuple(grid_choices[int(i)] for i in rng.integers(0, 5, 2))
    q = tuple(grid_choices[int(i)] for i in rng.integers(0, 5, 2))
    if any(rj <= sj or qj <= sj for rj, qj, sj in zip(r, q, s)):
        return None
    if sum(1 / v for v in r) > 1 or sum(1 / v for v in q) > 1:
        return None
    theta = F(1, int(rng.integers(3, 33)))
    try:
        p = intermediate_exponents(r, q, theta)
    except Exception:
        return None
    if any(pj <= sj for pj, sj in zip(p, s)) or sum(1 / v for v in p) >= 1:
        return None
    return r, q, s, theta


def _random_offdiagonal_tuple(rng):
    alpha = F(int(rng.integers(0, 4)), 8)
    grid_choices = [F(3, 2), F(2), F(5, 2), F(3), F(4)]
    r = tuple(grid_choices[int(i)] for i in rng.integers(0, 5, 2))
    q = tuple(grid_choices[int(i)] for i in rng.integers(0, 5, 2))
    for vec in (r, q):
        rs = sum(1 / v for v in vec)
        if not (alpha < rs < alpha + 1):
            return None
    theta = F(1, int(rng.integers(3, 33)))
    try:
        p = intermediate_exponents(r, q, theta)
    except Exception:
        return None
    rs = sum(1 / v for v in p)
    if any(pj <= 1 for pj in p) or not (alpha < rs < alpha + 1):
        return None
    return r, q, alpha, theta


class TestCriterion4AlgebraSuite:
    def test_diagonal_tuples(self):
        rng = np.random.default_rng(404)
        weights_pool = [F(1, 5), F(-1, 10), F(3, 10), F(0)]
        count = 0
        worst = 0.0
        while count < 50:
            tup = _random_diagonal_tuple(rng)
            if tup is None:
                continue
            r, q, s, theta = tup
            count += 1
            w = tuple(power(weights_pool[int(i)])
                      for i in rng.integers(0, 4, 2))
            v = tuple(power(weights_pool[int(i)])
                      for i in rng.integers(0, 4, 2))
            u = intermediate_weights_diagonal(w, v, r, q, theta)
            p = intermediate_exponents(r, q, theta)
            rep = convexity_identity_check(theta, p, q, r, u, v, w,
                                           DiagonalCase(s), 400,
                                           seed=count)
            worst = max(worst, rep["exponent_residual"],
                        rep["nu_exponent_residual"],
                        rep["weight_identity_max"], rep["nu_identity_max"])
            for j in range(2):
                se = holder_split_diagonal(r, q, s, theta, j)
                assert se.rho == se.sigma and se.tau == se.phi
                worst = max(worst, abs(float(se.rho - se.sigma)),
                            abs(float(se.tau - se.phi)))
                at_zero = holder_split_diagonal(r, q, s, F(0), j)
                assert at_zero.rho == 1 and at_zero.tau == 1
            se = holder_split_diagonal_nu(r, q, s, theta)
            assert se.rho == se.sigma and se.tau == se.phi
            at_zero = holder_split_diagonal_nu(r, q, s, F(0))
            assert at_zero.rho == 1 and at_zero.tau == 1
        report("4 algebra suite (diagonal)", worst <= 1e-12,
               f"50 tuples, worst residual {worst:.2e}")

    def test_offdiagonal_tuples(self):
        rng = np.random.default_rng(405)
        weights_pool = [F(1, 5), F(-1, 10), F(1, 10), F(0)]
        count = 0
        worst = 0.0
        while count < 50:
            tup = _random_offdiagonal_tuple(rng)
            if tup is None:
                continue
            r, q, alpha, theta = tup
            count += 1
            w = tuple(power(weights_pool[int(i)])
                      for i in rng.integers(0, 4, 2))
            v = tuple(power(weights_pool[int(i)])
                      for i in rng.integers(0, 4, 2))
            u = intermediate_weights_offdiagonal(w, v, theta)
            p = intermediate_exponents(r, q, theta)
            rep = convexity_identity_check(theta, p, q, r, u, v, w,
                                           OffdiagonalCase(alpha), 400,
                                           seed=count)
            worst = max(worst, rep["exponent_residual"],
                        rep["nu_exponent_residual"],
                        rep["weight_identity_max"], rep["nu_identity_max"])
            for j in range(2):
                se = holder_split_offdiagonal(r, q, theta, j, 2)
                assert se.rho == se.sigma and se.tau == se.phi
                worst = max(worst, abs(float(se.rho - se.sigma)))
                at_zero = holder_split_offdiagonal(r, q, F(0), j, 2)
                assert at_zero.rho == 1 and at_zero.tau == 1
            se = holder_split_offdiagonal_nu(r, q, alpha, theta, 2)
            assert se.rho == se.sigma and se.tau == se.phi
            at_zero = holder_split_offdiagonal_nu(r, q, alpha, F(0), 2)
            assert at_zero.rho == 1 and at_zero.tau == 1
        report("4 algebra suite (off-diagonal)", worst <= 1e-12,
               f"50 tuples, worst residual {worst:.2e}")

    def test_componentwise_certificates_byte_identical(self):
        fam = wx.build_cube_family(1, 4.0, 0, 4)
        w02 = power(F(1, 5))
        instances = [
            (DiagonalCase((F(1), F(1)), componentwise=True), (2, 2), (3, 3),
             [(DiagonalCase((F(1),)), 2, 3)] * 2),
            (OffdiagonalCase(F(1, 4), componentwise=True), (2, 2), (4, 4),
             [(OffdiagonalCase(F(1, 8)), 2, 4)] * 2),
            (DiagonalCase((F(1), F(1)), componentwise=True), (2, 2), (4, 3),
             [(DiagonalCase((F(1),)), 2, 4),
              (DiagonalCase((F(1),)), 2, 3)]),
            (OffdiagonalCase(F(1, 8), componentwise=True), (3, 3), (4, 4),
             [(OffdiagonalCase(F(1, 16)), 3, 4)] * 2),
        ]
        for case, qv, rv, scalars in instances:
            bundle = solve_theta(case, qv, rv, (w02, w02), (w02, w02), fam,
                                 resolution=32)
            assert bundle.success, bundle.failure.blocking_check
            for j, (scase, qj, rj) in enumerate(scalars):
                single = solve_theta(scase, (qj,), (rj,), (w02,), (w02,), fam,
                                     resolution=32)
                assert single.success
                lhs = canonical_json(
                    bundle.certificate.components[j].to_json_dict())
                rhs = canonical_json(single.certificate.to_json_dict())
                assert lhs == rhs
        report("4 componentwise byte-identity", True,
               "4 instances x 2 components identical")


class TestCriterion5SolveTheta:
    @pytest.mark.parametrize("preset", ["diagonal-certificate",
                                        "offdiagonal-certificate"])
    def test_worked_instance(self, preset):
        t0 = time.time()
        code, out, _ = run_experiment(preset_config(preset))
        elapsed = time.time() - t0
        ok = (code == 0 and out["success"]
              and Fraction(out["theta"]) >= F(1, 2 ** 20)
              and out["u_membership"]["verdict"] == "member"
              and math.isfinite(out["u_membership"]["value"]))
        problems = recheck_certificate_json(out)
        round_trip = canonical_json(out)
        import json as _json
        reparsed = _json.loads(round_trip)
        problems += recheck_certificate_json(reparsed)
        ok = ok and not problems and elapsed < 300.0
        report(f"5 solve end-to-end ({preset})", ok,
               f"theta={out.get('theta')}, revalidation issues={problems}, "
               f"{elapsed:.1f}s")


class TestCriterion6OperatorIdentities:
    def test_identity_symbol_product(self):
        from wextrap.operators import FourierMultiplierOperator, SymbolSpec
        g = wx.Grid(1, 256, 4.0)
        sym = SymbolSpec(lambda a, b: np.ones(np.broadcast(a, b).shape))
        op = FourierMultiplierOperator(sym)
        rng = np.random.default_rng(606)
        f1 = wx.GridFunction(g, rng.normal(size=256))
        f2 = wx.GridFunction(g, rng.normal(size=256))
        gap = np.abs(op.apply(f1, f2).values
                     - f1.values * f2.values).max()
        report("6 identity-symbol product", gap < 1e-10, f"max gap {gap:.2e}")

    def test_commutator_with_constant(self):
        from wextrap.operators import (CommutatorOperator, CommutatorSpec,
                                       FractionalIntegralOperator, smooth_bump)
        g = wx.Grid(1, 128, 4.0)
        const = lambda x: np.full_like(np.asarray(x, dtype=float), 1.9)
        op = CommutatorOperator(FractionalIntegralOperator(1.0),
                                CommutatorSpec((1, 0), b1=const))
        f1 = wx.GridFunction.from_callable(g, smooth_bump(1.0))
        f2 = wx.GridFunction.from_callable(g, smooth_bump(2.0))
        gap = np.abs(op.apply(f1, f2).values).max()
        report("6 commutator with constant", gap < 1e-12, f"max {gap:.2e}")

    def test_reassociation(self):
        from wextrap.operators import (CommutatorOperator, CommutatorSpec,
                                       FractionalIntegralOperator, smooth_bump)
        g = wx.Grid(1, 128, 4.0)
        b = smooth_bump(1.5)
        base = FractionalIntegralOperator(1.0)
        op = CommutatorOperator(base, CommutatorSpec((1, 0), b1=b))
        f1 = wx.GridFunction.from_callable(g, smooth_bump(1.0))
        f2 = wx.GridFunction.from_callable(g, lambda x: np.cos(x) ** 2)
        nodes = g.flat_nodes()
        lhs = (op.apply(f1, f2).values
               + base.apply(f1.map(lambda v: v * b(nodes)), f2).values)
        rhs = b(nodes) * base.apply(f1, f2).values
        gap = np.abs(lhs - rhs).max()
        report("6 re-association identity", gap < 1e-10, f"max {gap:.2e}")


class TestCriterion7CompactnessContrast:
    def test_both_operators_confirm_contrast(self):
        t0 = time.time()
        details = []
        ok = True
        for preset in ("fractional-contrast", "multiplier-contrast"):
            cfg = preset_config(preset)
            code, out, _ = run_experiment(cfg)
            confirmed = out["verdict"] == "contrast_confirmed"
            cells = out["cells"]
            cmo = {c["N"]: c["tail"] for c in cells
                   if c["symbol_class"] == "cmo"}
            bmo = {c["N"]: c["tail"] for c in cells
                   if c["symbol_class"] == "bmo"}
            separated = all(cmo[n] < bmo[n] / cfg["contrast_factor"]
                            for n in cmo)
            ordered = sorted(cmo)
            nonincreasing = all(cmo[ordered[i + 1]] <= cmo[ordered[i]] + 1e-9
                                for i in range(len(ordered) - 1))
            ok = ok and code == 0 and confirmed and separated and nonincreasing
            details.append(f"{preset}: {out['verdict']}")
        elapsed = time.time() - t0
        ok = ok and elapsed < 900.0
        report("7 compactness contrast", ok,
               f"{'; '.join(details)} in {elapsed:.1f}s")


class TestCriterion8Determinism:
    def test_every_preset_reproduces_byte_identical_json(self):
        diffs = []
        for name in sorted(PRESETS):
            first = run_experiment(preset_config(name))
            second = run_experiment(preset_config(name))
            if first[0] != second[0]:
                diffs.append(f"{name}: exit codes differ")
                continue
            a = canonical_json(first[1])
            b = canonical_json(second[1])
            if a != b:
                diffs.append(f"{name}: JSON differs")
            if (first[2] is None) != (second[2] is None):
                diffs.append(f"{name}: CSV presence differs")
            elif first[2] is not None and first[2] != second[2]:
                diffs.append(f"{name}: CSV rows differ")
        report("8 determinism", not diffs,
               f"{len(PRESETS)} presets byte-identical" if not diffs
               else "; ".join(diffs))
