"""Discretization, approximation numbers, contrast verdicts, norm sweeps."""

import numpy as np
import pytest

import wextrap as wx
from wextrap.compactness import (ApproxNumberReport, DiscretizedBilinearMap,
                                 MemoryBudgetError, approximation_numbers,
                                 boundedness_sweep, compactness_contrast,
                                 discretize, fourier_basis, indicator_basis,
                                 matched_amplitude)
from wextrap.grids import Grid
from wextrap.operators import (CommutatorOperator, CommutatorSpec,
                               FourierMultiplierOperator,
                               FractionalIntegralOperator, RankOneOperator,
                               SymbolSpec, ZeroOperator, log_symbol,
                               smooth_bump)


def identity_symbol():
    return SymbolSpec(lambda a, b: np.ones(np.broadcast(a, b).shape),
                      name="identity")


class TestDiscretize:
    def test_zero_operator_all_zero(self):
        g = Grid(1, 64, 4.0)
        dmap = discretize(ZeroOperator(), g, n_basis=(8, 8))
        assert np.abs(dmap.matrix).max() == 0.0

    def test_rank_one_has_rank_one(self):
        g = Grid(1, 64, 4.0)
        bump = smooth_bump(1.0)
        dmap = discretize(RankOneOperator(bump, bump, bump), g, n_basis=(16, 16))
        rep = approximation_numbers(dmap, 4)
        assert rep.values[0] > 0
        assert rep.values[1] / rep.values[0] < 1e-10

    def test_memory_budget_guard(self):
        g = Grid(1, 256, 4.0)
        with pytest.raises(MemoryBudgetError):
            discretize(ZeroOperator(), g, n_basis=(64, 64), budget=10_000)

    def test_two_resolution_column_consistency(self):
        op = FractionalIntegralOperator(1.0)
        cols = {}
        for n in (64, 128):
            g = Grid(1, n, 4.0)
            dmap = discretize(op, g, n_basis=(8, 8))
            # compare block-averaged unscaled output columns
            raw = op.apply_pairs(indicator_basis(g, 8), indicator_basis(g, 8), g)
            cols[n] = raw.reshape(64, n).reshape(64, 32, -1).mean(axis=2)
        top = np.abs(cols[128]).max()
        mask = np.abs(cols[128]) > 0.02 * top
        rel = np.abs(cols[64][mask] - cols[128][mask]) / np.abs(cols[128][mask])
        assert rel.max() < 0.06

    def test_weighted_surrogate_rescaling(self):
        g = Grid(1, 64, 4.0)
        w = wx.PowerWeight((0.0,), wx.as_fraction("1/5"))
        dmap = discretize(FractionalIntegralOperator(1.0), g,
                          weights=(w, w, w), n_basis=(8, 8))
        assert dmap.norm_convention == "weighted-l2-surrogate"
        assert dmap.descriptor["weights"][0]["type"] == "power"

    def test_fourier_basis_gram_whitening(self):
        g = Grid(1, 64, 4.0)
        dmap = discretize(FourierMultiplierOperator(identity_symbol()), g,
                          basis="fourier", n_basis=(8, 8))
        assert dmap.matrix.shape == (64, 64)
        rep = approximation_numbers(dmap, 8)
        assert rep.values[0] > 0


    def test_per_axis_whitening_matches_kron(self):
        # Fourier rows under power weights have non-diagonal Gram matrices
        g = Grid(1, 64, 4.0)
        op = FourierMultiplierOperator(SymbolSpec(
            lambda a, b: (1.0 + np.asarray(a) ** 2 + np.asarray(b) ** 2) ** -0.5))
        w1 = wx.PowerWeight((-0.61,), wx.as_fraction("1/5"))
        w2 = wx.PowerWeight((0.37,), wx.as_fraction("-1/3"))
        w_out = wx.PowerWeight((-1.29,), wx.as_fraction("1/2"))
        n1, n2 = 8, 4
        dmap = discretize(op, g, weights=(w1, w2, w_out), basis="fourier",
                          n_basis=(n1, n2))

        nodes, vol = g.flat_nodes(), g.cell_volume
        F1, F2 = fourier_basis(g, n1), fourier_basis(g, n2)

        def gram_half_inv(F, w):
            G = (F * w(nodes)[None, :]) @ F.conj().T * vol
            evals, evecs = np.linalg.eigh(G)
            return evecs @ np.diag(evals ** -0.5) @ evecs.conj().T

        Gi1, Gi2 = gram_half_inv(F1, w1), gram_half_inv(F2, w2)
        assert np.abs(Gi1 - np.diag(np.diag(Gi1))).max() > 1e-3
        cols = op.apply_pairs(F1, F2, g) * np.sqrt(w_out(nodes) * vol)
        M = cols.reshape(n1 * n2, g.size()).T @ np.kron(Gi1, Gi2)
        np.testing.assert_allclose(dmap.matrix, M, rtol=1e-12)


class TestApproximationNumbers:
    def test_rank_one_values(self):
        g = Grid(1, 32, 1.0)
        bump = smooth_bump(0.5)
        dmap = discretize(RankOneOperator(bump, bump, bump), g, n_basis=(8, 8))
        rep = approximation_numbers(dmap, 3)
        assert rep.values[0] > 0
        assert rep.values[1] == pytest.approx(0.0, abs=1e-12 * rep.values[0])

    def test_diagonal_map_singular_values(self):
        diag = np.diag([2.0 ** -k for k in range(8)])
        dmap = DiscretizedBilinearMap(diag, 8, (4, 2), "weighted-l2-surrogate",
                                      {})
        rep = approximation_numbers(dmap, 8)
        np.testing.assert_allclose(rep.values, [2.0 ** -k for k in range(8)],
                                   rtol=1e-14)

    def test_identity_embedding_has_flat_spectrum(self):
        dmap = DiscretizedBilinearMap(np.eye(16), 16, (4, 4),
                                      "weighted-l2-surrogate", {})
        rep = approximation_numbers(dmap, 16)
        np.testing.assert_allclose(rep.values, 1.0)

    def test_nonincreasing(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            m = rng.normal(size=(20, 30))
            dmap = DiscretizedBilinearMap(m, 32, (5, 6),
                                          "weighted-l2-surrogate", {})
            vals = approximation_numbers(dmap, 20).values
            assert all(vals[i] >= vals[i + 1] for i in range(19))

    def test_surrogate_norm_matches_power_iteration(self):
        g = Grid(1, 64, 4.0)
        dmap = discretize(FractionalIntegralOperator(1.0), g, n_basis=(16, 16))
        a1 = approximation_numbers(dmap, 1).values[0]
        rng = np.random.default_rng(11)
        v = rng.normal(size=dmap.matrix.shape[1])
        M = dmap.matrix
        for _ in range(200):
            v = M.T @ (M @ v)
            v /= np.linalg.norm(v)
        estimate = np.linalg.norm(M @ v)
        assert abs(estimate - a1) / a1 < 0.01

    def test_tail_indicator(self):
        rep = ApproxNumberReport((4.0, 2.0, 1.0), 8, "weighted-l2-surrogate", {})
        assert rep.tail_indicator(3) == 0.25
        zero = ApproxNumberReport((0.0, 0.0), 8, "weighted-l2-surrogate", {})
        assert zero.tail_indicator(2) == 0.0

    def test_constructed_rank_detected(self):
        # discretization is linear in the operator, so a rank-3 map is the
        # sum of three rank-one discretizations
        g = Grid(1, 64, 4.0)
        profiles = [smooth_bump(1.0), smooth_bump(2.0),
                    lambda x: np.cos(x) * smooth_bump(1.5)(x)]
        total = None
        for prof in profiles:
            dmap = discretize(RankOneOperator(prof, prof, prof), g,
                              n_basis=(8, 8))
            total = dmap.matrix if total is None else total + dmap.matrix
        combined = DiscretizedBilinearMap(total, 64, (8, 8),
                                          "weighted-l2-surrogate", {})
        vals = approximation_numbers(combined, 5).values
        assert vals[2] > 0
        assert vals[3] / vals[0] < 1e-10

    def test_refinement_consistency_of_leading_values(self):
        # a_k at N and 2N on the shared coarse basis agree for k <= 8
        op = FractionalIntegralOperator(1.0)
        values = {}
        for n in (64, 128):
            dmap = discretize(op, Grid(1, n, 4.0), n_basis=(16, 16))
            values[n] = approximation_numbers(dmap, 8).values
        rel = [abs(a - b) / b for a, b in zip(values[64], values[128])]
        assert max(rel) < 0.05


class TestContrast:
    def test_rank_one_base_degenerate(self):
        bump = smooth_bump(1.0)
        base = RankOneOperator(bump, bump, bump)
        rep = compactness_contrast(base, smooth_bump(2.0), log_symbol(), (1, 0),
                                   [32, 64], 16, n_basis=(8, 8))
        assert rep.verdict == "degenerate_skipped"

    def test_commutator_with_constant_gives_zero_report(self):
        g = Grid(1, 64, 4.0)
        const = lambda x: np.full_like(np.asarray(x, dtype=float), 3.0)
        op = CommutatorOperator(FractionalIntegralOperator(1.0),
                                CommutatorSpec((1, 0), b1=const))
        dmap = discretize(op, g, n_basis=(8, 8))
        rep = approximation_numbers(dmap, 8)
        assert max(rep.values) < 1e-10

    def test_amplitude_matching_equalizes_bmo_norms(self):
        fam = wx.build_cube_family(1, 4.0, 0, 8)
        scale = matched_amplitude(smooth_bump(1.0), log_symbol(), fam)
        scaled = lambda x: scale * smooth_bump(1.0)(x)
        a = wx.bmo_norm(scaled, fam).value
        b = wx.bmo_norm(log_symbol(), fam).value
        assert a == pytest.approx(b, rel=1e-12)

    def test_weighted_contrast_matches_admissible_class(self):
        # power weights inside the admissible class keep the verdict
        w = wx.PowerWeight((0.0,), wx.as_fraction("1/5"))
        rep = compactness_contrast(
            FractionalIntegralOperator(1.0), smooth_bump(1.0), log_symbol(),
            (1, 0), [64, 128], 16, weights=(w, w, w))
        assert rep.verdict == "contrast_confirmed"

    def test_refinements_must_increase(self):
        with pytest.raises(ValueError):
            compactness_contrast(ZeroOperator(), smooth_bump(1.0), log_symbol(),
                                 (1, 0), [128, 64], 8)

    def test_csv_rows_schema(self):
        bump = smooth_bump(1.0)
        base = RankOneOperator(bump, bump, bump)
        rep = compactness_contrast(base, smooth_bump(2.0), log_symbol(), (1, 0),
                                   [32], 4, n_basis=(8, 8))
        rows = rep.csv_rows()
        assert len(rows) == 2 * 4
        assert set(rows[0]) == {"N", "symbol_class", "k", "a_k", "a_k_over_a1"}


class TestBoundednessSweep:
    def test_zero_operator_all_zero(self):
        g = Grid(1, 64, 4.0)
        rows = boundedness_sweep(ZeroOperator(), g, (4, 4, 2),
                                 [{"label": "unweighted"}],
                                 [("bump", smooth_bump(1.0), smooth_bump(1.0))])
        assert rows[0].max_ratio == 0.0

    def test_identity_symbol_indicator_ratio_one(self):
        g = Grid(1, 256, 4.0)
        ind = lambda x: np.where(np.abs(x) <= 1.0, 1.0, 0.0)
        rows = boundedness_sweep(FourierMultiplierOperator(identity_symbol()),
                                 g, (4, 4, 2), [{"label": "unweighted"}],
                                 [("indicator", ind, ind)])
        assert rows[0].max_ratio == pytest.approx(1.0, rel=1e-10)

    def test_ratio_grows_toward_class_boundary(self):
        g = Grid(1, 64, 4.0)
        op = FractionalIntegralOperator(1.0)
        trials = [("bump", smooth_bump(1.0), smooth_bump(1.0))]
        ratios = []
        for a in ("1/10", "2/5", "7/10"):
            w = wx.PowerWeight((0.0,), wx.as_fraction(a))
            rows = boundedness_sweep(op, g, (2, 2, 4),
                                     [{"label": a, "w1": w, "w2": w, "w_out": w}],
                                     trials)
            ratios.append(rows[0].max_ratio)
        assert ratios[0] < ratios[1] < ratios[2]


class TestBases:
    def test_indicator_partition(self):
        g = Grid(1, 64, 4.0)
        F = indicator_basis(g, 8)
        np.testing.assert_allclose(F.sum(axis=0), 1.0)
        assert F.shape == (8, 64)

    def test_indicator_requires_divisibility(self):
        with pytest.raises(ValueError):
            indicator_basis(Grid(1, 64, 4.0), 12)

    def test_fourier_rows_orthogonal(self):
        g = Grid(1, 64, 4.0)
        F = fourier_basis(g, 8)
        gram = (F @ F.conj().T) * g.cell_volume
        np.testing.assert_allclose(gram, np.diag(np.diag(gram)), atol=1e-12)
