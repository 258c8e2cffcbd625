"""Operator discretization tests: kernels, multipliers, commutators, symbols."""

import math

import numpy as np
import pytest

from wextrap.compactness import indicator_basis
from wextrap.grids import Grid, GridFunction, weighted_lp_norm
from wextrap.operators import (CommutatorOperator, CommutatorSpec,
                               FourierMultiplierOperator,
                               FractionalIntegralOperator, KernelSpec,
                               RankOneOperator, SymbolSpec,
                               TruncatedKernelOperator, ZeroOperator,
                               littlewood_paley_bump, log_symbol, smooth_bump,
                               symbol_sobolev_norm)


def grid(n=64, L=4.0):
    return Grid(1, n, L)


def gf(g, fn):
    return GridFunction.from_callable(g, fn)


def identity_symbol():
    return SymbolSpec(lambda a, b: np.ones(np.broadcast(a, b).shape),
                      name="identity")


def decaying_symbol(s=1.0):
    return SymbolSpec(
        lambda a, b: (1.0 + np.asarray(a) ** 2 + np.asarray(b) ** 2) ** (-s / 2),
        name="decaying")


class TestFractionalIntegral:
    def test_zero_input_gives_zero(self):
        g = grid()
        op = FractionalIntegralOperator(1.0)
        out = op.apply(gf(g, lambda x: np.zeros_like(x)), gf(g, smooth_bump(1.0)))
        np.testing.assert_allclose(out.values, 0.0)

    def test_bilinearity_exact_in_each_slot(self):
        g = grid(32)
        op = FractionalIntegralOperator(1.0)
        f1 = gf(g, smooth_bump(1.0))
        f2 = gf(g, smooth_bump(2.0))
        base = op.apply(f1, f2).values
        scaled = op.apply(f1.map(lambda v: 3.5 * v), f2).values
        np.testing.assert_allclose(scaled, 3.5 * base, rtol=1e-12)
        g1 = gf(g, lambda x: np.cos(x))
        sum_out = op.apply(f1.map(lambda v: v + g1.values), f2).values
        np.testing.assert_allclose(sum_out,
                                   base + op.apply(g1, f2).values, rtol=1e-11)

    def test_positivity(self):
        g = grid(32)
        op = FractionalIntegralOperator(1.0)
        out = op.apply(gf(g, smooth_bump(1.0)), gf(g, smooth_bump(1.5)))
        assert np.all(out.values >= 0)

    def test_indicator_output_positive_symmetric_consistent(self):
        op = FractionalIntegralOperator(1.0)
        ind = lambda x: np.where((x >= 0) & (x <= 0.25), 1.0, 0.0)
        outs = {}
        for n in (128, 256):
            g = Grid(1, n, 1.0)
            out = op.apply(gf(g, ind), gf(g, ind)).values
            assert np.all(out > 0)
            outs[n] = out.reshape(32, -1).mean(axis=1)
        # two-resolution consistency on block averages of the output
        top = np.abs(outs[256]).max()
        mask = np.abs(outs[256]) > 0.05 * top
        rel = np.abs(outs[128][mask] - outs[256][mask]) / np.abs(outs[256][mask])
        assert rel.max() < 0.05

    def test_swap_symmetry_with_symmetric_kernel(self):
        g = grid(32)
        op = FractionalIntegralOperator(1.0)
        f1 = gf(g, smooth_bump(1.0))
        f2 = gf(g, lambda x: np.cos(x) ** 2)
        np.testing.assert_allclose(op.apply(f1, f2).values,
                                   op.apply(f2, f1).values, rtol=1e-12)

    def test_rejects_beta_outside_range(self):
        with pytest.raises(ValueError):
            FractionalIntegralOperator(0.0)
        with pytest.raises(ValueError):
            FractionalIntegralOperator(2.0)
        FractionalIntegralOperator(1.9)

    def test_conventions_differ(self):
        g = grid(32)
        f = gf(g, smooth_bump(1.0))
        a = FractionalIntegralOperator(1.0, convention="homogeneous").apply(f, f)
        b = FractionalIntegralOperator(1.0, convention="as_printed").apply(f, f)
        assert not np.allclose(a.values, b.values)


def model_kernel_spec(rho=0.25):
    def kernel(x, y1, y2):
        s = np.abs(x - y1) + np.abs(x - y2)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.sign(x - y1) / s ** 2

    return KernelSpec(kernel, smoothness_order=1.0, truncation_radius=rho)


class TestTruncatedKernel:
    def test_zero_input(self):
        g = grid()
        op = TruncatedKernelOperator(model_kernel_spec())
        out = op.apply(gf(g, lambda x: np.zeros_like(x)), gf(g, smooth_bump(1.0)))
        np.testing.assert_allclose(out.values, 0.0)

    def test_zero_kernel(self):
        g = grid()
        spec = KernelSpec(lambda x, y1, y2: np.zeros(np.broadcast(x, y1, y2).shape),
                          smoothness_order=1.0, truncation_radius=0.25)
        out = TruncatedKernelOperator(spec).apply(gf(g, smooth_bump(1.0)),
                                                  gf(g, smooth_bump(1.0)))
        np.testing.assert_allclose(out.values, 0.0)

    def test_truncation_difference_is_annulus_contribution(self):
        g = grid(64)
        f1 = gf(g, smooth_bump(1.0))
        f2 = gf(g, smooth_bump(2.0))
        rho = 0.5
        out_big = TruncatedKernelOperator(model_kernel_spec(rho)).apply(f1, f2)
        out_small = TruncatedKernelOperator(model_kernel_spec(rho / 2)).apply(f1, f2)
        nodes = g.flat_nodes()
        vol = g.cell_volume
        spec = model_kernel_spec(rho)
        diff = out_small.values - out_big.values
        for ix in (10, 32, 50):
            x = nodes[ix]
            d2 = (x - nodes) ** 2
            r2 = d2[:, None] + d2[None, :]
            K = spec.kernel(x, nodes[:, None], nodes[None, :])
            ann = (r2 > (rho / 2) ** 2) & (r2 <= rho ** 2)
            expected = np.sum(K[ann] * np.outer(f1.values, f2.values)[ann]) * vol ** 2
            assert diff[ix] == pytest.approx(expected, abs=1e-12)

    def test_requires_spacing_below_radius(self):
        g = Grid(1, 16, 4.0)  # spacing 0.5
        op = TruncatedKernelOperator(model_kernel_spec(0.25))
        with pytest.raises(ValueError):
            op.apply(gf(g, smooth_bump(1.0)), gf(g, smooth_bump(1.0)))


def per_point_apply_pairs(op, F1, F2, g):
    """The double sum with each output point's kernel matrix built directly."""
    nodes = g.flat_nodes()
    out = np.zeros((F1.shape[0], F2.shape[0], nodes.shape[0]))
    vol = g.cell_volume
    for ix in range(nodes.shape[0]):
        K = op._kernel_matrix(nodes[ix], nodes, g, ix)
        out[:, :, ix] = (F1 @ K @ F2.T) * vol * vol
    return out


def table_inputs(g):
    F = indicator_basis(g, 8)
    return F, F * log_symbol()(g.flat_nodes())[None, :]


KERNEL_OPERATORS = {
    "fractional": FractionalIntegralOperator(1.0),
    "cz_model": TruncatedKernelOperator(model_kernel_spec()),
}


class TestOffsetTable:
    @pytest.mark.parametrize("name", sorted(KERNEL_OPERATORS))
    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("half_width", [4.0, 2.0])
    def test_equals_per_point_double_sum(self, name, n, half_width):
        # dyadic spacing: node differences are exact, so the bits agree
        op = KERNEL_OPERATORS[name]
        g = Grid(1, n, half_width)
        F1, F2 = table_inputs(g)
        assert np.array_equal(op.apply_pairs(F1, F2, g),
                              per_point_apply_pairs(op, F1, F2, g))

    @pytest.mark.parametrize("name", sorted(KERNEL_OPERATORS))
    @pytest.mark.parametrize("half_width", [3.0, 0.3])
    def test_close_to_per_point_on_non_dyadic_spacing(self, name, half_width):
        op = KERNEL_OPERATORS[name]
        g = Grid(1, 64, half_width)
        F1, F2 = table_inputs(g)
        np.testing.assert_allclose(op.apply_pairs(F1, F2, g),
                                   per_point_apply_pairs(op, F1, F2, g),
                                   rtol=1e-9, atol=1e-12)

    def test_non_translation_invariant_kernel_rejected(self):
        base = model_kernel_spec().kernel
        spec = KernelSpec(lambda x, y1, y2: (1.0 + x ** 2) * base(x, y1, y2),
                          smoothness_order=1.0, truncation_radius=0.25)
        g = grid(64)
        F1, F2 = table_inputs(g)
        with pytest.raises(ValueError, match="translation invariant"):
            TruncatedKernelOperator(spec).apply_pairs(F1, F2, g)

    def test_operator_and_grid_dimension_must_agree(self):
        F = np.ones((1, 64))
        with pytest.raises(ValueError, match="1-D kernel on a 2-D grid"):
            FractionalIntegralOperator(1.0).apply_pairs(F, F, Grid(2, 8, 1.0))


class TestFourierMultiplier:
    def test_identity_symbol_reproduces_product(self):
        g = Grid(1, 256, 4.0)
        op = FourierMultiplierOperator(identity_symbol())
        rng = np.random.default_rng(23)
        f1 = GridFunction(g, rng.normal(size=256))
        f2 = GridFunction(g, rng.normal(size=256))
        out = op.apply(f1, f2)
        np.testing.assert_allclose(out.values.real, f1.values * f2.values,
                                   atol=1e-10)
        assert np.abs(out.values.imag).max() < 1e-10

    def test_first_slot_symbol_factorizes(self):
        g = Grid(1, 128, 4.0)
        h = lambda xi: (1.0 + np.asarray(xi) ** 2) ** -0.5
        sym = SymbolSpec(lambda a, b: h(a) * np.ones(np.broadcast(a, b).shape))
        op = FourierMultiplierOperator(sym)
        f1 = gf(g, smooth_bump(1.0))
        f2 = gf(g, lambda x: np.cos(2 * np.pi * x) * smooth_bump(2.0)(x))
        out = op.apply(f1, f2).values
        freqs = np.fft.fftfreq(g.n, d=g.spacing)
        scalar = np.fft.ifft(h(freqs) * np.fft.fft(f1.values))
        np.testing.assert_allclose(out, scalar * f2.values, atol=1e-12)

    def test_translation_symbol_is_exact_shift(self):
        g = Grid(1, 64, 4.0)
        shift_cells = 5
        h = shift_cells * g.spacing
        sym = SymbolSpec(lambda a, b: np.exp(2j * np.pi * (np.asarray(a)
                                                           + np.asarray(b)) * h))
        op = FourierMultiplierOperator(sym)
        rng = np.random.default_rng(3)
        f1 = GridFunction(g, rng.normal(size=64))
        f2 = GridFunction(g, rng.normal(size=64))
        out = op.apply(f1, f2).values
        # the phase symbol evaluates the product at x + h, a leftward roll
        product = f1.values * f2.values
        np.testing.assert_allclose(out.real, np.roll(product, -shift_cells),
                                   atol=1e-10)

    def test_decaying_symbol_bounded_bilinear(self):
        g = Grid(1, 128, 4.0)
        op = FourierMultiplierOperator(decaying_symbol())
        ratios = []
        for fn in (smooth_bump(1.0), smooth_bump(0.5),
                   lambda x: np.cos(3 * x) * smooth_bump(2.0)(x)):
            f = gf(g, fn)
            out = op.apply(f, f)
            denom = weighted_lp_norm(f, 4) ** 2
            ratios.append(weighted_lp_norm(out, 2) / denom)
        assert max(ratios) < 10.0


class TestCommutator:
    def test_constant_symbol_annihilates(self):
        g = grid(64)
        base = FractionalIntegralOperator(1.0)
        const = lambda x: np.full_like(np.asarray(x, dtype=float), 2.7)
        op = CommutatorOperator(base, CommutatorSpec((1, 0), b1=const))
        out = op.apply(gf(g, smooth_bump(1.0)), gf(g, smooth_bump(2.0)))
        assert np.abs(out.values).max() < 1e-12

    def test_iterated_with_constant_inner_slot(self):
        g = grid(32)
        base = FractionalIntegralOperator(1.0)
        const = lambda x: np.full_like(np.asarray(x, dtype=float), -1.3)
        op = CommutatorOperator(base, CommutatorSpec((1, 1), b1=smooth_bump(1.0),
                                                     b2=const))
        out = op.apply(gf(g, smooth_bump(1.0)), gf(g, smooth_bump(2.0)))
        assert np.abs(out.values).max() < 1e-12

    def test_reassociation_identity(self):
        # [T, b]_(1,0)(f1, f2) + T(b f1, f2) = b T(f1, f2)
        g = grid(64)
        base = FractionalIntegralOperator(1.0)
        b = smooth_bump(1.5)
        op = CommutatorOperator(base, CommutatorSpec((1, 0), b1=b))
        f1, f2 = gf(g, smooth_bump(1.0)), gf(g, lambda x: np.cos(x) ** 2)
        lhs = (op.apply(f1, f2).values
               + base.apply(f1.map(lambda v: v * b(g.flat_nodes())), f2).values)
        rhs = b(g.flat_nodes()) * base.apply(f1, f2).values
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_second_slot_commutator(self):
        g = grid(32)
        base = FractionalIntegralOperator(1.0)
        b = smooth_bump(1.0)
        op = CommutatorOperator(base, CommutatorSpec((0, 1), b2=b))
        f1, f2 = gf(g, smooth_bump(2.0)), gf(g, smooth_bump(1.0))
        expected = (b(g.flat_nodes()) * base.apply(f1, f2).values
                    - base.apply(f1, f2.map(lambda v: v * b(g.flat_nodes()))).values)
        np.testing.assert_allclose(op.apply(f1, f2).values, expected, rtol=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CommutatorSpec((2, 0), b1=smooth_bump(1.0))
        with pytest.raises(ValueError):
            CommutatorSpec((1, 0))


class TestSymbolMachinery:
    def test_partition_of_unity_on_annulus(self):
        bump = littlewood_paley_bump()
        J = 6
        xi = np.concatenate([np.linspace(2.0 ** (-J + 2), 2.0 ** (J - 2), 400),
                             -np.linspace(2.0 ** (-J + 2), 2.0 ** (J - 2), 400)])
        total = np.zeros_like(xi)
        for j in range(-J, J + 1):
            total += bump(2.0 ** (-j) * xi, np.zeros_like(xi))
        assert np.abs(total - 1.0).max() < 1e-6

    def test_bump_support(self):
        bump = littlewood_paley_bump()
        xi = np.array([0.1, 0.2, 2.5, 5.0])
        np.testing.assert_allclose(bump(xi, np.zeros_like(xi)), 0.0)
        inside = bump(np.array([0.7, 1.0]), np.zeros_like(np.array([0.7, 1.0])))
        assert np.all(inside > 0)

    def test_zero_symbol_norm(self):
        sym = SymbolSpec(lambda a, b: np.zeros(np.broadcast(a, b).shape))
        assert symbol_sobolev_norm(sym, s=1.0, j_range=range(-2, 3)) == 0.0

    def test_constant_symbol_norm_is_j_independent(self):
        sym = identity_symbol()
        short = symbol_sobolev_norm(sym, s=1.0, j_range=range(-2, 3),
                                    freq_resolution=64)
        longer = symbol_sobolev_norm(sym, s=1.0, j_range=range(-6, 7),
                                     freq_resolution=64)
        assert short == pytest.approx(longer, rel=1e-12)

    def test_parseval_at_order_zero(self):
        # H^0 is the plain square norm of the dyadic piece
        sym = decaying_symbol()
        n, B = 64, 4.0
        dxi = 2 * B / n
        ax = -B + (np.arange(n) + 0.5) * dxi
        X1, X2 = np.meshgrid(ax, ax, indexing="ij")
        piece = sym.bump(X1, X2) * sym.sigma(X1, X2)
        direct = math.sqrt(float(np.sum(np.abs(piece) ** 2)) * dxi * dxi)
        val = symbol_sobolev_norm(sym, s=0.0, j_range=[0], freq_halfwidth=B,
                                  freq_resolution=n)
        assert val == pytest.approx(direct, rel=1e-12)

    def test_decaying_symbol_norm_stable_in_j_range(self):
        sym = decaying_symbol()
        base = symbol_sobolev_norm(sym, s=1.6, j_range=range(-8, 9),
                                   freq_resolution=64)
        wider = symbol_sobolev_norm(sym, s=1.6, j_range=range(-12, 13),
                                    freq_resolution=64)
        assert math.isfinite(base)
        assert abs(wider - base) / base < 0.01

    def test_requires_exactly_one_order(self):
        sym = identity_symbol()
        with pytest.raises(ValueError):
            symbol_sobolev_norm(sym, s=1.0, s_vec=(1.0, 1.0))
        with pytest.raises(ValueError):
            symbol_sobolev_norm(sym)

    def test_vector_order_variant(self):
        sym = decaying_symbol()
        val = symbol_sobolev_norm(sym, s_vec=(0.8, 0.8), j_range=range(-4, 5),
                                  freq_resolution=64)
        assert math.isfinite(val) and val > 0


class TestAuxiliaryOperators:
    def test_rank_one_apply(self):
        g = grid(32)
        bump = smooth_bump(1.0)
        op = RankOneOperator(bump, bump, bump)
        f = gf(g, bump)
        out = op.apply(f, f)
        vol = g.cell_volume
        coef = float(np.sum(f.values * bump(g.flat_nodes())) * vol)
        np.testing.assert_allclose(out.values, coef ** 2 * bump(g.flat_nodes()),
                                   rtol=1e-12)

    def test_zero_operator(self):
        g = grid(16)
        out = ZeroOperator().apply(gf(g, smooth_bump(1.0)), gf(g, smooth_bump(1.0)))
        np.testing.assert_allclose(out.values, 0.0)

    def test_log_symbol_values(self):
        b = log_symbol()
        np.testing.assert_allclose(b(np.array([1.0, math.e])), [0.0, 1.0])
