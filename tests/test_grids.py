"""Quadrature substrate tests: cube families, averages, weighted norms."""

import math

import numpy as np
import pytest

from wextrap import grids
from wextrap.grids import (Cube, CubeFamily, EvaluationError, Grid,
                           GridFunction, average, build_cube_family,
                           family_averages, family_extrema, weighted_lp_norm)
from wextrap.weights import PowerWeight, bmo_quantities


class TestCubeFamily:
    def test_single_level_single_shift(self):
        fam = build_cube_family(1, 1.0, 0, 0)
        cubes = fam.cubes()
        assert len(cubes) == 1
        assert cubes[0].center == (0.0,)
        assert cubes[0].side == 2.0

    def test_dyadic_count_per_level(self):
        fam = build_cube_family(1, 1.0, 0, 2)
        assert len(fam) == 1 + 2 + 4
        assert len(fam.cubes()) == 7

    def test_shifted_2d_count(self):
        fam = build_cube_family(2, 1.0, 0, 1, [0.0, 0.5])
        assert len(fam) == 2 * (1 + 4)
        assert len(fam.cubes()) == 10

    def test_rejects_unsupported_dimension(self):
        with pytest.raises(ValueError):
            build_cube_family(3, 1.0, 0, 1)

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            build_cube_family(1, 1.0, 3, 1)

    def test_shifted_nodes_wrap_into_domain(self):
        fam = build_cube_family(1, 1.0, 0, 3, [0.0, 0.25, 0.5])
        wrap = fam.node_transform()
        for cube in fam.cubes():
            nodes = wrap(cube.nodes(8))
            assert np.all(np.abs(nodes) <= 1.0 + 1e-12)

    def test_unshifted_cubes_inside_domain(self):
        fam = build_cube_family(1, 1.0, 0, 3)
        assert fam.node_transform() is None
        for cube in fam.cubes():
            assert np.all(np.abs(cube.nodes(8)) <= 1.0 + 1e-12)

    def test_grown_extends_max_level(self):
        fam = build_cube_family(1, 2.0, 1, 3)
        grown = fam.grown(2)
        assert grown.max_level == 5
        assert grown.min_level == 1
        assert len(grown) > len(fam)


class TestAverage:
    def test_constant(self):
        cube = Cube((0.3,), 1.7)
        assert average(lambda x: np.full_like(x, 4.2), cube, 16) == pytest.approx(4.2)

    def test_linear_on_unit_interval(self):
        cube = Cube((0.5,), 1.0)
        assert average(lambda x: x, cube, 64) == pytest.approx(0.5, abs=1e-14)

    def test_sqrt_matches_antiderivative(self):
        cube = Cube((0.5,), 1.0)
        val = average(lambda x: np.sqrt(np.abs(x)), cube, 2 ** 14)
        assert abs(val - 2.0 / 3.0) < 1e-6

    def test_nonintegrable_flagged_infinite(self):
        cube = Cube((0.0,), 2.0)
        assert average(lambda x: 1.0 / np.abs(x), cube, 64) == math.inf
        assert average(lambda x: np.abs(x) ** -1.5, cube, 64) == math.inf

    def test_integrable_singularity_not_flagged(self):
        cube = Cube((0.0,), 2.0)
        val = average(lambda x: np.abs(x) ** -0.5, cube, 64)
        assert math.isfinite(val)
        assert val == pytest.approx(2.0, rel=0.07)

    def test_rejects_tiny_resolution(self):
        with pytest.raises(ValueError):
            average(lambda x: x, Cube((0.0,), 1.0), 1)
        fam = build_cube_family(1, 1.0, 0, 2)
        for reduce in (family_averages, family_extrema):
            with pytest.raises(ValueError):
                reduce(fam, lambda x: x, 1)

    def test_unevaluable_function_raises(self):
        cube = Cube((0.0,), 2.0)
        with pytest.raises(EvaluationError):
            average(lambda x: np.full_like(x, np.nan), cube, 8)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        cube = Cube((0.2,), 1.3)
        f = lambda x: np.sin(x)
        g = lambda x: x ** 2
        for _ in range(20):
            a, b = rng.uniform(-3, 3, 2)
            combo = average(lambda x: a * f(x) + b * g(x), cube, 32)
            parts = a * average(f, cube, 32) + b * average(g, cube, 32)
            assert combo == pytest.approx(parts, abs=1e-12)

    def test_monotonicity(self):
        rng = np.random.default_rng(11)
        cube = Cube((-0.4,), 2.2)
        for _ in range(20):
            c = rng.uniform(0, 2)
            lo = average(lambda x: np.cos(x), cube, 32)
            hi = average(lambda x: np.cos(x) + c, cube, 32)
            assert lo <= hi + 1e-15

    def test_two_dimensional_average(self):
        cube = Cube((0.0, 0.0), 2.0)
        val = average(lambda x: x[:, 0] ** 2 + x[:, 1] ** 2, cube, 64)
        assert val == pytest.approx(2.0 / 3.0, rel=1e-3)

    def test_family_averages_order_and_values(self):
        fam = build_cube_family(1, 1.0, 0, 1)
        vals = family_averages(fam, lambda x: x, 32)
        assert vals == pytest.approx([0.0, -0.5, 0.5], abs=1e-14)

    def test_node_reductions_match_per_cube_wrapped_nodes(self):
        # Cubes of the 0.25-shifted layer poke past the domain edge, and fn
        # is not periodic, so the reductions see the wrap.
        fam = CubeFamily(2, 1.0, 0, 2, shifts=(0.0, 0.25))
        wrap = fam.node_transform()

        def fn(x):
            return x[:, 0] + 2.0 * x[:, 1] ** 2

        per_cube = [fn(wrap(cube.nodes(8))) for cube in fam.cubes()]
        assert np.array_equal(family_extrema(fam, fn, 8, mode="min"),
                              [v.min() for v in per_cube])
        assert np.array_equal(family_extrema(fam, fn, 8, mode="max"),
                              [v.max() for v in per_cube])
        assert np.array_equal(bmo_quantities(fn, fam, 8),
                              [np.abs(v - v.mean()).mean() for v in per_cube])


class TestLayerSlices:
    @pytest.mark.parametrize("fam, resolution", [
        (CubeFamily(1, 4.0, 0, 6, shifts=(0.0, 0.25)), 16),
        (CubeFamily(2, 2.0, 0, 3), 8)], ids=["1d-shifted", "2d"])
    def test_slices_do_not_move_a_bit(self, monkeypatch, fam, resolution):
        # Exponent -d diverges at the origin, so cubes next to it run the
        # whole doubling chain and others leave it early; -d/2 converges.
        d = fam.dim
        fns = [PowerWeight((0.0,) * d, a) for a in (-d, -d / 2)]

        def reductions():
            out = []
            for fn in fns:
                out += [family_averages(fam, fn, resolution),
                        family_extrema(fam, fn, resolution, mode="min"),
                        family_extrema(fam, fn, resolution, mode="max"),
                        grids.family_oscillations(fam, fn, resolution)]
            return out

        monkeypatch.setattr(grids, "_BATCH_NODES", 2 ** 40)
        whole = reductions()
        monkeypatch.setattr(grids, "_BATCH_NODES", 3 * resolution ** d)
        sliced = reductions()
        assert np.isinf(whole[0]).any() and np.isfinite(whole[0]).any()
        for a, b in zip(whole, sliced):
            assert np.array_equal(a, b)


class TestWeightedNorm:
    def test_unit_function(self):
        g = Grid(1, 64, 1.0)
        f = GridFunction(g, np.ones(64))
        assert weighted_lp_norm(f, 2) == pytest.approx(math.sqrt(2.0))

    def test_zero_function(self):
        g = Grid(1, 32, 1.0)
        f = GridFunction(g, np.zeros(32))
        for p in (0.5, 1, 2, 4):
            assert weighted_lp_norm(f, p) == 0.0

    def test_coordinate_function(self):
        g = Grid(1, 2 ** 10, 1.0)
        f = GridFunction.from_callable(g, lambda x: x)
        assert abs(weighted_lp_norm(f, 2) - math.sqrt(2.0 / 3.0)) < 1e-4

    def test_scaling_law_exact(self):
        rng = np.random.default_rng(3)
        g = Grid(1, 128, 2.0)
        f = GridFunction(g, rng.normal(size=128))
        for c in (-3.0, 0.5, 7.25):
            lhs = weighted_lp_norm(f.map(lambda v: c * v), 3.0)
            assert lhs == pytest.approx(abs(c) * weighted_lp_norm(f, 3.0), rel=1e-13)

    def test_square_matches_plain_quadrature(self):
        rng = np.random.default_rng(5)
        g = Grid(1, 256, 4.0)
        f = GridFunction(g, rng.normal(size=256))
        plain = float(np.sum(np.abs(f.values) ** 2)) * g.cell_volume
        assert weighted_lp_norm(f, 2) ** 2 == pytest.approx(plain, rel=1e-13)

    def test_rejects_nonpositive_exponent(self):
        g = Grid(1, 32, 1.0)
        f = GridFunction(g, np.ones(32))
        with pytest.raises(ValueError):
            weighted_lp_norm(f, 0)


class TestGridFunction:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            Grid(1, 100, 1.0)

    def test_shape_checked(self):
        g = Grid(2, 8, 1.0)
        with pytest.raises(ValueError):
            GridFunction(g, np.ones(8))
        GridFunction(g, np.ones((8, 8)))

    def test_nodes_avoid_origin(self):
        g = Grid(1, 64, 4.0)
        assert np.all(np.abs(g.axis_nodes()) > 1e-12)
