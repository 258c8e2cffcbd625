"""Quadrature substrate tests: cube families, averages, weighted norms."""

import math

import numpy as np
import pytest

from wextrap import cli, grids
from wextrap.characterization import reverse_holder_check
from wextrap.grids import (Cube, CubeFamily, EvaluationError, Grid,
                           GridFunction, average, build_cube_family,
                           family_averages, family_extrema, weighted_lp_norm)
from wextrap.presets import preset_config
from wextrap.weights import (Exponents, LogBlowupWeight, PowerWeight,
                             bmo_norm,
                             bmo_quantities, muckenhoupt_constant,
                             muckenhoupt_pq_constant, multilinear_constant,
                             multilinear_limited_range_constant,
                             multilinear_offdiag_constant)

# Shifted families whose layers include level 0 and poke past the domain
# edge, off the origin, in one and two dimensions.
SHIFTED = [CubeFamily(1, 2.0, 0, 4, shifts=(0.0, 0.5), origin=(0.3,)),
           CubeFamily(1, 4.0, 0, 3, shifts=(0.0, 0.25, 0.75)),
           CubeFamily(2, 1.5, 0, 2, shifts=(0.0, 0.5), origin=(-0.7, 0.2))]


def layer_nodes(family, resolution):
    """The unwrapped quadrature nodes of every layer, flattened."""
    for _, _, centers, side in family.batches():
        nodes = grids._batch_nodes(centers, side, resolution)
        yield nodes.reshape(-1) if family.dim == 1 else nodes.reshape(-1, 2)


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

    @pytest.mark.parametrize("shifts", [(0.0, 1.0), (0.0, 0.0), (2.0,),
                                        (-0.25,), (0.0, 0.5, 0.5)])
    def test_rejects_shifts_that_repeat_cubes(self, shifts):
        # A shift of 1 or 2 lays the level's cubes again, a negative one
        # aliases into [0, 1), and a repeated one doubles a layer.
        with pytest.raises(ValueError, match="shifts"):
            CubeFamily(1, 1.0, 0, 2, shifts=shifts)

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


class TestWrap:
    @staticmethod
    def remainder_wrap(family, x):
        L = family.half_width
        o = np.asarray(family.origin) if family.dim == 2 else family.origin[0]
        return (x - o + L) % (2.0 * L) - L + o

    @pytest.mark.parametrize("fam", SHIFTED, ids=["1d", "1d-3shifts", "2d"])
    def test_fold_equals_remainder_on_every_node(self, fam):
        wrap = fam.node_transform()
        for x in layer_nodes(fam, 8):
            before = x.copy()
            assert np.array_equal(wrap(x), self.remainder_wrap(fam, x))
            assert np.array_equal(x, before)

    def test_edges_of_the_fold_range(self):
        # With L = 2 the fold covers x - o + L in [-4, 8); the edges of its
        # two folds, and arrays reaching past it, which take the remainder.
        fam = CubeFamily(1, 2.0, 0, 1, shifts=(0.0, 0.5))
        inside = np.array([-6.0, -4.0 - 1e-15, -4.0, -2.0, -1e-300, 0.0, 2.0,
                           2.0 + 1e-15, 6.0 - 1e-15])
        for x in (inside, np.append(inside, 6.0), np.append(inside, -6.5),
                  np.array([-9.0, 11.3, 17.0])):
            assert np.array_equal(fam.node_transform()(x),
                                  self.remainder_wrap(fam, x))


class TestDoublingReuse:
    # Half-widths off the dyadic rationals, so that another center formula
    # would round differently.
    @pytest.mark.parametrize("fam", [CubeFamily(1, 1.3, 0, 5, origin=(0.3,)),
                                     CubeFamily(2, 0.7, 1, 4,
                                                origin=(-0.7, 0.2))],
                             ids=["1d", "2d"])
    def test_subcube_centers_are_the_family_centers(self, fam):
        layers = {level: (centers, side)
                  for level, _, centers, side in fam.batches()}
        for level in fam.levels():
            index = np.arange(len(layers[level][0]))
            for k in range(1, fam.max_level - level + 1):
                sub = grids.subcube_index(fam.dim, level, index, k)
                assert np.array_equal(np.sort(sub.ravel()),
                                      np.arange(len(layers[level + k][0])))
                own = fam.subcube_centers(level, 0.0, sub.ravel(), k)
                assert np.array_equal(own, layers[level + k][0][sub.ravel()])
                assert fam.side(level + k) == layers[level + k][1]

    @pytest.mark.parametrize("fam", SHIFTED, ids=["1d", "1d-3shifts", "2d"])
    def test_subcube_nodes_are_the_doubled_nodes(self, fam):
        # Shifted layers have no held sub-cubes: their sub-cube nodes, once
        # wrapped, are the cube's nodes at the doubled resolution.
        wrap = fam.node_transform()
        for level, shift, centers, side in fam.batches():
            for k in (1, 2, 3):
                sub = grids.subcube_index(fam.dim, level,
                                           np.arange(len(centers)), k)
                own = fam.subcube_centers(level, shift, sub.ravel(), k)
                nodes = grids._batch_nodes(own, fam.side(level + k), 4)
                doubled = grids._batch_nodes(centers, side, 4 * 2 ** k)
                shape = (len(centers), -1) + nodes.shape[2:]
                assert np.allclose(np.sort(wrap(nodes.reshape(shape)), axis=1),
                                   np.sort(wrap(doubled), axis=1),
                                   rtol=0, atol=1e-12)

    def test_single_cube_family_has_the_cube_nodes(self):
        for cube in (Cube((0.3,), 1.7), Cube((-0.7, 0.2), 0.3)):
            fam = CubeFamily(cube.dim, cube.side / 2, 0, 0, origin=cube.center)
            [(_, _, centers, side)] = fam.batches()
            assert side == cube.side
            assert np.array_equal(grids._batch_nodes(centers, side, 16)[0],
                                  cube.nodes(16))

    CASES = [
        (CubeFamily(1, 4.0, 0, 6), PowerWeight((0.0,), -1.5)),
        (CubeFamily(1, 4.0, 0, 6), PowerWeight((0.0,), -1)),
        (CubeFamily(1, 4.0, 0, 6), PowerWeight((0.0,), -0.5)),
        (CubeFamily(1, 4.0, 0, 6), PowerWeight((0.37,), -5 / 6)),
        (CubeFamily(1, 4.0, 0, 6), LogBlowupWeight((0.0,))),
        (CubeFamily(1, 4.0, 0, 5, shifts=(0.0, 0.5)), PowerWeight((0.0,), -1)),
        (CubeFamily(2, 2.0, 0, 3), PowerWeight((0.0, 0.0), -2)),
        (CubeFamily(2, 2.0, 0, 3), PowerWeight((0.3, -0.7), -1))]
    CASE_IDS = ["divergent", "log-borderline", "integrable", "off-node",
                "log-blowup", "shifted", "2d-borderline", "2d-integrable"]

    @pytest.mark.parametrize("fam, w", CASES, ids=CASE_IDS)
    def test_averages_are_a_prefix_of_the_grown_family(self, fam, w):
        small = family_averages(fam, w, 8)
        grown = family_averages(fam.grown(3), w, 8)
        assert np.array_equal(small, grown[:len(fam)])

    @pytest.mark.parametrize("fam, w", CASES, ids=CASE_IDS)
    def test_read_doublings_equal_evaluated_ones(self, monkeypatch, fam, w):
        # Every doubling of every cube, whether the family evaluates its
        # sub-cubes (top levels) or reads them (grown family), bit for bit.
        seen = []
        chain = grids._divergence_chain

        def spy(v0, doubled):
            index = np.arange(len(v0))
            seen.append([v0] + [doubled(index, k) for k in (1, 2, 3)])
            return chain(v0, doubled)

        monkeypatch.setattr(grids, "_divergence_chain", spy)
        family_averages(fam, w, 8)
        small, seen[:] = seen[:], []
        family_averages(fam.grown(3), w, 8)
        for a, b in zip(small, seen):
            for x, y in zip(a, b):
                assert np.array_equal(x, y)

    @pytest.mark.parametrize("fam, w", CASES, ids=CASE_IDS)
    def test_doublings_match_direct_midpoint_means(self, monkeypatch, fam, w):
        # The k-th doubling is the mean over the cube at 2^k times the base
        # resolution, up to rounding.
        seen = []
        chain = grids._divergence_chain

        def spy(v0, doubled):
            seen.append([doubled(np.arange(len(v0)), k) for k in (1, 2, 3)])
            return chain(v0, doubled)

        monkeypatch.setattr(grids, "_divergence_chain", spy)
        family_averages(fam, w, 4)
        wrap = fam.node_transform() or (lambda x: x)
        for (_, _, centers, side), doublings in zip(fam.batches(), seen):
            for k, got in zip((1, 2, 3), doublings):
                nodes = grids._batch_nodes(centers, side, 4 * 2 ** k)
                flat = nodes.reshape(-1) if fam.dim == 1 else nodes.reshape(-1, 2)
                direct = grids._evaluate(w, wrap(flat), side / (4 * 2 ** k))
                assert np.allclose(got, direct.reshape(len(centers), -1).mean(axis=1),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_unshifted_family_reads_all_but_the_top_doublings(self, dim):
        # No cube of a constant grows, so each chain stops after its first
        # doubling, and only the top level's doubling is evaluated.
        fam = CubeFamily(dim, 2.0, 1, 4)
        points = []

        def counting(x):
            points.append(len(x))
            return np.ones(len(x))

        assert np.array_equal(family_averages(fam, counting, 8),
                              np.ones(len(fam)))
        top = (2 ** fam.max_level) ** dim
        assert sum(points) == len(fam) * 8 ** dim + top * (2 * 8) ** dim


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


class Counting:
    """A hashable function that counts the points it is evaluated at."""

    def __init__(self, fn):
        self.fn, self.points = fn, 0

    def __call__(self, x):
        self.points += len(x)
        return self.fn(x)


class TestQuadratureMemo:
    FAM = CubeFamily(1, 4.0, 0, 4, shifts=(0.0, 0.5), origin=(0.3,))

    def counting(self):
        return Counting(PowerWeight((0.3,), -1))

    def test_memo_exists_only_inside_its_scope(self):
        assert grids._memo is None
        with grids.quadrature_memo():
            outer = grids._memo
            assert outer == {}
            with grids.quadrature_memo():
                assert grids._memo == {} and grids._memo is not outer
            assert grids._memo is outer
        assert grids._memo is None

    def test_scope_is_left_on_an_exception(self):
        with pytest.raises(EvaluationError):
            with grids.quadrature_memo():
                family_averages(self.FAM, lambda x: np.full(len(x), np.nan), 8)
        assert grids._memo is None

    def test_grown_then_base_reads_the_prefix(self):
        w = self.counting()
        plain = family_averages(self.FAM, w, 8)
        grown = family_averages(self.FAM.grown(2), w, 8)
        with grids.quadrature_memo():
            assert np.array_equal(family_averages(self.FAM.grown(2), w, 8), grown)
            w.points = 0
            for _ in range(2):
                assert np.array_equal(family_averages(self.FAM, w, 8), plain)
            assert w.points == 0

    def test_base_then_grown_evaluates_again(self):
        w = self.counting()
        grown = family_averages(self.FAM.grown(2), w, 8)
        with grids.quadrature_memo():
            family_averages(self.FAM, w, 8)
            w.points = 0
            assert np.array_equal(family_averages(self.FAM.grown(2), w, 8), grown)
            assert w.points > 0
            # the grown values replaced the base ones
            w.points = 0
            family_averages(self.FAM.grown(1), w, 8)
            assert w.points == 0

    @pytest.mark.parametrize("other", [
        {"resolution": 16},
        {"family": CubeFamily(1, 4.0, 0, 4, origin=(0.3,))},
        {"family": CubeFamily(1, 4.0, 0, 4, shifts=(0.0, 0.5))}],
        ids=["resolution", "shifts", "origin"])
    def test_keys_differing_in_one_part_share_nothing(self, other):
        w = self.counting()
        args = {"family": self.FAM, "fn": w, "resolution": 8}
        expected = family_averages(**{**args, **other})
        with grids.quadrature_memo():
            family_averages(**args)
            w.points = 0
            assert np.array_equal(family_averages(**{**args, **other}), expected)
            assert w.points > 0
            assert len(grids._memo) == 2

    def test_writing_into_a_result_leaves_the_memo(self):
        w = self.counting()
        plain = family_averages(self.FAM, w, 8)
        with grids.quadrature_memo():
            for _ in range(2):
                out = family_averages(self.FAM, w, 8)
                out[:] = -1.0
            assert np.array_equal(family_averages(self.FAM, w, 8), plain)

    def test_each_run_is_one_scope(self, monkeypatch):
        seen = []
        run = cli._RUNNERS["weight-constant"]

        def spy(cfg, **parsed):
            seen.append((grids._memo, len(grids._memo)))
            return run(cfg, **parsed)

        def fail(cfg, **parsed):
            family_averages(self.FAM, self.counting(), 8)
            raise FloatingPointError("class constant produced NaN")

        cfg = preset_config("unit-weight-ap")
        monkeypatch.setitem(cli._RUNNERS, "weight-constant", spy)
        for _ in range(2):
            assert cli.run_experiment(cfg)[0] == cli.EXIT_OK
            assert grids._memo is None
        [(first, empty), (second, also_empty)] = seen
        assert empty == also_empty == 0 and first and second is not first
        assert cli.run_experiment({"experiment": "solve-theta"})[0] \
            == cli.EXIT_CONFIG
        assert grids._memo is None
        monkeypatch.setitem(cli._RUNNERS, "weight-constant", fail)
        assert cli.run_experiment(cfg)[0] == cli.EXIT_COMPUTE
        assert grids._memo is None

    def test_class_constants_equal_outside_and_inside(self):
        w1, w2 = PowerWeight((0.3,), -0.5), PowerWeight((0.0,), 1.5)
        p = Exponents((2, 3))
        constants = [
            lambda f: muckenhoupt_constant(w1, 2, f, 8),
            lambda f: muckenhoupt_constant(w2, 1, f, 8),
            lambda f: muckenhoupt_constant(PowerWeight((0.0,), -1), 2, f, 8),
            lambda f: muckenhoupt_pq_constant(w1, 2, 3, f, 8),
            lambda f: multilinear_constant((w1, w2), p, f, 8),
            lambda f: multilinear_limited_range_constant(
                (w1, w2), p, Exponents((1, 3)), f, 8),
            lambda f: multilinear_offdiag_constant((w1, w2), p, 2, f, 8),
            lambda f: bmo_norm(LogBlowupWeight((0.0,)), f, 8)]

        def results():
            # the base family is served from the grown one, then repeated
            out = []
            for f in (self.FAM.grown(2), self.FAM, self.FAM):
                out += [(r.value, r.quantities) for r in (c(f) for c in constants)]
                out += [reverse_holder_check(w, 1.5, 2.0, f, 8)
                        for w in (w1, w2)]
            return out

        plain = results()
        with grids.quadrature_memo():
            memoized = results()
        assert len(plain) == len(memoized)
        for a, b in zip(plain, memoized):
            assert a[0] == b[0] and np.array_equal(a[1], b[1])


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
