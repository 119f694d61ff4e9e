import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (_homology_reps, active_oracle, boundary_1_oracle,
                     boundary_2_oracle, cover_matrix, dim, image_basis, top,
                     image_bifiltration_homology_oracle,
                     sublevel_rips_h0_oracle)
from pmodcalc import generators
from pmodcalc.calculus import NotAComplex, min_cross_codegree, min_cross_degree
from pmodcalc.generators import (CubicalComplex, EulerCountMismatch, ImageGrid,
                                 MetricFunctionSpace, UnsupportedDimension,
                                 image_bifiltration_homology, random_image,
                                 random_metric_space, sublevel_intersection_check,
                                 sublevel_rips_h0)
from pmodcalc.linalg import FieldSpec, Matrix, hstack, kernel_basis, rank, rref
from pmodcalc.resolution import pdim
from pmodcalc.verify import run_suite


class TestImageGrid:
    def test_parse_and_shape(self):
        text = """# tiny two-channel image
        2 2 2 1
        0 1
        1 0
        1 1
        0 0
        """
        img = ImageGrid.parse(text)
        assert (img.width, img.height, img.channels, img.max_value) == (2, 2, 2, 1)
        assert img.values[0][0] == (0, 1)
        assert img.values[1][1] == (0, 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ImageGrid.from_lists([[[0, 5]]], 2)

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            ImageGrid.from_lists([[[0, 1], [0]]], 2)

    def test_cost_cap_boundary(self):
        # Constructed only: levels x pixels^2 is checked before any complex.
        assert generators.MAX_IMAGE_COST == 16 * 1024 ** 2
        img = ImageGrid.from_lists([[[0] * 32] * 32], 15)  # 16 levels
        assert (img.width, img.height) == (32, 32)
        two = ImageGrid.from_lists([[[0] * 32] * 16] * 2, 3)  # 512 pixels, 64 levels
        assert two.channels == 2
        with pytest.raises(ValueError, match=r"image of 1024 pixels at 17 threshold levels "
                           r"costs 17825792 \(levels x pixels\^2\), more than the cap "
                           r"of 16777216"):
            ImageGrid.from_lists([[[0] * 32] * 32], 16)
        with pytest.raises(ValueError, match="525 pixels at 64 threshold levels"):
            ImageGrid.from_lists([[[0] * 25] * 21] * 2, 7)

    @pytest.mark.parametrize("header", ["1 0 1 1", "2 1 0 1", "0 1 1 1\n0"],
                             ids=["no-rows", "no-channels", "no-columns"])
    def test_parse_rejects_empty_shapes(self, header):
        with pytest.raises(ValueError, match="at least one"):
            ImageGrid.parse(header + "\n")

    @pytest.mark.parametrize("channels", [[], [[]]], ids=["no-channels", "no-rows"])
    def test_from_lists_rejects_empty_shapes(self, channels):
        with pytest.raises(ValueError, match="at least one"):
            ImageGrid.from_lists(channels, 1)


class TestCubicalComplex:
    def test_cell_counts(self):
        img = ImageGrid.from_lists([[[0, 0, 0], [0, 0, 0], [0, 0, 0]]], 1)
        c = CubicalComplex(img)
        assert len(c.vertices) == 9
        assert len(c.edges) == 12
        assert len(c.squares) == 4

    def test_filtration_monotone_under_faces(self):
        rng = random.Random(0)
        img = random_image(rng, 4, 4, channels=2, max_value=2)
        c = CubicalComplex(img)
        for (u, v), f in zip(c.edges, c.edge_filt):
            assert all(a <= b for a, b in zip(c.vertex_filt[u], f))
            assert all(a <= b for a, b in zip(c.vertex_filt[v], f))

    def test_boundary_squares(self, gf2):
        img = ImageGrid.from_lists([[[0, 0], [0, 0]]], 1)
        c = CubicalComplex(img)
        av, ae, aq = c.active((1,))
        d1 = boundary_1_oracle(c, gf2, av, ae)
        d2 = boundary_2_oracle(c, gf2, ae, aq)
        assert (d1 @ d2).is_zero()


class TestImagePipeline:
    def test_constant_image_h0_constant(self, gf2):
        img = ImageGrid.from_lists([[[0, 0], [0, 0]]], 1)
        h0 = image_bifiltration_homology(img, 0, gf2)
        assert all(dim(h0, el) == 1 for el in h0.lattice.elements)

    def test_no_loops_h1_zero(self, gf2):
        img = ImageGrid.from_lists([[[0, 1], [1, 1]]], 1)
        h1 = image_bifiltration_homology(img, 1, gf2)
        assert h1.is_zero()

    def test_ring_image_h1(self, gf2):
        # A high-valued center pixel leaves an 8-pixel ring: one loop until
        # the center enters, then the loop fills in.
        img = ImageGrid.from_lists(
            [[[0, 0, 0], [0, 2, 0], [0, 0, 0]]], 2)
        h1 = image_bifiltration_homology(img, 1, gf2)
        assert h1.dims_by_element() == {"0": 1, "1": 1, "2": 0}
        assert cover_matrix(h1, "0", "1") == cover_matrix(h1, "0", "1")
        assert rank(cover_matrix(h1, "0", "1")) == 1
        assert cover_matrix(h1, "1", "2").is_zero()

    def test_two_channel_bounds(self, gf2):
        for seed in range(4):
            rng = random.Random(f"img{seed}")
            img = random_image(rng, 4, 4, channels=2, max_value=2)
            h1 = image_bifiltration_homology(img, 1, gf2)
            h1.validate()
            assert min_cross_degree(h1) <= 1
            assert pdim(h1) <= 1

    def test_euler_characteristic_identity(self, gf2):
        # Independent cross-check: for a 2-complex, V - E + Q equals
        # dim H0 - dim H1 at every threshold.
        for seed in range(4):
            rng = random.Random(f"euler{seed}")
            img = random_image(rng, 4, 4, channels=2, max_value=2)
            h0 = image_bifiltration_homology(img, 0, gf2)
            h1 = image_bifiltration_homology(img, 1, gf2)
            complex_ = CubicalComplex(img)
            for el in h0.lattice.elements:
                level = tuple(int(c) for c in el.split(","))
                av, ae, aq = complex_.active(level)
                chi = len(av) - len(ae) + len(aq)
                assert chi == dim(h0, el) - dim(h1, el), (seed, el)

    def test_three_channel_image(self, gf2):
        rng = random.Random("3chan")
        img = random_image(rng, 3, 3, channels=3, max_value=1)
        h1 = image_bifiltration_homology(img, 1, gf2)
        assert h1.lattice.n == 8
        h1.validate()
        h0 = image_bifiltration_homology(img, 0, gf2)
        assert all(dim(h0, el) >= 1 for el in h0.lattice.elements
                   if el == top(h0.lattice))

    def test_four_channels_rejected(self, gf2):
        rng = random.Random("4chan")
        img = random_image(rng, 2, 2, channels=4, max_value=1)
        with pytest.raises(UnsupportedDimension):
            image_bifiltration_homology(img, 1, gf2)

    def test_sublevel_check_runs_on_every_pipeline_trial(self):
        report = run_suite("pipelines", seed=0, trials=4)
        stat = report.properties["image-sublevel-intersections"]
        assert (stat.passed, stat.failed) == (4, 0)

    def test_sublevel_intersections(self):
        rng = random.Random("mv")
        img = random_image(rng, 4, 4, channels=2, max_value=2)
        assert sublevel_intersection_check(img)

    def test_unsupported_degree(self, gf2):
        img = ImageGrid.from_lists([[[0]]], 1)
        with pytest.raises(UnsupportedDimension):
            image_bifiltration_homology(img, 2, gf2)

    @pytest.mark.parametrize("delta", [1, -1])
    def test_wrong_euler_count_raises(self, gf2, monkeypatch, delta):
        # The ring image has H1 = 1 at levels 0 and 1 and 0 at level 2, so
        # a count off by one in either direction meets an elimination.
        img = ImageGrid.from_lists([[[0, 0, 0], [0, 2, 0], [0, 0, 0]]], 2)
        count = generators._h1_count
        monkeypatch.setattr(generators, "_h1_count",
                            lambda *sizes: count(*sizes) + delta)
        with pytest.raises(EulerCountMismatch, match="Euler count"):
            image_bifiltration_homology(img, 1, gf2)

    def test_wrong_square_sign_raises(self, monkeypatch):
        # One square's top edge enters with +1 instead of -1: over F_3 its
        # boundary is no cycle, and H1 must not be built on it.
        img = ImageGrid.from_lists([[[0, 0, 0], [0, 2, 0], [0, 0, 0]]], 2)
        boundary = CubicalComplex.square_boundary

        def wrong(self, q, p):
            bottom, right, (top_edge, _), left = boundary(self, q, p)
            return (bottom, right, (top_edge, 1), left) if q == 0 else boundary(self, q, p)

        generators._sublevels.cache_clear()
        monkeypatch.setattr(CubicalComplex, "square_boundary", wrong)
        with pytest.raises(NotAComplex, match="square boundary"):
            image_bifiltration_homology(img, 1, FieldSpec(3))

    def test_wrong_representative_raises(self, monkeypatch):
        # A forest cycle with one coefficient doubled has a nonzero boundary
        # over F_3; the ring image has a representative at levels 0 and 1.
        img = ImageGrid.from_lists([[[0, 0, 0], [0, 2, 0], [0, 0, 0]]], 2)
        cycle = generators._forest_cycle

        def wrong(edges, forest, f, p):
            return {**cycle(edges, forest, f, p), f: 2}

        monkeypatch.setattr(generators, "_forest_cycle", wrong)
        with pytest.raises(NotAComplex, match="representative at 0 is not a cycle"):
            image_bifiltration_homology(img, 1, FieldSpec(3))


class TestSublevelMemo:
    """One image's filtration is built once for H0, H1 and the intersection
    check in a row, whatever the field, and only the last image is kept."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        generators._sublevels.cache_clear()
        yield
        generators._sublevels.cache_clear()

    def test_one_complex_for_both_degrees(self, gf2, monkeypatch):
        built = []

        class Counted(CubicalComplex):
            def __init__(self, img):
                built.append(img)
                super().__init__(img)

        monkeypatch.setattr(generators, "CubicalComplex", Counted)
        img = random_image(random.Random("memo"), 5, 5)
        for degree in (0, 1):
            image_bifiltration_homology(img, degree, gf2)
        assert sublevel_intersection_check(img)
        image_bifiltration_homology(img, 1, FieldSpec(3))
        assert len(built) == 1
        other = random_image(random.Random("memo-other"), 5, 5)
        image_bifiltration_homology(other, 0, gf2)
        image_bifiltration_homology(img, 0, gf2)
        assert built == [img, other, img]
        assert generators._sublevels.cache_info().currsize == 1

    def test_interleaved_images_and_fields_match_the_oracle(self):
        a, b = (random_image(random.Random(s), 5, 5) for s in ("memo-a", "memo-b"))
        gf2, gf3 = FieldSpec(2), FieldSpec(3)
        for img, field, degree in [(a, gf2, 0), (a, gf3, 1), (b, gf2, 0), (a, gf2, 1),
                                   (b, gf3, 1), (b, gf2, 1), (a, gf3, 0)]:
            assert (image_bifiltration_homology(img, degree, field)
                    == image_bifiltration_homology_oracle(img, degree, field)), (degree, field)

    def test_equal_distinct_images_give_equal_modules(self, gf2):
        img = random_image(random.Random("memo-twin"), 5, 5)
        twin = ImageGrid.from_lists(img.values, img.max_value)
        assert twin == img and twin is not img
        for degree in (0, 1):
            h = image_bifiltration_homology(img, degree, gf2)
            assert image_bifiltration_homology(twin, degree, gf2) == h
            generators._sublevels.cache_clear()
            assert image_bifiltration_homology(twin, degree, gf2) == h


def _components(complex_: CubicalComplex, av: list[int], ae: list[int]) -> int:
    """The number of components of the active pixel graph, by search."""
    nbrs: dict[int, list[int]] = {v: [] for v in av}
    for e in ae:
        u, v = complex_.edges[e]
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen: set[int] = set()
    count = 0
    for start in av:
        if start not in seen:
            count += 1
            seen.add(start)
            stack = [start]
            while stack:
                for w in nbrs[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
    return count


@st.composite
def images(draw) -> ImageGrid:
    channels, width, height = (draw(st.integers(1, 3)), draw(st.integers(1, 6)),
                               draw(st.integers(1, 6)))
    top = draw(st.integers(1, 3))
    pixels = st.lists(st.integers(0, top), min_size=width, max_size=width)
    chans = draw(st.lists(st.lists(pixels, min_size=height, max_size=height),
                          min_size=channels, max_size=channels))
    return ImageGrid.from_lists(chans, top)


@settings(max_examples=60, deadline=None)
@given(img=images(), p=st.sampled_from([2, 3]))
def test_image_homology_matches_the_oracle(img, p):
    """H0 and H1 equal the elimination at every threshold; every H1 dim is
    the Euler count |E| - |V| + c - |Q|, with c found by search; and the
    sublevel cells are those of the per-cell definition."""
    field = FieldSpec(p)
    h0, h1 = (image_bifiltration_homology(img, d, field) for d in (0, 1))
    assert h0 == image_bifiltration_homology_oracle(img, 0, field)
    assert h1 == image_bifiltration_homology_oracle(img, 1, field)
    complex_ = CubicalComplex(img)
    levels = itertools.product(range(img.max_value + 1), repeat=img.channels)
    for i, level in enumerate(levels):
        av, ae, aq = active_oracle(complex_, level)
        assert complex_.active(level) == (av, ae, aq)
        c = _components(complex_, av, ae)
        assert h0.dim_i(i) == c
        assert h1.dim_i(i) == len(ae) - len(av) + c - len(aq)


@settings(max_examples=60, deadline=None)
@given(img=images(), p=st.sampled_from([2, 3, 5]))
def test_free_coordinates_match_the_elimination(img, p):
    """At every threshold: the free edges are the non-pivot columns of
    rref(d1), and the forest cycle of each is that column of
    kernel_basis(d1); the chosen free edges are the cycles _homology_reps
    picks against image_basis(d2); and the coordinate map times
    [the units at the chosen edges | d2 on the free rows] is [I | 0]."""
    field, complex_ = FieldSpec(p), CubicalComplex(img)
    for level in itertools.product(range(img.max_value + 1), repeat=img.channels):
        av, ae, aq = complex_.active(level)
        d1 = boundary_1_oracle(complex_, field, av, ae)
        d2 = boundary_2_oracle(complex_, field, ae, aq)
        pos, chosen, forest, coords = generators._h1_on_free_edges(complex_, field, ae, aq)
        free, pivots = list(pos), set(rref(d1)[1])
        assert free == [e for j, e in enumerate(ae) if j not in pivots]
        cycles = kernel_basis(d1)
        for k, f in enumerate(free):
            chain = generators._forest_cycle(complex_.edges, forest, f, p)
            column = Matrix(field, len(ae), 1, [[chain.get(e, 0)] for e in ae])
            assert column == cycles.take_cols([k])
        picked = [free.index(f) for f in chosen]
        assert _homology_reps(cycles, image_basis(d2)) == cycles.take_cols(picked)
        units = Matrix.identity(field, len(free)).take_cols(picked)
        square = hstack([units, d2.take_rows([ae.index(e) for e in free])])
        assert square.ncols == len(free)
        assert coords @ square == hstack([Matrix.identity(field, len(chosen)),
                                          Matrix.zeros(field, len(chosen), len(aq))])


@pytest.mark.parametrize("p", [3, 5])
def test_larger_image_homology_matches_the_oracle(p):
    """A 12 x 12 two-channel image with many holes (larger than the 6 x 6 of
    the strategy): H1 has total dim 21 and cover maps with -1 entries."""
    rng = random.Random(27)
    img = ImageGrid.from_lists([[[rng.choice([0, 0, 0, 1, 2]) for _ in range(12)]
                                 for _ in range(12)] for _ in range(2)], 2)
    h1 = image_bifiltration_homology(img, 1, FieldSpec(p))
    assert sum(h1.dims_by_element().values()) == 21
    assert any(p - 1 in row for u, v in h1.lattice.covers_i()
               for row in h1.transport_i(u, v).rows())
    assert h1 == image_bifiltration_homology_oracle(img, 1, FieldSpec(p))


class TestMetricSpace:
    def test_parse(self):
        text = """0 3
        0 5
        5 0
        """
        space = MetricFunctionSpace.parse(text)
        assert space.values == (0, 3)
        assert space.dist[0][1] == 5
        assert space.a_levels == (0, 3)
        assert 5 in space.r_levels

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            MetricFunctionSpace.from_data([0, 0], [[0, 1], [2, 0]])


class TestRipsPipeline:
    def test_single_point(self, gf2):
        space = MetricFunctionSpace.from_data([3], [[0]], a_levels=[0, 3],
                                              r_levels=[0])
        h0 = sublevel_rips_h0(space, gf2)
        assert h0.dims_by_element() == {"0,0": 0, "1,0": 1}

    def test_two_points_merge_at_distance(self, gf2):
        space = MetricFunctionSpace.from_data([0, 0], [[0, 4], [4, 0]],
                                              a_levels=[0], r_levels=[0, 4])
        h0 = sublevel_rips_h0(space, gf2)
        assert dim(h0, "0,0") == 2
        assert dim(h0, "0,1") == 1
        m = cover_matrix(h0, "0,0", "0,1")
        assert m.to_lists() == [[1, 1]]

    def test_r_direction_maps_surjective(self, gf2):
        for seed in range(4):
            rng = random.Random(f"rips{seed}")
            space = random_metric_space(rng, 6)
            h0 = sublevel_rips_h0(space, gf2)
            lat = h0.lattice
            for (u, v) in lat.covers_i():
                if lat.element(u).split(",")[0] == lat.element(v).split(",")[0]:
                    m = h0.transport_i(u, v)
                    assert rank(m) == m.nrows

    def test_cross_codegree_bound(self, gf2):
        for seed in range(3):
            rng = random.Random(f"ripsx{seed}")
            space = random_metric_space(rng, 6)
            h0 = sublevel_rips_h0(space, gf2)
            assert min_cross_codegree(h0) <= 1

    def test_modules_validate(self, gf2):
        rng = random.Random("ripsv")
        space = random_metric_space(rng, 5)
        sublevel_rips_h0(space, gf2).validate()


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(0, 4), min_size=1, max_size=7),
       data=st.data(), p=st.sampled_from([2, 3]))
def test_rips_h0_matches_the_oracle(values, data, p):
    """The sweep in order of length gives the module built from scratch at
    every threshold, ties in length included."""
    n = len(values)
    dist = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        dist[i][j] = dist[j][i] = data.draw(st.integers(0, 6))
    space = MetricFunctionSpace.from_data(values, dist)
    field = FieldSpec(p)
    assert sublevel_rips_h0(space, field) == sublevel_rips_h0_oracle(space, field)
