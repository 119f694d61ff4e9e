import itertools

import pytest

from pmodcalc import lattice
from pmodcalc.lattice import (Lattice, NoBottom, NotDistributive,
                              NotLattice, NotPairwiseCover, PairwiseCover,
                              bicartesian_cubes_cached, child_cube,
                              cube_from_cover, enumerate_bicartesian_cubes,
                              parent_cube)
from oracles import (children, downset, is_strongly_bicartesian,
                     join_irreducibles, join_oracle, leq, mdim, meet,
                     meet_oracle, parents, upset)


def chain(n):
    """The total order 0 < 1 < ... < n-1."""
    elements = [str(i) for i in range(n)]
    covers = [(str(i), str(i + 1)) for i in range(n - 1)]
    return Lattice.from_covers(elements, covers)


def m3():
    """The diamond M3: three incomparable atoms with common top and bottom."""
    return Lattice.from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")])


# -- brute-force oracles -------------------------------------------------------


def oracle_join_irreducibles(lat):
    """v is join-irreducible iff it is not the bottom and no two strictly
    smaller elements join to it."""
    out = []
    bottom = lat.bottom()
    for v in lat.elements:
        if v == bottom:
            continue
        below = [u for u in lat.elements if leq(lat, u, v) and u != v]
        if not any(lat.join(x, y) == v for x in below for y in below):
            out.append(v)
    return tuple(out)


def oracle_jdim(lat, v):
    """Minimal size of a join-decomposition of v into join-irreducibles."""
    if v == lat.bottom():
        return 0
    irr = [j for j in oracle_join_irreducibles(lat) if leq(lat, j, v)]
    for k in range(1, len(irr) + 1):
        for combo in itertools.combinations(irr, k):
            acc = combo[0]
            for x in combo[1:]:
                acc = lat.join(acc, x)
            if acc == v:
                return k
    raise AssertionError(f"no join-decomposition found for {v}")


def oracle_bicartesian_assignments(lat, arity):
    """All functions P([arity-1]) -> lattice preserving joins and meets of
    all subset pairs, as assignment tuples."""
    size = 1 << arity
    found = set()
    for assign in itertools.product(range(lat.n), repeat=size):
        ok = True
        for s in range(size):
            for t in range(size):
                if assign[s | t] != lat.join_i(assign[s], assign[t]):
                    ok = False
                    break
                if assign[s & t] != lat.meet_i(assign[s], assign[t]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.add(assign)
    return found


# -- validation ------------------------------------------------------------------


class TestValidate:
    def test_unit_square_ok(self, square):
        assert square.validate() is square

    def test_m3_not_distributive(self):
        # The message names the first pair y < z in element order whose
        # join lies over a join-irreducible x below neither.
        with pytest.raises(NotDistributive, match=r"for x=c, y=a, z=b$"):
            m3()

    def test_grid_ok(self, grid22):
        assert grid22.validate() is grid22

    def test_two_minimal_elements(self):
        with pytest.raises(NoBottom):
            Lattice.from_covers(["a", "b", "t"], [("a", "t"), ("b", "t")])

    def test_bowtie_is_not_a_lattice(self):
        with pytest.raises((NotLattice, NoBottom)):
            Lattice.from_covers(
                ["a", "b", "x", "y"],
                [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")])

    def test_non_lattice_rejected_without_validation(self):
        # a, b < c, d: no least upper bound of a and b.
        with pytest.raises(NotLattice, match="no least upper bound for a, b"):
            Lattice.from_covers(
                ["0", "a", "b", "c", "d"],
                [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"),
                 ("a", "d"), ("b", "d")])
        # c, d < a, b: no greatest lower bound of a and b.
        with pytest.raises(NotLattice, match="no greatest lower bound for a, b"):
            Lattice.from_covers(
                ["0", "a", "b", "c", "d", "1"],
                [("0", "c"), ("0", "d"), ("c", "a"), ("c", "b"),
                 ("d", "a"), ("d", "b"), ("a", "1"), ("b", "1")])

    def test_cycle_rejected(self):
        with pytest.raises(NotLattice):
            Lattice.from_covers(["a", "b"], [("a", "b"), ("b", "a")])

    def test_pentagon_not_distributive(self):
        with pytest.raises(NotDistributive, match=r"for x=c, y=a, z=b$"):
            Lattice.from_covers(
                ["0", "a", "b", "c", "1"],
                [("0", "a"), ("a", "1"), ("0", "b"), ("b", "c"), ("c", "1")])

    def test_explicit_size_cap(self, monkeypatch):
        # Checked before anything is built: 129 unrelated names would
        # otherwise fail for lack of a bottom.
        with pytest.raises(ValueError, match="explicit lattice has 129 elements, "
                                             "more than the cap of 128"):
            Lattice.from_covers([str(i) for i in range(129)], [])
        monkeypatch.setattr(lattice, "MAX_LATTICE_ELEMENTS", 5)
        assert chain(5).n == 5
        with pytest.raises(ValueError, match="has 6 elements"):
            chain(6)


class TestJoinMeet:
    def test_grid_componentwise(self, grid22):
        assert grid22.join("1,0", "0,2") == "1,2"
        assert meet(grid22, "1,0", "0,2") == "0,0"

    def test_bottom_top(self, cube3):
        assert cube3.bottom() == "0,0,0"
        assert cube3.top() == "1,1,1"

    def test_from_covers_matches_grid(self, square):
        explicit = Lattice.from_covers(
            ["0,0", "0,1", "1,0", "1,1"],
            [("0,0", "0,1"), ("0,0", "1,0"), ("0,1", "1,1"), ("1,0", "1,1")])
        for u in explicit.elements:
            for v in explicit.elements:
                assert leq(explicit, u, v) == leq(square, u, v)
                assert explicit.join(u, v) == square.join(u, v)
                assert meet(explicit, u, v) == meet(square, u, v)


class TestJoinIrreducibles:
    def test_square(self, square):
        assert set(join_irreducibles(square)) == {"0,1", "1,0"}
        assert set(join_irreducibles(square)) == set(oracle_join_irreducibles(square))

    def test_chain(self):
        c = chain(3)
        assert set(join_irreducibles(c)) == {"1", "2"}

    def test_cube_atoms(self, cube3):
        assert set(join_irreducibles(cube3)) == {"1,0,0", "0,1,0", "0,0,1"}
        assert set(join_irreducibles(cube3)) == set(oracle_join_irreducibles(cube3))


class TestDimensions:
    def test_jdim_square_top(self, square):
        assert square.jdim("1,1") == 2

    def test_jdim_bottom(self, square):
        assert square.jdim("0,0") == 0

    def test_jdim_cube_top_against_oracle(self, cube3):
        assert cube3.jdim("1,1,1") == 3
        assert oracle_jdim(cube3, "1,1,1") == 3

    def test_jdim_matches_oracle_everywhere(self, grid22):
        for v in grid22.elements:
            assert grid22.jdim(v) == oracle_jdim(grid22, v)

    def test_poset_dimension(self, square, cube3):
        assert square.poset_dimension() == 2
        assert cube3.poset_dimension() == 3
        assert chain(6).poset_dimension() == 1

    def test_max_jdim_equals_max_mdim(self, grid22, cube3):
        for lat in (grid22, cube3, chain(4)):
            assert (max(lat.jdim(v) for v in lat.elements)
                    == max(mdim(lat, v) for v in lat.elements))


class TestParentsChildren:
    def test_parents_of_square_top(self, square):
        assert set(parents(square, "1,1")) == {"0,1", "1,0"}

    def test_children_of_bottom(self, square):
        assert set(children(square, "0,0")) == {"0,1", "1,0"}

    def test_parents_of_bottom_empty(self, square):
        assert parents(square, "0,0") == ()

    def test_cover_diamond_laws(self, grid22, cube3):
        # Distinct parents join to the element; distinct children meet to it.
        for lat in (grid22, cube3):
            for v in lat.elements:
                ps = parents(lat, v)
                for a, b in itertools.combinations(ps, 2):
                    assert lat.join(a, b) == v
                cs = children(lat, v)
                for a, b in itertools.combinations(cs, 2):
                    assert meet(lat, a, b) == v


class TestCubes:
    def test_full_square_cube(self, square):
        cube = cube_from_cover(square, PairwiseCover("1,1", ("0,1", "1,0")))
        assert cube.arity == 2
        assert cube.bottom() == "0,0"
        assert cube.top() == "1,1"
        assert is_strongly_bicartesian(cube)

    def test_degenerate_cover_is_legal(self, square):
        cube = cube_from_cover(square, PairwiseCover("1,1", ("1,1", "0,1")))
        assert is_strongly_bicartesian(cube)

    def test_not_pairwise_cover(self, square):
        with pytest.raises(NotPairwiseCover):
            cube_from_cover(square, PairwiseCover("1,1", ("0,1", "0,1")))
        with pytest.raises(NotPairwiseCover):
            cube_from_cover(square, PairwiseCover("0,1", ("1,0", "0,1")))

    def test_three_cube_from_coatoms(self, cube3):
        cover = PairwiseCover("1,1,1", ("0,1,1", "1,0,1", "1,1,0"))
        cube = cube_from_cover(cube3, cover)
        assert cube.arity == 3
        # Exhaustive join/meet preservation over all subset pairs.
        assert is_strongly_bicartesian(cube)
        values = {cube.value(m) for m in range(8)}
        assert values == set(cube3.elements)

    def test_parent_cube_of_bottom(self, square):
        cube = parent_cube(square, "0,0")
        assert cube.arity == 0
        assert cube.value(0) == "0,0"

    def test_parent_cube_of_square_top(self, square):
        cube = parent_cube(square, "1,1")
        assert cube.arity == 2
        assert cube.value(0) == "0,0"
        assert cube.top() == "1,1"

    def test_parent_cube_meets_of_parents(self, cube3):
        cube = parent_cube(cube3, "1,1,0")
        assert cube.arity == 2
        assert {cube.value(m) for m in range(4)} == {
            "0,0,0", "1,0,0", "0,1,0", "1,1,0"}

    def test_child_cube_dual(self, square):
        cube = child_cube(square, "0,0")
        assert cube.arity == 2
        assert cube.value(0) == "0,0"
        assert {cube.value(m) for m in range(4)} == set(square.elements)
        assert is_strongly_bicartesian(cube)

    def test_parent_cubes_strongly_bicartesian(self, grid22, cube3):
        for lat in (grid22, cube3):
            for v in lat.elements:
                assert is_strongly_bicartesian(parent_cube(lat, v))
                assert is_strongly_bicartesian(child_cube(lat, v))


class TestEnumeration:
    def test_square_arity2_matches_brute_force(self, square):
        brute = oracle_bicartesian_assignments(square, 2)
        enumerated = list(enumerate_bicartesian_cubes(square, 2))
        # Every enumerated cube is bicartesian in the brute-force sense.
        for cube in enumerated:
            assert cube.assign in brute
        # Up to the order of the parts, the two sets coincide.
        def key_from_assign(assign):
            full = 3
            top = assign[full]
            parts = tuple(sorted(assign[full & ~(1 << i)] for i in range(2)))
            return (top, parts)
        assert ({key_from_assign(c.assign) for c in enumerated}
                == {key_from_assign(a) for a in brute})

    def test_enumeration_covers_unordered_multisets_once(self, square):
        seen = set()
        for cube in enumerate_bicartesian_cubes(square, 2):
            key = (cube.top(), tuple(sorted(cube.parts())))
            assert key not in seen
            seen.add(key)

    def test_chain_only_degenerate(self):
        c = chain(4)
        for cube in enumerate_bicartesian_cubes(c, 2):
            # A pairwise cover in a chain forces all but one part to be the top.
            assert cube.top() in cube.parts()

    def test_high_arity_nondegenerate_empty(self, square):
        for cube in enumerate_bicartesian_cubes(square, 3):
            assert cube.top() in cube.parts()  # arity > dimension: degenerate only

    def test_roundtrip_parts_to_cube(self, grid22):
        for cube in enumerate_bicartesian_cubes(grid22, 2):
            again = cube_from_cover(grid22, PairwiseCover(cube.top(), cube.parts()))
            assert again.assign == cube.assign

    def test_all_enumerated_preserve_joins_and_meets(self, grid22):
        for cube in enumerate_bicartesian_cubes(grid22, 2):
            assert is_strongly_bicartesian(cube)

    def test_cache_is_stable(self, square):
        first = bicartesian_cubes_cached(square, 2)
        second = bicartesian_cubes_cached(square, 2)
        assert first is second


class TestOppositeAndSubposets:
    def test_opposite_swaps_parents_children(self, grid22):
        op = grid22.opposite()
        for v in grid22.elements:
            assert set(parents(op, v)) == set(children(grid22, v))
            assert set(children(op, v)) == set(parents(grid22, v))
        assert op.opposite() is grid22
        assert grid22.opposite() is op
        # The swapped tables agree with a lattice built from the reversed covers.
        built = Lattice.from_covers(grid22.elements,
                                    [(v, u) for u, v in grid22.covers()])
        assert op == built and op.covers() == built.covers()
        for u in grid22.elements:
            assert parents(op, u) == parents(built, u)
            for v in grid22.elements:
                assert op.join(u, v) == built.join(u, v)
                assert meet(op, u, v) == meet(built, u, v)
        pos = {v: k for k, v in enumerate(op.topo_order())}
        assert all(pos[u] < pos[v] for u, v in op.covers_i())

    def test_induced_covers_transitive_reduction(self, grid22):
        # The subposet {bottom, two axis points, top} has covers through
        # the axis points only, not the long diagonal.
        idx = [grid22.index(e) for e in ("0,0", "2,0", "0,2", "2,2")]
        covers = grid22.induced_covers(idx)
        named = {(grid22.element(u), grid22.element(v)) for u, v in covers}
        assert named == {("0,0", "2,0"), ("0,0", "0,2"),
                         ("2,0", "2,2"), ("0,2", "2,2")}

    def test_downset_upset(self, square):
        assert set(downset(square, "1,0")) == {"0,0", "1,0"}
        assert set(upset(square, "1,0")) == {"1,0", "1,1"}


class TestGridFromCoordinates:
    SHAPES = [[0], [3], [0, 0], [4, 5], [2, 0, 2], [1, 1, 1], [2, 3, 1]]

    @staticmethod
    def generic(maxes):
        """The grid built the generic way: names, and the covers that bump
        one coordinate, through from_covers."""
        def name(t):
            return ",".join(map(str, t))

        coords = list(itertools.product(*(range(m + 1) for m in maxes)))
        covers = [(name(t), name(t[:k] + (t[k] + 1,) + t[k + 1:]))
                  for t in coords for k, m in enumerate(maxes) if t[k] < m]
        return Lattice.from_covers([name(t) for t in coords], covers)

    @staticmethod
    def assert_same_tables(a, b):
        assert a.elements == b.elements
        assert a._up == b._up and a._down == b._down
        for i in range(a.n):
            for j in range(a.n):
                assert a.join_i(i, j) == b.join_i(i, j) == join_oracle(a, i, j)
                assert a.meet_i(i, j) == b.meet_i(i, j) == meet_oracle(a, i, j)
        assert a.covers_i() == b.covers_i()
        for i in range(a.n):
            assert a.parents_i(i) == b.parents_i(i)
            assert a.children_i(i) == b.children_i(i)

    @pytest.mark.parametrize("maxes", SHAPES)
    def test_matches_from_covers(self, maxes):
        grid, built = Lattice.grid(maxes), self.generic(maxes)
        self.assert_same_tables(grid, built)
        assert grid.topo_order() == built.topo_order()
        assert grid.grid_shape == tuple(maxes)

    @pytest.mark.parametrize("maxes", SHAPES)
    def test_opposite_matches_reversed_covers(self, maxes):
        grid = Lattice.grid(maxes)
        built = Lattice.from_covers(grid.elements,
                                    [(v, u) for u, v in grid.covers()])
        self.assert_same_tables(grid.opposite(), built)
        assert grid.opposite().topo_order() == grid.topo_order()[::-1]

    def test_size_cap(self, monkeypatch):
        with pytest.raises(ValueError, match="has 4160 elements, more than the cap of 4096"):
            Lattice.grid([64, 63])
        monkeypatch.setattr(lattice, "MAX_GRID_ELEMENTS", 12)
        assert Lattice.grid([3, 2]).n == 12
        with pytest.raises(ValueError, match="has 16 elements"):
            Lattice.grid([3, 3])
