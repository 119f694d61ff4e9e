import itertools
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from pmodcalc import (FieldSpec, Lattice, Matrix, NatTrans, PersistenceModule,
                      boolean_lattice, direct_sum, free_module, hom_basis,
                      identity_nat, image_of, interval_module, is_iso,
                      kernel_of, cokernel_of, opposite_module, random_module,
                      restrict_along_cube, zero_nat)
from pmodcalc.lattice import parent_cube, cube_from_cover, PairwiseCover
from pmodcalc.linalg import NoFactorization, rank
from pmodcalc.pmodule import (NonCommutingSquare, NotComparable, NotConnected,
                              NotConvex, NotNatural, random_hom,
                              sum_inclusion, sum_projection)
from pmodcalc.pmod_io import print_pmod
from oracles import (Dense, check_interval_oracle, cokernel_of_oracle,
                     cover_matrix, image_of_oracle, kernel_of_oracle, leq,
                     transport)
from test_functor_check import lattices


def constant_module(lat, field):
    return interval_module(lat, field, lat.elements)


class TestValidateFunctor:
    def test_free_module_ok(self, square, gf2):
        f = free_module(square, gf2, {"0,0": 2, "1,0": 1})
        assert f.validate() is f

    def test_non_commuting_square(self, square, gf2):
        # Indices 0..3 are 0,0 0,1 1,0 1,1; the route through 1,0 is zero.
        one, zero = Matrix.identity(gf2, 1), Matrix.zeros(gf2, 1, 1)
        maps = {(0, 1): one, (0, 2): one, (1, 3): one, (2, 3): zero}
        with pytest.raises(NonCommutingSquare):
            PersistenceModule(square, gf2, [1] * 4, maps)

    def test_interval_modules_ok(self, square, gf2):
        supports = [s for k in range(1, 5)
                    for s in itertools.combinations(square.elements, k)]
        for support in supports:
            try:
                m = interval_module(square, gf2, support)
            except (NotConvex, NotConnected):
                continue
            assert m.validate() is m

    def test_missing_map_rejected(self, square, gf2):
        with pytest.raises(ValueError, match="missing cover map for 0,0 < 0,1"):
            PersistenceModule(square, gf2, [1] * 4, {})

    def test_non_cover_key_rejected(self, square, gf2):
        with pytest.raises(ValueError, match="map key 0,0 < 1,1 is not a Hasse cover"):
            PersistenceModule(square, gf2, [1, 0, 0, 1],
                              {(0, 3): Matrix.identity(gf2, 1)})


class TestConstructorKeys:
    """Module data is keyed by element index; names are refused loudly."""

    def test_dims_length_must_match(self, square, gf2):
        for dims in ([1] * 3, [1] * 5):
            with pytest.raises(ValueError, match="for 4 elements"):
                PersistenceModule(square, gf2, dims)

    def test_negative_dim_rejected(self, square, gf2):
        with pytest.raises(ValueError, match="negative dimension at 1,0"):
            PersistenceModule(square, gf2, [0, 0, -1, 0])

    def test_dims_mapping_or_names_rejected(self, square, gf2):
        for dims in ({el: 1 for el in square.elements}, dict.fromkeys(range(4), 1),
                     list(square.elements)):
            with pytest.raises(TypeError):
                PersistenceModule(square, gf2, dims)

    def test_list_of_lists_map_rejected(self, square, gf2):
        with pytest.raises(TypeError, match="cover map for 0,0 < 0,1 is not a Matrix"):
            PersistenceModule(square, gf2, [1, 1, 0, 0], {(0, 1): [[1]]})

    def test_name_keyed_map_rejected(self, square, gf2):
        one = Matrix.identity(gf2, 1)
        with pytest.raises(TypeError, match="not a pair of element indices"):
            PersistenceModule(square, gf2, [1, 0, 0, 0], {("0,0", "0,1"): one})

    def test_components_keyed_by_index(self, square, gf2):
        f = constant_module(square, gf2)
        with pytest.raises(ValueError, match="3 components for 4 elements"):
            NatTrans(f, f, [Matrix.identity(gf2, 1)] * 3)
        with pytest.raises(TypeError, match="component at 0,0 is not a Matrix"):
            NatTrans(f, f, {el: Matrix.identity(gf2, 1) for el in square.elements})


class TestTransport:
    def test_identity_on_equal(self, square, gf2):
        f = constant_module(square, gf2)
        assert transport(f, "0,1", "0,1") == Matrix.identity(gf2, 1)

    def test_free_module_transport_is_inclusion(self, grid22, gf2):
        f = free_module(grid22, gf2, {"0,0": 1, "1,1": 1})
        # Wherever both dims agree the transport is injective of full rank.
        t = transport(f, "1,1", "2,2")
        assert rank(t) == f.dim("1,1")

    def test_interval_transport_membership(self, square, gf2):
        support = ("0,0", "1,0", "0,1")
        f = interval_module(square, gf2, support)
        for u in square.elements:
            for v in square.elements:
                if not leq(square, u, v):
                    continue
                # Oracle: compose the cover matrices along one explicit chain.
                t = transport(f, u, v)
                if u in support and v in support:
                    assert t == Matrix.identity(gf2, 1)
                else:
                    assert t.nrows == f.dim(v) and t.ncols == f.dim(u)

    def test_not_comparable(self, square, gf2):
        f = constant_module(square, gf2)
        with pytest.raises(NotComparable):
            transport(f, "1,0", "0,1")


class TestInterval:
    def test_corner_matches_dims(self, square, gf2):
        f = interval_module(square, gf2, ("0,0",))
        assert f.dims_by_element() == {"0,0": 1, "0,1": 0, "1,0": 0, "1,1": 0}

    def test_whole_lattice_constant(self, grid22, gf2):
        f = interval_module(grid22, gf2, grid22.elements)
        assert all(f.dim(el) == 1 for el in grid22.elements)
        assert all(cover_matrix(f, u, v) == Matrix.identity(gf2, 1)
                   for u, v in grid22.covers())

    def test_column_interval(self, square, gf2):
        f = interval_module(square, gf2, ("1,0", "1,1"))
        assert f.dims_by_element() == {"0,0": 0, "0,1": 0, "1,0": 1, "1,1": 1}

    def test_not_convex(self, square, gf2):
        with pytest.raises(NotConvex):
            interval_module(square, gf2, ("0,0", "1,1"))

    def test_not_connected(self, square, gf2):
        with pytest.raises(NotConnected):
            interval_module(square, gf2, ("1,0", "0,1"))


@st.composite
def supports(draw):
    """A lattice and a nonempty support on it: a random subset, or the
    convex hull of one (which may still be disconnected)."""
    lat = draw(lattices())
    sup = draw(st.sets(st.integers(0, lat.n - 1), min_size=1, max_size=lat.n))
    if draw(st.booleans()):
        up = down = 0
        for i in sup:
            up |= lat.upset_mask(i)
            down |= lat.downset_mask(i)
        sup = {i for i in range(lat.n) if (up & down) >> i & 1}
    return lat, sup


@settings(max_examples=200, deadline=None)
@given(case=supports())
def test_interval_checks_match_the_pairwise_oracle(case):
    """The linear convexity and cover-walk checks reject exactly what the
    pairwise checks reject, with the same exception; a named gap g lies
    between two named support elements u <= g <= v and is not in it."""
    lat, sup = case
    try:
        check_interval_oracle(lat, sup)
        want = None
    except (NotConvex, NotConnected) as exc:
        want = exc
    try:
        f = interval_module(lat, FieldSpec(2), [lat.element(i) for i in sup])
    except (NotConvex, NotConnected) as exc:
        assert type(exc) is type(want)
        if isinstance(exc, NotConvex):
            gap, u, v = (lat.index(el) for el in re.fullmatch(
                r"support omits (\S+) between (\S+) and (\S+)", str(exc)).groups())
            assert gap not in sup and u in sup and v in sup
            assert lat.leq_i(u, gap) and lat.leq_i(gap, v)
        else:
            assert str(exc) == str(want)
    else:
        assert want is None
        assert [f.dim_i(i) for i in range(lat.n)] == [int(i in sup) for i in range(lat.n)]


# -- sparse cover-map storage ------------------------------------------------


@st.composite
def modules_on(draw, lat, field):
    """A module on lat: free on one to three generators drawn from the
    corner below the top (elements with at most four elements above), the
    interval [a, b] of two comparable elements, or a random module."""
    kind = draw(st.sampled_from(["free", "interval", "random"]))
    if kind == "free":
        corner = [i for i in range(lat.n) if lat.upset_mask(i).bit_count() <= 4]
        gens = draw(st.lists(st.sampled_from(corner), min_size=1, max_size=3))
        return free_module(lat, field, Counter(lat.element(g) for g in gens))
    if kind == "interval":
        a = draw(st.integers(0, lat.n - 1))
        b = draw(st.sampled_from([i for i in range(lat.n) if lat.leq_i(a, i)]))
        return interval_module(lat, field, [
            lat.element(i) for i in range(lat.n) if lat.leq_i(a, i) and lat.leq_i(i, b)])
    return random_module(lat, field, draw(st.integers(0, 10 ** 6)),
                         max_gens=4, max_rels=3)


@st.composite
def module_pairs(draw):
    """Two modules on one grid or down-set lattice, over GF(2) or F_3."""
    lat = draw(lattices())
    field = FieldSpec(draw(st.sampled_from([2, 3])))
    return draw(modules_on(lat, field)), draw(modules_on(lat, field))


def assert_sparse_like(f, dense):
    """f stores only maps between nonzero spaces, and reads as dense does."""
    lat = f.lattice
    assert all(f.dim_i(u) and f.dim_i(v) for u, v in f._maps)
    for u, v in lat.covers_i():
        m = f.cover_matrix_i(u, v)
        assert m.shape == (f.dim_i(v), f.dim_i(u))
        assert m == dense.cover_matrix_i(u, v)
        if not (f.dim_i(u) and f.dim_i(v)):
            assert m.is_zero() and (u, v) not in f._maps


@settings(max_examples=60, deadline=None)
@given(pair=module_pairs())
def test_sparse_storage_matches_dense_storage(pair):
    """Cover maps, transports, the opposite module and direct sums read the
    same as from storage that keeps a matrix for every cover; a module built
    from every cover map, zeros included, equals the module itself."""
    f, g = pair
    lat = f.lattice
    dense = Dense.of(f)
    assert_sparse_like(f, dense)
    for u in range(lat.n):
        for v in range(lat.n):
            if lat.leq_i(u, v):
                assert f.transport_i(u, v) == dense.transport_i(u, v)
    assert_sparse_like(opposite_module(f), dense.opposite())
    assert_sparse_like(direct_sum(f, g), dense.direct_sum(Dense.of(g)))
    assert PersistenceModule(lat, f.field, dense._dims, dense._maps) == f


class TestSparseStorage:
    def test_non_cover_is_a_key_error(self, square, gf2):
        f = free_module(square, gf2, {"1,1": 1})
        for u, v in [(0, 3), (1, 0), (0, 0), (-1, 3)]:
            with pytest.raises(KeyError, match="is not a Hasse cover"):
                f.cover_matrix_i(u, v)

    def test_zero_sided_map_is_checked_then_dropped(self, square, gf2):
        # Indices 0..3 are 0,0 0,1 1,0 1,1.
        one = Matrix.identity(gf2, 1)
        maps = {(0, 1): Matrix.zeros(gf2, 0, 1), (1, 3): Matrix.zeros(gf2, 1, 0),
                (0, 2): one, (2, 3): Matrix.zeros(gf2, 1, 1)}
        f = PersistenceModule(square, gf2, [1, 0, 1, 1], maps)
        assert set(f._maps) == {(0, 2), (2, 3)}
        with pytest.raises(ValueError, match=r"cover map for 0,0 < 0,1 has shape \(1, 1\), "
                                             r"expected \(0, 1\)"):
            PersistenceModule(square, gf2, [1, 0, 1, 1], {**maps, (0, 1): one})
        with pytest.raises(TypeError, match="cover map for 0,1 < 1,1 is not a Matrix"):
            PersistenceModule(square, gf2, [1, 0, 1, 1], {**maps, (1, 3): [[]]})

    def test_diamond_through_one_zero_middle(self, square, gf2):
        # The route through 0,1 is zero, as F(0,1) = 0, so the route through
        # 1,0 must be zero too.
        one, zero = Matrix.identity(gf2, 1), Matrix.zeros(gf2, 1, 1)
        with pytest.raises(NonCommutingSquare):
            PersistenceModule(square, gf2, [1, 0, 1, 1], {(0, 2): one, (2, 3): one})
        PersistenceModule(square, gf2, [1, 0, 1, 1], {(0, 2): one, (2, 3): zero})
        PersistenceModule(square, gf2, [1, 0, 0, 1], {})

    def test_naturality_through_a_zero_space(self, square, gf2):
        one, none = Matrix.identity(gf2, 1), Matrix.zeros(gf2, 0, 1)
        const = constant_module(square, gf2)
        # The target is 0 at 0,1 but not at 1,1: a_(1,1) F(0,1 -> 1,1) != 0.
        top = interval_module(square, gf2, ("1,1",))
        with pytest.raises(NotNatural, match="cover 0,1 < 1,1"):
            NatTrans(const, top, [none, none, none, one]).validate()
        # The source is 0 at 0,1 but not at 0,0: G(0,0 -> 0,1) a_(0,0) != 0.
        bottom = interval_module(square, gf2, ("0,0",))
        with pytest.raises(NotNatural, match="cover 0,0 < 0,1"):
            NatTrans(bottom, const, [one] + [none.transpose()] * 3).validate()
        assert NatTrans(const, top, [none] * 3 + [Matrix.zeros(gf2, 1, 1)]).is_natural()


class TestFree:
    def test_generator_at_bottom_is_constant(self, square, gf2):
        f = free_module(square, gf2, {"0,0": 1})
        assert all(f.dim(el) == 1 for el in square.elements)

    def test_generator_upset_indicator(self, square, gf2):
        f = free_module(square, gf2, {"1,0": 1})
        assert f.dims_by_element() == {"0,0": 0, "0,1": 0, "1,0": 1, "1,1": 1}

    def test_two_coatom_generators(self, square, gf2):
        # Oracle: dims are sums of up-set indicators.
        f = free_module(square, gf2, {"0,1": 1, "1,0": 1})
        expect = {el: sum(1 for a in ("0,1", "1,0") if leq(square, a, el))
                  for el in square.elements}
        assert f.dims_by_element() == expect
        assert f.dims_by_element() == {"0,0": 0, "0,1": 1, "1,0": 1, "1,1": 2}


class TestDirectSum:
    def test_zero_plus_f(self, square, gf2):
        f = interval_module(square, gf2, ("0,0",))
        z = free_module(square, gf2, {})
        s = direct_sum(z, f)
        assert s.dims_by_element() == f.dims_by_element()

    def test_doubling(self, square, gf2):
        f = constant_module(square, gf2)
        s = direct_sum(f, f)
        assert all(s.dim(el) == 2 for el in square.elements)

    def test_hook_as_sum_of_intervals(self, square, gf2):
        row = interval_module(square, gf2, ("0,0", "1,0"))
        col = interval_module(square, gf2, ("0,0", "0,1"))
        s = direct_sum(row, col)
        assert s.dims_by_element() == {"0,0": 2, "1,0": 1, "0,1": 1, "1,1": 0}

    def test_lattice_mismatch(self, square, grid22, gf2):
        from pmodcalc import LatticeMismatch
        f = constant_module(square, gf2)
        g = constant_module(grid22, gf2)
        with pytest.raises(LatticeMismatch):
            direct_sum(f, g)

    def test_inclusions_projections(self, square, gf2):
        f = interval_module(square, gf2, ("0,0", "1,0"))
        g = constant_module(square, gf2)
        s = direct_sum(f, g)
        i0 = sum_inclusion(f, g, 0, total=s).validate()
        p0 = sum_projection(f, g, 0, total=s).validate()
        assert is_iso(p0.compose(i0))
        i1 = sum_inclusion(f, g, 1, total=s).validate()
        p1 = sum_projection(f, g, 1, total=s).validate()
        assert p0.compose(i1).component("0,0").is_zero()
        assert is_iso(p1.compose(i1))


class TestRandomModule:
    def test_zero_generators(self, square, gf2):
        # max_gens=0 forces an empty presentation.
        f = random_module(square, gf2, seed=1, max_gens=0, max_rels=0)
        assert f.is_zero()

    def test_no_relations_gives_free(self, grid22, gf2):
        f = random_module(grid22, gf2, seed=5, max_gens=3, max_rels=0)
        # A free module has echelon transports of full column rank.
        for (u, v) in grid22.covers_i():
            m = f.cover_matrix_i(u, v)
            assert rank(m) == m.ncols

    def test_seed_determinism(self, grid22, gf2):
        a = random_module(grid22, gf2, seed=7)
        b = random_module(grid22, gf2, seed=7)
        assert print_pmod(a) == print_pmod(b)
        assert a == b

    def test_outputs_validate(self, grid22, cube3, gf2):
        for lat in (grid22, cube3):
            for seed in range(8):
                random_module(lat, gf2, seed).validate()


class TestImageKernelCokernel:
    def test_image_of_identity(self, square, gf2):
        f = constant_module(square, gf2)
        module, mono = image_of(identity_nat(f))
        assert module.dims_by_element() == f.dims_by_element()
        assert is_iso(mono)

    def test_image_of_zero(self, square, gf2):
        f = constant_module(square, gf2)
        module, _ = image_of(zero_nat(f, f))
        assert module.is_zero()

    def test_kernel_of_identity(self, square, gf2):
        f = constant_module(square, gf2)
        module, _ = kernel_of(identity_nat(f))
        assert module.is_zero()

    def test_kernel_of_zero_is_source(self, square, gf2):
        f = constant_module(square, gf2)
        module, mono = kernel_of(zero_nat(f, f))
        assert module.dims_by_element() == f.dims_by_element()
        mono.validate()

    def test_cokernel_of_identity(self, square, gf2):
        f = constant_module(square, gf2)
        module, _ = cokernel_of(identity_nat(f))
        assert module.is_zero()

    def test_cokernel_of_zero_is_target(self, square, gf2):
        f = constant_module(square, gf2)
        module, epi = cokernel_of(zero_nat(f, f))
        assert module.dims_by_element() == f.dims_by_element()
        epi.validate()

    def test_derived_modules_are_natural(self, grid22, gf2):
        rng = random.Random("derived")
        for seed in range(5):
            f = random_module(grid22, gf2, f"a{seed}")
            g = random_module(grid22, gf2, f"b{seed}")
            alpha = random_hom(f, g, rng).validate()
            for module, nt in (image_of(alpha), kernel_of(alpha), cokernel_of(alpha)):
                module.validate()
                nt.validate()


class TestIsIso:
    def test_identity(self, square, gf2):
        assert is_iso(identity_nat(constant_module(square, gf2)))

    def test_zero_between_nonzero(self, square, gf2):
        f = constant_module(square, gf2)
        assert not is_iso(zero_nat(f, f))

    def test_naturality_check(self, square, gf2):
        f = constant_module(square, gf2)
        comps = [Matrix.identity(gf2, 1)] * 3 + [Matrix(gf2, 1, 1, [[0]])]
        with pytest.raises(NotNatural):
            NatTrans(f, f, comps).validate()


class TestRestrictAndCubes:
    def test_constant_module_constant_cube(self, square, gf2):
        f = constant_module(square, gf2)
        cube = cube_from_cover(square, PairwiseCover("1,1", ("0,1", "1,0")))
        vc = restrict_along_cube(f, cube)
        assert vc.lattice is boolean_lattice(2)
        assert [vc.dim_i(m) for m in range(4)] == [1, 1, 1, 1]
        vc.validate()

    def test_zero_cube_single_space(self, square, gf2):
        f = free_module(square, gf2, {"0,0": 2})
        cube = parent_cube(square, "0,0")
        vc = restrict_along_cube(f, cube)
        assert vc.lattice is boolean_lattice(0) and vc.dim_i(0) == 2

    def test_corner_module_on_full_square(self, square, gf2):
        f = interval_module(square, gf2, ("0,0",))
        cube = cube_from_cover(square, PairwiseCover("1,1", ("0,1", "1,0")))
        vc = restrict_along_cube(f, cube)
        assert [vc.dim_i(m) for m in range(4)] == [1, 0, 0, 0]

    def test_restriction_is_a_checked_module(self, square, gf2):
        f = free_module(square, gf2, {"0,0": 1, "0,1": 1})
        cube = cube_from_cover(square, PairwiseCover("1,1", ("0,1", "1,0")))
        m = restrict_along_cube(f, cube)
        assert m.lattice is boolean_lattice(2)
        m.validate()

    def test_missing_edge_rejected(self, gf2):
        with pytest.raises(ValueError):
            PersistenceModule(boolean_lattice(1), gf2, [1, 1], {})


class TestHomBasis:
    def test_hom_from_free_is_evaluation(self, square, gf2):
        # Hom(free[a], F) has dimension dim F(a).
        for a in square.elements:
            fa = free_module(square, gf2, {a: 1})
            f = interval_module(square, gf2, ("0,0", "1,0"))
            assert len(hom_basis(fa, f)) == f.dim(a)

    def test_basis_elements_natural(self, grid22, gf2):
        f = random_module(grid22, gf2, "hb1")
        g = random_module(grid22, gf2, "hb2")
        for nt in hom_basis(f, g):
            nt.validate()

    def test_random_hom_is_natural(self, grid22, gf2):
        rng = random.Random(3)
        f = random_module(grid22, gf2, "rh1")
        g = random_module(grid22, gf2, "rh2")
        random_hom(f, g, rng).validate()

    def test_interval_endomorphisms_are_scalars(self, square, gf2):
        # End of an indecomposable interval module is one-dimensional.
        for support in (("0,0",), ("0,0", "1,0"), ("0,0", "1,0", "0,1"),
                        ("0,0", "1,0", "0,1", "1,1")):
            f = interval_module(square, gf2, support)
            assert len(hom_basis(f, f)) == 1


class TestOpposite:
    def test_double_opposite_identity(self, grid22, gf2):
        f = random_module(grid22, gf2, "op")
        assert opposite_module(opposite_module(f)) == f

    def test_opposite_validates(self, grid22, gf2):
        f = random_module(grid22, gf2, "op2")
        opposite_module(f).validate()


# -- induced maps: the read-offs against the solve-based bodies they replaced --
# (image_of_oracle, kernel_of_oracle and cokernel_of_oracle in oracles.py)


def outcome(construct, nt):
    """The exception type construct(nt) raises, or its dims, every cover
    matrix and every component of its canonical map."""
    try:
        module, canonical = construct(nt)
    except (NoFactorization, NonCommutingSquare) as exc:
        return type(exc)
    lat = module.lattice
    return (module.dims_by_element(),
            [module.cover_matrix_i(u, v) for (u, v) in lat.covers_i()],
            [canonical.component_i(i) for i in range(lat.n)])


def one_entry_changed(nt, rng):
    """nt with one entry of one nonzero-shaped component changed, so that
    it is usually not natural; nt itself when every component is empty."""
    lat, p = nt.source.lattice, nt.source.field.p
    comps = [nt.component_i(i) for i in range(lat.n)]
    spots = [i for i, m in enumerate(comps) if m.nrows and m.ncols]
    if not spots:
        return nt
    i = rng.choice(spots)
    rows = comps[i].to_lists()
    r, c = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    rows[r][c] = (rows[r][c] + rng.randrange(1, p)) % p
    comps[i] = Matrix(nt.source.field, len(rows), len(rows[0]), rows)
    return NatTrans(nt.source, nt.target, comps)


def check_against_oracles(nt) -> dict[str, bool]:
    """kernel_of and cokernel_of agree with their oracles on any input,
    raising or not; image_of (which needs a natural input) raises where its
    oracle raises and otherwise agrees with it.  Returns which raised."""
    raised = {}
    for name, new, old in (("kernel", kernel_of, kernel_of_oracle),
                           ("cokernel", cokernel_of, cokernel_of_oracle)):
        got, want = outcome(new, nt), outcome(old, nt)
        assert got == want, name
        raised[name] = want is NoFactorization
    got, want = outcome(image_of, nt), outcome(image_of_oracle, nt)
    assert got == want or (got is NoFactorization and not nt.is_natural())
    raised["image"] = got is NoFactorization
    return raised


@st.composite
def hom_cases(draw):
    """A random_hom between random modules, on a grid or a random down-set
    lattice, over GF(2) or F_3; its source and target may coincide."""
    lat = draw(lattices())
    field = FieldSpec(draw(st.sampled_from([2, 3])))
    seed = draw(st.integers(0, 10 ** 6))
    f = random_module(lat, field, f"f{seed}", max_gens=4, max_rels=3)
    g = f if draw(st.booleans()) else random_module(lat, field, f"g{seed}",
                                                    max_gens=4, max_rels=3)
    return random_hom(f, g, random.Random(seed))


@settings(max_examples=120, deadline=None)
@given(hom_cases(), st.booleans(), st.integers(0, 10 ** 6))
def test_induced_maps_match_the_solve_oracles(nt, change, seed):
    if change:
        nt = one_entry_changed(nt, random.Random(seed))
    raised = check_against_oracles(nt)
    if nt.is_natural():
        assert not any(raised.values())


@pytest.mark.parametrize("p", [2, 3])
def test_non_natural_inputs_raise_where_the_oracles_do(p):
    field = FieldSpec(p)
    lats = [Lattice.grid([2, 2]), Lattice.grid([1, 1, 1]), Lattice.grid([3, 2])]
    counts = {"kernel": [0, 0], "cokernel": [0, 0], "image": [0, 0]}
    for k in range(40):
        lat = lats[k % len(lats)]
        f = random_module(lat, field, f"nn-f{k}", max_gens=4, max_rels=3)
        g = random_module(lat, field, f"nn-g{k}", max_gens=4, max_rels=3)
        rng = random.Random(k)
        nt = one_entry_changed(random_hom(f, g if k % 2 else f, rng), rng)
        for name, did in check_against_oracles(nt).items():
            counts[name][did] += 1
    # Both outcomes occur, so the agreement above is not vacuous.
    assert all(ok and bad for ok, bad in counts.values()), counts
