import itertools
import random

import pytest

from pmodcalc import (Matrix, NatTrans, PersistenceModule,
                      cube_as_module, direct_sum, free_module, hom_basis,
                      identity_nat, image_of, interval_module, is_iso,
                      kernel_of, cokernel_of, opposite_module, random_module,
                      restrict_along_cube, zero_nat)
from pmodcalc.lattice import parent_cube, cube_from_cover, PairwiseCover
from pmodcalc.linalg import rank
from pmodcalc.pmodule import (NonCommutingSquare, NotComparable, NotConnected,
                              NotConvex, NotNatural, VecCube, random_hom,
                              sum_inclusion, sum_projection)
from pmodcalc.pmod_io import print_pmod


def constant_module(lat, field):
    return interval_module(lat, field, lat.elements)


class TestValidateFunctor:
    def test_free_module_ok(self, square, gf2):
        f = free_module(square, gf2, {"0,0": 2, "1,0": 1})
        assert f.validate() is f

    def test_non_commuting_square(self, square, gf2):
        dims = {el: 1 for el in square.elements}
        maps = {("0,0", "0,1"): [[1]], ("0,0", "1,0"): [[1]],
                ("0,1", "1,1"): [[1]], ("1,0", "1,1"): [[0]]}
        with pytest.raises(NonCommutingSquare):
            PersistenceModule(square, gf2, dims, maps)

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
        with pytest.raises(ValueError):
            PersistenceModule(square, gf2, {el: 1 for el in square.elements}, {})

    def test_non_cover_key_rejected(self, square, gf2):
        with pytest.raises(ValueError):
            PersistenceModule(square, gf2, {"0,0": 1, "1,1": 1},
                              {("0,0", "1,1"): [[1]]})


class TestTransport:
    def test_identity_on_equal(self, square, gf2):
        f = constant_module(square, gf2)
        assert f.transport("0,1", "0,1") == Matrix.identity(gf2, 1)

    def test_free_module_transport_is_inclusion(self, grid22, gf2):
        f = free_module(grid22, gf2, {"0,0": 1, "1,1": 1})
        # Wherever both dims agree the transport is injective of full rank.
        t = f.transport("1,1", "2,2")
        assert rank(t) == f.dim("1,1")

    def test_interval_transport_membership(self, square, gf2):
        support = ("0,0", "1,0", "0,1")
        f = interval_module(square, gf2, support)
        for u in square.elements:
            for v in square.elements:
                if not square.leq(u, v):
                    continue
                # Oracle: compose the cover matrices along one explicit chain.
                t = f.transport(u, v)
                if u in support and v in support:
                    assert t == Matrix.identity(gf2, 1)
                else:
                    assert t.nrows == f.dim(v) and t.ncols == f.dim(u)

    def test_not_comparable(self, square, gf2):
        f = constant_module(square, gf2)
        with pytest.raises(NotComparable):
            f.transport("1,0", "0,1")


class TestInterval:
    def test_corner_matches_dims(self, square, gf2):
        f = interval_module(square, gf2, ("0,0",))
        assert f.dims_by_element() == {"0,0": 1, "0,1": 0, "1,0": 0, "1,1": 0}

    def test_whole_lattice_constant(self, grid22, gf2):
        f = interval_module(grid22, gf2, grid22.elements)
        assert all(f.dim(el) == 1 for el in grid22.elements)
        assert all(f.cover_matrix(u, v) == Matrix.identity(gf2, 1)
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
        expect = {el: sum(1 for a in ("0,1", "1,0") if square.leq(a, el))
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
        comps = {el: Matrix.identity(gf2, 1) for el in square.elements}
        comps["1,1"] = Matrix(gf2, 1, 1, [[0]])
        with pytest.raises(NotNatural):
            NatTrans(f, f, comps).validate()


class TestRestrictAndCubes:
    def test_constant_module_constant_cube(self, square, gf2):
        f = constant_module(square, gf2)
        cube = cube_from_cover(square, PairwiseCover("1,1", ("0,1", "1,0")))
        vc = restrict_along_cube(f, cube)
        assert vc.dims == (1, 1, 1, 1)
        vc.validate()

    def test_zero_cube_single_space(self, square, gf2):
        f = free_module(square, gf2, {"0,0": 2})
        cube = parent_cube(square, "0,0")
        vc = restrict_along_cube(f, cube)
        assert vc.arity == 0 and vc.dims == (2,)

    def test_corner_module_on_full_square(self, square, gf2):
        f = interval_module(square, gf2, ("0,0",))
        cube = cube_from_cover(square, PairwiseCover("1,1", ("0,1", "1,0")))
        vc = restrict_along_cube(f, cube)
        assert vc.dims == (1, 0, 0, 0)

    def test_cube_as_module_roundtrip(self, square, gf2):
        f = free_module(square, gf2, {"0,0": 1, "0,1": 1})
        cube = cube_from_cover(square, PairwiseCover("1,1", ("0,1", "1,0")))
        m = cube_as_module(restrict_along_cube(f, cube))
        assert m.lattice.n == 4
        m.validate()

    def test_missing_edge_rejected(self, gf2):
        with pytest.raises(ValueError):
            VecCube(gf2, 1, [1, 1], {})


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
