"""Robustness coverage away from the default corpus: odd-characteristic
fields, a non-grid distributive lattice whose low-dimension subposet is
not down-closed, and degenerate one-element lattices."""

import pytest

from pmodcalc import (FieldSpec, Lattice, free_module, interval_module,
                      is_iso, random_module)
from pmodcalc.calculus import (PREDICATES, find_failing_cube, gamma_lower,
                               gamma_upper, is_cross_codegree, is_cross_degree,
                               min_codegree, min_cross_codegree,
                               min_cross_degree, min_degree, t_lower, t_upper)
from pmodcalc.generators import (random_image, random_metric_space,
                                 image_bifiltration_homology, sublevel_rips_h0)
from pmodcalc.resolution import (betti, check_pdim_theorem_1,
                                 check_pdim_theorem_2, pdim)
from pmodcalc.verify import table1_modules
from oracles import NotDownClosed, colim_over_downset, component, dim, jdim


class TestOddCharacteristic:
    @pytest.mark.parametrize("p", [3, 5])
    def test_table1_values_field_independent(self, p):
        field = FieldSpec(p)
        for name, module, expected in table1_modules(field):
            got = (min_degree(module), min_cross_degree(module),
                   min_codegree(module), min_cross_codegree(module))
            assert got == expected, (name, p)

    @pytest.mark.parametrize("p", [3, 5])
    def test_gamma_properties_over_odd_fields(self, p):
        field = FieldSpec(p)
        lat = Lattice.grid([2, 2])
        for seed in range(6):
            f = random_module(lat, field, f"odd{p}:{seed}")
            for n in (0, 1, 2):
                gl = gamma_lower(f, n)
                assert is_cross_codegree(gl.module, n)
                if is_cross_codegree(f, n):
                    assert is_iso(gl.canonical)
                gu = gamma_upper(f, n)
                assert is_cross_degree(gu.module, n)
                if is_cross_degree(f, n):
                    assert is_iso(gu.canonical)

    @pytest.mark.parametrize("p", [3, 5])
    def test_pdim_equivalences_over_odd_fields(self, p):
        field = FieldSpec(p)
        lat = Lattice.grid([2, 2])
        for seed in range(4):
            f = random_module(lat, field, f"oddpd{p}:{seed}")
            assert check_pdim_theorem_1(f).consistent
            assert check_pdim_theorem_2(f).consistent

    def test_predicate_oracles_agree_over_gf3(self, gf3):
        lat = Lattice.grid([1, 1])
        for seed in range(4):
            f = random_module(lat, gf3, f"orc{seed}")
            for n in (0, 1, 2):
                for kind, holds in PREDICATES.items():
                    assert holds(f, n) == (find_failing_cube(f, n, kind) is None)

    def test_pipelines_over_gf3(self, gf3):
        import random as _random
        rng = _random.Random("gf3img")
        img = random_image(rng, 4, 4, channels=2, max_value=2)
        h1 = image_bifiltration_homology(img, 1, gf3)
        assert min_cross_degree(h1) <= 1 and pdim(h1) <= 1
        space = random_metric_space(_random.Random("gf3rips"), 5)
        h0 = sublevel_rips_h0(space, gf3)
        assert min_cross_codegree(h0) <= 1


def pinched_lattice():
    """The down-set lattice of the poset {a, b < t}: five elements with a
    join-irreducible top sitting over a join-reducible coatom.  Here the
    elements of join-dimension <= 1 below the top do NOT form a
    down-closed set, which exercises the general Kan-extension index."""
    return Lattice.from_covers(
        ["0", "a", "b", "ab", "abt"],
        [("0", "a"), ("0", "b"), ("a", "ab"), ("b", "ab"), ("ab", "abt")])


class TestPinchedLattice:
    def test_is_distributive_and_dimensions(self):
        lat = pinched_lattice()
        assert lat.validate() is lat
        assert jdim(lat, "ab") == 2
        assert jdim(lat, "abt") == 1  # join-irreducible despite being the top
        assert lat.poset_dimension() == 2

    def test_low_dimension_subposet_not_down_closed(self):
        lat = pinched_lattice()
        field = FieldSpec(2)
        f = interval_module(lat, field, lat.elements)
        with pytest.raises(NotDownClosed):
            colim_over_downset(f, "abt", lambda v: jdim(lat, v) <= 1)

    def test_t_lower_still_computes_the_kan_extension(self, gf2):
        # The index for the approximation at the top is {0, a, b, abt},
        # which contains its own target, so the colimit is F(abt).
        lat = pinched_lattice()
        for seed in range(5):
            f = random_module(lat, gf2, f"pinch{seed}")
            res = t_lower(f, 1)
            assert dim(res.module, "abt") == dim(f, "abt")
            comp = component(res.canonical, "abt")
            assert comp.nrows == comp.ncols
            res.module.validate()
            res.canonical.validate()

    def test_gamma_properties_hold(self, gf2):
        lat = pinched_lattice()
        for seed in range(6):
            f = random_module(lat, gf2, f"pinchg{seed}")
            for n in (0, 1, 2):
                gl = gamma_lower(f, n)
                assert is_cross_codegree(gl.module, n)
                assert find_failing_cube(gl.module, n, "cross_codegree") is None
                if is_cross_codegree(f, n):
                    assert is_iso(gl.canonical)
                gu = gamma_upper(f, n)
                assert is_cross_degree(gu.module, n)
                if is_cross_degree(f, n):
                    assert is_iso(gu.canonical)

    def test_fast_and_oracle_paths_agree(self, gf2):
        lat = pinched_lattice()
        for seed in range(6):
            f = random_module(lat, gf2, f"pincho{seed}")
            for n in (0, 1, 2):
                for kind, holds in PREDICATES.items():
                    assert holds(f, n) == (find_failing_cube(f, n, kind) is None)

    def test_pdim_equivalences_hold(self, gf2):
        lat = pinched_lattice()
        for seed in range(6):
            f = random_module(lat, gf2, f"pinchp{seed}")
            assert check_pdim_theorem_1(f).consistent
            assert check_pdim_theorem_2(f).consistent

    def test_convergence(self, gf2):
        lat = pinched_lattice()
        f = random_module(lat, gf2, "pinchc")
        d = lat.poset_dimension()
        assert is_iso(t_lower(f, d).canonical)
        assert is_iso(t_upper(f, d).canonical)


class TestDegenerateLattices:
    def test_single_element_grid(self, gf2):
        lat = Lattice.grid([0])
        assert lat.n == 1
        assert lat.poset_dimension() == 0
        f = free_module(lat, gf2, {"0": 3})
        assert is_iso(t_lower(f, 0).canonical)
        assert is_iso(t_upper(f, 0).canonical)
        assert pdim(f) == 0
        assert min_cross_degree(f) == 0

    def test_single_point_grid_multidim(self, gf2):
        lat = Lattice.grid([0, 0])
        assert lat.n == 1
        f = interval_module(lat, gf2, ("0,0",))
        assert betti(f).value("0,0", 0) == 1

    def test_chain_modules(self, gf2):
        lat = Lattice.grid([3])
        f = interval_module(lat, gf2, ("1", "2"))
        # One-parameter interval modules have pdim at most 1.
        assert pdim(f) == 1
        assert min_cross_degree(f) <= 1
        assert check_pdim_theorem_1(f).consistent

    def test_zero_module_on_chain(self, gf2):
        lat = Lattice.grid([2])
        z = free_module(lat, gf2, {})
        assert pdim(z) == -1
        assert check_pdim_theorem_1(z).conditions == (True, True, True)
