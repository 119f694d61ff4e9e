import pytest

from pmodcalc import (Lattice, free_module, interval_module, opposite_module,
                      random_module, restrict_along_cube)
from pmodcalc.calculus import (is_cross_degree, is_degree, min_cross_degree,
                               min_degree, tcofib)
from pmodcalc.lattice import parent_cube
from pmodcalc.resolution import (betti, check_pdim_theorem_1,
                                 check_pdim_theorem_2, pdim)
from pmodcalc.verify import nonexample_module, table1_modules


class TestBetti:
    def test_computed_once_per_module(self, grid22, gf2):
        f = random_module(grid22, gf2, "memo")
        assert betti(f) is betti(f)
        assert pdim(f) == betti(f).max_degree()

    def test_free_module_resolves_itself(self, grid22, gf2):
        gens = {"0,0": 1, "1,2": 2, "2,2": 1}
        f = free_module(grid22, gf2, gens)
        d = betti(f)
        assert d.max_degree() == 0
        assert {(el, 0): k for el, k in gens.items()} == d.entries

    def test_corner_module_full_resolution(self, square, gf2):
        f = interval_module(square, gf2, ("0,0",))
        d = betti(f)
        assert d.value("0,0", 0) == 1
        assert d.value("0,1", 1) == 1
        assert d.value("1,0", 1) == 1
        assert d.value("1,1", 2) == 1

    def test_rectangle_interval_on_grid(self, grid22, gf2):
        # The box [(0,0), (1,1)] inside the 3x3 grid needs a second syzygy
        # at (2,2).
        f = interval_module(grid22, gf2, ("0,0", "0,1", "1,0", "1,1"))
        d = betti(f)
        assert d.value("2,2", 2) == 1
        assert pdim(f) == 2

    def test_nonexample_beta1_top(self, gf2):
        f = nonexample_module(gf2)
        assert betti(f).value("1,1,1", 1) == 1

    def test_nonexample_beta1_oracle(self, gf2):
        # Independent route: the parent-cube complex at the top is
        # 0 -> 0 -> F^3 -> F^2 with the three coatom lines as columns,
        # so the first homology is the kernel of that 2x3 matrix.
        from pmodcalc.linalg import Matrix, kernel_basis
        columns = Matrix(gf2, 2, 3, [[0, 1, 1], [1, 0, 1]])
        assert kernel_basis(columns).ncols == 1

    def test_beta0_is_parent_cube_cofiber(self, grid22, gf2):
        # Independent route to the degree-0 entries.
        for seed in range(4):
            f = random_module(grid22, gf2, f"b0{seed}")
            d = betti(f)
            for a in grid22.elements:
                vc = restrict_along_cube(f, parent_cube(grid22, a))
                assert d.value(a, 0) == tcofib(vc)

    def test_bounded_by_jdim(self, grid22, gf2):
        for seed in range(4):
            f = random_module(grid22, gf2, f"bj{seed}")
            for (el, i), v in betti(f).entries.items():
                assert i <= grid22.jdim(el)
                assert v > 0


class TestPdim:
    def test_free_module(self, grid22, gf2):
        assert pdim(free_module(grid22, gf2, {"1,1": 2})) == 0

    def test_zero_module_convention(self, square, gf2):
        assert pdim(free_module(square, gf2, {})) == -1

    def test_nonexample_not_projective(self, gf2):
        assert pdim(nonexample_module(gf2)) >= 1

    def test_bounded_by_lattice_dimension(self, grid22, cube3, gf2):
        for lat in (grid22, cube3):
            for seed in range(4):
                f = random_module(lat, gf2, f"pb{seed}")
                assert pdim(f) <= lat.poset_dimension()


class TestPdimTheorem1:
    def test_corner_module_all_false(self, square, gf2):
        f = interval_module(square, gf2, ("0,0",))
        report = check_pdim_theorem_1(f)
        assert report.conditions == (False, False, False)
        assert report.consistent

    def test_constant_module_all_true(self, square, gf2):
        f = interval_module(square, gf2, square.elements)
        report = check_pdim_theorem_1(f)
        assert report.conditions == (True, True, True)

    def test_random_modules_consistent(self, grid22, gf2):
        for seed in range(10):
            f = random_module(grid22, gf2, f"t1{seed}")
            assert check_pdim_theorem_1(f).consistent

    def test_table1_consistent(self, gf2):
        for name, module, _ in table1_modules(gf2):
            assert check_pdim_theorem_1(module).consistent, name


class TestPdimTheorem2:
    def test_free_module_all_true(self, square, gf2):
        f = free_module(square, gf2, {"0,0": 1, "1,1": 1})
        report = check_pdim_theorem_2(f)
        assert report.conditions == (True, True, True)

    def test_rectangle_all_false(self, grid22, gf2):
        f = interval_module(grid22, gf2, ("0,0", "0,1", "1,0", "1,1"))
        report = check_pdim_theorem_2(f)
        assert report.conditions == (False, False, False)

    def test_random_modules_consistent(self, grid22, gf2):
        for seed in range(10):
            f = random_module(grid22, gf2, f"t2{seed}")
            assert check_pdim_theorem_2(f).consistent

    def test_nonexample_divergence_is_labeled_not_raised(self, gf2):
        f = nonexample_module(gf2)
        # Honest instantiation at the lattice dimension is consistent.
        honest = check_pdim_theorem_2(f)
        assert honest.hypothesis_ok and honest.consistent
        # Forcing the two-parameter bound on the three-dimensional lattice
        # makes the degree conditions hold while the pdim bound fails.
        off = check_pdim_theorem_2(f, n=2)
        assert not off.hypothesis_ok
        assert off.conditions[1] and not off.conditions[0]
        assert "violated" in off.describe()

    def test_requires_n_at_least_two(self, square, gf2):
        f = interval_module(square, gf2, ("0,0",))
        with pytest.raises(ValueError):
            check_pdim_theorem_2(f, n=1)


class TestNoThirdTheorem:
    """The naive k = 3 case, "pdim <= n-3 iff degree n-2 and cross-degree
    n-3", is false: two interval modules on {0,1}^4 over GF(2) have pdim 2
    but are degree 2 and cross-degree 1.  No pdim check goes past n-2."""

    SUPPORTS = (("0011", "0110", "1110", "1100", "0111"),
                ("1010", "0011", "1110", "1011", "1100"))

    @pytest.mark.parametrize("support", SUPPORTS)
    def test_pdim_bound_fails_while_degree_conditions_hold(self, gf2, support):
        lat = Lattice.grid([1, 1, 1, 1])
        f = interval_module(lat, gf2, [",".join(el) for el in support])
        n = lat.poset_dimension()
        assert n == 4
        assert (pdim(f), min_degree(f), min_cross_degree(f)) == (2, 2, 1)
        assert is_degree(f, n - 2) and is_cross_degree(f, n - 3)
        assert not pdim(f) <= n - 3
        # The two theorems themselves hold on them.
        assert check_pdim_theorem_1(f).consistent
        assert check_pdim_theorem_2(f).consistent


class TestDualMode:
    def test_theorems_hold_on_opposite_lattice(self, grid22, gf2):
        # Injective-dimension analogues via lattice reversal.
        for seed in range(6):
            f = opposite_module(random_module(grid22, gf2, f"d{seed}"))
            assert check_pdim_theorem_1(f).consistent
            assert check_pdim_theorem_2(f).consistent


class TestRestrictionLemma:
    def test_free_module_restrictions_stay_projective(self, grid22, gf2):
        from pmodcalc.lattice import bicartesian_cubes_cached
        f = free_module(grid22, gf2, {"0,0": 1, "1,0": 2, "2,1": 1})
        for cube in bicartesian_cubes_cached(grid22, 2)[:25]:
            restricted = restrict_along_cube(f, cube)
            assert pdim(restricted) <= 0
            assert betti(restricted).max_degree() <= 0

    def test_restriction_does_not_raise_pdim(self, grid22, gf2):
        from pmodcalc.lattice import bicartesian_cubes_cached
        import random as _random
        rng = _random.Random("rl")
        for seed in range(4):
            f = random_module(grid22, gf2, f"rl{seed}")
            bound = pdim(f)
            cubes = [parent_cube(grid22, el) for el in grid22.elements]
            cubes += [rng.choice(bicartesian_cubes_cached(grid22, 2))
                      for _ in range(3)]
            for cube in cubes:
                restricted = restrict_along_cube(f, cube)
                assert pdim(restricted) <= bound
