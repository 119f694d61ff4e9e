import random

import pytest
from hypothesis import given, settings, strategies as st

import pmodcalc
from pmodcalc import (FieldSpec, Lattice, PersistenceModule, direct_sum,
                      free_module, interval_module, opposite_module,
                      random_module)
from pmodcalc.calculus import (_boundary, gamma_lower, gamma_upper,
                               is_cross_degree, is_degree, koszul,
                               min_codegree, min_cross_codegree,
                               min_cross_degree, min_degree, t_lower, t_upper,
                               tcofib)
from pmodcalc.lattice import parent_cube
from pmodcalc.resolution import (betti, check_pdim_theorem_1,
                                 check_pdim_theorem_2, pdim)
from pmodcalc.verify import nonexample_module, table1_modules
from pmodcalc import linalg
from oracles import (betti_oracle, boolean_lattice, boundary_layout_oracle, boundary_oracle,
                     canonical_iso_1_oracle,
                     canonical_iso_2_oracle, direct_sum_oracle, jdim,
                     koszul_homology_oracle, restrict_along_cube, top, top_cube)
from test_random_lattices import downset_lattice, random_lattice


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
            for x, a in enumerate(grid22.elements):
                assert d.value(a, 0) == tcofib(f, parent_cube(grid22, x))

    def test_bounded_by_jdim(self, grid22, gf2):
        for seed in range(4):
            f = random_module(grid22, gf2, f"bj{seed}")
            for (el, i), v in betti(f).entries.items():
                assert i <= jdim(grid22, el)
                assert v > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_statistics_after_betti_build_no_boundary(self, gf2, seed, monkeypatch):
        """betti fills every element's local Koszul record; the lower
        statistics read beta^0 and beta^1 off it and build nothing."""
        f = random_module(Lattice.grid([3, 3]), gf2, f"spy{seed}", max_gens=4, max_rels=3)
        betti(f)

        def forbidden(*args):
            raise AssertionError("a boundary was built again")

        monkeypatch.setattr(pmodcalc.calculus, "_boundary", forbidden)
        min_codegree(f)
        min_cross_codegree(f)


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
            cubes = [parent_cube(grid22, x) for x in range(grid22.n)]
            cubes += [rng.choice(bicartesian_cubes_cached(grid22, 2))
                      for _ in range(3)]
            for cube in cubes:
                restricted = restrict_along_cube(f, cube)
                assert pdim(restricted) <= bound


# -- the local Koszul complex and the F^op route, against their oracles ----------

LATTICES = dict(grid=st.sampled_from([None, [1, 1], [2, 2], [1, 1, 1], [3, 2], [2, 1, 1]]),
                points=st.integers(2, 4), lattice_seed=st.integers(0, 10 ** 6))
KINDS = ("zero", "free", "interval", "random")


def sample_module(lat, field, kind, seed):
    """The zero module, a free module or an interval nonzero only in a top
    corner (generated at, or the up-set of, one of the last three elements
    of a linear extension), or a random module."""
    c = lat.topo_order()[-1 - seed % min(3, lat.n)]
    if kind == "zero":
        return free_module(lat, field, {})
    if kind == "free":
        return free_module(lat, field, {lat.element(c): 1 + seed % 2, top(lat): 1})
    if kind == "interval":
        return interval_module(lat, field, [lat.element(v) for v in range(lat.n)
                                            if lat.leq_i(c, v)])
    return random_module(lat, field, f"local{seed}", max_gens=4, max_rels=3)


@settings(max_examples=60, deadline=None)
@given(**LATTICES, p=st.sampled_from([2, 3]), kind=st.sampled_from(KINDS),
       seed=st.integers(0, 10 ** 6))
def test_betti_matches_restricted_koszul_oracle(grid, points, lattice_seed, p,
                                                kind, seed):
    """betti takes one local Koszul complex per element off the cover maps
    of f: it restricts f along no cube and builds no module, and agrees
    with the Koszul homology of f restricted along every parent cube.
    ``koszul`` of a cube module agrees with the oracle's cube complex."""
    lat = random_lattice(grid, points, lattice_seed)
    f = sample_module(lat, FieldSpec(p), kind, seed)
    built, complexes = [], []

    def forbidden(*args, **kwargs):
        raise AssertionError("betti restricted f along a cube")

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    def counting_koszul(*args, **kwargs):
        complexes.append(args)
        return real_koszul(*args, **kwargs)

    real_init, real_koszul = PersistenceModule.__init__, pmodcalc.calculus.koszul
    with pytest.MonkeyPatch.context() as mp:
        for mod in (pmodcalc, pmodcalc.pmodule, pmodcalc.calculus,
                    pmodcalc.resolution):
            if hasattr(mod, "restrict_along_cube"):
                mp.setattr(mod, "restrict_along_cube", forbidden)
        mp.setattr(pmodcalc.resolution, "koszul", counting_koszul)
        mp.setattr(PersistenceModule, "__init__", counting_init)
        got = betti(f).entries
    assert not built
    assert len(complexes) == lat.n
    assert got == betti_oracle(f)
    if kind == "zero":
        assert got == {}
    for x in range(lat.n):
        cube = restrict_along_cube(f, parent_cube(lat, x))
        kx = koszul(cube, top_cube(cube))
        assert [kx.homology(i) for i in range(kx.k + 1)] == koszul_homology_oracle(cube)


def test_koszul_refuses_what_is_not_a_cube_of_the_module_lattice(grid22, gf2):
    """The empty tuple, a length that is not a power of two, a vertex out
    of range, negative included, and an edge that goes down, at the bottom
    or only at the top, are refused before anything of f is read."""
    f = free_module(grid22, gf2, {"0,0": 1})
    idx = grid22.index
    top = parent_cube(grid22, grid22.n - 1)

    def forbidden(*args):
        raise AssertionError("f was read before the cube was checked")

    not_cubes = ((), (0, 1, 2), (0, grid22.n), (-1,), top[:-1] + (-1,),
                 (idx("1,0"), idx("0,0")),
                 (idx("0,0"), idx("1,0"), idx("0,1"), idx("1,0")))
    with pytest.MonkeyPatch.context() as mp:
        for name in ("dim_i", "transport_i"):
            mp.setattr(PersistenceModule, name, forbidden)
        for cube in not_cubes:
            with pytest.raises(ValueError, match="is not a cube of"):
                koszul(f, cube)
    assert f.calc_cache == {}
    assert koszul(f, parent_cube(grid22, idx("2,0"))).homology(0) == 0


def test_koszul_takes_any_cube_of_the_module_lattice(grid22, gf2):
    """A cube that is no parent cube is read as f restricted along it: the
    edge 0 -> 3 of a chain, and [2,2]'s top with its lower covers over 0,0
    in place of their meet."""
    chain = Lattice.grid([3])
    f = free_module(chain, gf2, {"1": 1})
    assert koszul(f, (0, 3)).betti == (1, 0)
    idx = grid22.index
    wide = (idx("0,0"),) + parent_cube(grid22, idx("2,2"))[1:]
    for f in (free_module(grid22, gf2, {"0,0": 1}), free_module(grid22, gf2, {"1,1": 1}),
              free_module(grid22, gf2, {})):
        got = koszul(f, wide).betti
        assert list(got) == koszul_homology_oracle(restrict_along_cube(f, wide))


@pytest.mark.parametrize("p", [2, 3])
def test_boundary_matches_the_combinations_layout(p):
    """_boundary, from the stored parent-cube vertices and the cached
    layout, equals the meets and combinations it replaced, at every element
    and every degree 1..k: on grids, Boolean lattices and a down-set
    lattice, for the cover maps of f and for those of t_lower(f, 1)."""
    field = FieldSpec(p)
    lats = [Lattice.grid([2, 2]), Lattice.grid([2, 1, 1]), boolean_lattice(3),
            boolean_lattice(4), downset_lattice(4, random.Random("layout"))]
    for lat in lats:
        for seed in range(3):
            f = random_module(lat, field, f"layout{seed}", max_gens=4, max_rels=3)
            for g in (f, t_lower(f, 1).module):
                for x in range(lat.n):
                    for i in range(1, len(lat.parents_i(x)) + 1):
                        args = (x, i, g.transport_i, g.dim_i)
                        assert (_boundary(field, lat.parent_vertices_i(x), *args[1:])
                                == boundary_layout_oracle(g, *args)), (x, i)


def test_t_lower_shares_one_empty_component_per_dim(grid22, gf2):
    """Where T(x) = 0 the canonical component is one F(x) x 0 matrix per
    dim F(x): with F free on 1,1 and n = 0, T is zero, so two are made."""
    f = free_module(grid22, gf2, {"1,1": 1})
    eps = t_lower(f, 0).canonical
    components = [eps.component_i(x) for x in range(grid22.n)]
    assert {(c.nrows, c.ncols) for c in components} == {(0, 0), (1, 0)}
    assert len({id(c) for c in components}) == 2


@pytest.mark.parametrize("shape", [[1, 1, 1], [2, 1, 1], [1, 1, 1, 1]])
def test_local_complex_signs_over_f3(shape, gf3):
    """Where jdim >= 3 the signs of the local complex are not row and column
    scalings of one another, so over F_3 a wrong sign shows: each d_i o
    d_(i+1) is zero and the diagram matches the oracle."""
    lat = Lattice.grid(shape)
    for seed in range(6):
        f = random_module(lat, gf3, f"signs{seed}", max_gens=5, max_rels=4)
        for x in range(lat.n):
            ds = [_boundary(gf3, lat.parent_vertices_i(x), i, f.transport_i, f.dim_i)
                  for i in range(1, len(lat.parents_i(x)) + 1)]
            assert all((a @ b).is_zero() for a, b in zip(ds, ds[1:]))
        assert betti(f).entries == betti_oracle(f)


@settings(max_examples=60, deadline=None)
@given(**LATTICES, p=st.sampled_from([2, 3]),
       kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
       seeds=st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)))
def test_block_kernel_matches_the_stacked_zero_blocks(grid, points, lattice_seed,
                                                      p, kinds, seeds):
    """_boundary at every element and degree, and direct_sum of every pair
    of cover maps, equal the zero blocks, vstack and hstack they replace."""
    lat = random_lattice(grid, points, lattice_seed)
    f, g = (sample_module(lat, FieldSpec(p), k, s) for k, s in zip(kinds, seeds))
    for x in range(lat.n):
        for i in range(1, len(lat.parents_i(x)) + 1):
            args = (x, i, f.transport_i, f.dim_i)
            assert (_boundary(f.field, lat.parent_vertices_i(x), *args[1:])
                    == boundary_oracle(f, *args)), (x, i)
    for u, v in lat.covers_i():
        pair = [f.transport_i(u, v), g.transport_i(u, v)]
        assert linalg.direct_sum(pair) == direct_sum_oracle(pair)


@settings(max_examples=40, deadline=None)
@given(**LATTICES, p=st.sampled_from([2, 3]), kind=st.sampled_from(KINDS),
       seed=st.integers(0, 10 ** 6))
def test_third_condition_on_opposite_matches_upper_oracle(grid, points,
                                                          lattice_seed, p, kind, seed):
    """The canonical-map condition, read on F^op with gamma_lower and
    t_lower, equals the dualised-back upper one for every n the check
    accepts (off-hypothesis n included), and neither check leaves an
    upper approximation in the cache of f."""
    lat = random_lattice(grid, points, lattice_seed)
    f = sample_module(lat, FieldSpec(p), kind, seed)
    d = lat.poset_dimension()
    reports = ([(check_pdim_theorem_1(f, n, strict=False), canonical_iso_1_oracle, n)
                for n in range(1, d + 2)]
               + [(check_pdim_theorem_2(f, n, strict=False), canonical_iso_2_oracle, n)
                  for n in range(2, d + 2)])
    assert not [key for key in f.calc_cache if isinstance(key, tuple)
                and key[0] in ("gamma_upper", "t_upper")]
    for report, oracle, n in reports:
        assert report.conditions[2] == oracle(f, n), (report.theorem, n)
        if report.hypothesis_ok:
            assert report.consistent


@settings(max_examples=40, deadline=None)
@given(**LATTICES, p=st.sampled_from([2, 3]),
       kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
       seeds=st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)))
def test_direct_sums(grid, points, lattice_seed, p, kinds, seeds):
    """Over F + G, Betti numbers add entrywise, pdim and each degree
    statistic are the larger of the two, each pdim-theorem condition is
    the AND of those of F and G, and the dims of T_n and Γ_n, lower and
    upper, add pointwise at every n up to the lattice dimension."""
    lat = random_lattice(grid, points, lattice_seed)
    field = FieldSpec(p)
    f, g = (sample_module(lat, field, k, s) for k, s in zip(kinds, seeds))
    s = direct_sum(f, g)
    want = dict(betti(f).entries)
    for key, v in betti(g).entries.items():
        want[key] = want.get(key, 0) + v
    assert betti(s).entries == want
    assert pdim(s) == max(pdim(f), pdim(g))
    d = lat.poset_dimension()
    checks = ([check_pdim_theorem_1] if d >= 1 else []) + (
        [check_pdim_theorem_2] if d >= 2 else [])
    for check in checks:
        cf, cg, cs = (check(m).conditions for m in (f, g, s))
        assert cs == tuple(a and b for a, b in zip(cf, cg)), check.__name__
    for stat in (min_degree, min_cross_degree, min_codegree, min_cross_codegree):
        assert stat(s) == max(stat(f), stat(g)), stat.__name__
    for approx in (t_lower, gamma_lower, t_upper, gamma_upper):
        for n in range(d + 1):
            ms, mf, mg = (approx(m, n).module for m in (s, f, g))
            assert all(ms.dim_i(x) == mf.dim_i(x) + mg.dim_i(x)
                       for x in range(lat.n)), (approx.__name__, n)
