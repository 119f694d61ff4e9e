"""Structural properties over randomly generated distributive lattices.

Every finite distributive lattice is the lattice of down-sets of some
finite poset, so sampling random small posets and taking their down-set
lattices walks the whole class (up to size), well beyond grids."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pmodcalc import (FieldSpec, Lattice, Matrix, boolean_lattice, is_iso,
                      random_module, restrict_along_cube)
from pmodcalc.calculus import (PREDICATES, find_failing_cube, gamma_lower,
                               gamma_upper, is_cross_codegree, is_cross_degree,
                               min_codegree, min_cross_codegree,
                               min_cross_degree, min_degree, koszul, t_lower,
                               t_upper, tcofib, tfib)
from pmodcalc.lattice import bicartesian_cubes_cached, child_cube, parent_cube
from pmodcalc.linalg import factor_through, hstack, rank, solve_left, vstack
from pmodcalc.pmodule import opposite_module
from pmodcalc.resolution import (betti, check_pdim_theorem_1,
                                 check_pdim_theorem_2, pdim)
from oracles import (PREDICATE_ORACLES, colim_over_downset,
                     gamma_lower_sweep_oracle, is_strongly_bicartesian,
                     join_oracle, leq, lim_over_upset, mdim, meet_oracle,
                     t_lower_sweep_oracle, transport)
from test_calculus import check_gamma_against_oracles

GF2 = FieldSpec(2)


def downset_lattice(n_points, rng):
    """The lattice of down-sets of a random poset on n_points elements."""
    rel = {(i, i) for i in range(n_points)}
    for i in range(n_points):
        for j in range(i + 1, n_points):
            if rng.random() < 0.4:
                rel.add((i, j))
    # transitive closure
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    downsets = []
    for mask in range(1 << n_points):
        members = {i for i in range(n_points) if (mask >> i) & 1}
        if all(a in members for b in members for a in range(n_points)
               if (a, b) in rel):
            downsets.append(frozenset(members))
    downsets.sort(key=lambda s: (len(s), sorted(s)))
    names = {s: "d" + "".join(str(i) for i in sorted(s)) if s else "empty"
             for s in downsets}
    covers = [(names[a], names[b]) for a in downsets for b in downsets
              if a < b and len(b) == len(a) + 1]
    return Lattice.from_covers([names[s] for s in downsets], covers)


def random_lattice(grid, points, lattice_seed):
    """The grid of the given shape, or else a random down-set lattice."""
    return (Lattice.grid(grid) if grid else
            downset_lattice(points, random.Random(lattice_seed)))


@pytest.fixture(scope="module")
def random_lattices():
    rng = random.Random("downset-lattices")
    lattices = []
    while len(lattices) < 8:
        lat = downset_lattice(rng.randint(2, 4), rng)
        if lat.n > 2:
            lattices.append(lat)
    return lattices


class TestDownsetLattices:
    def test_all_validate_as_distributive(self, random_lattices):
        for lat in random_lattices:
            assert lat.validate() is lat

    def test_jdim_equals_parent_count_oracle(self, random_lattices):
        # Independent oracle: minimal join-decomposition into irreducibles,
        # with irreducibility itself decided by brute force.
        def brute_irreducibles(lat):
            out = []
            for v in lat.elements:
                if v == lat.bottom():
                    continue
                below = [u for u in lat.elements if leq(lat, u, v) and u != v]
                if not any(lat.join(x, y) == v for x in below for y in below):
                    out.append(v)
            return out

        def oracle_jdim(lat, v):
            if v == lat.bottom():
                return 0
            irr = [j for j in brute_irreducibles(lat) if leq(lat, j, v)]
            for k in range(1, len(irr) + 1):
                for combo in itertools.combinations(irr, k):
                    acc = combo[0]
                    for x in combo[1:]:
                        acc = lat.join(acc, x)
                    if acc == v:
                        return k
            raise AssertionError(f"no decomposition for {v}")

        for lat in random_lattices:
            for v in lat.elements:
                assert lat.jdim(v) == oracle_jdim(lat, v)

    def test_parent_child_cubes_bicartesian(self, random_lattices):
        for lat in random_lattices:
            for v in lat.elements:
                assert is_strongly_bicartesian(parent_cube(lat, v))
                assert is_strongly_bicartesian(child_cube(lat, v))

    def test_gamma_approximation_properties(self, random_lattices):
        for li, lat in enumerate(random_lattices):
            for seed in range(2):
                f = random_module(lat, GF2, f"dl{li}:{seed}")
                for n in (0, 1, 2):
                    gl = gamma_lower(f, n)
                    assert is_cross_codegree(gl.module, n)
                    if is_cross_codegree(f, n):
                        assert is_iso(gl.canonical)
                    gu = gamma_upper(f, n)
                    assert is_cross_degree(gu.module, n)
                    if is_cross_degree(f, n):
                        assert is_iso(gu.canonical)

    def test_fast_vs_oracle_predicates(self, random_lattices):
        for li, lat in enumerate(random_lattices[:5]):
            f = random_module(lat, GF2, f"dlo{li}")
            for n in (0, 1, 2):
                for kind, holds in PREDICATES.items():
                    assert holds(f, n) == (find_failing_cube(f, n, kind) is None)

    @pytest.mark.parametrize("p", [2, 3])
    def test_kan_extensions_match_global_oracle(self, random_lattices, p):
        # t_lower is a local sweep and t_upper its dual on the opposite
        # lattice; both must agree with the global (co)limit over the
        # whole index of every element, and so must their canonical maps.
        field = FieldSpec(p)
        grids = [Lattice.grid(s) for s in ([2, 2], [1, 1, 1], [3, 2])]
        for li, lat in enumerate(grids + random_lattices):
            f = random_module(lat, field, f"kan{p}:{li}", max_gens=4, max_rels=3)
            for n in range(lat.poset_dimension() + 1):
                low, up = t_lower(f, n), t_upper(f, n)
                for x in lat.elements:
                    dim, cocones = colim_over_downset(
                        f, x, lambda v: lat.jdim(v) <= n)
                    induced = solve_left(
                        hstack(list(cocones.values())),
                        hstack([transport(f, v, x) for v in cocones]))
                    assert low.module.dim(x) == dim
                    assert rank(low.canonical.component(x)) == rank(induced)
                    dim, cones = lim_over_upset(f, x, lambda v: mdim(lat, v) <= n)
                    induced = factor_through(
                        vstack([transport(f, x, v) for v in cones]),
                        vstack(list(cones.values())))
                    assert up.module.dim(x) == dim
                    assert rank(up.canonical.component(x)) == rank(induced)

    def test_pdim_equivalences(self, random_lattices):
        for li, lat in enumerate(random_lattices):
            d = lat.poset_dimension()
            for seed in range(2):
                f = random_module(lat, GF2, f"dlp{li}:{seed}")
                if d >= 1:
                    assert check_pdim_theorem_1(f).consistent
                if d >= 2:
                    assert check_pdim_theorem_2(f).consistent
                assert pdim(f) <= d

    def test_convergence_above_dimension(self, random_lattices):
        for li, lat in enumerate(random_lattices[:4]):
            f = random_module(lat, GF2, f"dlc{li}")
            d = lat.poset_dimension()
            for n in (d, d + 1):
                assert is_iso(t_lower(f, n).canonical)
                assert is_iso(t_upper(f, n).canonical)


@settings(max_examples=60, deadline=None)
@given(points=st.integers(1, 5), lattice_seed=st.integers(0, 10 ** 6))
def test_join_and_meet_match_the_bound_scan(points, lattice_seed):
    """join_i / meet_i, looked up by the up- and down-set masks, are the
    least upper and greatest lower bounds a scan of all bounds finds, on
    a down-set lattice and on its opposite."""
    lat = downset_lattice(points, random.Random(lattice_seed))
    for lt in (lat, lat.opposite()):
        for i in range(lt.n):
            for j in range(lt.n):
                assert lt.join_i(i, j) == join_oracle(lt, i, j) >= 0
                assert lt.meet_i(i, j) == meet_oracle(lt, i, j) >= 0


@settings(max_examples=60, deadline=None)
@given(points=st.integers(2, 4), lattice_seed=st.integers(0, 10 ** 6),
       p=st.sampled_from([2, 3]), seed=st.integers(0, 10 ** 6))
def test_gamma_sweep_matches_oracle_on_downset_lattices(points, lattice_seed,
                                                        p, seed):
    lat = downset_lattice(points, random.Random(lattice_seed))
    f = random_module(lat, FieldSpec(p), f"dsweep{seed}", max_gens=4, max_rels=3)
    for n in range(lat.poset_dimension() + 2):
        check_gamma_against_oracles(f, n)


def betti_read_off(f, degrees):
    """The largest jdim(a) over the elements a with a nonzero Betti number
    in one of ``degrees``; 0 when there is none."""
    return max((f.lattice.jdim(a) for (a, i) in betti(f).entries if i in degrees),
               default=0)


@settings(max_examples=80, deadline=None)
@given(grid=st.sampled_from([None, [1, 1], [2, 2], [1, 1, 1], [3, 2], [2, 1, 1]]),
       points=st.integers(2, 4), lattice_seed=st.integers(0, 10 ** 6),
       p=st.sampled_from([2, 3]), seed=st.integers(0, 10 ** 6))
def test_degree_statistics_read_off_betti_supports(grid, points, lattice_seed, p, seed):
    """T_n is the left Kan extension from {jdim <= n}, so f is codegree n
    exactly when it has a presentation generated and related there, and
    cross-codegree n exactly when it is generated there; the upper
    statistics are the same read-offs on the opposite module, where jdim
    is the original mdim.  Independent of the Kan extensions and of the
    bicartesian-cube enumeration."""
    lat = random_lattice(grid, points, lattice_seed)
    f = random_module(lat, FieldSpec(p), f"betti-read{seed}", max_gens=4, max_rels=3)
    op = opposite_module(f)
    assert min_codegree(f) == betti_read_off(f, (0, 1))
    assert min_cross_codegree(f) == betti_read_off(f, (0,))
    assert min_degree(f) == betti_read_off(op, (0, 1))
    assert min_cross_degree(f) == betti_read_off(op, (0,))


@settings(max_examples=30, deadline=None)
@given(grid=st.sampled_from([None, [1, 1, 1], [2, 1, 1], [2, 2]]),
       points=st.integers(2, 4), lattice_seed=st.integers(0, 10 ** 6),
       p=st.sampled_from([2, 3]), seed=st.integers(0, 10 ** 6))
def test_predicates_match_the_approximations_and_the_cubes(grid, points,
                                                           lattice_seed, p, seed):
    """Each is_* predicate, read off the cover maps, equals its definition
    through t_lower / gamma_lower (on the opposite module for the upper
    ones) and the bicartesian-cube oracle, for every n up to dim + 1.
    Elements of jdim 3 exercise the signs of the relation matrix over F_3."""
    lat = random_lattice(grid, points, lattice_seed)
    f = random_module(lat, FieldSpec(p), f"read-off{seed}", max_gens=5, max_rels=4)
    for n in range(lat.poset_dimension() + 2):
        for kind, holds in PREDICATES.items():
            got = holds(f, n)
            assert got == PREDICATE_ORACLES[kind](f, n), (kind, n)
            assert got == (find_failing_cube(f, n, kind) is None), (kind, n)


#: Each lower approximation with the sweep that always builds a new module.
LOWER_SWEEPS = ((t_lower, t_lower_sweep_oracle),
                (gamma_lower, gamma_lower_sweep_oracle))


@settings(max_examples=60, deadline=None)
@given(grid=st.sampled_from([None, [1, 1], [2, 2], [1, 1, 1], [3, 2], [2, 1, 1]]),
       points=st.integers(2, 4), lattice_seed=st.integers(0, 10 ** 6),
       p=st.sampled_from([2, 3]), kind=st.sampled_from(("random", "free", "gamma")),
       seed=st.integers(0, 10 ** 6))
def test_lower_sweeps_return_f_exactly_when_they_change_nothing(
        grid, points, lattice_seed, p, kind, seed):
    """For every n from 0 to dim + 1, t_lower and gamma_lower equal the
    sweeps that always build a new module, in module and canonical
    components, and return f itself exactly when that module is f with
    identity components; the upper side follows through the opposite.
    Free modules and Gamma_k of a random module are often unchanged."""
    lat = random_lattice(grid, points, lattice_seed)
    field = FieldSpec(p)
    d = lat.poset_dimension()
    f = random_module(lat, field, f"same{seed}", max_gens=4,
                      max_rels=0 if kind == "free" else 3)
    if kind == "gamma":
        f = gamma_lower_sweep_oracle(f, seed % (d + 1)).module
    op = opposite_module(f)
    for n in range(d + 2):
        for fast, slow in LOWER_SWEEPS:
            got, want = fast(f, n), slow(f, n)
            assert got.module == want.module, (fast.__name__, n)
            assert all(got.canonical.component_i(i) == want.canonical.component_i(i)
                       for i in range(lat.n)), (fast.__name__, n)
            unchanged = want.module == f and all(
                want.canonical.component_i(i) == Matrix.identity(field, f.dim_i(i))
                for i in range(lat.n))
            assert (got.module is f) == unchanged, (fast.__name__, n)
            assert fast(f, n) is got
        for upper, lower in ((t_upper, t_lower), (gamma_upper, gamma_lower)):
            assert (upper(f, n).module is f) == (lower(op, n).module is op)


@settings(max_examples=40, deadline=None)
@given(grid=st.sampled_from([None, [1, 1], [2, 2], [1, 1, 1], [2, 1, 1]]),
       points=st.integers(2, 4), lattice_seed=st.integers(0, 10 ** 6),
       p=st.sampled_from([2, 3]), seed=st.integers(0, 10 ** 6))
def test_lower_approximations_are_idempotent_on_the_same_object(
        grid, points, lattice_seed, p, seed):
    """Gamma_n Gamma_n F and T_n T_n F are the very objects Gamma_n F and
    T_n F, with identity canonical maps."""
    lat = random_lattice(grid, points, lattice_seed)
    f = random_module(lat, FieldSpec(p), f"idem{seed}", max_gens=4, max_rels=3)
    for n in range(lat.poset_dimension() + 2):
        for approx in (gamma_lower, t_lower):
            once = approx(f, n).module
            twice = approx(once, n)
            assert twice.module is once, (approx.__name__, n)
            assert is_iso(twice.canonical)


@settings(max_examples=30, deadline=None)
@given(grid=st.sampled_from([None, [1, 1, 1], [2, 2], [3, 2]]),
       points=st.integers(2, 4), lattice_seed=st.integers(0, 10 ** 6),
       p=st.sampled_from([2, 3]), seed=st.integers(0, 10 ** 6))
def test_statistics_build_no_approximation(grid, points, lattice_seed, p, seed):
    """The four statistics and predicates leave no t_lower or gamma_lower
    result in the cache of f or of its opposite module."""
    lat = random_lattice(grid, points, lattice_seed)
    f = random_module(lat, FieldSpec(p), f"no-kan{seed}", max_gens=4, max_rels=3)
    for stat in (min_degree, min_cross_degree, min_codegree, min_cross_codegree):
        stat(f)
    for holds in PREDICATES.values():
        holds(f, 0)
    for cache in (f.calc_cache, opposite_module(f).calc_cache):
        assert not [key for key in cache if isinstance(key, tuple)
                    and key[0] in ("t_lower", "gamma_lower")]


@settings(max_examples=40, deadline=None)
@given(grid=st.sampled_from([None, [1, 1], [2, 2], [1, 1, 1], [2, 1]]),
       points=st.integers(2, 4), lattice_seed=st.integers(0, 10 ** 6),
       p=st.sampled_from([2, 3]), arity=st.integers(1, 3),
       seed=st.integers(0, 10 ** 6))
def test_restriction_along_every_cube(grid, points, lattice_seed, p, arity, seed):
    """f restricted along each bicartesian cube of the arity, degenerate
    ones and ones whose edges are not covers included, is the module on
    {0,1}^k (index = subset bitmask, bit b = coordinate k-1-b) that reads f
    at the cube's vertices; its Koszul homology gives the total (co)fiber,
    and restricting does not raise pdim."""
    lat = random_lattice(grid, points, lattice_seed)
    f = random_module(lat, FieldSpec(p), f"restrict{seed}", max_gens=4, max_rels=3)
    bound = pdim(f)
    names = [",".join(str(m >> (arity - 1 - c) & 1) for c in range(arity))
             for m in range(1 << arity)]
    edges = {(m, m | 1 << b) for m in range(1 << arity) for b in range(arity)
             if not m >> b & 1}
    for cube in bicartesian_cubes_cached(lat, arity):
        r, v = restrict_along_cube(f, cube), cube.assign
        assert r.lattice is boolean_lattice(arity)
        assert list(r.lattice.elements) == names
        assert set(r.lattice.covers_i()) == edges
        for m in range(1 << arity):
            assert r.dim_i(m) == f.dim_i(v[m])
        for s, t in edges:
            assert r.cover_matrix_i(s, t) == f.transport_i(v[s], v[t])
        kx = koszul(r)
        assert kx.homology(arity) == tfib(r)
        assert kx.homology(0) == tcofib(r)
        assert pdim(r) <= bound


class TestCubeDuality:
    def test_parent_cube_of_opposite_is_child_cube(self, grid22):
        op = grid22.opposite()
        for v in grid22.elements:
            pc_op = parent_cube(op, v)
            cc = child_cube(grid22, v)
            assert pc_op.arity == cc.arity
            # Same underlying vertex multiset; the parent-cube of the
            # opposite indexes from the top, the child-cube from the bottom.
            full = (1 << cc.arity) - 1
            assert ({pc_op.value(full ^ m) for m in range(full + 1)}
                    == {cc.value(m) for m in range(full + 1)})
