"""Structural properties over randomly generated distributive lattices.

Every finite distributive lattice is the lattice of down-sets of some
finite poset, so sampling random small posets and taking their down-set
lattices walks the whole class (up to size), well beyond grids."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from pmodcalc import (FieldSpec, Lattice, Matrix, free_module, interval_module,
                      is_iso, random_module)
from pmodcalc.calculus import (PREDICATES, _gamma_sweep, _t_sweep,
                               find_failing_cube, gamma_lower,
                               gamma_upper, is_cross_codegree, is_cross_degree,
                               min_codegree, min_cross_codegree,
                               min_cross_degree, min_degree, koszul, t_lower,
                               t_upper, tcofib, tfib)
from pmodcalc.generators import _UnionFind
from pmodcalc.lattice import bicartesian_cubes_cached, parent_cube
from pmodcalc.linalg import hstack, rank, solve, vstack
from pmodcalc.pmodule import _free_on_blocks, opposite_module
from pmodcalc.pmod_io import print_pmod
from pmodcalc.verify import _restricted_pdim
from pmodcalc.resolution import (betti, check_pdim_theorem_1,
                                 check_pdim_theorem_2, pdim)
from oracles import (PREDICATE_ORACLES, betti_oracle, boolean_lattice, bottom,
                     child_cube, colim_over_downset, component, cube_value, dim,
                     free_on_components_oracle, free_on_oracle,
                     gamma_lower_sweep_oracle, is_strongly_bicartesian, jdim,
                     join, join_oracle, koszul_homology_oracle, leq,
                     lim_over_upset, mdim, meet_oracle, restrict_along_cube, solve_left,
                     t_lower_sweep_oracle, tcofib_oracle, tfib_oracle,
                     top_cube, transport)
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
                if v == bottom(lat):
                    continue
                below = [u for u in lat.elements if leq(lat, u, v) and u != v]
                if not any(join(lat, x, y) == v for x in below for y in below):
                    out.append(v)
            return out

        def oracle_jdim(lat, v):
            if v == bottom(lat):
                return 0
            irr = [j for j in brute_irreducibles(lat) if leq(lat, j, v)]
            for k in range(1, len(irr) + 1):
                for combo in itertools.combinations(irr, k):
                    acc = combo[0]
                    for x in combo[1:]:
                        acc = join(lat, acc, x)
                    if acc == v:
                        return k
            raise AssertionError(f"no decomposition for {v}")

        for lat in random_lattices:
            for v in lat.elements:
                assert jdim(lat, v) == oracle_jdim(lat, v)

    def test_parent_child_cubes_bicartesian(self, random_lattices):
        for lat in random_lattices:
            for v in range(lat.n):
                assert is_strongly_bicartesian(lat, parent_cube(lat, v))
                assert is_strongly_bicartesian(lat, child_cube(lat, v))

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
                    colim, cocones = colim_over_downset(
                        f, x, lambda v: jdim(lat, v) <= n)
                    induced = solve_left(
                        hstack(list(cocones.values())),
                        hstack([transport(f, v, x) for v in cocones]))
                    assert dim(low.module, x) == colim
                    assert rank(component(low.canonical, x)) == rank(induced)
                    lim, cones = lim_over_upset(f, x, lambda v: mdim(lat, v) <= n)
                    induced = solve(vstack(list(cones.values())),
                                    vstack([transport(f, x, v) for v in cones]))
                    assert dim(up.module, x) == lim
                    assert rank(component(up.canonical, x)) == rank(induced)

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
@given(grid=st.sampled_from([None, None, [0], [3], [1, 1], [2, 3], [1, 2, 1]]),
       points=st.integers(1, 5), lattice_seed=st.integers(0, 10 ** 6))
def test_join_and_meet_match_the_bound_scan(grid, points, lattice_seed):
    """join_i / meet_i / leq_i, read off the join-irreducible masks, are
    the least upper bound, greatest lower bound and order that a scan of
    the Hasse-derived up- and down-sets finds, on a grid or a down-set
    lattice and on its opposite; each mask has one bit per element with
    one lower cover."""
    lat = random_lattice(grid, points, lattice_seed)
    for lt in (lat, lat.opposite()):
        irreducibles = [i for i in range(lt.n) if len(lt.parents_i(i)) == 1]
        assert all(0 <= m < 1 << len(irreducibles) for m in lt._mask)
        for i in range(lt.n):
            for j in range(lt.n):
                assert lt.join_i(i, j) == join_oracle(lt, i, j) >= 0
                assert lt.meet_i(i, j) == meet_oracle(lt, i, j) >= 0
                assert lt.leq_i(i, j) == bool(lt.upset_mask(i) >> j & 1)


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
    return max((jdim(f.lattice, a) for (a, i) in betti(f).entries if i in degrees),
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
    bicartesian-cube enumeration.

    Both read one Koszul record per element, filled as far as each asks:
    on an equal fresh module, the Betti diagrams first and then the
    statistics give the same answers as the other way round."""
    lat = random_lattice(grid, points, lattice_seed)
    f, g = (random_module(lat, FieldSpec(p), f"betti-read{seed}", max_gens=4, max_rels=3)
            for _ in range(2))
    op = opposite_module(f)
    stats = (min_codegree(f), min_cross_codegree(f), min_degree(f), min_cross_degree(f))
    assert stats == (betti_read_off(f, (0, 1)), betti_read_off(f, (0,)),
                     betti_read_off(op, (0, 1)), betti_read_off(op, (0,)))
    for m, fresh in ((f, g), (op, opposite_module(g))):
        assert betti(fresh).entries == betti(m).entries == betti_oracle(m)
    assert stats == (min_codegree(g), min_cross_codegree(g), min_degree(g),
                     min_cross_degree(g))


@settings(max_examples=30, deadline=None)
@given(grid=st.sampled_from([None, [1, 1, 1], [2, 1, 1], [2, 2]]),
       points=st.integers(2, 4), lattice_seed=st.integers(0, 10 ** 6),
       p=st.sampled_from([2, 3]), seed=st.integers(0, 10 ** 6))
def test_predicates_match_the_approximations_and_the_cubes(grid, points,
                                                           lattice_seed, p, seed):
    """Each is_* predicate, read off the cover maps, equals its definition
    through the T and Gamma sweeps (on the opposite module for the upper
    ones) and the bicartesian-cube oracle, for every n up to dim + 1.
    Elements of jdim 3 exercise the signs of the relation matrix over F_3."""
    lat = random_lattice(grid, points, lattice_seed)
    f = random_module(lat, FieldSpec(p), f"read-off{seed}", max_gens=5, max_rels=4)
    for n in range(lat.poset_dimension() + 2):
        for kind, holds in PREDICATES.items():
            got = holds(f, n)
            assert got == PREDICATE_ORACLES[kind](f, n), (kind, n)
            assert got == (find_failing_cube(f, n, kind) is None), (kind, n)


#: Each lower approximation with the statistic that decides it, its sweep,
#: and the sweep's copy in the oracles; both sweeps always build a new module.
LOWER_SWEEPS = ((t_lower, min_codegree, _t_sweep, t_lower_sweep_oracle),
                (gamma_lower, min_cross_codegree, _gamma_sweep, gamma_lower_sweep_oracle))


@settings(max_examples=60, deadline=None)
@given(grid=st.sampled_from([None, [1, 1], [2, 2], [1, 1, 1], [3, 2], [2, 1, 1]]),
       points=st.integers(2, 4), lattice_seed=st.integers(0, 10 ** 6),
       p=st.sampled_from([2, 3]), kind=st.sampled_from(("random", "free", "gamma")),
       seed=st.integers(0, 10 ** 6))
def test_lower_approximations_return_f_exactly_when_the_read_off_allows(
        grid, points, lattice_seed, p, kind, seed):
    """For every n from 0 to dim + 1, t_lower (gamma_lower) returns f
    itself with identity components exactly when min_codegree
    (min_cross_codegree) is at most n, and the sweep's canonical map is
    an isomorphism exactly then; otherwise it equals the sweep in module
    and canonical components.  The package's sweep equals the oracle's
    copy at every n.  A memo hit returns the same objects, and the upper
    side follows through the opposite.  Free modules and Gamma_k of a
    random module often meet the bound."""
    lat = random_lattice(grid, points, lattice_seed)
    field = FieldSpec(p)
    d = lat.poset_dimension()
    f = random_module(lat, field, f"same{seed}", max_gens=4,
                      max_rels=0 if kind == "free" else 3)
    if kind == "gamma":
        f = gamma_lower_sweep_oracle(f, seed % (d + 1)).module
    op = opposite_module(f)
    for n in range(d + 2):
        for fast, statistic, sweep, slow in LOWER_SWEEPS:
            got, want, swept = fast(f, n), slow(f, n), sweep(f, n)
            assert swept.module == want.module and all(
                swept.canonical.component_i(i) == want.canonical.component_i(i)
                for i in range(lat.n)), (fast.__name__, n)
            components = [got.canonical.component_i(i) for i in range(lat.n)]
            decided = statistic(f) <= n
            assert is_iso(want.canonical) == decided, (fast.__name__, n)
            if decided:
                assert got.module is f, (fast.__name__, n)
                assert components == [Matrix.identity(field, f.dim_i(i))
                                      for i in range(lat.n)], (fast.__name__, n)
            else:
                assert got.module is not f and got.module == want.module, (fast.__name__, n)
                assert components == [want.canonical.component_i(i)
                                      for i in range(lat.n)], (fast.__name__, n)
            again = fast(f, n)  # read from the memo: same module, same components
            assert again.module is got.module, (fast.__name__, n)
            assert all(again.canonical.component_i(i) is components[i]
                       for i in range(lat.n)), (fast.__name__, n)
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
        r = restrict_along_cube(f, cube)
        assert r.lattice is boolean_lattice(arity)
        assert list(r.lattice.elements) == names
        assert set(r.lattice.covers_i()) == edges
        for m in range(1 << arity):
            assert r.dim_i(m) == f.dim_i(cube[m])
        for s, t in edges:
            assert r.transport_i(s, t) == f.transport_i(cube[s], cube[t])
        beta = koszul(r, top_cube(r))
        assert len(beta) == arity + 1
        assert beta[arity] == tfib(r, top_cube(r))
        assert beta[0] == tcofib(r, top_cube(r))
        assert pdim(r) <= bound


@settings(max_examples=40, deadline=None)
@given(grid=st.sampled_from([None, [1, 1], [2, 2], [1, 1, 1], [2, 1, 1]]),
       points=st.integers(2, 4), lattice_seed=st.integers(0, 10 ** 6),
       p=st.sampled_from([2, 3]), seed=st.integers(0, 10 ** 6))
def test_cube_readings_match_the_cube_module(grid, points, lattice_seed, p, seed):
    """koszul, tfib and tcofib read f along a cube of its lattice: on every
    parent cube and every bicartesian cube of arity 1..3, degenerate ones
    included, they equal the Koszul homology, total fiber and total cofiber
    of the cube module, f restricted along the cube."""
    lat = random_lattice(grid, points, lattice_seed)
    f = random_module(lat, FieldSpec(p), f"read{seed}", max_gens=4, max_rels=3)
    cubes = [parent_cube(lat, x) for x in range(lat.n)]
    for arity in (1, 2, 3):
        cubes.extend(bicartesian_cubes_cached(lat, arity))
    for cube in cubes:
        r = restrict_along_cube(f, cube)
        assert list(koszul(f, cube)) == koszul_homology_oracle(r), cube
        assert tfib(f, cube) == tfib_oracle(r), cube
        assert tcofib(f, cube) == tcofib_oracle(r), cube


@pytest.mark.parametrize("p", [2, 3])
def test_restricted_pdim_is_read_off_the_faces(p, random_lattices):
    """verify's restriction-pdim-bound reads pdim of f restricted along a
    cube on f, with no module built: the largest Betti degree over the
    faces through the cube's bottom.  On every parent cube and every
    bicartesian cube of arity 1..3 it equals pdim of the cube module, for
    random modules and for the module that is the field at the bottom
    alone, whose restrictions reach pdim 3."""
    field = FieldSpec(p)
    lattices = [Lattice.grid(s) for s in ([2, 2], [1, 1, 1], [2, 1, 1])] + random_lattices
    seen = Counter()
    for li, lat in enumerate(lattices):
        cubes = [parent_cube(lat, x) for x in range(lat.n)]
        for arity in (1, 2, 3):
            cubes.extend(bicartesian_cubes_cached(lat, arity))
        modules = [random_module(lat, field, f"faces{li}:{seed}", max_gens=4, max_rels=3)
                   for seed in range(3)] + [interval_module(lat, field, (bottom(lat),))]
        for f, cube in itertools.product(modules, cubes):
            got = _restricted_pdim(f, cube)
            assert got == pdim(restrict_along_cube(f, cube)), (lat, cube)
            seen[got] += 1
    assert {-1, 0, 1, 2, 3} <= set(seen), seen


class TestCubeDuality:
    def test_parent_cube_of_opposite_is_child_cube(self, grid22):
        op = grid22.opposite()
        for v in range(grid22.n):
            pc_op = parent_cube(op, v)
            cc = child_cube(grid22, v)
            assert len(pc_op) == len(cc)
            # Same underlying vertex multiset; the parent-cube of the
            # opposite indexes from the top, the child-cube from the bottom.
            full = len(cc) - 1
            assert ({cube_value(op, pc_op, full ^ m) for m in range(full + 1)}
                    == {cube_value(grid22, cc, m) for m in range(full + 1)})


def filtered_graph_components(lat, rng, points=6, edges=6):
    """Per element, the components of a random filtered graph, listed as
    union-find lists them (each increasing, ordered by least point).  A
    point is born at a random element, an edge at the join of a random
    element and its ends' births, so components grow and merge upwards."""
    born = [rng.randrange(lat.n) for _ in range(points)]
    ends = [rng.sample(range(points), 2) for _ in range(edges)]
    at = [lat.join_i(lat.join_i(rng.randrange(lat.n), born[a]), born[b]) for a, b in ends]
    comps = []
    for x in range(lat.n):
        uf = _UnionFind(points)
        for (a, b), e in zip(ends, at):
            if lat.leq_i(e, x):
                uf.union(a, b)
        comps.append(uf.components([i for i in range(points) if lat.leq_i(born[i], x)]))
    return comps


class TestFreeOnBlocks:
    """Free, interval and H0 modules, built on blocks of points, against the
    dense 0/1 builds they replaced: equal as modules and as PMOD text."""

    @staticmethod
    def check(built, dense):
        assert built == dense
        assert print_pmod(built) == print_pmod(dense)

    @pytest.mark.parametrize("p", [2, 3])
    def test_match_the_dense_builds(self, random_lattices, p):
        field = FieldSpec(p)
        grids = [Lattice.grid(s) for s in ([2, 2], [1, 1, 1], [3, 2])]
        births = merges = 0
        for li, lat in enumerate(grids + random_lattices):
            rng = random.Random(f"blocks:{p}:{li}")
            # Generators at the bottom and above it, each born twice.
            gens = sorted([lat.index(bottom(lat))] + [rng.randrange(lat.n) for _ in range(3)] * 2)
            free = free_module(lat, field, Counter(map(lat.element, gens)))
            self.check(free, free_on_oracle(lat, field, gens))
            births += sum(m.nrows > m.ncols for m in free._maps.values())
            comps = filtered_graph_components(lat, rng)
            h0 = _free_on_blocks(lat, field, comps)
            self.check(h0, free_on_components_oracle(lat, field, comps))
            merges += sum(m.nrows < m.ncols for m in h0._maps.values())
            a = rng.randrange(lat.n)
            b = lat.join_i(a, rng.randrange(lat.n))
            sup = [x for x in range(lat.n) if lat.leq_i(a, x) and lat.leq_i(x, b)]
            self.check(interval_module(lat, field, map(lat.element, sup)),
                       free_on_components_oracle(
                           lat, field, [[[0]] if x in sup else [] for x in range(lat.n)]))
        # Cover maps other than identities ran: generators born, components merged.
        assert births and merges
