import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pmodcalc import (FieldSpec, Lattice, Matrix, PersistenceModule,
                      free_module, interval_module, is_iso, random_module)
from pmodcalc.calculus import (PREDICATES, NotAComplex,
                               cr_lower, cr_upper, find_failing_cube, gamma_lower,
                               gamma_upper, is_codegree, is_cross_codegree,
                               is_cross_degree, is_degree, koszul,
                               min_codegree, min_cross_codegree,
                               min_cross_degree, min_degree, t_lower, t_upper,
                               tcofib, tfib)
from pmodcalc import calculus
from pmodcalc.lattice import bicartesian_cubes_cached, parent_cube
from pmodcalc.linalg import NoFactorization, hstack, rank, solve
from pmodcalc.pmodule import NatTrans, NonCommutingSquare, NotNatural, direct_sum
from pmodcalc.verify import table1_modules, nonexample_module
from oracles import (PREDICATE_ORACLES, NotDownClosed, NotUpClosed, boolean_lattice,
                     bottom, colim_over_downset,
                     cover_cube, dim, downset, gamma_lower_oracle,
                     gamma_lower_sweep_oracle, jdim, koszul_homology_oracle,
                     leq, lim_over_upset, mdim, restrict_along_cube, solve_left,
                     t_lower_sweep_oracle, top, top_cube, transport, upset)


def constant(lat, field):
    return interval_module(lat, field, lat.elements)


def lower_hook(square, field):
    return interval_module(square, field, ("0,0", "1,0", "0,1"))


# -- brute-force oracles over GF(2) ---------------------------------------------


def brute_colim_dim_gf2(f, elements):
    """Dimension of the colimit over the induced subposet: total dimension
    minus the GF(2) span of all relation vectors, enumerated explicitly
    over every comparable pair (independent of the cover-incidence code)."""
    offsets, total = {}, 0
    for v in elements:
        offsets[v] = total
        total += dim(f, v)
    rels = []
    for u in elements:
        for v in elements:
            if u == v or not leq(f.lattice, u, v):
                continue
            t = transport(f, u, v)
            for c in range(dim(f, u)):
                vec = [0] * total
                vec[offsets[u] + c] ^= 1
                for r in range(dim(f, v)):
                    vec[offsets[v] + r] ^= t[r, c]
                rels.append(tuple(vec))
    span = {tuple([0] * total)}
    for rel in rels:
        span |= {tuple(a ^ b for a, b in zip(s, rel)) for s in span}
    dim_rel = len(span).bit_length() - 1
    return total - dim_rel


def brute_lim_dim_gf2(f, elements):
    """Dimension of the limit: count compatible tuples by enumeration."""
    dims = [dim(f, v) for v in elements]
    total = sum(dims)
    if total > 14:
        raise AssertionError("oracle only meant for tiny diagrams")
    count = 0
    for bits in itertools.product((0, 1), repeat=total):
        vecs = {}
        pos = 0
        for v, d in zip(elements, dims):
            vecs[v] = bits[pos:pos + d]
            pos += d
        ok = True
        for u in elements:
            for v in elements:
                if u == v or not leq(f.lattice, u, v):
                    continue
                t = transport(f, u, v)
                for r in range(dim(f, v)):
                    s = sum(t[r, c] * vecs[u][c] for c in range(dim(f, u))) % 2
                    if s != vecs[v][r]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count.bit_length() - 1


def brute_tfib_gf2(cube):
    """Vectors at the initial vertex dying in every single-bit vertex."""
    d0 = cube.dim_i(0)
    count = 0
    for bits in itertools.product((0, 1), repeat=d0):
        good = True
        for b in range(cube.lattice.poset_dimension()):
            e = cube.transport_i(0, 1 << b)
            if any(sum(e[r, c] * bits[c] for c in range(d0)) % 2
                   for r in range(e.nrows)):
                good = False
                break
        if good:
            count += 1
    return count.bit_length() - 1


class TestColim:
    def test_single_element(self, square, gf2):
        f = free_module(square, gf2, {"0,0": 2})
        dim, cocones = colim_over_downset(f, "0,0", lambda v: True)
        assert dim == 2
        assert rank(cocones["0,0"]) == 2

    def test_free_module_full_downset(self, square, gf2):
        f = free_module(square, gf2, {"0,0": 1})
        colim, _ = colim_over_downset(f, "1,1", lambda v: True)
        assert colim == dim(f, "1,1") == 1

    def test_hook_colimit_dimension(self, square, gf2):
        # Pushout of 1 <- 1 -> 1 with identities: dimension 1.
        f = lower_hook(square, gf2)
        pred = lambda v: jdim(square, v) <= 1
        dim, cocones = colim_over_downset(f, "1,1", pred)
        assert dim == 1
        assert dim == brute_colim_dim_gf2(f, ["0,0", "1,0", "0,1"])
        # Cocones commute with the diagram maps.
        for u in ("0,0", "1,0", "0,1"):
            for v in ("1,0", "0,1"):
                if leq(square, u, v):
                    assert cocones[v] @ transport(f, u, v) == cocones[u]

    def test_matches_brute_force_on_random_modules(self, square, gf2):
        for seed in range(6):
            f = random_module(square, gf2, f"colim{seed}")
            for x in square.elements:
                for n in (0, 1, 2):
                    pred = lambda v: jdim(square, v) <= n
                    sub = [v for v in downset(square, x) if pred(v)]
                    dim, _ = colim_over_downset(f, x, pred)
                    assert dim == brute_colim_dim_gf2(f, sub)

    def test_not_down_closed(self, square, gf2):
        f = constant(square, gf2)
        with pytest.raises(NotDownClosed):
            colim_over_downset(f, "1,1", lambda v: v == "1,1")


class TestLim:
    def test_single_element(self, square, gf2):
        f = constant(square, gf2)
        dim, cones = lim_over_upset(f, "1,1", lambda v: True)
        assert dim == 1
        assert rank(cones["1,1"]) == 1

    def test_hook_limit_dimension(self, square, gf2):
        # Pullback over the upper hook: 1 -> 1 <- 1 with identities.
        f = interval_module(square, gf2, ("1,0", "0,1", "1,1"))
        pred = lambda v: mdim(square, v) <= 1
        dim, _ = lim_over_upset(f, "0,0", pred)
        assert dim == brute_lim_dim_gf2(f, ["1,0", "0,1", "1,1"]) == 1

    def test_matches_brute_force_on_random_modules(self, square, gf2):
        for seed in range(6):
            f = random_module(square, gf2, f"lim{seed}", max_gens=2, max_rels=1)
            for x in square.elements:
                for n in (0, 1):
                    pred = lambda v: mdim(square, v) <= n
                    sub = [v for v in upset(square, x) if pred(v)]
                    if sum(dim(f, v) for v in sub) > 12:
                        continue
                    lim, _ = lim_over_upset(f, x, pred)
                    assert lim == brute_lim_dim_gf2(f, sub)

    def test_not_up_closed(self, square, gf2):
        f = constant(square, gf2)
        with pytest.raises(NotUpClosed):
            lim_over_upset(f, "0,0", lambda v: v == "0,0")


class TestTLower:
    def test_iso_at_dimension(self, square, gf2):
        for seed in range(4):
            f = random_module(square, gf2, f"conv{seed}")
            assert is_iso(t_lower(f, square.poset_dimension()).canonical)

    def test_free_on_bottom_any_n(self, square, gf2):
        f = free_module(square, gf2, {"0,0": 2})
        for n in (0, 1, 2):
            assert is_iso(t_lower(f, n).canonical)

    def test_corner_module_t1_iso(self, square, gf2):
        f = interval_module(square, gf2, ("0,0",))
        assert is_iso(t_lower(f, 1).canonical)
        assert not is_iso(t_lower(f, 0).canonical)

    def test_output_is_functorial_and_natural(self, grid22, gf2):
        for seed in range(4):
            f = random_module(grid22, gf2, f"tl{seed}")
            res = t_lower(f, 1)
            res.module.validate()
            res.canonical.validate()

    @pytest.mark.parametrize("corrupt", ["rows", "free"])
    def test_corrupted_projection_is_not_taken_for_unchanged(self, square, gf2,
                                                             monkeypatch, corrupt):
        # T_1 of the constant k^2 is itself.  A projection with permuted
        # rows, or with its free columns misreported, must fail the
        # naturality check rather than pass as f unchanged.
        f = direct_sum(constant(square, gf2), constant(square, gf2))
        real = calculus.cokernel_projection

        def corrupted(m):
            q, free = real(m)
            if corrupt == "rows":
                return q.take_rows(range(q.nrows - 1, -1, -1)), free
            return q, free[::-1]

        monkeypatch.setattr(calculus, "cokernel_projection", corrupted)
        with pytest.raises(NotNatural):
            t_lower(f, 1)


class TestTUpper:
    def test_constant_t0_iso(self, square, gf2):
        f = constant(square, gf2)
        assert is_iso(t_upper(f, 0).canonical)

    def test_iso_at_dimension(self, grid22, gf2):
        for seed in range(4):
            f = random_module(grid22, gf2, f"tu{seed}")
            assert is_iso(t_upper(f, grid22.poset_dimension()).canonical)

    def test_top_only_module_values(self, square, gf2):
        f = interval_module(square, gf2, ("1,1",))
        res = t_upper(f, 1)
        assert res.module.dims_by_element() == f.dims_by_element()
        assert is_iso(res.canonical)

    def test_output_is_functorial_and_natural(self, grid22, gf2):
        for seed in range(4):
            f = random_module(grid22, gf2, f"tu2{seed}")
            res = t_upper(f, 1)
            res.module.validate()
            res.canonical.validate()


class TestGamma:
    def test_gamma0_is_image_from_bottom(self, grid22, gf2):
        for seed in range(4):
            f = random_module(grid22, gf2, f"g0{seed}")
            g = gamma_lower(f, 0)
            for x in grid22.elements:
                assert dim(g.module, x) == rank(transport(f, "0,0", x))

    def test_gamma1_of_top_only_vanishes(self, square, gf2):
        f = interval_module(square, gf2, ("1,1",))
        assert gamma_lower(f, 1).module.is_zero()

    def test_gamma1_of_constant_is_constant(self, square, gf2):
        g = constant(square, gf2)
        res = gamma_lower(g, 1)
        assert is_iso(res.canonical)

    def test_gamma_upper0_is_image_to_top(self, grid22, gf2):
        for seed in range(4):
            f = random_module(grid22, gf2, f"gu{seed}")
            g = gamma_upper(f, 0)
            apex = top(grid22)
            for x in grid22.elements:
                assert dim(g.module, x) == rank(transport(f, x, apex))

    def test_gamma_upper_iso_at_dimension(self, square, gf2):
        for seed in range(3):
            f = random_module(square, gf2, f"gud{seed}")
            assert is_iso(gamma_upper(f, 2).canonical)

    def test_legs_compose_to_canonical(self, square, gf2):
        f = random_module(square, gf2, "legs")
        # The epi leg T -> Gamma, solved against the inclusion: mono o epi
        # recovers the Kan extension's canonical map.
        tl, gl = t_lower(f, 1), gamma_lower(f, 1)
        epi = NatTrans(tl.module, gl.module,
                       [solve(gl.canonical.component_i(i), tl.canonical.component_i(i))
                        for i in range(square.n)])
        recomposed = gl.canonical.compose(epi)
        for i in range(square.n):
            assert recomposed.component_i(i) == tl.canonical.component_i(i)
        # Dually, the mono leg Gamma -> T solved against the epi from f.
        tu, gu = t_upper(f, 1), gamma_upper(f, 1)
        mono = NatTrans(gu.module, tu.module,
                        [solve_left(gu.canonical.component_i(i),
                                    tu.canonical.component_i(i))
                         for i in range(square.n)])
        recomposed = mono.compose(gu.canonical)
        for i in range(square.n):
            assert recomposed.component_i(i) == tu.canonical.component_i(i)


    def test_isomorphic_but_not_equal_is_not_returned(self, square, gf2):
        # F(top) = k^2 with F(0,1 -> top) = e2 and F(1,0 -> top) = e1, zero
        # at the bottom: Gamma_1 F and T_1 F are isomorphic to F (the lower
        # covers span F(top) and meet in 0), but their bases at the top are
        # the permutation [e2 | e1], not I, so neither may return f itself.
        e1, e2 = Matrix(gf2, 2, 1, [[1], [0]]), Matrix(gf2, 2, 1, [[0], [1]])
        top, left, right = (square.index(x) for x in ("1,1", "0,1", "1,0"))
        dims = [0] * square.n
        dims[top], dims[left], dims[right] = 2, 1, 1
        f = PersistenceModule(square, gf2, dims, {(left, top): e2, (right, top): e1})
        for approx, oracle in ((gamma_lower, gamma_lower_sweep_oracle),
                               (t_lower, t_lower_sweep_oracle)):
            res = approx(f, 1)
            assert res.module is not f and res.module != f
            assert res.module == oracle(f, 1).module
            assert is_iso(res.canonical)
            assert res.canonical.component_i(top) == hstack([e2, e1])

    def test_epi_read_off_is_checked(self, grid22, gf2, monkeypatch):
        # gamma_lower reads each basis and its cover maps off the reduction
        # of the stacked legs: a corrupted reduction must be caught.
        real = calculus.rref

        def corrupted(m):
            red, pivots = real(m)
            rows = red.to_lists()
            if pivots:
                rows[0][pivots[0]] = 0
            return Matrix(m.field, m.nrows, m.ncols, rows), pivots

        monkeypatch.setattr(calculus, "rref", corrupted)
        with pytest.raises(NoFactorization):
            gamma_lower(free_module(grid22, gf2, {"0,0": 1}), 1)


class TestCrossEffects:
    def test_cr_of_free_vanishes_at_generator_level(self, square, gf2):
        f = free_module(square, gf2, {"1,0": 1, "0,1": 2})
        assert cr_lower(f, 1).module.is_zero()

    def test_cr0_of_constant_vanishes(self, square, gf2):
        assert cr_lower(constant(square, gf2), 0).module.is_zero()

    def test_cr_of_top_only_nonzero_at_top(self, square, gf2):
        f = interval_module(square, gf2, ("1,1",))
        assert dim(cr_lower(f, 0).module, "1,1") == 1
        assert dim(cr_lower(f, 1).module, "1,1") == 1
        # Dual: the cross effect of the corner module is nonzero at bottom.
        g = interval_module(square, gf2, ("0,0",))
        assert dim(cr_upper(g, 1).module, "0,0") == 1


# -- the image sweep against the image of the Kan extension -------------------


def check_gamma_against_oracles(f, n):
    """gamma_lower(f, n) against the image of t_lower's canonical map: a
    natural inclusion with the same dims and column spaces, T factors
    through it (mono o epi = eps), cr_lower has the complementary dims,
    and is_cross_codegree agrees with cr_lower and with the cube oracle."""
    gamma, want = gamma_lower(f, n), gamma_lower_oracle(f, n)
    gamma.canonical.validate()
    eps, cr = t_lower(f, n).canonical, cr_lower(f, n)
    for x in range(f.lattice.n):
        b, e = gamma.canonical.component_i(x), want.canonical.component_i(x)
        assert gamma.module.dim_i(x) == want.module.dim_i(x) == b.ncols == rank(b)
        assert rank(hstack([b, e])) == rank(b) == rank(e)
        epi = solve(b, eps.component_i(x))
        assert b @ epi == eps.component_i(x)
        assert cr.module.dim_i(x) == f.dim_i(x) - gamma.module.dim_i(x)
    assert (is_cross_codegree(f, n) == cr.module.is_zero()
            == (find_failing_cube(f, n, "cross_codegree") is None))


GRIDS = ([1, 1], [2, 2], [1, 1, 1], [3, 2], [2, 1, 1])


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(GRIDS), p=st.sampled_from([2, 3]),
       seed=st.integers(0, 10 ** 6))
def test_gamma_sweep_matches_oracle_on_grids(shape, p, seed):
    lat = Lattice.grid(shape)
    f = random_module(lat, FieldSpec(p), f"gsweep{seed}", max_gens=4, max_rels=3)
    for n in range(lat.poset_dimension() + 2):
        check_gamma_against_oracles(f, n)


class TestTotalFibers:
    def test_constant_cube(self, gf2):
        for arity in (1, 2, 3):
            lat = boolean_lattice(arity)
            c = free_module(lat, gf2, {bottom(lat): 2})
            assert tfib(c, top_cube(c)) == 0
            assert tcofib(c, top_cube(c)) == 0

    def test_one_cube_kernel_cokernel(self, gf2):
        m = Matrix(gf2, 2, 3, [[1, 0, 1], [0, 1, 1]])
        c = PersistenceModule(boolean_lattice(1), gf2, [3, 2], {(0, 1): m})
        assert tfib(c, (0, 1)) == 3 - rank(m)
        assert tcofib(c, (0, 1)) == 2 - rank(m)

    def test_corner_module_full_square(self, square, gf2):
        f = interval_module(square, gf2, ("0,0",))
        cube = cover_cube(square, "1,1", ("0,1", "1,0"))
        assert tfib(f, cube) == 1
        assert tcofib(f, cube) == 0

    def test_tfib_matches_enumeration(self, square, gf2):
        for seed in range(6):
            f = random_module(square, gf2, f"tf{seed}", max_gens=2, max_rels=1)
            cube = cover_cube(square, "1,1", ("0,1", "1,0"))
            vc = restrict_along_cube(f, cube)
            if vc.dim_i(0) <= 10:
                assert tfib(f, cube) == brute_tfib_gf2(vc)

    def test_cube_against_the_order_rejected(self, gf2):
        # On a chain the edge from 0 to 3 is a 1-cube, though not the parent
        # cube of 3; the edge from 3 to 0 goes down, so it is no cube.
        f = free_module(Lattice.grid([3]), gf2, {"0": 1})
        for read in (tfib, tcofib, koszul):
            with pytest.raises(ValueError, match="not a cube"):
                read(f, (3, 0))
        assert (tfib(f, (0, 3)), tcofib(f, (0, 3))) == (0, 0)
        assert koszul(f, (0, 3)).betti == (0, 0)


class TestKoszul:
    def test_zero_cube(self, gf2):
        c = PersistenceModule(boolean_lattice(2), gf2, [0] * 4)
        k = koszul(c, top_cube(c))
        assert all(k.homology(i) == 0 for i in range(3))

    def test_identity_one_cube(self, gf2):
        c = free_module(boolean_lattice(1), gf2, {"0": 3})
        k = koszul(c, top_cube(c))
        assert k.homology(0) == 0
        assert k.homology(1) == 0

    def test_not_a_complex_on_broken_cube(self, gf2):
        # A non-functorial square is rejected when the cube is built; one
        # broken behind the check makes d o d pick up the commutator defect.
        lat = boolean_lattice(2)
        one = Matrix.identity(gf2, 1)
        zero = Matrix(gf2, 1, 1, [[0]])
        with pytest.raises(NonCommutingSquare):
            PersistenceModule(lat, gf2, [1] * 4, {(0, 1): one, (0, 2): one,
                                                  (1, 3): one, (2, 3): zero})

        def broken():
            c = PersistenceModule(lat, gf2, [1] * 4, {(0, 1): one, (0, 2): one,
                                                      (1, 3): one, (2, 3): one})
            c._maps[(2, 3)] = zero
            return c

        with pytest.raises(NotAComplex):
            koszul(broken(), parent_cube(lat, 3))
        # The degree statistics read the same record, so they fail as loudly,
        # before koszul and after it.
        c = broken()
        for read in (min_codegree, lambda c: koszul(c, parent_cube(lat, 3)), min_codegree):
            with pytest.raises(NotAComplex):
                read(c)

    @pytest.mark.parametrize("p", [2, 3])
    def test_boundary_above_an_injective_one_is_not_ranked(self, p):
        """On {0,1}^3 with d_1 injective, d_2 is zero and is not built to be
        ranked; d_3 is then checked against a d_2 built for that check.
        Filling the record from the statistics first gives the same
        complex, and both agree with the cube-complex oracle."""
        field, lat = FieldSpec(p), boolean_lattice(3)
        maps = {(0, 1 << t): Matrix.identity(field, 1) for t in range(3)}
        maps.update({(1 << t, 1 << t | 1 << u): Matrix.zeros(field, 1, 1)
                     for t in range(3) for u in range(3) if u != t})
        maps.update({(7 ^ 1 << t, 7): Matrix(field, 3, 1, [[int(u == t)] for u in range(3)])
                     for t in range(3)})
        ranked, real_rank = [], calculus.rank
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(calculus, "rank", lambda m: ranked.append(m.ncols) or real_rank(m))
            c = PersistenceModule(lat, field, [1] * 7 + [3], maps)
            kx = koszul(c, top_cube(c))
        assert ranked == [3, 1]  # d_1 and d_3
        assert c.calc_cache["koszul"][top_cube(c)] == (0, 0, 2, 0)  # the Betti tuple
        assert [kx.homology(i) for i in range(4)] == koszul_homology_oracle(c) == [0, 0, 2, 0]
        stats_first = PersistenceModule(lat, field, [1] * 7 + [3], maps)
        min_codegree(stats_first)
        assert koszul(stats_first, top_cube(stats_first)) == kx

    def test_homology_matches_total_fibers(self, grid22, gf2):
        rng = random.Random("kz")
        for seed in range(5):
            f = random_module(grid22, gf2, f"kz{seed}")
            for arity in (1, 2, 3):
                cube = rng.choice(bicartesian_cubes_cached(grid22, arity))
                k = koszul(f, cube)
                assert k.homology(arity) == tfib(f, cube)
                assert k.homology(0) == tcofib(f, cube)


class TestPredicates:
    def test_table1_degree_statistics(self, gf2):
        for name, module, expected in table1_modules(gf2):
            got = (min_degree(module), min_cross_degree(module),
                   min_codegree(module), min_cross_codegree(module))
            assert got == expected, name

    def test_fast_and_oracle_agree_on_table1(self, gf2):
        for name, module, _ in table1_modules(gf2):
            for n in (0, 1, 2):
                for kind, holds in PREDICATES.items():
                    assert holds(module, n) == (find_failing_cube(module, n, kind) is None)

    def test_zero_module_all_zero(self, square, gf2):
        z = free_module(square, gf2, {})
        assert (min_degree(z), min_cross_degree(z),
                min_codegree(z), min_cross_codegree(z)) == (0, 0, 0, 0)

    def test_nonexample_statistics(self, gf2):
        f = nonexample_module(gf2)
        assert min_degree(f) == 1
        assert min_cross_degree(f) == 0

    def test_witness_cube_reported(self, square, gf2):
        f = interval_module(square, gf2, ("1,1",))
        cube = find_failing_cube(f, 1, "cross_codegree")
        assert cube is not None
        assert tcofib(f, cube) != 0
        assert find_failing_cube(constant(square, gf2), 0, "cross_codegree") is None

    @pytest.mark.parametrize("kind", sorted(PREDICATES))
    def test_cube_oracle_builds_no_module(self, kind, gf2, monkeypatch):
        """find_failing_cube reads f along each cube and builds no module,
        whether the predicate holds or a witness is returned."""
        grid = Lattice.grid([2, 2])
        modules = [random_module(lat, gf2, f"nomod{seed}", max_gens=4, max_rels=3)
                   for lat in (grid, boolean_lattice(3)) for seed in range(3)]
        modules += [interval_module(grid, gf2, (corner,)) for corner in ("0,0", "2,2")]
        built, real_init = [], PersistenceModule.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(PersistenceModule, "__init__", counting_init)
        found = [find_failing_cube(f, n, kind) for f in modules for n in range(3)]
        assert built == []
        assert any(cube is None for cube in found)
        assert any(cube is not None for cube in found)

    @pytest.mark.parametrize("p", [2, 3])
    def test_cube_oracle_keeps_koszul_records_of_parent_cubes_only(self, p):
        """find_failing_cube for the four kinds at n = 0..3 on {0,1}^4
        leaves no Koszul record of a cube that is not a parent cube as the
        lattice stores it, so f's memo stays bounded by its lattice; the
        records the predicates leave are each their cube's whole Betti
        tuple; the answers, and f's Koszul homology on every cube the oracle
        reads, agree with the oracles."""
        lat = boolean_lattice(4)
        f = random_module(lat, FieldSpec(p), "records", max_gens=4, max_rels=3)
        for kind, n in itertools.product(sorted(PREDICATES), range(4)):
            found = find_failing_cube(f, n, kind)
            assert (found is None) == PREDICATE_ORACLES[kind](f, n), (kind, n)
            assert PREDICATES[kind](f, n) == PREDICATE_ORACLES[kind](f, n), (kind, n)
        records = f.calc_cache.get("koszul", {})
        assert records and [key for key in records
                            if key is not lat.parent_vertices_i(key[-1])] == []
        for cube, record in records.items():
            assert type(record) is tuple, cube
            assert list(record) == koszul_homology_oracle(restrict_along_cube(f, cube)), cube
        for cube in itertools.chain.from_iterable(
                bicartesian_cubes_cached(lat, k) for k in range(1, 5)):
            kx = koszul(f, cube)
            assert [kx.homology(i) for i in range(kx.k + 1)] == koszul_homology_oracle(
                restrict_along_cube(f, cube)), cube
        assert f.calc_cache.get("koszul", {}).keys() == records.keys()

    def test_min_statistic_is_least_and_within_the_poset_dimension(self, gf2):
        # The bound the old search asserted once it ran out of n: every
        # statistic is at most the poset dimension, holds there by the
        # cube oracle, and fails one below.
        cube3 = boolean_lattice(3)
        stats = {"codegree": min_codegree, "degree": min_degree,
                 "cross_codegree": min_cross_codegree,
                 "cross_degree": min_cross_degree}
        for seed in range(4):
            f = random_module(cube3, gf2, f"least{seed}")
            for kind, stat in stats.items():
                s = stat(f)
                assert 0 <= s <= cube3.poset_dimension()
                assert find_failing_cube(f, s, kind) is None
                assert s == 0 or find_failing_cube(f, s - 1, kind) is not None

    def test_negative_degree_rejected(self, square, gf2):
        f = constant(square, gf2)
        for holds in PREDICATES.values():
            with pytest.raises(ValueError):
                holds(f, -1)

    def test_degree_implies_cross_degree(self, grid22, gf2):
        for seed in range(5):
            f = random_module(grid22, gf2, f"imp{seed}")
            for n in (0, 1, 2):
                if is_degree(f, n):
                    assert is_cross_degree(f, n)
                if is_codegree(f, n):
                    assert is_cross_codegree(f, n)

    def test_monotone_in_n(self, grid22, gf2):
        for seed in range(4):
            f = random_module(grid22, gf2, f"mono{seed}")
            for pred in (is_degree, is_codegree, is_cross_degree, is_cross_codegree):
                values = [pred(f, n) for n in range(3)]
                # once true, stays true
                for a, b in zip(values, values[1:]):
                    assert (not a) or b
