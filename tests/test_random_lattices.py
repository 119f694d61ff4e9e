"""Structural properties over randomly generated distributive lattices.

Every finite distributive lattice is the lattice of down-sets of some
finite poset, so sampling random small posets and taking their down-set
lattices walks the whole class (up to size), well beyond grids."""

import itertools
import random

import pytest

from pmodcalc import FieldSpec, Lattice, is_iso, random_module
from pmodcalc.calculus import (colim_over_downset, gamma_lower, gamma_upper,
                               is_codegree, is_cross_codegree, is_cross_degree,
                               is_degree, lim_over_upset, t_lower, t_upper)
from pmodcalc.lattice import child_cube, parent_cube
from pmodcalc.linalg import factor_through, hstack, rank, solve_left, vstack
from pmodcalc.resolution import check_pdim_theorem_1, check_pdim_theorem_2, pdim

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
                below = [u for u in lat.elements if lat.leq(u, v) and u != v]
                if not any(lat.join(x, y) == v for x in below for y in below):
                    out.append(v)
            return out

        def oracle_jdim(lat, v):
            if v == lat.bottom():
                return 0
            irr = [j for j in brute_irreducibles(lat) if lat.leq(j, v)]
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
                assert parent_cube(lat, v).is_strongly_bicartesian()
                assert child_cube(lat, v).is_strongly_bicartesian()

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
                assert is_codegree(f, n) == is_codegree(f, n, "oracle")
                assert is_degree(f, n) == is_degree(f, n, "oracle")
                assert (is_cross_codegree(f, n)
                        == is_cross_codegree(f, n, "oracle"))
                assert is_cross_degree(f, n) == is_cross_degree(f, n, "oracle")

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
                        hstack([f.transport(v, x) for v in cocones]))
                    assert low.module.dim(x) == dim
                    assert rank(low.canonical.component(x)) == rank(induced)
                    dim, cones = lim_over_upset(f, x, lambda v: lat.mdim(v) <= n)
                    induced = factor_through(
                        vstack([f.transport(x, v) for v in cones]),
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
