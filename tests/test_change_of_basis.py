"""Invariance under a change of basis.

A random invertible matrix g_x at each element x turns f into the
isomorphic module h with cover maps g_v F(u -> v) g_u^-1.  Everything
pmodcalc reports is an isomorphism invariant, so it must not see the
change: dims, the four statistics, the Betti diagram, and for every
approximation and n the dims of the result and the ranks of the
canonical map, element by element."""

import random

from hypothesis import given, settings, strategies as st

from pmodcalc import FieldSpec, Matrix, PersistenceModule, random_module
from pmodcalc.calculus import (cr_lower, cr_upper, gamma_lower, gamma_upper,
                               min_codegree, min_cross_codegree,
                               min_cross_degree, min_degree, t_lower, t_upper)
from pmodcalc.linalg import rank, solve
from pmodcalc.resolution import betti
from test_random_lattices import random_lattice

APPROXIMATIONS = (t_lower, t_upper, gamma_lower, gamma_upper, cr_lower, cr_upper)


def random_invertible(field: FieldSpec, d: int, rng: random.Random) -> Matrix:
    while True:
        m = Matrix(field, d, d, [[rng.randrange(field.p) for _ in range(d)]
                                 for _ in range(d)])
        if rank(m) == d:
            return m


def change_basis(f: PersistenceModule, rng: random.Random) -> PersistenceModule:
    """f with the basis of each F(x) changed by a random invertible g_x."""
    lat, field = f.lattice, f.field
    g = [random_invertible(field, f.dim_i(x), rng) for x in range(lat.n)]
    inverse = [solve(m, Matrix.identity(field, m.nrows)) for m in g]
    dims = [f.dim_i(x) for x in range(lat.n)]
    return PersistenceModule(lat, field, dims, {
        (u, v): g[v] @ f.transport_i(u, v) @ inverse[u] for u, v in lat.covers_i()})


def invariants(f: PersistenceModule) -> tuple:
    xs = range(f.lattice.n)
    approximations = [
        (approx.__name__, n,
         [r.module.dim_i(x) for x in xs], [rank(r.canonical.component_i(x)) for x in xs])
        for n in range(f.lattice.poset_dimension() + 2)
        for approx in APPROXIMATIONS for r in [approx(f, n)]]
    return ([f.dim_i(x) for x in xs],
            [stat(f) for stat in (min_codegree, min_degree,
                                  min_cross_codegree, min_cross_degree)],
            betti(f).triples(), approximations)


@settings(max_examples=40, deadline=None)
@given(grid=st.sampled_from([None, [1, 1], [2, 2], [1, 1, 1], [2, 1, 1]]),
       points=st.integers(2, 4), lattice_seed=st.integers(0, 10 ** 6),
       p=st.sampled_from([2, 3]), seed=st.integers(0, 10 ** 6))
def test_change_of_basis_changes_no_invariant(grid, points, lattice_seed, p, seed):
    lat = random_lattice(grid, points, lattice_seed)
    f = random_module(lat, FieldSpec(p), f"basis{seed}", max_gens=4, max_rels=3)
    h = change_basis(f, random.Random(seed))
    assert invariants(h) == invariants(f)
