"""The functor-axiom check every module runs on construction (commuting
cover diamonds) against the full walk over every up-set, kept here as
the reference oracle."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from pmodcalc import (FieldSpec, Lattice, Matrix, PersistenceModule,
                      cokernel_of, direct_sum, image_of, kernel_of,
                      opposite_module, random_module, t_lower, t_upper)
from pmodcalc.pmodule import NonCommutingSquare, random_hom
from test_random_lattices import downset_lattice

GRIDS = ([1, 1], [2, 2], [1, 1, 1], [3, 2], [2, 1, 1])


class Unchecked:
    """Dimensions and cover maps on a lattice, as the oracle reads them,
    without the check a PersistenceModule runs on construction."""

    def __init__(self, lattice, field, dims, maps):
        self.lattice, self.field = lattice, field
        self._dims, self._maps = dims, maps

    def dim_i(self, i):
        return self._dims[i]

    def cover_matrix_i(self, u, v):
        return self._maps[(u, v)]


def functor_axiom_oracle(f) -> bool:
    """Whether all cover paths between any two elements compose to the
    same map: for every u, walk the up-set of u in a linear extension and
    compare the routes through every lower cover of each element."""
    lat = f.lattice
    for u in range(lat.n):
        acc = {u: Matrix.identity(f.field, f.dim_i(u))}
        for v in lat.topo_order():
            if v == u or not lat.leq_i(u, v):
                continue
            routes = [f.cover_matrix_i(w, v) @ acc[w]
                      for w in lat.parents_i(v) if lat.leq_i(u, w)]
            if any(r != routes[0] for r in routes[1:]):
                return False
            acc[v] = routes[0]
    return True


@st.composite
def lattices(draw):
    if draw(st.booleans()):
        return Lattice.grid(draw(st.sampled_from(GRIDS)))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    return downset_lattice(draw(st.integers(2, 4)), rng)


@st.composite
def one_entry_changed(draw):
    """A random module, and its cover maps with one entry changed."""
    lat = draw(lattices())
    field = FieldSpec(draw(st.sampled_from([2, 3])))
    f = random_module(lat, field, draw(st.integers(0, 10 ** 6)),
                      max_gens=4, max_rels=3)
    covers = [(u, v) for (u, v) in lat.covers_i() if f.dim_i(u) and f.dim_i(v)]
    assume(covers)
    u, v = draw(st.sampled_from(covers))
    m = f.cover_matrix_i(u, v)
    rows = m.to_lists()
    r = draw(st.integers(0, m.nrows - 1))
    c = draw(st.integers(0, m.ncols - 1))
    rows[r][c] = (rows[r][c] + draw(st.integers(1, field.p - 1))) % field.p
    maps = {cov: f.cover_matrix_i(*cov) for cov in lat.covers_i()}
    maps[(u, v)] = Matrix(field, m.nrows, m.ncols, rows)
    return f, maps


@settings(max_examples=150, deadline=None)
@given(one_entry_changed())
def test_construction_rejects_exactly_what_the_oracle_rejects(case):
    f, maps = case
    lat = f.lattice
    assert functor_axiom_oracle(f)
    dims = [f.dim_i(i) for i in range(lat.n)]
    functorial = functor_axiom_oracle(Unchecked(lat, f.field, dims, maps))
    named = {(lat.element(u), lat.element(v)): m for (u, v), m in maps.items()}
    if functorial:
        PersistenceModule(lat, f.field, f.dims_by_element(), named)
    else:
        with pytest.raises(NonCommutingSquare):
            PersistenceModule(lat, f.field, f.dims_by_element(), named)


@pytest.mark.parametrize("p", [2, 3])
def test_derived_modules_pass_the_oracle(p):
    field = FieldSpec(p)
    rng = random.Random(f"derived:{p}")
    lats = [Lattice.grid(s) for s in GRIDS[1:4]]
    lats += [downset_lattice(4, random.Random(f"derived:{p}:{k}")) for k in range(2)]
    for li, lat in enumerate(lats):
        f = random_module(lat, field, f"derived-f:{p}:{li}", max_gens=4, max_rels=3)
        g = random_module(lat, field, f"derived-g:{p}:{li}", max_gens=4, max_rels=3)
        alpha = random_hom(f, g, rng)
        derived = [image_of(alpha)[0], kernel_of(alpha)[0], cokernel_of(alpha)[0],
                   direct_sum(f, g), opposite_module(f)]
        derived += [approx(f, n).module for approx in (t_lower, t_upper)
                    for n in range(lat.poset_dimension() + 1)]
        for m in derived:
            assert functor_axiom_oracle(m), (lat, m)
