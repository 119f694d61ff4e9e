"""The functor-axiom check every module runs on construction (commuting
cover diamonds) against the full walk over every up-set, the reference
oracle ``functor_axiom_oracle`` of tests/oracles.py."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from pmodcalc import (FieldSpec, Lattice, Matrix, PersistenceModule,
                      cokernel_of, cr_upper, direct_sum, gamma_lower,
                      opposite_module, random_module, t_lower, t_upper)
from pmodcalc.pmodule import NonCommutingSquare
from oracles import Unchecked, functor_axiom_oracle, random_hom
from test_random_lattices import downset_lattice

GRIDS = ([1, 1], [2, 2], [1, 1, 1], [3, 2], [2, 1, 1])


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
    m = f.transport_i(u, v)
    rows = m.to_lists()
    r = draw(st.integers(0, m.nrows - 1))
    c = draw(st.integers(0, m.ncols - 1))
    rows[r][c] = (rows[r][c] + draw(st.integers(1, field.p - 1))) % field.p
    maps = {cov: f.transport_i(*cov) for cov in lat.covers_i()}
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
    if functorial:
        PersistenceModule(lat, f.field, dims, maps)
    else:
        with pytest.raises(NonCommutingSquare):
            PersistenceModule(lat, f.field, dims, maps)


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
        derived = [cokernel_of(alpha)[0], direct_sum(f, g), opposite_module(f)]
        # Γ is an image and cr_upper a kernel of a canonical map.
        derived += [approx(f, n).module
                    for approx in (t_lower, t_upper, gamma_lower, cr_upper)
                    for n in range(lat.poset_dimension() + 1)]
        for m in derived:
            assert functor_axiom_oracle(m), (lat, m)
