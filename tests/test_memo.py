"""No memo keeps its owner alive.

Every per-object memo goes through ``lattice._memo``, and no stored value
refers to the object that holds it: a lower approximation that changes f
is kept as its module and components, one that does not reads f's one
tuple of identities, the upper side keeps no memo, and the two-way
opposite memos point back by a weak reference.  So, with
automatic garbage collection off, an analysed module or lattice is freed
by reference counting as soon as its last name goes; for a grid, the
intern of ``Lattice.grid`` is one such name until it evicts the grid."""

import weakref

import pytest

from pmodcalc import FieldSpec, Lattice, free_module, lattice, random_module
from pmodcalc.calculus import (PREDICATES, cr_lower, cr_upper, find_failing_cube,
                               gamma_lower, gamma_upper, min_codegree,
                               min_cross_codegree, min_cross_degree, min_degree,
                               t_lower, t_upper)
from pmodcalc.lattice import bicartesian_cubes_cached, parent_cube
from pmodcalc.linalg import Matrix
from pmodcalc.pmodule import NatTrans, opposite_module
from pmodcalc.resolution import betti, check_pdim_theorem_1, check_pdim_theorem_2

APPROXIMATIONS = (t_lower, t_upper, gamma_lower, gamma_upper, cr_lower, cr_upper)
MEMO_KEYS = {"t_lower", "gamma_lower", "identity", "koszul", "read_off", "betti",
             "opposite"}


def _module(kind: str, lat: Lattice, p: int):
    if kind == "free":  # the lower approximations at n >= 1 return f itself
        return free_module(lat, FieldSpec(p), {lat.element(1): 1, lat.element(2): 2})
    # Not constant: its lower approximations sweep over GF(2) and F_3, as
    # the tests below assert.
    return random_module(lat, FieldSpec(p), "refcount-changed", max_gens=4, max_rels=3)


def _analyse(f) -> None:
    """Everything that writes a memo: the Betti diagram, the four
    statistics, both pdim theorems and every approximation at each n."""
    betti(f)
    for stat in (min_codegree, min_degree, min_cross_codegree, min_cross_degree):
        stat(f)
    check_pdim_theorem_1(f)
    check_pdim_theorem_2(f)
    for n in range(f.lattice.poset_dimension() + 2):
        for approx in APPROXIMATIONS:
            approx(f, n)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", ["random", "free"])
@pytest.mark.parametrize("shape", [[2, 2], [1, 1, 1]])
def test_analysed_module_dies_with_its_last_name(no_gc, shape, kind, p):
    lat = Lattice.grid(shape)
    f = _module(kind, lat, p)
    _analyse(f)
    assert ("t_lower", 0) in f.calc_cache  # a sweep ran: its memo must go too
    op = opposite_module(f)
    assert all({key if isinstance(key, str) else key[0] for key in m.calc_cache} <= MEMO_KEYS
               for m in (f, op))
    refs = [weakref.ref(m) for m in (f, op, t_lower(f, 0).module,
                                     t_upper(f, 0).module, gamma_upper(f, 1).module)]
    del f, op
    assert [r() for r in refs] == [None] * len(refs)


@pytest.mark.parametrize("approx", [t_lower, gamma_lower])
@pytest.mark.parametrize("kind", ["random", "free"])
def test_only_a_sweep_builds_a_checked_nat_trans(monkeypatch, kind, approx):
    """Each sweep checks its canonical map once, on first use; no read, of a
    sweep's result or of f's identities, builds a checked map."""
    f = _module(kind, Lattice.grid([2, 2]), 3)
    checked, init = [], NatTrans.__init__

    def counted(self, *args):
        checked.append(args)
        init(self, *args)

    monkeypatch.setattr(NatTrans, "__init__", counted)
    ns = range(f.lattice.poset_dimension() + 2)
    first = [approx(f, n) for n in ns]
    swept = [n for n in ns if (approx.__name__, n) in f.calc_cache]
    # The free module changes at n = 0 only, the random one at n = 0 and 1.
    assert swept == ([0] if kind == "free" else [0, 1])
    assert [args[:2] for args in checked] == [(first[n].module, f) for n in swept]
    checked.clear()
    for n in ns:
        hit = approx(f, n)
        assert hit.module is first[n].module and hit.canonical.target is f
        assert hit.canonical.source is first[n].module
        assert hit.canonical._components is first[n].canonical._components
    assert checked == []


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", ["random", "free"])
def test_unchanged_results_share_the_one_identity_tuple(kind, p):
    """Where the read-off decides that an approximation changes nothing,
    t_lower and gamma_lower, at every n, return f with f's one memoised
    tuple of identities and write no (kind, n) key; on f^op too, which is
    where the upper side reads them."""
    statistic = {t_lower: min_codegree, gamma_lower: min_cross_codegree}
    f = _module(kind, Lattice.grid([2, 2]), p)
    for m in (f, opposite_module(f)):
        unchanged = changed = 0
        for approx, stat in statistic.items():
            for n in range(m.lattice.poset_dimension() + 2):
                res = approx(m, n)
                key = (approx.__name__, n)
                if stat(m) <= n:
                    unchanged += 1
                    assert res.module is m and res.canonical.source is m
                    assert res.canonical.target is m
                    assert res.canonical._components is m.calc_cache["identity"]
                    assert key not in m.calc_cache
                else:
                    changed += 1
                    assert res.module is not m and key in m.calc_cache
        assert unchanged and changed
        assert m.calc_cache["identity"] == tuple(
            Matrix.identity(m.field, m.dim_i(x)) for x in range(m.lattice.n))


@pytest.mark.parametrize("make", [
    lambda: Lattice.grid([2, 1]),
    lambda: Lattice.from_covers("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]),
])
def test_lattice_dies_with_its_last_name(no_gc, make):
    lat = make()
    interned = lat.grid_shape is not None
    f = random_module(lat, FieldSpec(2), "refcount-lattice", max_gens=3, max_rels=2)
    for kind in PREDICATES:
        for n in range(lat.poset_dimension() + 1):
            find_failing_cube(f, n, kind)
    for arity in (1, 2):
        bicartesian_cubes_cached(lat, arity)[:1]
    lat.opposite().opposite()
    lat.jdim_order()
    parent_cube(lat.opposite(), lat.n - 1)
    refs = [weakref.ref(lat), weakref.ref(lat.opposite())]
    del f, lat
    if interned:  # the intern holds a grid until grids past its bound evict it
        assert None not in [r() for r in refs]
        Lattice.grid([lattice.MAX_GRID_ELEMENTS - 1])
    assert [r() for r in refs] == [None, None]


def test_opposites_are_two_way_while_the_owner_lives(no_gc):
    lat = Lattice.grid([2, 1])
    assert lat.opposite().opposite() is lat
    f = random_module(lat, FieldSpec(3), "refcount-op", max_gens=3, max_rels=2)
    twin = random_module(lat, FieldSpec(3), "refcount-op", max_gens=3, max_rels=2)
    op = opposite_module(f)
    assert opposite_module(op) is f and op.lattice is lat.opposite()
    gone = weakref.ref(f)
    del f
    assert gone() is None
    again = opposite_module(op)
    assert again == twin and again is not twin
    assert opposite_module(op) is again and opposite_module(again) is op

    op_lat = Lattice.grid([1, 2]).opposite()
    assert op_lat.opposite() == Lattice.grid([1, 2])
    assert op_lat.opposite().opposite() is op_lat
