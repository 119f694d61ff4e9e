"""Slow, obviously-correct references for the calculus fast paths.

The global Kan-extension oracle computes a (co)limit over the whole
selected index below (above) an element as the cokernel of one incidence
map, with no sweep.  ``gamma_lower_oracle`` is the image of the canonical
map of the Kan extension's sweep, the definition the image sweep of
``gamma_lower`` replaces.  ``PREDICATE_ORACLES`` decides the four degree
predicates by their definitions through the sweeps, where the package
reads them off the cover maps.  The solve-based cokernel body
is the reference for the echelon read-off of ``cokernel_of``
(``solve_left`` solves h*q = r, ``free_columns`` names the columns a
read-off keeps); ``image_of_oracle``, the pointwise image of a natural
map, is what ``gamma_lower_oracle`` takes of that canonical map, and
``functor_axiom_oracle`` walks every up-set where construction checks only
cover diamonds.  ``check_interval_oracle`` is the pairwise support check
that ``interval_module`` replaced.  ``restrict_along_cube`` is f
restricted along a cube, a checked module on ``boolean_lattice(k)``, the
Boolean lattice {0,1}^k; the package builds no module on a cube, and reads
pdim of such a restriction off the faces of the cube (verify's
``_restricted_pdim``).  ``betti_oracle`` takes the Koszul homology of f
restricted along every parent cube, by the cube complex ``koszul`` built
before it took its boundaries from the degree read-off's local layout;
``betti`` reads the local complex off the cover maps of f.
``tfib_oracle`` and ``tcofib_oracle`` are the total fiber and cofiber of such a cube module,
as ``tfib`` and ``tcofib`` computed them before they read f along the
cube itself.  The ``canonical_iso_*_oracle``
pair reads the pdim theorems' canonical-map conditions off the sweeps of
the opposite module, where the reports read them through ``gamma_lower``
and ``t_lower``.  ``join_oracle`` and ``meet_oracle`` scan the
common upper (lower) bounds for one that lies below (above) all of them,
where ``Lattice`` looks the join (meet) up by its up-set (down-set) mask;
``child_cube``, the parent cube of the opposite lattice, is used only by
the tests.
``Dense`` keeps a matrix for every cover, zeros included, as modules did
before they stored only the maps between nonzero spaces; its transports,
opposite and direct sum are composed from those matrices.
``image_bifiltration_homology_oracle`` eliminates H0 and H1 at every
threshold on the full boundary matrices (``boundary_1_oracle``,
``boundary_2_oracle``; representatives by ``_homology_reps``), with the
sublevel cells from the per-cell ``active_oracle``, where the package
reads H0 off union-find components and takes H1, only where its Euler
count is nonzero, on the edges outside a spanning forest;
``sublevel_rips_h0_oracle`` builds each threshold's components from
scratch, where the package sweeps the edges of each function level once
in order of length.  ``free_on_oracle`` and ``free_on_components_oracle``
fill each cover map of a free module and of an H0 module as a dense 0/1
list, where ``pmodule._free_on_blocks`` picks the identity's columns.
``multiply_oracle``, ``rank_oracle`` and ``solve_oracle`` are the product
and the eliminations that ``linalg`` skips for identities and empty shapes;
``direct_sum_oracle`` and ``boundary_oracle`` build a block matrix from
zero blocks, vstack and hstack, where ``linalg.block_matrix`` writes only
its nonzero blocks.  ``boundary_layout_oracle`` is ``calculus._boundary``
as it was before it read the meets off the stored parent-cube vertices
through a cached layout: it meets the lower covers of each subset and
lays the subsets out by ``itertools.combinations`` on every call.
``t_lower_sweep_oracle`` and ``gamma_lower_sweep_oracle`` are copies of
the two lower sweeps, ``calculus._t_sweep`` and ``_gamma_sweep``: they
always build and check a new module.  ``t_lower`` and ``gamma_lower``
return f itself, with no sweep, wherever the degree read-off says the
canonical map is an isomorphism, so every oracle above that needs an
approximation takes it from these copies; through the public functions it
would check the read-off against itself.  The element-name
queries at the end (``leq``, ``mdim``, ``upset``, ``join_irreducibles``,
``is_strongly_bicartesian``, ``cover_matrix``, ``downset``, ``meet``,
``parents``, ``children``, ``transport``, ``join``, ``jdim``, ``bottom``,
``top``, ``covers``, ``dim``, ``component``, and the cube forms
``cover_cube``, ``top_cube``, ``arity``, ``cube_value``, ``cube_top`` and
``cube_parts``) are used only by the tests, so they live here rather than
in the package, which works by element index.  So do ``image_basis``,
the pivot columns of a matrix, ``kernel_basis``, the echelon basis of a
kernel, ``identity_nat`` and ``zero_nat``, and
``hom_basis``, a basis of the natural maps between two modules solved
from the naturality equations, with ``random_hom``, a random combination
of it: the tests draw natural maps with it, and no package code calls it.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable

from pmodcalc.calculus import ApproxResult, _boundary
from pmodcalc.generators import (CubicalComplex, ImageGrid,
                                 MetricFunctionSpace, UnsupportedDimension,
                                 _UnionFind)
from pmodcalc.lattice import Lattice, _bits, _meet_fill, parent_cube
from pmodcalc import linalg
from pmodcalc.linalg import (FieldSpec, Matrix, NoFactorization,
                             cokernel_projection, hstack, rank, rref, solve,
                             vstack)
from pmodcalc.pmodule import (NatTrans, NotConnected, NotConvex,
                              PersistenceModule, _check_compatible,
                              _covers_between, is_iso, opposite_module)


class NotDownClosed(Exception):
    """The selected subset of the down-set is not down-closed."""


class NotUpClosed(Exception):
    """The selected subset of the up-set is not up-closed."""


def _diagram_colimit(f: PersistenceModule, subset: list[int]) -> tuple[int, dict[int, Matrix]]:
    """Colimit of f restricted to an induced subposet.

    Computed as the cokernel of the incidence map sending a vector at u
    (for an induced cover u < v) to transport(u,v)*x at v minus x at u.
    Returns (dimension, cocone component per subset element).
    """
    lat = f.lattice
    subset = sorted(subset)
    offsets: dict[int, int] = {}
    total = 0
    for v in subset:
        offsets[v] = total
        total += f.dim_i(v)
    blocks = [Matrix.zeros(f.field, total, 0)]
    for (u, v) in lat.induced_covers(subset):
        blocks.append(vstack([f.transport_i(u, v) if w == v else
                              -Matrix.identity(f.field, f.dim_i(u)) if w == u else
                              Matrix.zeros(f.field, f.dim_i(w), f.dim_i(u))
                              for w in subset]))
    q, _ = cokernel_projection(hstack(blocks))
    cocones = {v: q.take_cols(range(offsets[v], offsets[v] + f.dim_i(v)))
               for v in subset}
    return q.nrows, cocones


def _select_below(lat: Lattice, x: str, predicate: Callable[[str], bool],
                  error: type[Exception], relation: str) -> list[int]:
    """The elements of the down-set of x the predicate selects; raise
    ``error`` naming a missing element if they are not down-closed."""
    chosen = [v for v in _bits(lat.downset_mask(lat.index(x)))
              if predicate(lat.element(v))]
    chosen_mask = 0
    for v in chosen:
        chosen_mask |= 1 << v
    for v in chosen:
        below = lat.downset_mask(v) & ~chosen_mask
        if below:
            bad = next(_bits(below))
            raise error(f"{lat.element(bad)} {relation} {lat.element(v)} "
                        "is missing from the selection")
    return chosen


def colim_over_downset(f: PersistenceModule, x: str,
                       predicate: Callable[[str], bool]) -> tuple[int, dict[str, Matrix]]:
    """Colimit of f over the selected down-closed part of the down-set of x.

    Raises NotDownClosed when the predicate selects a set that is not
    down-closed inside the interval below x.
    """
    chosen = _select_below(f.lattice, x, predicate, NotDownClosed, "<=")
    dim, cocones = _diagram_colimit(f, chosen)
    return dim, {f.lattice.element(v): m for v, m in cocones.items()}


def lim_over_upset(f: PersistenceModule, x: str,
                   predicate: Callable[[str], bool]) -> tuple[int, dict[str, Matrix]]:
    """Limit of f over the selected up-closed part of the up-set of x: the
    colimit of the opposite module, with its cocones transposed into cones.

    Raises NotUpClosed when the selection is not up-closed above x.
    """
    op = opposite_module(f)
    chosen = _select_below(op.lattice, x, predicate, NotUpClosed, ">=")
    dim, cocones = _diagram_colimit(op, chosen)
    return dim, {f.lattice.element(v): m.transpose() for v, m in cocones.items()}


def gamma_lower_oracle(f: PersistenceModule, n: int) -> ApproxResult:
    """The cross-codegree-n approximation by its definition: the pointwise
    image of the canonical map T_n F -> F of the sweep, with its
    inclusion."""
    return ApproxResult(*image_of_oracle(t_lower_sweep_oracle(f, n).canonical))


def t_lower_sweep_oracle(f: PersistenceModule, n: int) -> ApproxResult:
    """A copy of ``calculus._t_sweep``: it always builds a new module and
    checks its canonical map, and memoises nothing."""
    if n < 0:
        raise ValueError("approximation degree must be >= 0")
    lat, field = f.lattice, f.field
    dims = [0] * lat.n
    eps: list = [None] * lat.n
    maps: dict[tuple[int, int], Matrix] = {}
    for x in lat.topo_order():
        ws = lat.parents_i(x)
        if not (f.dim_i(x) if len(ws) <= n else any(dims[w] for w in ws)):
            eps[x] = Matrix.zeros(field, f.dim_i(x), 0)  # T(x) = 0
            continue
        legs = [f.transport_i(w, x) @ eps[w] for w in ws]
        if len(ws) <= n:
            dims[x] = f.dim_i(x)
            eps[x] = Matrix.identity(field, dims[x])
            maps.update(((w, x), leg) for w, leg in zip(ws, legs))
            continue
        q, free = cokernel_projection(_boundary(
            field, lat.parent_vertices_i(x), 2, lambda m, w: maps[(m, w)],
            dims.__getitem__))
        dims[x] = q.nrows
        offset = 0
        for w in ws:
            maps[(w, x)] = q.take_cols(range(offset, offset + dims[w]))
            offset += dims[w]
        eps[x] = hstack(legs).take_cols(free)
    module = PersistenceModule(lat, field, dims, maps)
    canonical = NatTrans(module, f, eps)
    canonical.validate()
    return ApproxResult(module, canonical)


def gamma_lower_sweep_oracle(f: PersistenceModule, n: int) -> ApproxResult:
    """A copy of ``calculus._gamma_sweep``, the image sweep: it always
    builds a new module, and memoises nothing."""
    if n < 0:
        raise ValueError("approximation degree must be >= 0")
    lat, field = f.lattice, f.field
    bases: list = [None] * lat.n
    maps: dict[tuple[int, int], Matrix] = {}
    for x in lat.topo_order():
        if not f.dim_i(x):
            bases[x] = Matrix.zeros(field, 0, 0)
            continue
        ws = lat.parents_i(x)
        legs = [f.transport_i(w, x) @ bases[w] for w in ws]
        if len(ws) <= n:
            bases[x] = Matrix.identity(field, f.dim_i(x))
            blocks = legs
        else:
            stacked = hstack(legs)
            red, pivots = rref(stacked)
            bases[x] = stacked.take_cols(pivots)
            reduced = red.take_rows(range(len(pivots)))
            if bases[x] @ reduced != stacked:
                raise NoFactorization(
                    f"gamma_lower: the legs into {lat.element(x)} do not "
                    "factor through their pivot columns")
            blocks, offset = [], 0
            for leg in legs:
                blocks.append(reduced.take_cols(range(offset, offset + leg.ncols)))
                offset += leg.ncols
        maps.update(((w, x), m) for w, m in zip(ws, blocks))
    module = PersistenceModule(lat, field, [b.ncols for b in bases], maps)
    return ApproxResult(module, NatTrans(module, f, bases))


def is_codegree_oracle(f: PersistenceModule, n: int) -> bool:
    """Codegree n by definition: the canonical map T_n F -> F is an iso."""
    return is_iso(t_lower_sweep_oracle(f, n).canonical)


def is_cross_codegree_oracle(f: PersistenceModule, n: int) -> bool:
    """Cross-codegree n by definition: Gamma_n F = F, that is the image
    of T_n F -> F, a submodule of f, has the dims of f."""
    gamma = gamma_lower_sweep_oracle(f, n).module
    return all(gamma.dim_i(x) == f.dim_i(x) for x in range(f.lattice.n))


#: The four predicates through the approximations, keyed like PREDICATES;
#: the upper ones on the opposite module.
PREDICATE_ORACLES: dict[str, Callable[[PersistenceModule, int], bool]] = {
    "codegree": is_codegree_oracle,
    "degree": lambda f, n: is_codegree_oracle(opposite_module(f), n),
    "cross_codegree": is_cross_codegree_oracle,
    "cross_degree": lambda f, n: is_cross_codegree_oracle(opposite_module(f), n)}


# -- Betti numbers and the pdim theorems' canonical maps --------------------------


def koszul_homology_oracle(cube: PersistenceModule) -> list[int]:
    """Koszul homology of a cube (a module on {0,1}^k) by degree, from the
    complex ``koszul`` built before it read its boundaries off the local
    layout of ``calculus._boundary``: degree i sums the values on subsets
    of size k - i in bitmask order, and the block from subset s into
    s | t is (-1)^j times the edge, t the j-th element missing from s.
    d o d = 0 is asserted."""
    k = cube.lattice.poset_dimension()
    by_size: list[list[int]] = [[] for _ in range(k + 1)]
    for mask in range(1 << k):
        by_size[mask.bit_count()].append(mask)
    dims = [sum(cube.dim_i(m) for m in by_size[k - i]) for i in range(k + 1)]
    boundaries = []
    for i in range(k):
        rows = []
        for tm in by_size[k - i]:
            blocks = []
            for s in by_size[k - i - 1]:
                if s & ~tm:
                    blocks.append(Matrix.zeros(cube.field, cube.dim_i(tm), cube.dim_i(s)))
                else:
                    t = (tm ^ s).bit_length() - 1
                    j = t - (s & ((1 << t) - 1)).bit_count()
                    edge = cube.transport_i(s, tm)
                    blocks.append(-edge if j % 2 else edge)
            rows.append(hstack(blocks))
        boundaries.append(vstack(rows))
    assert all((a @ b).is_zero() for a, b in zip(boundaries, boundaries[1:]))
    ranks = [0] + [rank(d) for d in boundaries] + [0]
    return [dims[i] - ranks[i] - ranks[i + 1] for i in range(k + 1)]


def boolean_lattice(k: int) -> Lattice:
    """The Boolean lattice {0,1}^k, element index and subset mask alike."""
    return Lattice.grid([1] * k or [0])


def restrict_along_cube(f: PersistenceModule, cube: tuple[int, ...]) -> PersistenceModule:
    """f restricted along a k-cube of its lattice: the module on
    boolean_lattice(k) whose value at subset mask m is f at cube[m], with
    the transports of f between vertices as cover maps (checked).  The
    package reads every cube question on f along the vertex tuple instead."""
    lat = boolean_lattice(len(cube).bit_length() - 1)
    return PersistenceModule(
        lat, f.field, [f.dim_i(x) for x in cube],
        {(s, t): f.transport_i(cube[s], cube[t]) for s, t in lat.covers_i()})


def cube_module_arity(cube: PersistenceModule) -> int:
    """The k of a cube module: a module on boolean_lattice(k), as
    restrict_along_cube returns it, whose value at subset mask m is dim_i(m)
    and whose edge adding bit t to s is transport_i(s, s | 1 << t).
    ValueError on other lattices."""
    k = cube.lattice.poset_dimension()
    if cube.lattice != boolean_lattice(k):
        raise ValueError(f"{cube.lattice!r} is not the Boolean lattice {{0,1}}^{k}")
    return k


def tfib_oracle(cube: PersistenceModule) -> int:
    """Total fiber dimension of a cube module: the kernel of the map from
    the initial vertex into the product of the single-bit vertices."""
    k = cube_module_arity(cube)
    if k == 0:
        return cube.dim_i(0)
    stacked = vstack([cube.transport_i(0, 1 << b) for b in range(k)])
    return cube.dim_i(0) - rank(stacked)


def tcofib_oracle(cube: PersistenceModule) -> int:
    """Total cofiber dimension of a cube module: the cokernel of the map
    into the terminal vertex from the coproduct of the codimension-one
    vertices."""
    k = cube_module_arity(cube)
    if k == 0:
        return cube.dim_i(0)
    full = (1 << k) - 1
    stacked = hstack([cube.transport_i(full & ~(1 << b), full) for b in range(k)])
    return cube.dim_i(full) - rank(stacked)


def betti_oracle(f: PersistenceModule) -> dict[tuple[str, int], int]:
    """The nonzero Betti numbers of f, keyed like ``BettiDiagram.entries``:
    the Koszul homology of f restricted along the parent cube of every
    element, by ``koszul_homology_oracle``."""
    lat, entries = f.lattice, {}
    for x in range(lat.n):
        cube = restrict_along_cube(f, parent_cube(lat, x))
        for i, h in enumerate(koszul_homology_oracle(cube)):
            if h:
                entries[(lat.element(x), i)] = h
    return entries


def canonical_iso_1_oracle(f: PersistenceModule, n: int) -> bool:
    """Theorem 1's third condition by the sweep: the canonical epi
    f -> gamma_upper(f, n-1), the transpose of Gamma_(n-1) f^op -> f^op,
    is an isomorphism."""
    return is_iso(gamma_lower_sweep_oracle(opposite_module(f), n - 1).canonical)


def canonical_iso_2_oracle(f: PersistenceModule, n: int) -> bool:
    """Theorem 2's third condition by the sweeps: the composite
    f -> gamma_upper(f, n-2) -> t_upper of it at n-1, the transpose of
    T_(n-1) G -> G -> f^op with G = Gamma_(n-2) f^op, is an isomorphism."""
    g = gamma_lower_sweep_oracle(opposite_module(f), n - 2)
    return is_iso(g.canonical.compose(t_lower_sweep_oracle(g.module, n - 1).canonical))


# -- helpers the package does not call ----------------------------------------


def image_basis(m: Matrix) -> Matrix:
    """The pivot columns of m: a deterministic basis of its column space."""
    _, pivots = rref(m)
    return m.take_cols(pivots)


def identity_nat(f: PersistenceModule) -> NatTrans:
    return NatTrans(f, f, [Matrix.identity(f.field, d) for d in f._dims])


def zero_nat(source: PersistenceModule, target: PersistenceModule) -> NatTrans:
    return NatTrans(source, target,
                    [Matrix.zeros(source.field, target.dim_i(i), source.dim_i(i))
                     for i in range(source.lattice.n)])


def hom_basis(source: PersistenceModule, target: PersistenceModule) -> list[NatTrans]:
    """A basis of the vector space of natural transformations source -> target.

    Solves the naturality constraints (one linear equation per cover and
    matrix entry) and converts each kernel vector back into components.
    """
    _check_compatible(source, target)
    lat = source.lattice
    field = source.field
    offsets = []
    total = 0
    for i in range(lat.n):
        offsets.append(total)
        total += target.dim_i(i) * source.dim_i(i)
    rows: list[list[int]] = []
    p = field.p
    for (u, v) in _covers_between(lat, source._dims, target._dims):
        tm = target.transport_i(u, v)
        sm = source.transport_i(u, v)
        for r in range(target.dim_i(v)):
            for c in range(source.dim_i(u)):
                row = [0] * total
                for k in range(target.dim_i(u)):
                    row[offsets[u] + k * source.dim_i(u) + c] = tm[r, k] % p
                for k in range(source.dim_i(v)):
                    row[offsets[v] + r * source.dim_i(v) + k] = (
                        row[offsets[v] + r * source.dim_i(v) + k] - sm[k, c]) % p
                rows.append(row)
    ker = kernel_basis(Matrix(field, len(rows), total, rows)
                       if rows else Matrix.zeros(field, 0, total))
    out = []
    for col in range(ker.ncols):
        comps = []
        for i in range(lat.n):
            dt, ds = target.dim_i(i), source.dim_i(i)
            m = [[ker[offsets[i] + r * ds + c, col] for c in range(ds)]
                 for r in range(dt)]
            comps.append(Matrix(field, dt, ds, m))
        out.append(NatTrans(source, target, comps))
    return out


def random_hom(source: PersistenceModule, target: PersistenceModule,
               rng: random.Random) -> NatTrans:
    """A random F_p combination of a hom-space basis."""
    basis = hom_basis(source, target)
    p = source.field.p
    coeffs = [rng.randrange(p) for _ in basis]
    lat = source.lattice
    comps = []
    for i in range(lat.n):
        acc = Matrix.zeros(source.field, target.dim_i(i), source.dim_i(i))
        for c, nt in zip(coeffs, basis):
            if c:
                acc = acc + nt.component_i(i).scale(c)
        comps.append(acc)
    return NatTrans(source, target, comps)


# -- induced maps: the solve-based bodies the echelon read-offs replaced -------


def solve_left(q: Matrix, r: Matrix) -> Matrix:
    """h with h*q = r (unique when q is surjective), by solve on transposes."""
    return solve(q.transpose(), r.transpose()).transpose()


def image_of_oracle(nt):
    """The pointwise image of nt: S -> T, on the pivot columns of each
    component, with its canonical monomorphism into T."""
    lat = nt.source.lattice
    bases = [image_basis(nt.component_i(i)) for i in range(lat.n)]
    maps = {(u, v): solve(bases[v], nt.target.transport_i(u, v) @ bases[u])
            for (u, v) in lat.covers_i()}
    module = PersistenceModule(lat, nt.source.field, [b.ncols for b in bases], maps)
    return module, NatTrans(module, nt.target, bases)


def kernel_basis(m: Matrix) -> Matrix:
    """The echelon basis of ker(m) as columns, one per free column f of
    rref(m): the unit at f minus, at the pivot column of each pivot row,
    entry f of that row.  Read off rref(m) itself, not through
    ``cokernel_projection`` of m^T, whose transpose it equals."""
    red, pivots = rref(m)
    p = m.field.p
    rows = []
    for f in free_columns(m):
        row = [0] * m.ncols
        row[f] = 1
        for r, c in enumerate(pivots):
            row[c] = -red[r, f] % p
        rows.append(row)
    return Matrix(m.field, len(rows), m.ncols, rows).transpose()


def free_columns(m: Matrix) -> tuple[int, ...]:
    """The non-pivot columns of rref(m), in increasing order."""
    return tuple(j for j in range(m.ncols) if j not in rref(m)[1])


def cokernel_projection_oracle(m):
    """The transposed kernel basis of m^T, and the free columns of m^T: the
    body the read-off of ``cokernel_projection`` replaced."""
    t = m.transpose()
    return kernel_basis(t).transpose(), free_columns(t)


def cokernel_of_oracle(nt):
    lat = nt.source.lattice
    projs = [cokernel_projection(nt.component_i(i))[0] for i in range(lat.n)]
    maps = {(u, v): solve_left(projs[u], projs[v] @ nt.target.transport_i(u, v))
            for (u, v) in lat.covers_i()}
    module = PersistenceModule(lat, nt.source.field, [q.nrows for q in projs], maps)
    return module, NatTrans(nt.target, module, projs)


# -- join and meet by scanning the bounds ------------------------------------------


def _extreme_of(mask: int, cone: Callable[[int], int]) -> int:
    """The element of mask whose cone (up or down mask) holds all of mask, or -1."""
    for c in _bits(mask):
        if mask & ~cone(c) == 0:
            return c
    return -1


def join_oracle(lat: Lattice, i: int, j: int) -> int:
    """The least upper bound of i and j, or -1 when there is none."""
    return _extreme_of(lat.upset_mask(i) & lat.upset_mask(j), lat.upset_mask)


def meet_oracle(lat: Lattice, i: int, j: int) -> int:
    """The greatest lower bound of i and j, or -1 when there is none."""
    return _extreme_of(lat.downset_mask(i) & lat.downset_mask(j), lat.downset_mask)


def child_cube(lattice: Lattice, a: int) -> tuple[int, ...]:
    """The dual of ``parent_cube``: a at the empty subset, joins of upper
    covers above.  It is the parent cube of a in the opposite lattice,
    subset S there being the complement of S here."""
    return parent_cube(lattice.opposite(), a)[::-1]


# -- the functor axiom on every up-set -------------------------------------------


class Unchecked:
    """Dimensions and cover maps on a lattice, as the oracle reads them
    (``transport_i`` on a cover), without the check a PersistenceModule
    runs on construction."""

    def __init__(self, lattice, field, dims, maps):
        self.lattice, self.field = lattice, field
        self._dims, self._maps = dims, maps

    def dim_i(self, i):
        return self._dims[i]

    def transport_i(self, u, v):
        return self._maps[(u, v)]


class Dense(Unchecked):
    """Unchecked storage with a matrix for every cover, zero-sided ones
    included."""

    @classmethod
    def of(cls, f: PersistenceModule) -> "Dense":
        """f's maps between nonzero spaces, with zeros made here for the rest."""
        dims = [f.dim_i(i) for i in range(f.lattice.n)]
        return cls(f.lattice, f.field, dims,
                   {(u, v): f.transport_i(u, v) if dims[u] and dims[v]
                    else Matrix.zeros(f.field, dims[v], dims[u])
                    for (u, v) in f.lattice.covers_i()})

    def transport_i(self, u, v):
        """F(u <= v), composed over every element between them in a linear
        extension, each through its first lower cover above u."""
        lat = self.lattice
        acc = {u: Matrix.identity(self.field, self._dims[u])}
        for w in lat.topo_order():
            if w != u and lat.leq_i(u, w) and lat.leq_i(w, v):
                p = next(p for p in lat.parents_i(w) if lat.leq_i(u, p))
                acc[w] = self._maps[(p, w)] @ acc[p]
        return acc[v]

    def opposite(self) -> "Dense":
        return Dense(self.lattice.opposite(), self.field, self._dims,
                     {(v, u): m.transpose() for (u, v), m in self._maps.items()})

    def direct_sum(self, other: "Dense") -> "Dense":
        return Dense(self.lattice, self.field,
                     [a + b for a, b in zip(self._dims, other._dims)],
                     {cov: linalg.direct_sum([m, other._maps[cov]])
                      for cov, m in self._maps.items()})


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
            routes = [f.transport_i(w, v) @ acc[w]
                      for w in lat.parents_i(v) if lat.leq_i(u, w)]
            if any(r != routes[0] for r in routes[1:]):
                return False
            acc[v] = routes[0]
    return True


# -- interval supports -------------------------------------------------------------


def check_interval_oracle(lattice: Lattice, sup: set[int]) -> None:
    """Raise NotConvex unless everything between each comparable pair of
    the support is in it, then NotConnected unless its comparability
    graph is connected; pair by pair, cubic in the support."""
    mask = 0
    for i in sup:
        mask |= 1 << i
    for u in sorted(sup):
        for v in sorted(sup):
            if lattice.leq_i(u, v):
                missing = lattice.upset_mask(u) & lattice.downset_mask(v) & ~mask
                if missing:
                    raise NotConvex(
                        f"support omits {lattice.element(next(_bits(missing)))} "
                        f"between {lattice.element(u)} and {lattice.element(v)}")
    todo = set(sup)
    stack = [min(sup)]
    todo.discard(stack[0])
    while stack:
        x = stack.pop()
        for y in list(todo):
            if lattice.leq_i(x, y) or lattice.leq_i(y, x):
                todo.discard(y)
                stack.append(y)
    if todo:
        raise NotConnected(f"support splits into incomparable pieces "
                           f"(e.g. {lattice.element(min(todo))})")


# -- free modules, dense ----------------------------------------------------------
# The two 0/1 map builders that ``pmodule._free_on_blocks`` replaced: each
# fills a list of lists per cover and passes it to the checked constructor.


def free_on_oracle(lattice: Lattice, field: FieldSpec, gens: list[int]) -> PersistenceModule:
    """The free module with one generator born at each index in the sorted gens."""
    # Coordinates at x: positions of generators whose birth element is <= x.
    coords = [[gi for gi, b in enumerate(gens) if lattice.leq_i(b, x)]
              for x in range(lattice.n)]
    maps = {}
    for (u, v) in lattice.covers_i():
        cu, cv = coords[u], coords[v]
        if not cu or not cv:
            continue
        posv = {g: r for r, g in enumerate(cv)}
        m = [[0] * len(cu) for _ in range(len(cv))]
        for c, g in enumerate(cu):
            m[posv[g]][c] = 1
        maps[(u, v)] = Matrix(field, len(cv), len(cu), m)
    return PersistenceModule(lattice, field, [len(c) for c in coords], maps)


def free_on_components_oracle(lat: Lattice, field: FieldSpec,
                              comps: list[list[list[int]]]) -> PersistenceModule:
    """The H0 module of a filtered graph: free on the components
    ``comps[i]`` at element i, with a component's class sent to that of the
    component holding its first point."""
    where = [{pt: ti for ti, comp in enumerate(cs) for pt in comp} for cs in comps]
    maps = {}
    for (u, v) in lat.covers_i():
        if comps[u] and comps[v]:
            data = [[0] * len(comps[u]) for _ in range(len(comps[v]))]
            for si, comp in enumerate(comps[u]):
                data[where[v][comp[0]]][si] = 1
            maps[(u, v)] = Matrix(field, len(comps[v]), len(comps[u]), data)
    return PersistenceModule(lat, field, [len(c) for c in comps], maps)


# -- dense GF(2) references for linalg -----------------------------------------
# Lists of lists of 0/1 with one Python step per entry: the storage and the
# loops that linalg's packed GF(2) rows replace.  Shapes are explicit, since
# a list of no rows does not know its width.


def dense_rref(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over GF(2), leftmost pivot in the first
    nonzero row, and the pivot columns."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    for c in range(ncols):
        pr = len(pivots)
        hit = [r for r in range(pr, len(mat)) if mat[r][c]]
        if not hit:
            continue
        mat[pr], mat[hit[0]] = mat[hit[0]], mat[pr]
        for r in range(len(mat)):
            if r != pr and mat[r][c]:
                mat[r] = [(x + y) % 2 for x, y in zip(mat[r], mat[pr])]
        pivots.append(c)
    return mat, pivots


def dense_multiply(a: list[list[int]], b: list[list[int]], ncols: int) -> list[list[int]]:
    return [[sum(row[t] * b[t][j] for t in range(len(b))) % 2 for j in range(ncols)]
            for row in a]


def dense_transpose(rows: list[list[int]], ncols: int) -> list[list[int]]:
    return [[row[j] for row in rows] for j in range(ncols)]


def dense_take_cols(rows: list[list[int]], idx: list[int]) -> list[list[int]]:
    return [[row[j] for j in idx] for row in rows]


def dense_direct_sum(a: list[list[int]], acols: int, b: list[list[int]],
                     bcols: int) -> list[list[int]]:
    return [row + [0] * bcols for row in a] + [[0] * acols + row for row in b]


def dense_kernel_basis(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """ncols x (ncols - rank): per free column f, the vector with a 1 at f
    and the pivot entries read from the reduced form."""
    red, pivots = dense_rref(rows, ncols)
    cols = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = red[r][f]
        cols.append(v)
    return dense_transpose(cols, ncols)


def dense_cokernel_projection(rows: list[list[int]],
                              ncols: int) -> tuple[list[list[int]], list[int]]:
    """The transposed kernel basis of the transpose, and the free columns
    of the transpose."""
    t = dense_transpose(rows, ncols)
    k = dense_kernel_basis(t, len(rows))
    _, pivots = dense_rref(t, len(rows))
    return (dense_transpose(k, len(k[0]) if k else 0),
            [j for j in range(len(rows)) if j not in pivots])


def dense_solve(a: list[list[int]], acols: int, b: list[list[int]],
                bcols: int) -> list[list[int]] | None:
    """x with a*x = b and every free variable 0, or None if there is none."""
    red, pivots = dense_rref([u + v for u, v in zip(a, b)], acols + bcols)
    if any(c >= acols for c in pivots):
        return None
    x = [[0] * bcols for _ in range(acols)]
    for r, c in enumerate(pivots):
        x[c] = red[r][acols:]
    return x


# -- elimination and stacking references for linalg's short-cuts --------------
# ``multiply``, ``rank`` and ``solve`` answer identities and empty shapes with
# no product and no elimination, and ``block_matrix`` writes only nonzero
# blocks; these are the bodies they answer for, over any p.


def multiply_oracle(a: Matrix, b: Matrix) -> Matrix:
    """The product entry by entry, as sums of products mod p."""
    p, rows = a.field.p, b.rows()
    return Matrix(a.field, a.nrows, b.ncols,
                  [[sum(x * rows[t][j] for t, x in enumerate(row)) % p
                    for j in range(b.ncols)] for row in a.rows()])


def rank_oracle(m: Matrix) -> int:
    return len(rref(m)[1])


def solve_oracle(a: Matrix, b: Matrix) -> Matrix:
    """x with a*x = b, free variables 0, read off the rref of [a|b]; raises
    NoFactorization naming the first pivot among b's columns."""
    red, pivots = rref(hstack([a, b]))
    n = a.ncols
    for c in pivots:
        if c >= n:
            raise NoFactorization(
                f"system has no solution (pivot in augmented column {c - n})")
    tail = red.take_cols(range(n, red.ncols)).rows()
    x = [[0] * b.ncols for _ in range(n)]
    for r, c in enumerate(pivots):
        x[c] = list(tail[r])
    return Matrix(a.field, n, b.ncols, x)


def direct_sum_oracle(mats: list[Matrix]) -> Matrix:
    """Each block row as zeros, the block and zeros side by side, stacked."""
    field, ncols, c0, rows = mats[0].field, sum(m.ncols for m in mats), 0, []
    for m in mats:
        rows.append(hstack([Matrix.zeros(field, m.nrows, c0), m,
                            Matrix.zeros(field, m.nrows, ncols - c0 - m.ncols)]))
        c0 += m.ncols
    return vstack(rows)


def boundary_oracle(f: PersistenceModule, x: int, i: int, cover, dim) -> Matrix:
    """``calculus._boundary`` from a zero block for every pair of chains,
    the cover blocks in place, each block column a vstack and d_i their
    hstack."""
    lat, field, ws = f.lattice, f.field, f.lattice.parents_i(x)

    def meet(subset):
        v = x
        for t in subset:
            v = lat.meet_i(v, ws[t])
        return v

    lower = list(itertools.combinations(range(len(ws)), i - 1))
    row_of = {s: r for r, s in enumerate(lower)}
    faces = [meet(s) for s in lower]
    blocks = [Matrix.zeros(field, sum(map(dim, faces)), 0)]
    for subset in itertools.combinations(range(len(ws)), i):
        m = meet(subset)
        if not dim(m):
            continue
        column = [Matrix.zeros(field, dim(v), dim(m)) for v in faces]
        for j in range(i):
            r = row_of[subset[:j] + subset[j + 1:]]
            if dim(faces[r]):
                edge = cover(m, faces[r])
                column[r] = -edge if j % 2 else edge
        blocks.append(vstack(column))
    return hstack(blocks)


def boundary_layout_oracle(f: PersistenceModule, x: int, i: int, cover, dim) -> Matrix:
    """``calculus._boundary`` with every meet and the subset layout found
    on each call: the faces are the meets of the (i-1)-subsets of the
    lower covers, the cells the nonzero meets of the i-subsets, both in
    combinations order, and the block from T to T - {t} is (-1)^j times
    the cover map, t at position j of T."""
    lat, ws = f.lattice, f.lattice.parents_i(x)

    def meet(subset):
        v = x
        for t in subset:
            v = lat.meet_i(v, ws[t])
        return v

    lower = list(itertools.combinations(range(len(ws)), i - 1))
    row_of = {s: r for r, s in enumerate(lower)}
    faces = [meet(s) for s in lower]
    cells = [(s, m) for s in itertools.combinations(range(len(ws)), i) if dim(m := meet(s))]
    blocks = []
    for c, (subset, m) in enumerate(cells):
        for j in range(i):
            r = row_of[subset[:j] + subset[j + 1:]]
            if dim(faces[r]):
                edge = cover(m, faces[r])
                blocks.append((r, c, -edge if j % 2 else edge))
    return linalg.block_matrix(f.field, [dim(v) for v in faces],
                               [dim(m) for _, m in cells], blocks)


# -- data pipelines --------------------------------------------------------


def active_oracle(complex_: CubicalComplex,
                  level: tuple[int, ...]) -> tuple[list[int], list[int], list[int]]:
    """Indices of the vertices / edges / squares in the sublevel complex,
    one comparison per cell."""
    av = [i for i, f in enumerate(complex_.vertex_filt)
          if all(a <= b for a, b in zip(f, level))]
    ae = [i for i, f in enumerate(complex_.edge_filt)
          if all(a <= b for a, b in zip(f, level))]
    aq = [i for i, f in enumerate(complex_.square_filt)
          if all(a <= b for a, b in zip(f, level))]
    return av, ae, aq


def boundary_1_oracle(complex_: CubicalComplex, field: FieldSpec,
                      av: list[int], ae: list[int]) -> Matrix:
    """Vertex x edge boundary matrix of the sublevel complex."""
    pos = {v: i for i, v in enumerate(av)}
    data = [[0] * len(ae) for _ in av]
    for j, e in enumerate(ae):
        u, v = complex_.edges[e]
        data[pos[v]][j], data[pos[u]][j] = 1, -1
    return Matrix(field, len(av), len(ae), data)


def boundary_2_oracle(complex_: CubicalComplex, field: FieldSpec,
                      ae: list[int], aq: list[int]) -> Matrix:
    """Edge x square boundary matrix, a ``square_boundary`` per column."""
    pos = {e: i for i, e in enumerate(ae)}
    data = [[0] * len(aq) for _ in ae]
    for j, q in enumerate(aq):
        for e, c in complex_.square_boundary(q, field.p):
            data[pos[e]][j] = c
    return Matrix(field, len(ae), len(aq), data)


def _homology_reps(cycles: Matrix, boundaries: Matrix) -> Matrix:
    """Columns of ``cycles`` forming a basis of cycles modulo boundaries.

    Picks the cycle columns whose pivots survive after the boundary
    block in a combined reduction; deterministic via the echelon rules.
    """
    combined = hstack([boundaries, cycles])
    _, pivots = rref(combined)
    chosen = [c - boundaries.ncols for c in pivots if c >= boundaries.ncols]
    return cycles.take_cols(chosen)


def image_bifiltration_homology_oracle(img: ImageGrid, degree: int,
                                       field: FieldSpec) -> PersistenceModule:
    """H_degree of the sublevel cubical bifiltration of a multi-channel
    image, as a module over the threshold grid {0..max}^channels.

    Supports degree 0 and 1 on 2D images with up to 3 channels.  Cover
    maps push cycle representatives forward along the chain inclusion
    and reduce them in the target homology basis.
    """
    if degree not in (0, 1):
        raise UnsupportedDimension(f"H_{degree} is out of scope for 2D images")
    if img.channels > 3:
        raise UnsupportedDimension("more than 3 channels is out of scope")
    complex_ = CubicalComplex(img)
    lat = Lattice.grid([img.max_value] * img.channels)
    # Per element index (grid elements are in lexicographic order): cycle
    # reps over the active cells cells_at, and [reps | boundary basis].
    reps: list[Matrix] = []
    basis_solver: list[Matrix] = []
    cells_at: list[list[int]] = []
    for level in itertools.product(range(img.max_value + 1), repeat=img.channels):
        av, ae, aq = active_oracle(complex_, level)
        d1 = boundary_1_oracle(complex_, field, av, ae)
        if degree == 0:
            cycles, bounds = Matrix.identity(field, len(av)), image_basis(d1)
            cells_at.append(av)
        else:
            cycles = kernel_basis(d1)
            bounds = image_basis(boundary_2_oracle(complex_, field, ae, aq))
            cells_at.append(ae)
        h = _homology_reps(cycles, bounds)
        reps.append(h)
        basis_solver.append(hstack([h, bounds]))
    dims = [h.ncols for h in reps]

    maps = {}
    for v in range(lat.n):
        # One solve per element: basis_solver[v] has independent columns,
        # so the lifts from all lower covers share its row operations.
        us = lat.parents_i(v)
        if not us:
            continue
        lifts = []
        for u in us:
            # Row r of reps[u] lands on the same cell of v; other cells
            # take the zero row appended at the bottom.
            pos = {c: i for i, c in enumerate(cells_at[u])}
            padded = vstack([reps[u], Matrix.zeros(field, 1, dims[u])])
            lifts.append(padded.take_rows([pos.get(c, len(pos)) for c in cells_at[v]]))
        coords = solve(basis_solver[v], hstack(lifts)).take_rows(range(dims[v]))
        offset = 0
        for u in us:
            maps[(u, v)] = coords.take_cols(range(offset, offset + dims[u]))
            offset += dims[u]
    return PersistenceModule(lat, field, dims, maps)


def _rips_components_oracle(space: MetricFunctionSpace, a: int, r: int) -> list[list[int]]:
    pts = [i for i, v in enumerate(space.values) if v <= a]
    uf = _UnionFind(len(space.values))
    for i, j in itertools.combinations(pts, 2):
        if space.dist[i][j] <= r:
            uf.union(i, j)
    comps: dict[int, list[int]] = {}
    for i in pts:
        comps.setdefault(uf.find(i), []).append(i)
    return [comps[k] for k in sorted(comps)]


def sublevel_rips_h0_oracle(space: MetricFunctionSpace,
                            field: FieldSpec) -> PersistenceModule:
    """H0 of the sublevel-Rips bifiltration: at threshold (a, r), the free
    space on connected components of the graph on {f <= a} with edges of
    length <= r; cover maps send a component class to the class of the
    component containing it."""
    lat = Lattice.grid([len(space.a_levels) - 1, len(space.r_levels) - 1])
    # Per element index: grid elements (a, r) are in lexicographic order.
    return free_on_components_oracle(lat, field, [
        _rips_components_oracle(space, a, r)
        for a, r in itertools.product(space.a_levels, space.r_levels)])


# -- element-name forms of index queries, used only by the tests -----------------


def leq(lat: Lattice, u: str, v: str) -> bool:
    return lat.leq_i(lat.index(u), lat.index(v))


def mdim(lat: Lattice, v: str) -> int:
    """Meet-dimension: the number of upper covers of v."""
    return len(lat.children_i(lat.index(v)))


def upset(lat: Lattice, v: str) -> tuple[str, ...]:
    return tuple(lat.element(i) for i in sorted(_bits(lat.upset_mask(lat.index(v)))))


def join_irreducibles(lat: Lattice) -> tuple[str, ...]:
    """The elements with a single lower cover: in a finite distributive
    lattice, exactly those that are not joins of strictly smaller ones."""
    return tuple(lat.element(i) for i in range(lat.n) if len(lat.parents_i(i)) == 1)


def is_strongly_bicartesian(lat: Lattice, cube: tuple[int, ...]) -> bool:
    """Whether the cube's vertices preserve all joins and meets of subsets."""
    return all(cube[s | t] == lat.join_i(cube[s], cube[t])
               and cube[s & t] == lat.meet_i(cube[s], cube[t])
               for s in range(len(cube)) for t in range(s, len(cube)))


def cover_matrix(f: PersistenceModule, u: str, v: str) -> Matrix:
    return f.transport_i(f.lattice.index(u), f.lattice.index(v))


def downset(lat: Lattice, v: str) -> tuple[str, ...]:
    return tuple(lat.element(i) for i in sorted(_bits(lat.downset_mask(lat.index(v)))))


def meet(lat: Lattice, u: str, v: str) -> str:
    return lat.element(lat.meet_i(lat.index(u), lat.index(v)))


def parents(lat: Lattice, v: str) -> tuple[str, ...]:
    """Lower covers of v (elements that v covers)."""
    return tuple(lat.element(i) for i in lat.parents_i(lat.index(v)))


def children(lat: Lattice, v: str) -> tuple[str, ...]:
    """Upper covers of v (elements covering v)."""
    return tuple(lat.element(i) for i in lat.children_i(lat.index(v)))


def transport(f: PersistenceModule, u: str, v: str) -> Matrix:
    return f.transport_i(f.lattice.index(u), f.lattice.index(v))


def join(lat: Lattice, u: str, v: str) -> str:
    return lat.element(lat.join_i(lat.index(u), lat.index(v)))


def jdim(lat: Lattice, v: str) -> int:
    """Join-dimension: the number of lower covers of v."""
    return len(lat.parents_i(lat.index(v)))


def bottom(lat: Lattice) -> str:
    return lat.element(lat.topo_order()[0])


def top(lat: Lattice) -> str:
    return lat.element(lat.topo_order()[-1])


def covers(lat: Lattice) -> tuple[tuple[str, str], ...]:
    return tuple((lat.element(u), lat.element(v)) for u, v in lat.covers_i())


def dim(f: PersistenceModule, el: str) -> int:
    return f.dim_i(f.lattice.index(el))


def component(nt: NatTrans, el: str) -> Matrix:
    return nt.component_i(nt.source.lattice.index(el))


def cover_cube(lat: Lattice, top: str, parts: tuple[str, ...]) -> tuple[int, ...]:
    """The cube of a pairwise cover: top at the full subset, meets of parts below."""
    return _meet_fill(lat, lat.index(top), [lat.index(x) for x in parts])


def top_cube(c: PersistenceModule) -> tuple[int, ...]:
    """The parent cube of a cube module's top: all of {0,1}^k, the cube
    ``koszul`` takes on it."""
    return parent_cube(c.lattice, c.lattice.n - 1)


def arity(cube: tuple[int, ...]) -> int:
    return len(cube).bit_length() - 1


def cube_value(lat: Lattice, cube: tuple[int, ...], mask: int) -> str:
    return lat.element(cube[mask])


def cube_top(lat: Lattice, cube: tuple[int, ...]) -> str:
    return lat.element(cube[-1])


def cube_parts(lat: Lattice, cube: tuple[int, ...]) -> tuple[str, ...]:
    """Part i of the cube's pairwise cover sits at the subset missing i."""
    full = len(cube) - 1
    return tuple(lat.element(cube[full & ~(1 << i)]) for i in range(arity(cube)))
