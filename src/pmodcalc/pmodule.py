"""Persistence modules on a lattice, natural transformations, and the
constructors every suite needs (intervals, free modules, direct sums,
random cokernels).

A module stores one matrix per Hasse cover whose two sides are nonzero;
a cover with a zero side has the zero map, which is made only when asked
for.  Transports along arbitrary u <= v are composed lazily along the
first-parent chain and cached.
Every module is checked on construction: ``validate`` requires every
cover diamond to commute, which on a distributive lattice (and every
``Lattice`` is one) is the whole functor axiom, since any two maximal
chains of an interval differ by diamond flips.  All derived modules
(images, kernels, cokernels) pick bases through the echelon convention
of :mod:`pmodcalc.linalg`, so they are deterministic; their cover maps
are read off the echelon form that chose those bases and checked by their
defining products (NoFactorization names a failing cover).  A cube of
vector spaces is a module too: restricting f along a lattice k-cube gives
a module on the Boolean lattice {0,1}^k.

Module data is keyed by element index (the position in
``lattice.elements``): one dim and one natural-map component per index,
one cover map per index pair with both sides nonzero.  Names are
resolved only where text comes in (the PMOD reader, ``interval_module``,
``free_module``).
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Mapping, Sequence

from .lattice import Lattice, LatticeCube, _bits, boolean_lattice
from .linalg import (FieldSpec, Matrix, NoFactorization, cokernel_projection,
                     free_columns, kernel_basis, rank, rref)
from . import linalg


class LatticeMismatch(Exception):
    """Two modules expected to share a lattice (and field) do not."""


class NotComparable(Exception):
    """transport_i(u, v) requested for incomparable u, v."""


class NonCommutingSquare(Exception):
    """Functoriality failure: two cover paths from u to v disagree."""

    def __init__(self, u: str, v: str, w1: str, w2: str):
        self.u, self.v, self.w1, self.w2 = u, v, w1, w2
        super().__init__(
            f"transports {u} -> {v} via {w1} and via {w2} disagree")


class NotNatural(Exception):
    """A claimed natural transformation has a non-commuting square."""


class NotConvex(Exception):
    """Interval support is not order-convex."""


class NotConnected(Exception):
    """Interval support is not connected."""


class PersistenceModule:
    """A functor from a finite distributive lattice to F_p vector spaces,
    checked on construction (raises NonCommutingSquare).

    ``dims[i]`` is the dimension at element index i; ``cover_maps[(u, v)]``
    is the dims[v] x dims[u] Matrix of the cover u < v, omissible when a
    side is zero.  Anything else raises TypeError or ValueError.  Only the
    maps with both sides nonzero are stored; a zero-sided one passed in is
    checked and dropped, and ``cover_matrix_i`` makes its zero on demand.
    """

    __slots__ = ("lattice", "field", "_dims", "_maps", "_transports",
                 "calc_cache")

    def __init__(self, lattice: Lattice, field: FieldSpec, dims: Sequence[int],
                 cover_maps: Mapping[tuple[int, int], Matrix] | None = None):
        self.lattice = lattice
        self.field = field
        name = lattice.element
        if isinstance(dims, Mapping):
            raise TypeError("dims must be a sequence indexed by element, "
                            "not a mapping")
        dvec = self._dims = tuple(map(operator.index, dims))
        if len(dvec) != lattice.n:
            raise ValueError(f"{len(dvec)} dims for {lattice.n} elements")
        for i, d in enumerate(dvec):
            if d < 0:
                raise ValueError(f"negative dimension at {name(i)}")
        cover_maps = dict(cover_maps or {})
        maps: dict[tuple[int, int], Matrix] = {}
        # The covers that need a map, and those given one, in covers_i order:
        # every other cover has a zero side and nothing to check.
        for (u, v) in sorted(set(_covers_between(lattice, dvec, dvec)).union(
                key for key in cover_maps if _is_cover(lattice, key))):
            du, dv = dvec[u], dvec[v]
            m = cover_maps.pop((u, v), None)
            if m is None:
                raise ValueError(f"missing cover map for {name(u)} < {name(v)}")
            if not isinstance(m, Matrix):
                raise TypeError(f"cover map for {name(u)} < {name(v)} is not a Matrix")
            if m.shape != (dv, du) or m.field != field:
                raise ValueError(
                    f"cover map for {name(u)} < {name(v)} has shape {m.shape}, "
                    f"expected {(dv, du)}")
            if du and dv:
                maps[(u, v)] = m
        if cover_maps:
            bad = next(iter(cover_maps))
            try:
                u, v = map(name, bad)
            except (TypeError, IndexError):
                raise TypeError(f"map key {bad!r} is not a pair of element "
                                "indices") from None
            raise ValueError(f"map key {u} < {v} is not a Hasse cover")
        self._maps = maps
        self._transports: dict[tuple[int, int], Matrix] = {}
        self.calc_cache: dict = {}
        self.validate()

    # -- access -----------------------------------------------------------

    def dim(self, el: str) -> int:
        return self._dims[self.lattice.index(el)]

    def dim_i(self, i: int) -> int:
        return self._dims[i]

    def dims_by_element(self) -> dict[str, int]:
        return {self.lattice.element(i): d for i, d in enumerate(self._dims)}

    def total_dim(self) -> int:
        return sum(self._dims)

    def is_zero(self) -> bool:
        return all(d == 0 for d in self._dims)

    def cover_matrix_i(self, u: int, v: int) -> Matrix:
        """The map of the cover u < v; a new zero where a side is zero."""
        m = self._maps.get((u, v))
        if m is not None:
            return m
        lat = self.lattice
        if not _is_cover(lat, (u, v)):
            raise KeyError(f"{lat.element(u)} < {lat.element(v)} is not a Hasse cover")
        return Matrix.zeros(self.field, self._dims[v], self._dims[u])

    def transport_i(self, u: int, v: int) -> Matrix:
        """The composite map F(u <= v): the stored matrix for a cover,
        otherwise composed along the first-parent chain and cached."""
        if u == v:
            return Matrix.identity(self.field, self._dims[u])
        lat = self.lattice
        if not lat.leq_i(u, v):
            raise NotComparable(
                f"{lat.element(u)} is not below {lat.element(v)}")
        du, dv = self._dims[u], self._dims[v]
        if not (du and dv):
            return Matrix.zeros(self.field, dv, du)
        cached = self._maps.get((u, v)) or self._transports.get((u, v))
        if cached is not None:
            return cached
        for w in lat.parents_i(v):
            if lat.leq_i(u, w):
                m = self.cover_matrix_i(w, v) @ self.transport_i(u, w)
                self._transports[(u, v)] = m
                return m
        raise AssertionError("cover chain search failed")  # unreachable

    # -- validation ---------------------------------------------------------

    def validate(self) -> "PersistenceModule":
        """Check the functor axiom on every cover diamond; run on construction.

        For each v and lower covers w, w' of v, with u = w ^ w', requires
        F(w -> v) F(u -> w) = F(w' -> v) F(u -> w').  The lattice is
        distributive, so u is covered by both w and w' and any two cover
        paths from a to b are linked by such diamond flips.  Reads only
        the stored cover maps: a path through a zero middle vertex is zero,
        so a diamond with u or v zero, or with both middles zero, holds.
        """
        lat, maps, dims = self.lattice, self._maps, self._dims
        for v in compress(range(lat.n), dims):
            ps = lat.parents_i(v)
            for a, w1 in enumerate(ps):
                for w2 in ps[a + 1:]:
                    if not (dims[w1] or dims[w2]):
                        continue
                    u = lat.meet_i(w1, w2)
                    if not dims[u]:
                        continue
                    # F(w -> v) F(u -> w), None for zero when F(w) = 0.
                    p1 = maps[(w1, v)] @ maps[(u, w1)] if dims[w1] else None
                    p2 = maps[(w2, v)] @ maps[(u, w2)] if dims[w2] else None
                    if not _agree(p1, p2):
                        raise NonCommutingSquare(
                            lat.element(u), lat.element(v),
                            lat.element(w1), lat.element(w2))
        return self

    # perfbench/tracing.py looks this name up in the class dict, so it stays.
    validate_diamonds = validate

    def __eq__(self, other) -> bool:
        return (isinstance(other, PersistenceModule)
                and self.lattice == other.lattice and self.field == other.field
                and self._dims == other._dims and self._maps == other._maps)

    def __hash__(self):
        raise TypeError("PersistenceModule is not hashable")

    def __repr__(self) -> str:
        return (f"PersistenceModule(p={self.field.p}, {self.lattice!r}, "
                f"total_dim={self.total_dim()})")


class NatTrans:
    """A natural transformation between modules on the same lattice:
    ``components[i]`` is its Matrix at element index i, one per element."""

    __slots__ = ("source", "target", "_components")

    def __init__(self, source: PersistenceModule, target: PersistenceModule,
                 components: Sequence[Matrix]):
        if source.lattice != target.lattice:
            raise LatticeMismatch("natural transformation across lattices")
        if source.field != target.field:
            raise LatticeMismatch("natural transformation across fields")
        self.source = source
        self.target = target
        lat = source.lattice
        comp = self._components = tuple(components)
        if len(comp) != lat.n:
            raise ValueError(f"{len(comp)} components for {lat.n} elements")
        for i, (m, rows, cols) in enumerate(zip(comp, target._dims, source._dims)):
            if not isinstance(m, Matrix):
                raise TypeError(f"component at {lat.element(i)} is not a Matrix")
            if m.nrows != rows or m.ncols != cols:
                raise ValueError(
                    f"component at {lat.element(i)} has shape {m.shape}, "
                    f"expected {(rows, cols)}")

    def component(self, el: str) -> Matrix:
        return self._components[self.source.lattice.index(el)]

    def component_i(self, i: int) -> Matrix:
        return self._components[i]

    def validate(self) -> "NatTrans":
        """Check every naturality square over a Hasse cover u < v:
        T(u -> v) a_u = a_v S(u -> v).  Both sides are empty where S(u) or
        T(v) is 0, and a side through T(u) = 0 or S(v) = 0 is zero."""
        src, tgt, comp = self.source, self.target, self._components
        lat = src.lattice
        for (u, v) in _covers_between(lat, src._dims, tgt._dims):
            lhs = tgt._maps[(u, v)] @ comp[u] if tgt._dims[u] else None
            rhs = comp[v] @ src._maps[(u, v)] if src._dims[v] else None
            if not _agree(lhs, rhs):
                raise NotNatural(
                    f"naturality fails on cover {lat.element(u)} < {lat.element(v)}")
        return self

    def is_natural(self) -> bool:
        try:
            self.validate()
            return True
        except NotNatural:
            return False

    def compose(self, other: "NatTrans") -> "NatTrans":
        """self after other (other: A -> B, self: B -> C)."""
        if other.target is not self.source and other.target != self.source:
            raise LatticeMismatch("composition endpoint mismatch")
        comps = [self._components[i] @ other._components[i]
                 for i in range(self.source.lattice.n)]
        return NatTrans(other.source, self.target, comps)

    def is_pointwise_mono(self) -> bool:
        return all(rank(m) == m.ncols for m in self._components)

    def is_pointwise_epi(self) -> bool:
        return all(rank(m) == m.nrows for m in self._components)

    def __repr__(self) -> str:
        return f"NatTrans({self.source!r} -> {self.target!r})"


def _agree(a: Matrix | None, b: Matrix | None) -> bool:
    """Whether two products of one shape are equal, None standing for zero."""
    if a is None:
        return b is None or b.is_zero()
    return a.is_zero() if b is None else a == b


def _is_cover(lattice: Lattice, key) -> bool:
    """Whether key is a pair (u, v) of element indices with u < v a cover."""
    try:
        u, v = key
        return 0 <= u < lattice.n and v in lattice.children_i(u)
    except (TypeError, ValueError):
        return False


def _covers_between(lattice: Lattice, below: Sequence[int],
                    above: Sequence[int]) -> list[tuple[int, int]]:
    """The covers u < v with below[u] and above[v] nonzero, in covers_i order."""
    return [(u, v) for u in compress(range(lattice.n), below)
            for v in lattice.children_i(u) if above[v]]


def is_iso(nt: NatTrans) -> bool:
    """True iff every component is square and invertible."""
    return all(m.nrows == m.ncols and rank(m) == m.nrows
               for m in nt._components)


def identity_nat(f: PersistenceModule) -> NatTrans:
    return NatTrans(f, f, [Matrix.identity(f.field, d) for d in f._dims])


def zero_nat(source: PersistenceModule, target: PersistenceModule) -> NatTrans:
    return NatTrans(source, target,
                    [Matrix.zeros(source.field, target.dim_i(i), source.dim_i(i))
                     for i in range(source.lattice.n)])


# -- constructors ----------------------------------------------------------


def interval_module(lattice: Lattice, field: FieldSpec,
                    support: Iterable[str]) -> PersistenceModule:
    """The indicator module of an order-convex, connected support set:
    dimension 1 on the support with identity cover maps inside it.

    Both checks are linear in the support.  It is convex exactly when it
    is the intersection of its up-closure and its down-closure; a convex
    set is connected by comparabilities exactly when it is connected by
    the covers inside it, since a maximal chain between two of its
    elements stays in it.
    """
    sup = {lattice.index(el) for el in support}
    if not sup:
        raise ValueError("interval support is empty")
    mask = up = down = 0
    for i in sup:
        mask |= 1 << i
        up |= lattice.upset_mask(i)
        down |= lattice.downset_mask(i)
    missing = up & down & ~mask
    if missing:
        gap = next(_bits(missing))
        u = min(i for i in sup if lattice.leq_i(i, gap))
        v = min(i for i in sup if lattice.leq_i(gap, i))
        raise NotConvex(
            f"support omits {lattice.element(gap)} between "
            f"{lattice.element(u)} and {lattice.element(v)}")
    start = min(sup)
    todo, stack = sup - {start}, [start]
    while stack:
        x = stack.pop()
        for y in lattice.parents_i(x) + lattice.children_i(x):
            if y in todo:
                todo.discard(y)
                stack.append(y)
    if todo:
        raise NotConnected(
            f"support splits into incomparable pieces "
            f"(e.g. {lattice.element(min(todo))})")
    one = Matrix.identity(field, 1)
    return PersistenceModule(
        lattice, field, [int(i in sup) for i in range(lattice.n)],
        {(u, v): one for (u, v) in lattice.covers_i() if u in sup and v in sup})


@dataclass(frozen=True)
class FreeModuleSpec:
    """A multiset of free generators: (element, multiplicity) pairs."""

    generators: tuple[tuple[str, int], ...]

    @classmethod
    def from_mapping(cls, mult: Mapping[str, int]) -> "FreeModuleSpec":
        gens = tuple(sorted((el, int(k)) for el, k in mult.items() if k))
        if any(k < 0 for _, k in gens):
            raise ValueError("negative multiplicity")
        return cls(gens)


def free_module(lattice: Lattice, field: FieldSpec,
                spec: FreeModuleSpec | Mapping[str, int]) -> PersistenceModule:
    """The free module on the given generators: dimension at x counts the
    generators born at or below x; cover maps are coordinate inclusions."""
    if not isinstance(spec, FreeModuleSpec):
        spec = FreeModuleSpec.from_mapping(spec)
    return _free_on(lattice, field, sorted(
        i for el, k in spec.generators for i in [lattice.index(el)] * k))


def _free_on(lattice: Lattice, field: FieldSpec, gens: list[int]) -> PersistenceModule:
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


def direct_sum(f: PersistenceModule, g: PersistenceModule) -> PersistenceModule:
    """Pointwise direct sum: dimensions add, maps are block diagonal."""
    _check_compatible(f, g)
    dims = [a + b for a, b in zip(f._dims, g._dims)]
    return PersistenceModule(
        f.lattice, f.field, dims,
        {(u, v): linalg.direct_sum([f.cover_matrix_i(u, v), g.cover_matrix_i(u, v)])
         for (u, v) in _covers_between(f.lattice, dims, dims)})


def sum_inclusion(f: PersistenceModule, g: PersistenceModule, which: int,
                  total: PersistenceModule | None = None) -> NatTrans:
    """Canonical inclusion of the first (0) or second (1) summand into f + g."""
    s = direct_sum(f, g) if total is None else total
    src = (f, g)[which]
    comps = []
    for i in range(f.lattice.n):
        off = f.dim_i(i) if which else 0
        comps.append(Matrix.identity(f.field, f.dim_i(i) + g.dim_i(i))
                     .take_cols(range(off, off + src.dim_i(i))))
    return NatTrans(src, s, comps)


def sum_projection(f: PersistenceModule, g: PersistenceModule, which: int,
                   total: PersistenceModule | None = None) -> NatTrans:
    """Canonical projection of f + g onto a summand: the inclusion, transposed."""
    incl = sum_inclusion(f, g, which, total)
    return NatTrans(incl.target, incl.source,
                    [incl.component_i(i).transpose() for i in range(f.lattice.n)])


def _check_compatible(f: PersistenceModule, g: PersistenceModule) -> None:
    if f.lattice != g.lattice:
        raise LatticeMismatch("modules live on different lattices")
    if f.field != g.field:
        raise LatticeMismatch("modules live over different fields")


def random_free_map(lattice: Lattice, field: FieldSpec, rng: random.Random,
                    gens0: Sequence[int], gens1: Sequence[int]) -> NatTrans:
    """A random natural map between free modules on the given generators
    (birth element indices).

    Hom([b,-), [a,-)) is one-dimensional when a <= b and zero otherwise,
    so a natural map is exactly a coefficient for every such pair;
    naturality is automatic.
    """
    g0, g1 = sorted(gens0), sorted(gens1)
    q0, q1 = _free_on(lattice, field, g0), _free_on(lattice, field, g1)
    coeff = [[rng.randrange(field.p) if lattice.leq_i(a, b) else 0
              for b in g1] for a in g0]
    comps = []
    for x in range(lattice.n):
        rows = [gi for gi, a in enumerate(g0) if lattice.leq_i(a, x)]
        cols = [gi for gi, b in enumerate(g1) if lattice.leq_i(b, x)]
        m = [[coeff[r][c] for c in cols] for r in rows]
        comps.append(Matrix(field, len(rows), len(cols), m))
    return NatTrans(q1, q0, comps)


def random_module(lattice: Lattice, field: FieldSpec, seed,
                  max_gens: int = 3, max_rels: int = 2) -> PersistenceModule:
    """A random module, built as the cokernel of a random map between
    random free modules so that functoriality holds by construction."""
    rng = random.Random(f"pmodcalc:{seed}")
    n0 = rng.randint(0, max_gens)
    n1 = rng.randint(0, max_rels)
    gens0 = [rng.randrange(lattice.n) for _ in range(n0)]
    gens1 = [rng.randrange(lattice.n) for _ in range(n1)]
    alpha = random_free_map(lattice, field, rng, gens0, gens1)
    module, _ = cokernel_of(alpha)
    return module


# -- pointwise image / kernel / cokernel ------------------------------------


def _induced(nt: NatTrans, dims: Sequence[int], induce) -> PersistenceModule:
    """The module with the given dims and, on each cover u < v, the map h
    of ``h, product, want = induce(u, v)``, once product == want."""
    lat = nt.source.lattice
    maps = {}
    for (u, v) in lat.covers_i():
        h, product, want = induce(u, v)
        if product != want:
            raise NoFactorization(
                f"no induced map on cover {lat.element(u)} < {lat.element(v)}")
        maps[(u, v)] = h
    return PersistenceModule(lat, nt.source.field, dims, maps)


def image_of(nt: NatTrans) -> tuple[PersistenceModule, NatTrans]:
    """The pointwise image of a natural nt: S -> T, with its canonical
    monomorphism into T.  With pivot columns C_u = nt_u.take_cols(P_u) as
    basis, nt_u = C_u R_u (R_u: the nonzero rows of rref(nt_u)), so the
    cover map is R_v S(u->v).take_cols(P_u), checked against T(u->v) C_u.
    """
    lat = nt.source.lattice
    echelon = [rref(nt.component_i(i)) for i in range(lat.n)]
    bases = [nt.component_i(i).take_cols(piv) for i, (_, piv) in enumerate(echelon)]

    def induce(u, v):
        red, pivots = echelon[v]
        h = (red.take_rows(range(len(pivots)))
             @ nt.source.cover_matrix_i(u, v).take_cols(echelon[u][1]))
        return h, bases[v] @ h, nt.target.cover_matrix_i(u, v) @ bases[u]

    module = _induced(nt, [b.ncols for b in bases], induce)
    return module, NatTrans(module, nt.target, bases)


def kernel_of(nt: NatTrans) -> tuple[PersistenceModule, NatTrans]:
    """The pointwise kernel, with its canonical monomorphism into the source.

    The basis K_v is the identity on the rows free_columns(nt_v), so the
    cover map, the h with K_v h = S(u->v) K_u, is read off those rows."""
    lat = nt.source.lattice
    bases = [kernel_basis(nt.component_i(i)) for i in range(lat.n)]
    free = [free_columns(nt.component_i(i)) for i in range(lat.n)]

    def induce(u, v):
        pushed = nt.source.cover_matrix_i(u, v) @ bases[u]
        h = pushed.take_rows(free[v])
        return h, bases[v] @ h, pushed

    module = _induced(nt, [b.ncols for b in bases], induce)
    return module, NatTrans(module, nt.source, bases)


def cokernel_of(nt: NatTrans) -> tuple[PersistenceModule, NatTrans]:
    """The pointwise cokernel, with its canonical epimorphism from the target.

    The cover map is the h with h q_u = q_v T(u->v), unique as q_u is
    surjective, and read off the columns on which q_u is the identity."""
    lat = nt.source.lattice
    projs = [cokernel_projection(nt.component_i(i)) for i in range(lat.n)]

    def induce(u, v):
        (qu, free), (qv, _) = projs[u], projs[v]
        rhs = qv @ nt.target.cover_matrix_i(u, v)
        h = rhs.take_cols(free)
        return h, h @ qu, rhs

    module = _induced(nt, [q.nrows for q, _ in projs], induce)
    return module, NatTrans(nt.target, module, [q for q, _ in projs])


# -- restriction along cubes -------------------------------------------------


def restrict_along_cube(f: PersistenceModule, cube: LatticeCube) -> PersistenceModule:
    """f restricted along a lattice cube: the module on boolean_lattice(k)
    whose value at subset mask m is f at cube vertex m, with the transports
    of f between vertices as cover maps (checked like every module)."""
    lat, v = boolean_lattice(cube.arity), cube.assign
    return PersistenceModule(
        lat, f.field, [f.dim_i(x) for x in v],
        {(s, t): f.transport_i(v[s], v[t]) for s, t in lat.covers_i()})


def opposite_module(f: PersistenceModule) -> PersistenceModule:
    """The dual module on the opposite lattice: same dimensions, cover
    maps transposed.  Exchanges projective with injective behaviour.

    Memoised in ``calc_cache`` both ways, so the opposite of the opposite
    is f itself and keeps its cached approximations.
    """
    op = f.calc_cache.get("opposite")
    if op is None:
        op = PersistenceModule(f.lattice.opposite(), f.field, f._dims,
                               {(v, u): m.transpose() for (u, v), m in f._maps.items()})
        op.calc_cache["opposite"] = f
        f.calc_cache["opposite"] = op
    return op


# -- hom spaces ---------------------------------------------------------------


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
        tm = target.cover_matrix_i(u, v)
        sm = source.cover_matrix_i(u, v)
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
    if not basis:
        return zero_nat(source, target)
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
