"""Persistence modules on a lattice, natural transformations, and the
constructors every suite needs: direct sums, random cokernels, and free,
interval and H0 modules, all free on blocks of points (``_free_on_blocks``).

A module stores one matrix per Hasse cover whose two sides are nonzero;
a cover with a zero side has the zero map, which is made only when asked
for.  Every map of f is read through ``transport_i``: a stored cover map
is returned as it is, and any other u <= v is composed along the
first-parent chain on each call, so the calculus reads covers and cubes,
parent cubes included, through transports.
Every module is checked on construction: ``validate`` requires every
cover diamond to commute, which on a distributive lattice (and every
``Lattice`` is one) is the whole functor axiom, since any two maximal
chains of an interval differ by diamond flips.  A cokernel picks its
bases through the echelon convention of :mod:`pmodcalc.linalg`, so it is
deterministic; its cover maps are read off the echelon form that chose
those bases and checked by their defining products (NoFactorization
names a failing cover).  No module is built on a cube: every question
about one (Koszul homology, total (co)fibers, the Betti numbers of f
restricted along it) is read on f along the cube's vertex tuple.

Module data is keyed by element index (the position in
``lattice.elements``): one dim and one natural-map component per index,
one cover map per index pair with both sides nonzero, and every query
takes and returns indices.  Names are resolved only where text comes in
(the PMOD reader, ``interval_module``, ``free_module``) and written only
where it goes out (``dims_by_element``, error messages).
"""

from __future__ import annotations

import operator
import random
import weakref
from functools import reduce
from itertools import compress
from typing import Iterable, Mapping, Sequence

from .lattice import Lattice, _bits, _memo
from .linalg import FieldSpec, Matrix, NoFactorization, cokernel_projection, rank
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
    checked and dropped, and ``transport_i`` makes its zero on demand.
    """

    __slots__ = ("lattice", "field", "_dims", "_maps", "calc_cache", "__weakref__")

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
        self.calc_cache: dict = {}
        self.validate()

    # -- access -----------------------------------------------------------

    def dim_i(self, i: int) -> int:
        return self._dims[i]

    def dims_by_element(self) -> dict[str, int]:
        return {self.lattice.element(i): d for i, d in enumerate(self._dims)}

    def total_dim(self) -> int:
        return sum(self._dims)

    def is_zero(self) -> bool:
        return all(d == 0 for d in self._dims)

    def transport_i(self, u: int, v: int) -> Matrix:
        """The composite map F(u <= v): the stored matrix for a cover, looked
        up before anything else, a new zero where a side is zero, otherwise
        composed down the first-parent chain, in a loop, per call.
        IndexError for an index outside 0..n-1, NotComparable unless u <= v."""
        if (m := self._maps.get((u, v))) is not None:
            return m
        lat = self.lattice
        if not (0 <= u < lat.n and 0 <= v < lat.n):
            raise IndexError(f"element indices ({u}, {v}) outside 0..{lat.n - 1}")
        if u == v:
            return Matrix.identity(self.field, self._dims[u])
        if not lat.leq_i(u, v):
            raise NotComparable(
                f"{lat.element(u)} is not below {lat.element(v)}")
        du, dv = self._dims[u], self._dims[v]
        if not (du and dv):
            return Matrix.zeros(self.field, dv, du)
        chain = []  # the cover maps from v down, then the stored map ending at u
        while u != v and (m := self._maps.get((u, v))) is None:
            w = next(w for w in lat.parents_i(v) if lat.leq_i(u, w))
            chain.append(self.transport_i(w, v))
            v = w
        return reduce(operator.matmul, chain if u == v else chain + [m])

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

    @classmethod
    def _of(cls, source: PersistenceModule, target: PersistenceModule,
            components: tuple[Matrix, ...]) -> "NatTrans":
        """Trusted construction: ``components`` must be a tuple that a
        checked NatTrans from source to target once held.  Nothing is
        checked."""
        nt = object.__new__(cls)
        nt.source, nt.target, nt._components = source, target, components
        return nt

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
    return _free_on_blocks(lattice, field, [[[0]] if i in sup else []
                                            for i in range(lattice.n)])


def free_module(lattice: Lattice, field: FieldSpec,
                gens: Mapping[str, int]) -> PersistenceModule:
    """The free module on the generators {element name: multiplicity}:
    dimension at x counts the generators born at or below x; cover maps
    are coordinate inclusions."""
    mult = {el: operator.index(k) for el, k in gens.items()}
    if any(k < 0 for k in mult.values()):
        raise ValueError("negative multiplicity")
    return _free_on(lattice, field, sorted(
        i for el, k in mult.items() if k for i in [lattice.index(el)] * k))


def _free_on(lattice: Lattice, field: FieldSpec, gens: list[int]) -> PersistenceModule:
    """The free module with one generator born at each index in the sorted gens."""
    return _free_on_blocks(lattice, field, [
        [[g] for g, b in enumerate(gens) if lattice.leq_i(b, x)] for x in range(lattice.n)])


def _free_on_blocks(lattice: Lattice, field: FieldSpec,
                    blocks: Sequence[list[list[int]]]) -> PersistenceModule:
    """The module free on ``blocks[i]`` at element i, blocks of points each
    led by its least point (free: one generator each; interval: one point;
    H0: components).  The cover u < v sends each block to the block at v
    holding its first point: the shared identity, or its columns so picked."""
    dims = [len(b) for b in blocks]
    maps = {}
    for (u, v) in _covers_between(lattice, dims, dims):
        m = Matrix.identity(field, dims[v])
        if blocks[u] != blocks[v]:
            at = {pt: t for t, b in enumerate(blocks[v]) for pt in b}
            if (cols := [at[b[0]] for b in blocks[u]]) != list(range(dims[v])):
                m = m.take_cols(cols)
        maps[(u, v)] = m
    return PersistenceModule(lattice, field, dims, maps)


def direct_sum(f: PersistenceModule, g: PersistenceModule) -> PersistenceModule:
    """Pointwise direct sum: dimensions add, maps are block diagonal."""
    _check_compatible(f, g)
    dims = [a + b for a, b in zip(f._dims, g._dims)]
    return PersistenceModule(
        f.lattice, f.field, dims,
        {(u, v): linalg.direct_sum([f.transport_i(u, v), g.transport_i(u, v)])
         for (u, v) in _covers_between(f.lattice, dims, dims)})


def sum_inclusion(f: PersistenceModule, g: PersistenceModule, which: int,
                  total: PersistenceModule) -> NatTrans:
    """Canonical inclusion of the first (0) or second (1) summand into
    total, which is direct_sum(f, g)."""
    src = (f, g)[which]
    comps = []
    for i in range(f.lattice.n):
        off = f.dim_i(i) if which else 0
        comps.append(Matrix.identity(f.field, f.dim_i(i) + g.dim_i(i))
                     .take_cols(range(off, off + src.dim_i(i))))
    return NatTrans(src, total, comps)


def sum_projection(f: PersistenceModule, g: PersistenceModule, which: int,
                   total: PersistenceModule) -> NatTrans:
    """Canonical projection of total = direct_sum(f, g) onto a summand:
    the inclusion, transposed."""
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


# -- pointwise cokernel -----------------------------------------------------


def cokernel_of(nt: NatTrans) -> tuple[PersistenceModule, NatTrans]:
    """The pointwise cokernel, with its canonical epimorphism from the target.

    The cover map is the h with h q_u = q_v T(u->v), unique as q_u is
    surjective, and read off the columns on which q_u is the identity;
    NoFactorization names a cover where h q_u differs."""
    lat = nt.source.lattice
    projs = [cokernel_projection(nt.component_i(i)) for i in range(lat.n)]
    maps = {}
    for (u, v) in lat.covers_i():
        (qu, free), (qv, _) = projs[u], projs[v]
        rhs = qv @ nt.target.transport_i(u, v)
        h = maps[(u, v)] = rhs.take_cols(free)
        if h @ qu != rhs:
            raise NoFactorization(
                f"no induced map on cover {lat.element(u)} < {lat.element(v)}")
    module = PersistenceModule(lat, nt.source.field, [q.nrows for q, _ in projs], maps)
    return module, NatTrans(nt.target, module, [q for q, _ in projs])


def opposite_module(f: PersistenceModule) -> PersistenceModule:
    """The dual module on the opposite lattice: same dimensions, cover
    maps transposed.  Exchanges projective with injective behaviour.

    Memoised in ``calc_cache`` both ways: f holds it, and it points back
    weakly, so while f lives the opposite of the opposite is f itself.
    """
    def build():
        op = PersistenceModule(f.lattice.opposite(), f.field, f._dims,
                               {(v, u): m.transpose() for (u, v), m in f._maps.items()})
        op.calc_cache["opposite"] = weakref.ref(f)
        return op
    return _memo(f.calc_cache, "opposite", build)
