"""Persistence modules on a lattice, natural transformations, and the
constructors every suite needs (intervals, free modules, direct sums,
random cokernels).

A module stores one matrix per Hasse cover; transports along arbitrary
u <= v are composed lazily along the first-parent chain and cached.
Every module is checked on construction: ``validate`` requires every
cover diamond to commute, which on a distributive lattice (and every
``Lattice`` is one) is the whole functor axiom, since any two maximal
chains of an interval differ by diamond flips.  All derived modules
(images, kernels, cokernels) pick bases through the echelon convention
of :mod:`pmodcalc.linalg`, so they are deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .lattice import Lattice, LatticeCube, _bits
from .linalg import (FieldSpec, Matrix, factor_through, image_basis,
                     kernel_basis, cokernel_projection, rank, solve_left)
from . import linalg


class LatticeMismatch(Exception):
    """Two modules expected to share a lattice (and field) do not."""


class NotComparable(Exception):
    """transport(u, v) requested for incomparable u, v."""


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
    checked on construction (raises NonCommutingSquare)."""

    __slots__ = ("lattice", "field", "_dims", "_maps", "_transports",
                 "calc_cache")

    def __init__(self, lattice: Lattice, field: FieldSpec,
                 dims: Mapping[str, int],
                 cover_maps: Mapping[tuple[str, str], Matrix | Sequence[Sequence[int]]] | None = None):
        self.lattice = lattice
        self.field = field
        dvec = [0] * lattice.n
        for el, d in dims.items():
            if d < 0:
                raise ValueError(f"negative dimension at {el}")
            dvec[lattice.index(el)] = int(d)
        self._dims = tuple(dvec)
        cover_maps = dict(cover_maps or {})
        maps: dict[tuple[int, int], Matrix] = {}
        for (u, v) in lattice.covers_i():
            du, dv = dvec[u], dvec[v]
            key = (lattice.element(u), lattice.element(v))
            m = cover_maps.pop(key, None)
            if m is None:
                if du > 0 and dv > 0:
                    raise ValueError(f"missing cover map for {key[0]} < {key[1]}")
                m = Matrix.zeros(field, dv, du)
            elif not isinstance(m, Matrix):
                m = Matrix(field, dv, du, m)
            if m.shape != (dv, du) or m.field != field:
                raise ValueError(
                    f"cover map for {key[0]} < {key[1]} has shape {m.shape}, "
                    f"expected {(dv, du)}")
            maps[(u, v)] = m
        if cover_maps:
            bad = next(iter(cover_maps))
            raise ValueError(f"map key {bad[0]} < {bad[1]} is not a Hasse cover")
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

    def cover_matrix(self, u: str, v: str) -> Matrix:
        return self.cover_matrix_i(self.lattice.index(u), self.lattice.index(v))

    def cover_matrix_i(self, u: int, v: int) -> Matrix:
        try:
            return self._maps[(u, v)]
        except KeyError:
            raise KeyError(
                f"{self.lattice.element(u)} < {self.lattice.element(v)} "
                "is not a Hasse cover") from None

    def transport(self, u: str, v: str) -> Matrix:
        """The composite map F(u <= v): the stored matrix for a cover,
        otherwise composed along the first-parent chain and cached."""
        return self.transport_i(self.lattice.index(u), self.lattice.index(v))

    def transport_i(self, u: int, v: int) -> Matrix:
        if u == v:
            return Matrix.identity(self.field, self._dims[u])
        lat = self.lattice
        if not lat.leq_i(u, v):
            raise NotComparable(
                f"{lat.element(u)} is not below {lat.element(v)}")
        cached = self._maps.get((u, v)) or self._transports.get((u, v))
        if cached is not None:
            return cached
        for w in lat.parents_i(v):
            if lat.leq_i(u, w):
                m = self._maps[(w, v)] @ self.transport_i(u, w)
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
        the stored cover maps.
        """
        lat, maps, dims = self.lattice, self._maps, self._dims
        for v in range(lat.n):
            if not dims[v]:
                continue
            ps = lat.parents_i(v)
            for a, w1 in enumerate(ps):
                for w2 in ps[a + 1:]:
                    u = lat.meet_i(w1, w2)
                    if dims[u] and (maps[(w1, v)] @ maps[(u, w1)]
                                    != maps[(w2, v)] @ maps[(u, w2)]):
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
    """A natural transformation between modules on the same lattice."""

    __slots__ = ("source", "target", "_components")

    def __init__(self, source: PersistenceModule, target: PersistenceModule,
                 components: Mapping[str, Matrix] | Sequence[Matrix]):
        if source.lattice != target.lattice:
            raise LatticeMismatch("natural transformation across lattices")
        if source.field != target.field:
            raise LatticeMismatch("natural transformation across fields")
        self.source = source
        self.target = target
        lat = source.lattice
        if isinstance(components, Mapping):
            comp = [None] * lat.n
            for el, m in components.items():
                comp[lat.index(el)] = m
        else:
            comp = list(components)
        for i in range(lat.n):
            m = comp[i]
            want = (target.dim_i(i), source.dim_i(i))
            if m is None:
                comp[i] = m = Matrix.zeros(source.field, *want)
            if m.shape != want:
                raise ValueError(
                    f"component at {lat.element(i)} has shape {m.shape}, "
                    f"expected {want}")
        self._components = tuple(comp)

    def component(self, el: str) -> Matrix:
        return self._components[self.source.lattice.index(el)]

    def component_i(self, i: int) -> Matrix:
        return self._components[i]

    def validate(self) -> "NatTrans":
        """Check every naturality square over a Hasse cover."""
        lat = self.source.lattice
        for (u, v) in lat.covers_i():
            lhs = self.target.cover_matrix_i(u, v) @ self._components[u]
            rhs = self._components[v] @ self.source.cover_matrix_i(u, v)
            if lhs != rhs:
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

    def is_pointwise_iso(self) -> bool:
        return all(m.nrows == m.ncols and rank(m) == m.nrows
                   for m in self._components)

    def __repr__(self) -> str:
        return f"NatTrans({self.source!r} -> {self.target!r})"


def is_iso(nt: NatTrans) -> bool:
    """True iff every component is square and invertible."""
    return nt.is_pointwise_iso()


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
    dimension 1 on the support with identity cover maps inside it."""
    sup = {lattice.index(el) for el in support}
    if not sup:
        raise ValueError("interval support is empty")
    for u in sorted(sup):
        for v in sorted(sup):
            if lattice.leq_i(u, v):
                between = lattice.upset_mask(u) & lattice.downset_mask(v)
                missing = between & ~_mask_of(sup)
                if missing:
                    gap = next(_bits(missing))
                    raise NotConvex(
                        f"support omits {lattice.element(gap)} between "
                        f"{lattice.element(u)} and {lattice.element(v)}")
    # Connectivity of the comparability graph within the support.
    todo = set(sup)
    stack = [next(iter(sorted(sup)))]
    todo.discard(stack[0])
    while stack:
        x = stack.pop()
        for y in list(todo):
            if lattice.leq_i(x, y) or lattice.leq_i(y, x):
                todo.discard(y)
                stack.append(y)
    if todo:
        raise NotConnected(
            f"support splits into incomparable pieces "
            f"(e.g. {lattice.element(sorted(todo)[0])})")
    dims = {lattice.element(i): 1 for i in sup}
    maps = {}
    for (u, v) in lattice.covers_i():
        if u in sup and v in sup:
            maps[(lattice.element(u), lattice.element(v))] = Matrix.identity(field, 1)
    return PersistenceModule(lattice, field, dims, maps)


def _mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


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

    def multiplicity(self, el: str) -> int:
        return sum(k for e, k in self.generators if e == el)


def _generator_list(lattice: Lattice, spec: FreeModuleSpec) -> list[int]:
    """Generator birth elements (as indices), in global coordinate order."""
    gens: list[int] = []
    by_idx = sorted((lattice.index(el), k) for el, k in spec.generators)
    for i, k in by_idx:
        gens.extend([i] * k)
    return gens


def free_module(lattice: Lattice, field: FieldSpec,
                spec: FreeModuleSpec | Mapping[str, int]) -> PersistenceModule:
    """The free module on the given generators: dimension at x counts the
    generators born at or below x; cover maps are coordinate inclusions."""
    if not isinstance(spec, FreeModuleSpec):
        spec = FreeModuleSpec.from_mapping(spec)
    gens = _generator_list(lattice, spec)
    # Coordinates at x: positions of generators whose birth element is <= x.
    coords = {x: [gi for gi, b in enumerate(gens) if lattice.leq_i(b, x)]
              for x in range(lattice.n)}
    dims = {lattice.element(x): len(coords[x]) for x in range(lattice.n)}
    maps = {}
    for (u, v) in lattice.covers_i():
        cu, cv = coords[u], coords[v]
        if not cu or not cv:
            continue
        posv = {g: r for r, g in enumerate(cv)}
        m = [[0] * len(cu) for _ in range(len(cv))]
        for c, g in enumerate(cu):
            m[posv[g]][c] = 1
        maps[(lattice.element(u), lattice.element(v))] = Matrix(
            field, len(cv), len(cu), m)
    return PersistenceModule(lattice, field, dims, maps)


def direct_sum(f: PersistenceModule, g: PersistenceModule) -> PersistenceModule:
    """Pointwise direct sum: dimensions add, maps are block diagonal."""
    _check_compatible(f, g)
    lat = f.lattice
    dims = {lat.element(i): f.dim_i(i) + g.dim_i(i) for i in range(lat.n)}
    maps = {}
    for (u, v) in lat.covers_i():
        maps[(lat.element(u), lat.element(v))] = linalg.direct_sum(
            [f.cover_matrix_i(u, v), g.cover_matrix_i(u, v)])
    return PersistenceModule(lat, f.field, dims, maps)


def sum_inclusion(f: PersistenceModule, g: PersistenceModule, which: int,
                  total: PersistenceModule | None = None) -> NatTrans:
    """Canonical inclusion of the first (0) or second (1) summand into f + g."""
    s = direct_sum(f, g) if total is None else total
    lat = f.lattice
    comps = []
    for i in range(lat.n):
        df, dg = f.dim_i(i), g.dim_i(i)
        rows = df + dg
        src = f if which == 0 else g
        m = [[0] * src.dim_i(i) for _ in range(rows)]
        off = 0 if which == 0 else df
        for c in range(src.dim_i(i)):
            m[off + c][c] = 1
        comps.append(Matrix(f.field, rows, src.dim_i(i), m))
    return NatTrans(f if which == 0 else g, s, comps)


def sum_projection(f: PersistenceModule, g: PersistenceModule, which: int,
                   total: PersistenceModule | None = None) -> NatTrans:
    """Canonical projection of f + g onto a summand."""
    s = direct_sum(f, g) if total is None else total
    lat = f.lattice
    comps = []
    for i in range(lat.n):
        df, dg = f.dim_i(i), g.dim_i(i)
        tgt = f if which == 0 else g
        m = [[0] * (df + dg) for _ in range(tgt.dim_i(i))]
        off = 0 if which == 0 else df
        for r in range(tgt.dim_i(i)):
            m[r][off + r] = 1
        comps.append(Matrix(f.field, tgt.dim_i(i), df + dg, m))
    return NatTrans(s, f if which == 0 else g, comps)


def _check_compatible(f: PersistenceModule, g: PersistenceModule) -> None:
    if f.lattice != g.lattice:
        raise LatticeMismatch("modules live on different lattices")
    if f.field != g.field:
        raise LatticeMismatch("modules live over different fields")


def random_free_map(lattice: Lattice, field: FieldSpec, rng: random.Random,
                    gens0: Sequence[str], gens1: Sequence[str]) -> NatTrans:
    """A random natural map between free modules on the given generators.

    Hom([b,-), [a,-)) is one-dimensional when a <= b and zero otherwise,
    so a natural map is exactly a coefficient for every such pair;
    naturality is automatic.
    """
    q0 = free_module(lattice, field, _count(gens0))
    q1 = free_module(lattice, field, _count(gens1))
    g0 = _generator_list(lattice, FreeModuleSpec.from_mapping(_count(gens0)))
    g1 = _generator_list(lattice, FreeModuleSpec.from_mapping(_count(gens1)))
    coeff = [[rng.randrange(field.p) if lattice.leq_i(a, b) else 0
              for b in g1] for a in g0]
    comps = []
    for x in range(lattice.n):
        rows = [gi for gi, a in enumerate(g0) if lattice.leq_i(a, x)]
        cols = [gi for gi, b in enumerate(g1) if lattice.leq_i(b, x)]
        m = [[coeff[r][c] for c in cols] for r in rows]
        comps.append(Matrix(field, len(rows), len(cols), m))
    return NatTrans(q1, q0, comps)


def _count(items: Sequence[str]) -> dict[str, int]:
    out: dict[str, int] = {}
    for x in items:
        out[x] = out.get(x, 0) + 1
    return out


def random_module(lattice: Lattice, field: FieldSpec, seed,
                  max_gens: int = 3, max_rels: int = 2) -> PersistenceModule:
    """A random module, built as the cokernel of a random map between
    random free modules so that functoriality holds by construction."""
    rng = random.Random(f"pmodcalc:{seed}")
    n0 = rng.randint(0, max_gens)
    n1 = rng.randint(0, max_rels)
    gens0 = [lattice.elements[rng.randrange(lattice.n)] for _ in range(n0)]
    gens1 = [lattice.elements[rng.randrange(lattice.n)] for _ in range(n1)]
    alpha = random_free_map(lattice, field, rng, gens0, gens1)
    module, _ = cokernel_of(alpha)
    return module


# -- pointwise image / kernel / cokernel ------------------------------------


def image_of(nt: NatTrans) -> tuple[PersistenceModule, NatTrans]:
    """The pointwise image of a natural transformation, with its canonical
    monomorphism into the target.

    Cover maps are induced by factoring the target's maps through the
    echelon image bases, so the result is deterministic and natural.
    """
    lat = nt.source.lattice
    field = nt.source.field
    bases = [image_basis(nt.component_i(i)) for i in range(lat.n)]
    dims = {lat.element(i): bases[i].ncols for i in range(lat.n)}
    maps = {}
    for (u, v) in lat.covers_i():
        pushed = nt.target.cover_matrix_i(u, v) @ bases[u]
        maps[(lat.element(u), lat.element(v))] = factor_through(pushed, bases[v])
    module = PersistenceModule(lat, field, dims, maps)
    mono = NatTrans(module, nt.target, bases)
    return module, mono


def kernel_of(nt: NatTrans) -> tuple[PersistenceModule, NatTrans]:
    """The pointwise kernel, with its canonical monomorphism into the source."""
    lat = nt.source.lattice
    field = nt.source.field
    bases = [kernel_basis(nt.component_i(i)) for i in range(lat.n)]
    dims = {lat.element(i): bases[i].ncols for i in range(lat.n)}
    maps = {}
    for (u, v) in lat.covers_i():
        pushed = nt.source.cover_matrix_i(u, v) @ bases[u]
        maps[(lat.element(u), lat.element(v))] = factor_through(pushed, bases[v])
    module = PersistenceModule(lat, field, dims, maps)
    mono = NatTrans(module, nt.source, bases)
    return module, mono


def cokernel_of(nt: NatTrans) -> tuple[PersistenceModule, NatTrans]:
    """The pointwise cokernel, with its canonical epimorphism from the target.

    The induced cover maps are the unique solutions of
    new_map * q_u = q_v * target_map (q_u is surjective).
    """
    lat = nt.source.lattice
    field = nt.source.field
    projs = [cokernel_projection(nt.component_i(i)) for i in range(lat.n)]
    dims = {lat.element(i): projs[i].nrows for i in range(lat.n)}
    maps = {}
    for (u, v) in lat.covers_i():
        rhs = projs[v] @ nt.target.cover_matrix_i(u, v)
        maps[(lat.element(u), lat.element(v))] = solve_left(projs[u], rhs)
    module = PersistenceModule(lat, field, dims, maps)
    epi = NatTrans(nt.target, module, projs)
    return module, epi


# -- restriction along cubes -------------------------------------------------


class VecCube:
    """A cube of vector spaces: dimensions per subset (bitmask-indexed)
    plus one matrix per single-bit edge; larger inclusions compose."""

    __slots__ = ("field", "arity", "dims", "_edges")

    def __init__(self, field: FieldSpec, arity: int, dims: Sequence[int],
                 edges: Mapping[tuple[int, int], Matrix]):
        if len(dims) != 1 << arity:
            raise ValueError("cube dims length mismatch")
        self.field = field
        self.arity = arity
        self.dims = tuple(dims)
        self._edges = {}
        for mask in range(1 << arity):
            for b in range(arity):
                if not (mask >> b) & 1:
                    tgt = mask | (1 << b)
                    m = edges.get((mask, tgt))
                    if m is None:
                        if self.dims[mask] and self.dims[tgt]:
                            raise ValueError(f"missing cube edge {mask}->{tgt}")
                        m = Matrix.zeros(field, self.dims[tgt], self.dims[mask])
                    if m.shape != (self.dims[tgt], self.dims[mask]):
                        raise ValueError(f"cube edge {mask}->{tgt} has wrong shape")
                    self._edges[(mask, tgt)] = m

    @property
    def full_mask(self) -> int:
        return (1 << self.arity) - 1

    def edge(self, mask: int, bit: int) -> Matrix:
        return self._edges[(mask, mask | (1 << bit))]

    def map(self, src: int, dst: int) -> Matrix:
        """The inclusion-induced map src -> dst, composing bit by bit."""
        if src & ~dst:
            raise ValueError("not an inclusion of subsets")
        m = Matrix.identity(self.field, self.dims[src])
        cur = src
        for b in range(self.arity):
            if (dst >> b) & 1 and not (cur >> b) & 1:
                m = self.edge(cur, b) @ m
                cur |= 1 << b
        return m

    def validate(self) -> "VecCube":
        """Functoriality: all 2-face squares commute."""
        for mask in range(1 << self.arity):
            free = [b for b in range(self.arity) if not (mask >> b) & 1]
            for x in range(len(free)):
                for y in range(x + 1, len(free)):
                    i, j = free[x], free[y]
                    a = self.edge(mask | (1 << i), j) @ self.edge(mask, i)
                    b = self.edge(mask | (1 << j), i) @ self.edge(mask, j)
                    if a != b:
                        raise NotNatural(f"cube square at mask={mask}, bits={i},{j}")
        return self

    @classmethod
    def constant(cls, field: FieldSpec, arity: int, dim: int) -> "VecCube":
        eye = Matrix.identity(field, dim)
        edges = {}
        for mask in range(1 << arity):
            for b in range(arity):
                if not (mask >> b) & 1:
                    edges[(mask, mask | (1 << b))] = eye
        return cls(field, arity, [dim] * (1 << arity), edges)


def restrict_along_cube(f: PersistenceModule, cube: LatticeCube) -> VecCube:
    """The composite functor: cube vertices evaluated through the module,
    with transports as edge maps."""
    dims = [f.dim_i(cube.value_i(mask)) for mask in range(1 << cube.arity)]
    edges = {}
    for mask in range(1 << cube.arity):
        for b in range(cube.arity):
            if not (mask >> b) & 1:
                tgt = mask | (1 << b)
                edges[(mask, tgt)] = f.transport_i(cube.value_i(mask),
                                                   cube.value_i(tgt))
    return VecCube(f.field, cube.arity, dims, edges)


def cube_as_module(cube: VecCube) -> PersistenceModule:
    """Reinterpret a vector-space cube as a module over the boolean lattice
    {0,1}^arity (bit d of the subset becomes coordinate d)."""
    if cube.arity == 0:
        lat = Lattice.from_covers(["0"], [])
        return PersistenceModule(lat, cube.field, {"0": cube.dims[0]}, {})
    lat = Lattice.grid([1] * cube.arity)

    def name(mask: int) -> str:
        return ",".join(str((mask >> d) & 1) for d in range(cube.arity))

    dims = {name(mask): cube.dims[mask] for mask in range(1 << cube.arity)}
    maps = {}
    for mask in range(1 << cube.arity):
        for b in range(cube.arity):
            if not (mask >> b) & 1:
                tgt = mask | (1 << b)
                maps[(name(mask), name(tgt))] = cube.edge(mask, b)
    return PersistenceModule(lat, cube.field, dims, maps)


def opposite_module(f: PersistenceModule) -> PersistenceModule:
    """The dual module on the opposite lattice: same dimensions, cover
    maps transposed.  Exchanges projective with injective behaviour.

    Memoised in ``calc_cache`` both ways, so the opposite of the opposite
    is f itself and keeps its cached approximations.
    """
    op = f.calc_cache.get("opposite")
    if op is None:
        lat = f.lattice
        maps = {(lat.element(v), lat.element(u)): m.transpose()
                for (u, v), m in f._maps.items()}
        op = PersistenceModule(lat.opposite(), f.field, f.dims_by_element(), maps)
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
    for (u, v) in lat.covers_i():
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
