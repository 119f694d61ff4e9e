"""Finite distributive lattice combinatorics.

Elements are named by opaque string ids, but every query and cube takes
and returns element indices (positions in ``elements``); names are met
only where text crosses the boundary, through ``index`` and ``element``.

A lattice is built either from an explicit cover list or as a product
of chains (``Lattice.grid``), and every lattice is distributive, so by
Birkhoff's representation theorem it is the down-sets of its
join-irreducibles J (the elements with one lower cover, numbered by
index).  Each element keeps one |J|-bit order mask, the J at or below
it, and one {mask: index} dict finds an element by its mask: <= is
subset, join is OR, meet is AND, and the opposite lattice takes the
complements.  The n-bit down- and up-sets of elements are found on first
use from the Hasse tables; no order query reads them.  A grid's masks
and covers are read off the element coordinates (J is its axis points),
with no pairwise comparison; it may have at most ``MAX_GRID_ELEMENTS``
elements, a bound on the input.  A grid depends on its shape alone, so
``Lattice.grid`` interns the most recently used grids, up to
``MAX_GRID_ELEMENTS`` elements in all: the modules on one shape share
one lattice and its memo (parent cubes, jdim order, opposite, bicartesian
cubes), and an evicted grid is freed with its last name.  Grids are
distributive by construction, and so is the opposite of a distributive
lattice.  An explicit lattice may have at most ``MAX_LATTICE_ELEMENTS``
elements, and is checked on construction by ``validate``: an order
without a unique bottom or with a missing join or meet is rejected, and
then distributivity is checked.  Modules rely on this: on a distributive
lattice the meet of two lower covers of v is covered by both, so
commuting cover diamonds are the whole functor axiom.

A k-cube is its 2**k vertex indices by subset mask, with no lattice or
module of its own: arity ``len(cube).bit_length() - 1``, top ``cube[-1]``.
The lattice's memo keeps parent and bicartesian cubes so.
"""

from __future__ import annotations

import itertools
import math
import operator
import weakref
from typing import Callable, Iterable, Iterator, Sequence


class NotLattice(Exception):
    """The input order is not a lattice (or not even a partial order)."""


class NotDistributive(Exception):
    """A lattice violating x ^ (y v z) = (x ^ y) v (x ^ z); carries the triple."""


class NoBottom(Exception):
    """The poset has no unique least element."""


#: Largest grid ``Lattice.grid`` builds, a bound on the input: every module
#: on a grid stores and sweeps one value per element.
MAX_GRID_ELEMENTS = 4096

#: Largest lattice ``Lattice.from_covers`` builds (its checks are quadratic).
MAX_LATTICE_ELEMENTS = 128

#: The interned grids by shape, least recently used first, and their
#: element count in all (``Lattice.grid``).
_GRIDS: dict[tuple[int, ...], Lattice] = {}
_interned_elements = 0


def grid_size(maxes: Sequence[int]) -> int:
    """The element count of ``Lattice.grid(maxes)``; raises ValueError for
    bad bounds or more than MAX_GRID_ELEMENTS elements."""
    if not maxes or any(m < 0 for m in maxes):
        raise ValueError("grid needs at least one nonnegative bound")
    n = math.prod(m + 1 for m in maxes)
    if n > MAX_GRID_ELEMENTS:
        raise ValueError(f"grid {'x'.join(str(m + 1) for m in maxes)} has {n} "
                         f"elements, more than the cap of {MAX_GRID_ELEMENTS}")
    return n


def _memo(cache: dict, key, build: Callable):
    """``cache[key]``, made by ``build()`` on first use: the one door to every
    per-object memo.  No value refers to the memo's owner but by a weakref.ref
    (an opposite's back-link), read through and made again once it is dead."""
    value = cache.get(key)
    if type(value) is weakref.ref:
        value = value()
    if value is None:
        value = cache[key] = build()
    return value


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach(order: Iterable[int], succ: Sequence[Iterable[int]]) -> list[int]:
    """Per element, the mask of itself and everything it reaches along
    succ; ``order`` visits the successors of an element before it."""
    masks = [0] * len(succ)
    for i in order:
        m = 1 << i
        for j in succ[i]:
            m |= masks[j]
        masks[i] = m
    return masks


class Lattice:
    """A finite distributive lattice with one order mask per element and
    precomputed Hasse tables."""

    __slots__ = ("elements", "_idx", "n", "_mask", "_by_mask", "_covers", "_parents",
                 "_children", "_topo", "grid_shape", "_dimension", "_memo", "__weakref__")

    def __init__(self, elements: Sequence[str], masks: list[int],
                 parents: list[tuple[int, ...]], children: list[tuple[int, ...]],
                 topo: Sequence[int], grid_shape: tuple[int, ...] | None = None):
        # Not meant to be called directly: from_covers, grid and opposite
        # build the order masks, the Hasse tables and the linear extension
        # (by down-set size, ties by index); this stores them and builds the
        # {mask: index} dict.
        self.elements = tuple(elements)
        self.n = len(self.elements)
        self._idx = {e: i for i, e in enumerate(self.elements)}
        self._mask, self._by_mask = masks, {m: i for i, m in enumerate(masks)}
        self._parents, self._children = parents, children
        self._covers = tuple((i, j) for i, cs in enumerate(children) for j in cs)
        self._topo = tuple(topo)
        self.grid_shape = grid_shape
        self._dimension = max(map(len, parents), default=0)
        self._memo: dict = {}

    # -- constructors --------------------------------------------------

    @classmethod
    def from_covers(cls, elements: Sequence[str],
                    covers: Iterable[tuple[str, str]]) -> "Lattice":
        """Build a distributive lattice from element ids and cover pairs
        (u below v); raises NotLattice / NoBottom / NotDistributive, and
        ValueError for more than MAX_LATTICE_ELEMENTS elements.

        The order is the reflexive-transitive closure of the cover list;
        the stored Hasse diagram is recomputed as the transitive
        reduction, so redundant input pairs are harmless.
        """
        elements = tuple(elements)
        n = len(elements)
        if n > MAX_LATTICE_ELEMENTS:
            raise ValueError(f"explicit lattice has {n} elements, more than "
                             f"the cap of {MAX_LATTICE_ELEMENTS}")
        idx = {e: i for i, e in enumerate(elements)}
        if len(idx) != n:
            raise ValueError("duplicate element ids")
        succ: list[set[int]] = [set() for _ in range(n)]
        pred: list[set[int]] = [set() for _ in range(n)]
        for u, v in covers:
            if u not in idx or v not in idx:
                raise ValueError(f"cover mentions unknown element: {u!r} < {v!r}")
            succ[idx[u]].add(idx[v])
            pred[idx[v]].add(idx[u])
        # Kahn topological order; a leftover node means a cycle.
        order: list[int] = []
        indeg = [len(ps) for ps in pred]
        queue = [i for i in range(n) if indeg[i] == 0]
        while queue:
            i = queue.pop()
            order.append(i)
            for j in succ[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        if len(order) != n:
            raise NotLattice("cover relation contains a cycle")
        up, down = _reach(reversed(order), succ), _reach(order, pred)
        # The closure of an acyclic relation is antisymmetric, so the Hasse
        # diagram is the pairs with nothing strictly between them.
        parents: list[list[int]] = [[] for _ in range(n)]
        children: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            for j in _bits(up[i] & ~(1 << i)):
                if up[i] & down[j] & ~(1 << i) & ~(1 << j) == 0:
                    parents[j].append(i)
                    children[i].append(j)
        # Bit b of i's mask: the b-th join-irreducible is at or below i
        # (meaningless unless validate passes).
        irr = [j for j in range(n) if len(parents[j]) == 1]
        masks = [sum(1 << b for b, j in enumerate(irr) if d >> j & 1) for d in down]
        return cls(elements, masks, [tuple(ps) for ps in parents],
                   [tuple(cs) for cs in children],
                   sorted(range(n), key=[d.bit_count() for d in down].__getitem__)).validate()

    @classmethod
    def grid(cls, maxes: Sequence[int]) -> "Lattice":
        """The product of chains {0..m1} x ... x {0..mn}, canonically named.

        Elements are "i1,i2,...,in" in lexicographic order; covers bump a
        single coordinate (at index stride (m_{k+1}+1)...(m_n+1) for axis
        k).  All of it is read off the coordinates, and grids are
        distributive by construction, so ``validate`` is not run.

        The cap is checked on every call; then the grid of that shape is
        interned: built on first use, it is returned again, memo and all,
        while it is among the most recently used grids that hold at most
        MAX_GRID_ELEMENTS elements in all.
        """
        global _interned_elements
        maxes = tuple(map(operator.index, maxes))
        n = grid_size(maxes)
        lat = _GRIDS.pop(maxes, None)
        if lat is None:
            lat = cls._build_grid(maxes, n)
            _interned_elements += n
        _GRIDS[maxes] = lat  # most recently used last
        while _interned_elements > MAX_GRID_ELEMENTS:
            _interned_elements -= _GRIDS.pop(next(iter(_GRIDS))).n
        return lat

    @classmethod
    def _build_grid(cls, maxes: tuple[int, ...], n: int) -> "Lattice":
        coords = list(itertools.product(*(range(m + 1) for m in maxes)))
        strides = [math.prod(m + 1 for m in maxes[k + 1:]) for k in range(len(maxes))]
        # Strides fall along the axes that have covers, so parents come out
        # ascending, and children too when the axes are read backwards.
        parents = [tuple(i - s for c, s in zip(t, strides) if c)
                   for i, t in enumerate(coords)]
        backwards = list(zip(maxes, strides))[::-1]
        children = [tuple(i + s for c, (m, s) in zip(reversed(t), backwards) if c < m)
                    for i, t in enumerate(coords)]
        # J is the axis points, last axis first: axis k's run of bits starts
        # at the sum of the later bounds, and t sets the first t[k] of them.
        offsets = [sum(maxes[k + 1:]) for k in range(len(maxes))]
        masks = [sum(((1 << c) - 1) << o for c, o in zip(t, offsets)) for t in coords]
        return cls([",".join(map(str, t)) for t in coords], masks, parents, children,
                   sorted(range(n), key=lambda i: math.prod(c + 1 for c in coords[i])),
                   grid_shape=maxes)

    # -- validation ------------------------------------------------------

    def validate(self) -> "Lattice":
        """Check that the order is a distributive lattice.

        Raises the first violation found (NoBottom / NotLattice /
        NotDistributive); returns self when everything holds.  It reads the
        down- and up-sets of the Hasse tables, not the order masks, which
        mean nothing on an input that fails.  A pair of elements has a join
        exactly when its common upper bounds are the up-set of some element,
        and a meet likewise.
        """
        n, name = self.n, self.elements
        up, down = [self.upset_mask(i) for i in range(n)], [self.downset_mask(i) for i in range(n)]
        by_up, by_down = {m: i for i, m in enumerate(up)}, {m: i for i, m in enumerate(down)}
        minimal = [i for i in range(n) if down[i] == (1 << i)]
        if len(minimal) != 1:
            raise NoBottom(f"{len(minimal)} minimal elements, need exactly 1")
        for i in range(n):
            for j in range(i, n):
                if up[i] & up[j] not in by_up:
                    raise NotLattice(f"no least upper bound for {name[i]}, {name[j]}")
                if down[i] & down[j] not in by_down:
                    raise NotLattice(
                        f"no greatest lower bound for {name[i]}, {name[j]}")
        # Transitivity of the closure is structural; recheck cheaply.
        for i in range(n):
            for j in _bits(up[i]):
                if up[j] & ~up[i]:
                    raise NotLattice(
                        f"order not transitive at {name[i]} <= {name[j]}")
        # Distributive exactly when each join-irreducible j (one lower
        # cover) below y v z is below y or z.  A j that is not names a
        # failing triple: j^(yvz) = j, while j^y and j^z lie strictly
        # below j, hence below its one lower cover, and so does their join.
        irr = sum(1 << i for i, ps in enumerate(self._parents) if len(ps) == 1)
        for y in range(n):
            for z in range(y + 1, n):
                bad = down[by_up[up[y] & up[z]]] & irr & ~(down[y] | down[z])
                if bad:
                    x = (bad & -bad).bit_length() - 1
                    raise NotDistributive(
                        "lattice is not distributive: "
                        f"x^(yvz) != (x^y)v(x^z) for x={name[x]}, "
                        f"y={name[y]}, z={name[z]}")
        return self

    # -- id/index bridging ----------------------------------------------

    def index(self, el: str) -> int:
        try:
            return self._idx[el]
        except KeyError:
            raise KeyError(f"unknown lattice element {el!r}") from None

    def element(self, i: int) -> str:
        return self.elements[i]

    # -- order queries ----------------------------------------------------

    def leq_i(self, i: int, j: int) -> bool:
        return not self._mask[i] & ~self._mask[j]

    def join_i(self, i: int, j: int) -> int:
        """The element whose mask is the union of the masks of i and j."""
        return self._by_mask[self._mask[i] | self._mask[j]]

    def meet_i(self, i: int, j: int) -> int:
        """The element whose mask is the intersection of the masks of i and j."""
        return self._by_mask[self._mask[i] & self._mask[j]]

    def covers_i(self) -> tuple[tuple[int, int], ...]:
        return self._covers

    def parents_i(self, i: int) -> tuple[int, ...]:
        """Lower covers of i (elements that i covers)."""
        return self._parents[i]

    def children_i(self, i: int) -> tuple[int, ...]:
        """Upper covers of i (elements covering i)."""
        return self._children[i]

    def poset_dimension(self) -> int:
        """Order dimension: the maximal join-dimension over all elements,
        found once when the lattice is built."""
        return self._dimension

    def downset_mask(self, i: int) -> int:
        """The element set at or below i, as n bits."""
        return _memo(self._memo, "down", lambda: _reach(self._topo, self._parents))[i]

    def upset_mask(self, i: int) -> int:
        """The element set at or above i, as n bits."""
        return _memo(self._memo, "up", lambda: _reach(self._topo[::-1], self._children))[i]

    def topo_order(self) -> tuple[int, ...]:
        return self._topo

    def jdim_order(self) -> tuple[int, ...]:
        """Elements by decreasing join-dimension, ties by index, found once."""
        return _memo(self._memo, "jdim_order", lambda: tuple(
            sorted(range(self.n), key=lambda i: -len(self._parents[i]))))

    def parent_vertices_i(self, a: int) -> tuple[int, ...]:
        """a's ``parent_cube`` vertices by subset mask, found once per element."""
        return _memo(self._memo, a, lambda: _meet_fill(self, a, self._parents[a]))

    def induced_covers(self, indices: Iterable[int]) -> list[tuple[int, int]]:
        """Hasse diagram of the induced subposet, by transitive reduction."""
        idx = sorted(set(indices))
        mask = sum(1 << i for i in idx)
        out = []  # sorted: u and then v ascend
        for u in idx:
            above = self.upset_mask(u) & mask & ~(1 << u)
            for v in _bits(above):
                if not above & self.downset_mask(v) & ~(1 << v):  # nothing between
                    out.append((u, v))
        return out

    def opposite(self) -> "Lattice":
        """The same elements with the order reversed.

        Built once by complementing the masks against the top's and swapping
        the Hasse tables, held by this lattice and pointing back weakly: while
        this lattice lives, the opposite of the opposite is this lattice."""
        def build():
            top = self._mask[self._topo[-1]]
            op = Lattice(self.elements, [top ^ m for m in self._mask], self._children,
                         self._parents, self._topo[::-1])
            op._memo["opposite"] = weakref.ref(self)
            return op
        return _memo(self._memo, "opposite", build)

    # -- equality ---------------------------------------------------------

    # The elements and the Hasse diagram: masks may number J differently.
    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Lattice) and self.elements
                                 == other.elements and self._parents == other._parents)

    def __hash__(self) -> int:
        return hash((self.elements, tuple(self._parents)))

    def __repr__(self) -> str:
        shape = f", grid={self.grid_shape}" if self.grid_shape else ""
        return f"Lattice({self.n} elements{shape})"


def _meet_fill(lattice: Lattice, top: int, parts: Sequence[int]) -> tuple[int, ...]:
    """Cube vertices by subset mask: top at the full subset, at any other S
    the meet of the parts not in S, filled downwards, S from S + {b} for the
    highest b not in S.  The parts must lie below top; when they are a
    pairwise cover of it, this is the strongly bicartesian cube they span."""
    full = (1 << len(parts)) - 1
    assign = [top] * (full + 1)
    for mask in range(full - 1, -1, -1):
        b = (full & ~mask).bit_length() - 1  # a part not in mask
        assign[mask] = lattice.meet_i(assign[mask | 1 << b], parts[b])
    return tuple(assign)


def parent_cube(lattice: Lattice, a: int) -> tuple[int, ...]:
    """The cube spanned by element a and its lower covers (meets fill the
    rest): the vertices stored by ``Lattice.parent_vertices_i``.  Any two
    lower covers join to a, so they are a pairwise cover.  An element with
    no lower covers yields the 0-cube (a,)."""
    return lattice.parent_vertices_i(a)


def enumerate_bicartesian_cubes(lattice: Lattice, arity: int) -> Iterator[tuple[int, ...]]:
    """All strongly bicartesian cubes of the given arity, one per unordered
    pairwise cover per top element: the parts of a pairwise cover of v
    are elements below v whose pairwise joins are all v.

    Tops are visited in element order and parts as sorted multisets, so
    the enumeration order is deterministic.  Degenerate covers (parts
    equal to the top) are included.
    """
    if arity < 1:
        raise ValueError("cube enumeration needs arity >= 1")
    for vi in range(lattice.n):
        below = _bits(lattice.downset_mask(vi))  # ascending
        for parts in itertools.combinations_with_replacement(below, arity):
            if all(lattice.join_i(x, y) == vi for x, y in itertools.combinations(parts, 2)):
                yield _meet_fill(lattice, vi, parts)


def bicartesian_cubes_cached(lattice: Lattice, arity: int) -> tuple[tuple[int, ...], ...]:
    """enumerate_bicartesian_cubes as a tuple, found once per lattice."""
    return _memo(lattice._memo, ("cubes", arity),
                 lambda: tuple(enumerate_bicartesian_cubes(lattice, arity)))
