"""Finite distributive lattice combinatorics.

Elements are opaque string ids.  Internally everything is index-based,
with the order relation kept as per-element bitmasks, so cover / join /
meet queries and subposet extraction stay cheap for the ~100-element
grids the generators produce.

A lattice is built either from an explicit cover list or as a product
of chains (``Lattice.grid``), and every lattice is distributive.  Join
and meet are read off the order masks, one rule for every lattice: the
upper bounds of i and j are the up-set of their join, and the lower
bounds the down-set of their meet, so two {mask: index} dicts of n
entries find both.  A grid's order and covers are read off the element
coordinates, with no pairwise comparison; it may have at most
``MAX_GRID_ELEMENTS`` elements, a bound on the input.  Grids are
distributive by construction, and so is the opposite of a distributive
lattice.  An explicit lattice may have at most ``MAX_LATTICE_ELEMENTS``
elements, and is checked on construction by ``validate``: an order
without a unique bottom or with a missing join or meet is rejected, and
then distributivity is checked.  Modules rely on this: on a distributive
lattice the meet of two lower covers of v is covered by both, so
commuting cover diamonds are the whole functor axiom.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class NotLattice(Exception):
    """The input order is not a lattice (or not even a partial order)."""


class NotDistributive(Exception):
    """A lattice violating x ^ (y v z) = (x ^ y) v (x ^ z); carries the triple."""


class NoBottom(Exception):
    """The poset has no unique least element."""


class NotPairwiseCover(Exception):
    """Parts of a claimed pairwise cover do not pairwise join to the top."""


#: Largest grid ``Lattice.grid`` builds, a bound on the input: every module
#: on a grid stores and sweeps one value per element.
MAX_GRID_ELEMENTS = 4096

#: Largest lattice ``Lattice.from_covers`` builds (its checks are quadratic).
MAX_LATTICE_ELEMENTS = 128


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
    """A finite lattice with precomputed order masks and Hasse tables."""

    __slots__ = ("elements", "_idx", "n", "_up", "_down", "_by_up", "_by_down",
                 "_covers", "_parents", "_children", "_topo", "grid_shape",
                 "_cube_cache", "_opposite", "_dimension")

    def __init__(self, elements: Sequence[str], up: list[int], down: list[int],
                 parents: list[tuple[int, ...]], children: list[tuple[int, ...]],
                 topo: tuple[int, ...] | None = None,
                 grid_shape: tuple[int, ...] | None = None):
        # Not meant to be called directly: from_covers, grid and opposite
        # build the masks and Hasse tables, this stores them and builds the
        # {up mask: index} and {down mask: index} dicts.
        self.elements = tuple(elements)
        self.n = len(self.elements)
        self._idx = {e: i for i, e in enumerate(self.elements)}
        self._up, self._down = up, down
        self._parents, self._children = parents, children
        self._covers = tuple((i, j) for i, cs in enumerate(children) for j in cs)
        self._by_up = {m: i for i, m in enumerate(up)}
        self._by_down = {m: i for i, m in enumerate(down)}
        # Linear extension: sort by downset size, ties by index (sorted is
        # stable).
        self._topo = topo if topo is not None else tuple(
            sorted(range(self.n), key=[d.bit_count() for d in down].__getitem__))
        self.grid_shape = grid_shape
        self._dimension = max(map(len, parents), default=0)
        self._cube_cache: dict[int, list["LatticeCube"]] = {}
        self._opposite: Lattice | None = None

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
        indeg = [0] * n
        seen = set()
        for u, v in covers:
            if u not in idx or v not in idx:
                raise ValueError(f"cover mentions unknown element: {u!r} < {v!r}")
            if (u, v) in seen:
                continue
            seen.add((u, v))
            succ[idx[u]].add(idx[v])
            indeg[idx[v]] += 1
        # Kahn topological order; a leftover node means a cycle.
        order: list[int] = []
        queue = [i for i in range(n) if indeg[i] == 0]
        indeg2 = list(indeg)
        while queue:
            i = queue.pop()
            order.append(i)
            for j in succ[i]:
                indeg2[j] -= 1
                if indeg2[j] == 0:
                    queue.append(j)
        if len(order) != n:
            raise NotLattice("cover relation contains a cycle")
        up = _reach(reversed(order), succ)
        down = [0] * n
        for i in range(n):
            for j in _bits(up[i]):
                down[j] |= 1 << i
        # The closure of an acyclic relation is antisymmetric, so the Hasse
        # diagram is the pairs with nothing strictly between them.
        parents: list[list[int]] = [[] for _ in range(n)]
        children: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            for j in _bits(up[i] & ~(1 << i)):
                if up[i] & down[j] & ~(1 << i) & ~(1 << j) == 0:
                    parents[j].append(i)
                    children[i].append(j)
        return cls(elements, up, down, [tuple(ps) for ps in parents],
                   [tuple(cs) for cs in children]).validate()

    @classmethod
    def grid(cls, maxes: Sequence[int]) -> "Lattice":
        """The product of chains {0..m1} x ... x {0..mn}, canonically named.

        Elements are "i1,i2,...,in" in lexicographic order; covers bump a
        single coordinate (at index stride (m_{k+1}+1)...(m_n+1) for axis
        k).  All of it is read off the coordinates, and grids are
        distributive by construction, so ``validate`` is not run.
        """
        maxes = tuple(int(m) for m in maxes)
        n = grid_size(maxes)
        coords = list(itertools.product(*(range(m + 1) for m in maxes)))
        strides = [math.prod(m + 1 for m in maxes[k + 1:]) for k in range(len(maxes))]
        # Strides fall along the axes that have covers, so parents come out
        # ascending, and children too when the axes are read backwards.
        parents = [tuple(i - s for c, s in zip(t, strides) if c)
                   for i, t in enumerate(coords)]
        backwards = list(zip(maxes, strides))[::-1]
        children = [tuple(i + s for c, (m, s) in zip(reversed(t), backwards) if c < m)
                    for i, t in enumerate(coords)]
        down, up = _reach(range(n), parents), _reach(reversed(range(n)), children)
        return cls([",".join(map(str, t)) for t in coords], up, down, parents,
                   children, grid_shape=maxes)

    # -- validation ------------------------------------------------------

    def validate(self) -> "Lattice":
        """Check that the order is a distributive lattice.

        Raises the first violation found (NoBottom / NotLattice /
        NotDistributive); returns self when everything holds.  A pair of
        elements has a join exactly when its common upper bounds are the
        up-set of some element, and a meet likewise; ``join_i`` and
        ``meet_i`` look those elements up.
        """
        n, up, down, name = self.n, self._up, self._down, self.elements
        minimal = [i for i in range(n) if down[i] == (1 << i)]
        if len(minimal) != 1:
            raise NoBottom(f"{len(minimal)} minimal elements, need exactly 1")
        for i in range(n):
            for j in range(i, n):
                if up[i] & up[j] not in self._by_up:
                    raise NotLattice(f"no least upper bound for {name[i]}, {name[j]}")
                if down[i] & down[j] not in self._by_down:
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
                bad = down[self.join_i(y, z)] & irr & ~(down[y] | down[z])
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
        return bool(self._up[i] & (1 << j))

    def join(self, u: str, v: str) -> str:
        return self.elements[self.join_i(self.index(u), self.index(v))]

    def join_i(self, i: int, j: int) -> int:
        """The element whose up-set is the common upper bounds of i and j."""
        return self._by_up[self._up[i] & self._up[j]]

    def meet_i(self, i: int, j: int) -> int:
        """The element whose down-set is the common lower bounds of i and j."""
        return self._by_down[self._down[i] & self._down[j]]

    def bottom(self) -> str:
        # Construction guarantees a unique bottom and (all joins existing)
        # a unique top, so they open and close every linear extension.
        return self.elements[self._topo[0]]

    def top(self) -> str:
        return self.elements[self._topo[-1]]

    def covers(self) -> tuple[tuple[str, str], ...]:
        return tuple((self.elements[u], self.elements[v]) for u, v in self._covers)

    def covers_i(self) -> tuple[tuple[int, int], ...]:
        return self._covers

    def parents_i(self, i: int) -> tuple[int, ...]:
        """Lower covers of i (elements that i covers)."""
        return self._parents[i]

    def children_i(self, i: int) -> tuple[int, ...]:
        """Upper covers of i (elements covering i)."""
        return self._children[i]

    def jdim(self, v: str) -> int:
        """Join-dimension: the number of lower covers of v."""
        return len(self._parents[self.index(v)])

    def poset_dimension(self) -> int:
        """Order dimension: the maximal join-dimension over all elements,
        found once when the lattice is built."""
        return self._dimension

    def downset_mask(self, i: int) -> int:
        return self._down[i]

    def upset_mask(self, i: int) -> int:
        return self._up[i]

    def topo_order(self) -> tuple[int, ...]:
        return self._topo

    def induced_covers(self, indices: Iterable[int]) -> list[tuple[int, int]]:
        """Hasse diagram of the induced subposet, by transitive reduction."""
        idx = sorted(set(indices))
        mask = 0
        for i in idx:
            mask |= 1 << i
        out = []
        for u in idx:
            above = self._up[u] & mask & ~(1 << u)
            for v in _bits(above):
                between = self._up[u] & self._down[v] & mask & ~(1 << u) & ~(1 << v)
                if between == 0:
                    out.append((u, v))
        out.sort()
        return out

    def opposite(self) -> "Lattice":
        """The same elements with the order reversed.

        Built once by swapping the order masks and the Hasse tables, and
        memoised both ways: the opposite of the opposite is this lattice.
        """
        op = self._opposite
        if op is None:
            op = Lattice(self.elements, self._down, self._up, self._children,
                         self._parents, self._topo[::-1])
            op._opposite = self
            self._opposite = op
        return op

    # -- equality ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Lattice) and self.elements == other.elements
                and self._up == other._up)

    def __hash__(self) -> int:
        return hash((self.elements, tuple(self._up)))

    def __repr__(self) -> str:
        shape = f", grid={self.grid_shape}" if self.grid_shape else ""
        return f"Lattice({self.n} elements{shape})"


@functools.cache
def boolean_lattice(k: int) -> Lattice:
    """The Boolean lattice {0,1}^k, built once per k: the grid with k axes
    of length 2 (the one-element grid for k = 0).  Element index and
    subset bitmask coincide, bit b being coordinate k-1-b."""
    return Lattice.grid([1] * k or [0])


@dataclass(frozen=True)
class PairwiseCover:
    """A top element v together with parts x0..xk, each <= v, with
    xi v xj = v for all i != j.  Parts may repeat only as copies of v."""

    top: str
    parts: tuple[str, ...]

    def validate(self, lattice: Lattice) -> "PairwiseCover":
        vi = lattice.index(self.top)
        idx = [lattice.index(x) for x in self.parts]
        for i in idx:
            if not lattice.leq_i(i, vi):
                raise NotPairwiseCover(
                    f"part {lattice.element(i)} is not below top {self.top}")
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                if lattice.join_i(idx[a], idx[b]) != vi:
                    raise NotPairwiseCover(
                        f"parts {self.parts[a]}, {self.parts[b]} join to "
                        f"{lattice.element(lattice.join_i(idx[a], idx[b]))}, not {self.top}")
        return self


@dataclass(frozen=True)
class LatticeCube:
    """A cube in the lattice: subsets of {0..arity-1} (as bitmasks) mapped
    to element indices, monotone under inclusion."""

    lattice: Lattice
    arity: int
    assign: tuple[int, ...]  # indexed by subset bitmask, length 2**arity

    def __post_init__(self):
        if len(self.assign) != 1 << self.arity:
            raise ValueError("cube assignment has wrong length")

    def value(self, mask: int) -> str:
        return self.lattice.elements[self.assign[mask]]

    @property
    def full_mask(self) -> int:
        return (1 << self.arity) - 1

    def top(self) -> str:
        return self.value(self.full_mask)

    def bottom(self) -> str:
        return self.value(0)

    def parts(self) -> tuple[str, ...]:
        """Recover the pairwise cover: part i sits at the subset missing i."""
        full = self.full_mask
        return tuple(self.value(full & ~(1 << i)) for i in range(self.arity))

    def describe(self) -> str:
        return (f"cube(top={self.top()}, parts={','.join(self.parts())})"
                if self.arity else f"cube(point={self.bottom()})")


def cube_from_cover(lattice: Lattice, cover: PairwiseCover) -> LatticeCube:
    """The strongly bicartesian cube generated by a pairwise cover:
    the full subset maps to the top, any other subset S to the meet of
    the parts not in S."""
    cover.validate(lattice)
    k = len(cover.parts)
    vi = lattice.index(cover.top)
    idx = [lattice.index(x) for x in cover.parts]
    full = (1 << k) - 1
    assign = []
    for mask in range(1 << k):
        if mask == full:
            assign.append(vi)
            continue
        cur = -1
        for i in range(k):
            if not (mask >> i) & 1:
                cur = idx[i] if cur < 0 else lattice.meet_i(cur, idx[i])
        assign.append(cur)
    return LatticeCube(lattice, k, tuple(assign))


def parent_cube(lattice: Lattice, a: str) -> LatticeCube:
    """The cube spanned by a and its lower covers (meets fill the rest), as
    cube_from_cover builds it: the full subset maps to a, any other subset
    S to the meet of the lower covers not in S.  Any two lower covers join
    to a, so they are a pairwise cover and none is checked.

    An element with no lower covers yields the 0-cube at that element.
    """
    top = lattice.index(a)
    parts = lattice.parents_i(top)
    full = (1 << len(parts)) - 1
    assign = [top] * (full + 1)
    for mask in range(full - 1, -1, -1):
        b = (full & ~mask).bit_length() - 1  # a part not in mask
        assign[mask] = lattice.meet_i(assign[mask | 1 << b], parts[b])
    return LatticeCube(lattice, len(parts), tuple(assign))


def child_cube(lattice: Lattice, a: str) -> LatticeCube:
    """The dual cube: a at the empty subset, joins of upper covers above.
    It is the parent cube of a in the opposite lattice, subset S there
    being the complement of S here."""
    op = parent_cube(lattice.opposite(), a)
    return LatticeCube(lattice, op.arity, op.assign[::-1])


def enumerate_bicartesian_cubes(lattice: Lattice, arity: int) -> Iterator[LatticeCube]:
    """All strongly bicartesian cubes of the given arity, one per unordered
    pairwise cover per top element.

    Tops are visited in element order and parts as sorted multisets, so
    the enumeration order is deterministic.  Degenerate covers (parts
    equal to the top) are included.
    """
    if arity < 1:
        raise ValueError("cube enumeration needs arity >= 1")
    for vi in range(lattice.n):
        below = sorted(_bits(lattice.downset_mask(vi)))
        for parts in itertools.combinations_with_replacement(below, arity):
            ok = True
            for a in range(arity):
                for b in range(a + 1, arity):
                    if lattice.join_i(parts[a], parts[b]) != vi:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                yield cube_from_cover(
                    lattice,
                    PairwiseCover(lattice.elements[vi],
                                  tuple(lattice.elements[i] for i in parts)))


def bicartesian_cubes_cached(lattice: Lattice, arity: int) -> list[LatticeCube]:
    """Memoized list form of enumerate_bicartesian_cubes (per lattice)."""
    cached = lattice._cube_cache.get(arity)
    if cached is None:
        cached = list(enumerate_bicartesian_cubes(lattice, arity))
        lattice._cube_cache[arity] = cached
    return cached
