"""Finite distributive lattice combinatorics.

Elements are opaque string ids.  Internally everything is index-based,
with the order relation kept as per-element bitmasks, so cover / join /
meet queries and subposet extraction stay cheap for the ~100-element
grids the generators produce.

A lattice is built either from an explicit cover list or as a product
of chains (``Lattice.grid``).  Grids are correct by construction.
Building an explicit lattice always rejects an order without a unique
bottom or with a missing join or meet; ``validate`` (run on construction
by default) adds the table and distributivity checks.
"""

from __future__ import annotations

import itertools
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


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Lattice:
    """A finite lattice with precomputed order, join/meet and Hasse tables."""

    __slots__ = ("elements", "_idx", "n", "_up", "_down", "_join", "_meet",
                 "_covers", "_parents", "_children", "_topo", "grid_shape",
                 "_validated", "_cube_cache", "_opposite")

    def __init__(self, elements: Sequence[str], up_masks: list[int],
                 grid_shape: tuple[int, ...] | None = None):
        # Not meant to be called directly; use from_covers / grid.
        self.elements = tuple(elements)
        self.n = len(self.elements)
        if len(set(self.elements)) != self.n:
            raise ValueError("duplicate element ids")
        self._idx = {e: i for i, e in enumerate(self.elements)}
        self._up = up_masks
        self._down = [0] * self.n
        for i in range(self.n):
            for j in _bits(up_masks[i]):
                self._down[j] |= 1 << i
        self.grid_shape = grid_shape
        self._validated = False
        self._cube_cache: dict[int, list["LatticeCube"]] = {}
        self._opposite: Lattice | None = None
        self._build_covers()
        self._build_tables()
        # Linear extension: sort by downset size, ties by index.
        self._topo = tuple(sorted(range(self.n),
                                  key=lambda i: (self._down[i].bit_count(), i)))

    # -- constructors --------------------------------------------------

    @classmethod
    def from_covers(cls, elements: Sequence[str],
                    covers: Iterable[tuple[str, str]],
                    validate: bool = True) -> "Lattice":
        """Build a lattice from element ids and cover pairs (u below v).

        The order is the reflexive-transitive closure of the cover list;
        the stored Hasse diagram is recomputed as the transitive
        reduction, so redundant input pairs are harmless.
        """
        elements = tuple(elements)
        idx = {e: i for i, e in enumerate(elements)}
        n = len(elements)
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
        up = [0] * n
        for i in reversed(order):
            m = 1 << i
            for j in succ[i]:
                m |= up[j]
            up[i] = m
        lat = cls(elements, up)
        if validate:
            lat.validate()
        return lat

    @classmethod
    def grid(cls, maxes: Sequence[int]) -> "Lattice":
        """The product of chains {0..m1} x ... x {0..mn}, canonically named.

        Elements are "i1,i2,...,in" in lexicographic order; covers bump a
        single coordinate.  Grids are distributive by construction and
        are marked validated.
        """
        maxes = tuple(int(m) for m in maxes)
        if not maxes or any(m < 0 for m in maxes):
            raise ValueError("grid needs at least one nonnegative bound")
        coords = list(itertools.product(*(range(m + 1) for m in maxes)))
        names = [",".join(str(c) for c in t) for t in coords]
        pos = {t: i for i, t in enumerate(coords)}
        n = len(coords)
        up = [0] * n
        for i, t in enumerate(coords):
            m = 0
            for s in coords:
                if all(a <= b for a, b in zip(t, s)):
                    m |= 1 << pos[s]
            up[i] = m
        lat = cls(names, up, grid_shape=maxes)
        lat._validated = True
        return lat

    # -- internal table construction ------------------------------------

    def _build_covers(self) -> None:
        covers = []
        parents: list[list[int]] = [[] for _ in range(self.n)]
        children: list[list[int]] = [[] for _ in range(self.n)]
        for i in range(self.n):
            strictly_up = self._up[i] & ~(1 << i)
            for j in _bits(strictly_up):
                if self._up[j] & (1 << i):
                    raise NotLattice(
                        f"order not antisymmetric at {self.elements[i]}, {self.elements[j]}")
                between = self._up[i] & self._down[j] & ~(1 << i) & ~(1 << j)
                if between == 0:
                    covers.append((i, j))
                    parents[j].append(i)
                    children[i].append(j)
        self._covers = tuple(sorted(covers))
        self._parents = [tuple(sorted(ps)) for ps in parents]
        self._children = [tuple(sorted(cs)) for cs in children]

    def _build_tables(self) -> None:
        n = self.n
        if self.grid_shape is not None:
            # Componentwise min/max is exact for products of chains.
            coords = [tuple(int(c) for c in e.split(",")) for e in self.elements]
            pos = {t: i for i, t in enumerate(coords)}
            self._join = [[pos[tuple(max(a, b) for a, b in zip(coords[i], coords[j]))]
                           for j in range(n)] for i in range(n)]
            self._meet = [[pos[tuple(min(a, b) for a, b in zip(coords[i], coords[j]))]
                           for j in range(n)] for i in range(n)]
            return
        minimal = [i for i in range(n) if self._down[i] == (1 << i)]
        if len(minimal) != 1:
            raise NoBottom(f"{len(minimal)} minimal elements, need exactly 1")
        join = [[-1] * n for _ in range(n)]
        meet = [[-1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                jv = self._least_of(self._up[i] & self._up[j])
                if jv < 0:
                    raise NotLattice(
                        f"no least upper bound for {self.elements[i]}, {self.elements[j]}")
                mv = self._greatest_of(self._down[i] & self._down[j])
                if mv < 0:
                    raise NotLattice(
                        f"no greatest lower bound for {self.elements[i]}, {self.elements[j]}")
                join[i][j] = join[j][i] = jv
                meet[i][j] = meet[j][i] = mv
        self._join = join
        self._meet = meet

    def _least_of(self, mask: int) -> int:
        for c in _bits(mask):
            if mask & ~self._up[c] == 0:
                return c
        return -1

    def _greatest_of(self, mask: int) -> int:
        for c in _bits(mask):
            if mask & ~self._down[c] == 0:
                return c
        return -1

    # -- validation ------------------------------------------------------

    def validate(self) -> "Lattice":
        """Check the partial order, the join/meet tables and distributivity.

        Raises the first violation found (NotLattice / NotDistributive);
        returns self when everything holds.  A missing bottom, join or
        meet is already rejected on construction.
        """
        n = self.n
        # Transitivity of the closure is structural; recheck cheaply.
        for i in range(n):
            for j in _bits(self._up[i]):
                if self._up[j] & ~self._up[i]:
                    raise NotLattice(
                        f"order not transitive at {self.elements[i]} <= {self.elements[j]}")
        # Join/meet tables must be genuine least upper / greatest lower bounds.
        for i in range(n):
            for j in range(i, n):
                jv = self._join[i][j]
                ub = self._up[i] & self._up[j]
                if not (ub & (1 << jv)) or (ub & ~self._up[jv]):
                    raise NotLattice(
                        f"join table wrong at {self.elements[i]}, {self.elements[j]}")
                mv = self._meet[i][j]
                lb = self._down[i] & self._down[j]
                if not (lb & (1 << mv)) or (lb & ~self._down[mv]):
                    raise NotLattice(
                        f"meet table wrong at {self.elements[i]}, {self.elements[j]}")
        for x in range(n):
            mx = self._meet[x]
            for y in range(n):
                for z in range(y, n):
                    if mx[self._join[y][z]] != self._join[mx[y]][mx[z]]:
                        raise NotDistributive(
                            f"x^(yvz) != (x^y)v(x^z) for x={self.elements[x]}, "
                            f"y={self.elements[y]}, z={self.elements[z]}")
        self._validated = True
        return self

    @property
    def validated(self) -> bool:
        return self._validated

    # -- id/index bridging ----------------------------------------------

    def index(self, el: str) -> int:
        try:
            return self._idx[el]
        except KeyError:
            raise KeyError(f"unknown lattice element {el!r}") from None

    def element(self, i: int) -> str:
        return self.elements[i]

    # -- order queries ----------------------------------------------------

    def leq(self, u: str, v: str) -> bool:
        return bool(self._up[self.index(u)] & (1 << self.index(v)))

    def leq_i(self, i: int, j: int) -> bool:
        return bool(self._up[i] & (1 << j))

    def join(self, u: str, v: str) -> str:
        return self.elements[self._join[self.index(u)][self.index(v)]]

    def meet(self, u: str, v: str) -> str:
        return self.elements[self._meet[self.index(u)][self.index(v)]]

    def join_i(self, i: int, j: int) -> int:
        return self._join[i][j]

    def meet_i(self, i: int, j: int) -> int:
        return self._meet[i][j]

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

    def parents(self, v: str) -> tuple[str, ...]:
        """Lower covers of v (elements that v covers)."""
        return tuple(self.elements[i] for i in self._parents[self.index(v)])

    def children(self, v: str) -> tuple[str, ...]:
        """Upper covers of v (elements covering v)."""
        return tuple(self.elements[i] for i in self._children[self.index(v)])

    def parents_i(self, i: int) -> tuple[int, ...]:
        return self._parents[i]

    def children_i(self, i: int) -> tuple[int, ...]:
        return self._children[i]

    def jdim(self, v: str) -> int:
        """Join-dimension: the number of lower covers of v."""
        return len(self._parents[self.index(v)])

    def mdim(self, v: str) -> int:
        """Meet-dimension: the number of upper covers of v."""
        return len(self._children[self.index(v)])

    def jdim_i(self, i: int) -> int:
        return len(self._parents[i])

    def mdim_i(self, i: int) -> int:
        return len(self._children[i])

    def join_irreducibles(self) -> tuple[str, ...]:
        """Elements that are not joins of strictly smaller elements.

        In a finite distributive lattice these are exactly the elements
        with a single lower cover (the bottom never qualifies).
        """
        return tuple(self.elements[i] for i in range(self.n)
                     if len(self._parents[i]) == 1)

    def meet_irreducibles(self) -> tuple[str, ...]:
        return tuple(self.elements[i] for i in range(self.n)
                     if len(self._children[i]) == 1)

    def poset_dimension(self) -> int:
        """Order dimension: the maximal join-dimension over all elements."""
        return max((len(ps) for ps in self._parents), default=0)

    def downset_mask(self, i: int) -> int:
        return self._down[i]

    def upset_mask(self, i: int) -> int:
        return self._up[i]

    def downset(self, v: str) -> tuple[str, ...]:
        return tuple(self.elements[i] for i in sorted(_bits(self._down[self.index(v)])))

    def upset(self, v: str) -> tuple[str, ...]:
        return tuple(self.elements[i] for i in sorted(_bits(self._up[self.index(v)])))

    def interval(self, u: str, v: str) -> tuple[str, ...]:
        mask = self._up[self.index(u)] & self._down[self.index(v)]
        return tuple(self.elements[i] for i in sorted(_bits(mask)))

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

        Built once by swapping the order, join/meet and Hasse tables, and
        memoised both ways: the opposite of the opposite is this lattice.
        """
        op = self._opposite
        if op is None:
            op = object.__new__(Lattice)
            op.elements, op._idx, op.n = self.elements, self._idx, self.n
            op._up, op._down = self._down, self._up
            op._join, op._meet = self._meet, self._join
            op._parents, op._children = self._children, self._parents
            op._covers = tuple(sorted((v, u) for u, v in self._covers))
            op._topo = self._topo[::-1]
            op.grid_shape = None
            op._validated = self._validated
            op._cube_cache = {}
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

    def value_i(self, mask: int) -> int:
        return self.assign[mask]

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

    def is_strongly_bicartesian(self) -> bool:
        """True iff the assignment preserves all joins and meets of subsets."""
        lat = self.lattice
        size = 1 << self.arity
        for s in range(size):
            for t in range(s, size):
                a, b = self.assign[s], self.assign[t]
                if self.assign[s | t] != lat.join_i(a, b):
                    return False
                if self.assign[s & t] != lat.meet_i(a, b):
                    return False
        return True

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
    """The cube spanned by a and its lower covers (meets fill the rest).

    An element with no lower covers yields the 0-cube at that element.
    """
    parents = lattice.parents(a)
    if not parents:
        return LatticeCube(lattice, 0, (lattice.index(a),))
    return cube_from_cover(lattice, PairwiseCover(a, parents))


def child_cube(lattice: Lattice, a: str) -> LatticeCube:
    """The dual cube: a at the empty subset, joins of upper covers above."""
    children = [lattice.index(c) for c in lattice.children(a)]
    k = len(children)
    ai = lattice.index(a)
    if k == 0:
        return LatticeCube(lattice, 0, (ai,))
    assign = []
    for mask in range(1 << k):
        if mask == 0:
            assign.append(ai)
            continue
        cur = -1
        for i in range(k):
            if (mask >> i) & 1:
                cur = children[i] if cur < 0 else lattice.join_i(cur, children[i])
        assign.append(cur)
    return LatticeCube(lattice, k, tuple(assign))


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
