"""Module generators from data: cubical sublevel bifiltrations of
multi-channel images, and sublevel-Rips H0 of finite metric spaces.

Both pipelines take H0 from connected components, tracked by union-find:
the module is free on the components at each threshold, built by
``pmodule._free_on_blocks``.  One filtration per image serves H0, H1 and the
intersection check.  Image H1 is computed exactly over the module's
field, but only at thresholds where its Euler count |E| - |V| + c - |Q|
is nonzero, and there only on the edges outside a union-find spanning
forest: cycles are read off the forest, and one elimination on those
rows picks the echelon basis and gives the coordinates of cover maps.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Sequence

from .calculus import NotAComplex
from .lattice import Lattice
from .linalg import FieldSpec, Matrix, rref
from .pmodule import PersistenceModule, _free_on_blocks


class UnsupportedDimension(Exception):
    """Homology degree / channel count outside the supported desk-scale range."""


#: The largest image ``ImageGrid`` takes, a bound on the input, as its
#: threshold levels times the square of its pixel count (a bound on H1's
#: eliminations, on fewer rows).  A 32 x 32 image at 16 levels is at the cap.
MAX_IMAGE_COST = 1 << 24


@dataclass(frozen=True)
class ImageGrid:
    """A small raster image with one or more integer channels.

    ``values[c][y][x]`` is the value of channel c at pixel (x, y); all
    values lie in [0, max_value].  An image of more than MAX_IMAGE_COST
    (threshold levels x pixels^2) is rejected here, before any complex is
    built from it.
    """

    width: int
    height: int
    channels: int
    max_value: int
    values: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image must have at least one pixel")
        if self.channels < 1:
            raise ValueError("image needs at least one channel")
        if len(self.values) != self.channels:
            raise ValueError("channel count mismatch")
        pixels, levels = self.width * self.height, (self.max_value + 1) ** self.channels
        if (cost := levels * pixels ** 2) > MAX_IMAGE_COST:
            raise ValueError(f"image of {pixels} pixels at {levels} threshold levels "
                             f"costs {cost} (levels x pixels^2), more than the cap "
                             f"of {MAX_IMAGE_COST}")
        for chan in self.values:
            if len(chan) != self.height or any(len(r) != self.width for r in chan):
                raise ValueError("image is not rectangular")
            for row in chan:
                for v in row:
                    if not (0 <= v <= self.max_value):
                        raise ValueError(f"pixel value {v} out of [0, {self.max_value}]")

    @classmethod
    def from_lists(cls, channels: Sequence[Sequence[Sequence[int]]],
                   max_value: int) -> "ImageGrid":
        vals = tuple(tuple(tuple(int(v) for v in row) for row in chan)
                     for chan in channels)
        first = vals[0] if vals else ()  # no channel or row: __post_init__ rejects
        return cls(len(first[0]) if first else 0, len(first), len(vals), max_value, vals)

    @classmethod
    def parse(cls, text: str) -> "ImageGrid":
        """Parse the documented text format: a header line
        ``width height channels maxval`` followed by height rows of width
        integers per channel.  '#' starts a comment."""
        rows = _int_rows(text)
        if not rows or len(rows[0]) != 4:
            raise ValueError("image header must be: width height channels maxval")
        w, h, c, m = rows[0]
        body = rows[1:]
        if len(body) != h * c:
            raise ValueError(f"expected {h * c} pixel rows, got {len(body)}")
        chans = [body[i * h:(i + 1) * h] for i in range(c)] if h > 0 else []
        return cls(w, h, c, m, tuple(tuple(map(tuple, chan)) for chan in chans))


def _int_rows(text: str) -> list[list[int]]:
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip().replace(",", " ")
        if line:
            out.append([int(tok) for tok in line.split()])
    return out


@dataclass(frozen=True)
class MetricFunctionSpace:
    """A finite pseudo-metric space with a function value per point and
    explicit sorted threshold grids for both parameters."""

    values: tuple[int, ...]
    dist: tuple[tuple[int, ...], ...]
    a_levels: tuple[int, ...]
    r_levels: tuple[int, ...]

    def __post_init__(self):
        n = len(self.values)
        if len(self.dist) != n or any(len(r) != n for r in self.dist):
            raise ValueError("distance matrix shape mismatch")
        for i in range(n):
            if self.dist[i][i] != 0:
                raise ValueError("nonzero distance on the diagonal")
            for j in range(n):
                if self.dist[i][j] != self.dist[j][i]:
                    raise ValueError("distance matrix not symmetric")
        for levels in (self.a_levels, self.r_levels):
            if not levels or list(levels) != sorted(set(levels)):
                raise ValueError("threshold grids must be sorted and deduplicated")

    @classmethod
    def from_data(cls, values: Sequence[int], dist: Sequence[Sequence[int]],
                  a_levels: Sequence[int] | None = None,
                  r_levels: Sequence[int] | None = None) -> "MetricFunctionSpace":
        values = tuple(int(v) for v in values)
        dist_t = tuple(tuple(int(d) for d in row) for row in dist)
        if a_levels is None:
            a_levels = sorted(set(values))
        if r_levels is None:
            r_levels = sorted({d for row in dist_t for d in row})
        return cls(values, dist_t, tuple(a_levels), tuple(r_levels))

    @classmethod
    def parse(cls, text: str) -> "MetricFunctionSpace":
        """First row: function values; next n rows: distance matrix."""
        rows = _int_rows(text)
        if not rows:
            raise ValueError("empty metric space file")
        values = rows[0]
        dist = rows[1:]
        if len(dist) != len(values):
            raise ValueError(f"expected {len(values)} distance rows, got {len(dist)}")
        return cls.from_data(values, dist)


# -- cubical complexes ---------------------------------------------------------


class CubicalComplex:
    """The cubical complex of an image grid: pixels, axis edges, squares.

    Each cell carries a filtration vector (one value per channel): the
    componentwise max over its closure vertices, matching a lower-star
    sublevel filtration of the pixel function.
    """

    def __init__(self, img: ImageGrid):
        self.img = img
        w, h = img.width, img.height
        self.vertices = [(x, y) for y in range(h) for x in range(w)]
        vid = {v: i for i, v in enumerate(self.vertices)}
        self.edges: list[tuple[int, int]] = []
        for y in range(h):
            for x in range(w):
                if x + 1 < w:
                    self.edges.append((vid[(x, y)], vid[(x + 1, y)]))
                if y + 1 < h:
                    self.edges.append((vid[(x, y)], vid[(x, y + 1)]))
        eid = {e: i for i, e in enumerate(self.edges)}
        self.squares: list[tuple[int, int, int, int]] = []
        self._square_edges: list[tuple[int, int, int, int]] = []
        for y in range(h - 1):
            for x in range(w - 1):
                a, b = vid[(x, y)], vid[(x + 1, y)]
                c, d = vid[(x, y + 1)], vid[(x + 1, y + 1)]
                self.squares.append((a, b, c, d))
                self._square_edges.append((eid[(a, b)], eid[(b, d) if b < d else (d, b)],
                                           eid[(c, d)], eid[(a, c)]))
        self.vertex_filt = [self._vfilt(x, y) for (x, y) in self.vertices]
        self.edge_filt = [self._max_filt([u, v]) for (u, v) in self.edges]
        self.square_filt = [self._max_filt(list(q)) for q in self.squares]
        # The distinct filtration vectors, and each cell's position among them.
        ids: dict[tuple[int, ...], int] = {}
        self._vector_ids = [[ids.setdefault(f, len(ids)) for f in filt] for filt in
                            (self.vertex_filt, self.edge_filt, self.square_filt)]
        self._vectors = list(ids)

    def _vfilt(self, x: int, y: int) -> tuple[int, ...]:
        return tuple(self.img.values[c][y][x] for c in range(self.img.channels))

    def _max_filt(self, vids: list[int]) -> tuple[int, ...]:
        return tuple(map(max, *[self.vertex_filt[v] for v in vids]))

    def active(self, level: tuple[int, ...]) -> tuple[list[int], list[int], list[int]]:
        """Indices of the vertices / edges / squares in the sublevel complex,
        each in increasing order.  Membership is decided once per distinct
        filtration vector, not once per cell."""
        ok = [all(a <= b for a, b in zip(f, level)) for f in self._vectors]
        pick = ok.__getitem__
        return tuple(list(itertools.compress(range(len(ids)), map(pick, ids)))
                     for ids in self._vector_ids)

    def square_boundary(self, q: int, p: int) -> tuple[tuple[int, int], ...]:
        """Square q's boundary over F_p, (edge, coefficient) pairs: bottom + right - top - left."""
        bottom, right, top, left = self._square_edges[q]
        return (bottom, 1), (right, 1), (top, p - 1), (left, p - 1)


class EulerCountMismatch(Exception):
    """The eliminated H1 of a sublevel complex disagrees with its Euler
    count: a fault in the package, never in the input."""


def _h1_count(vertices: int, edges: int, squares: int, components: int) -> int:
    """dim H1 of a planar cubical complex (see image_bifiltration_homology)."""
    return edges - vertices + components - squares


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Keep the smaller label as the root so components are canonical.
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def components(self, points: list[int]) -> list[list[int]]:
        """The components of the increasing ``points``, each increasing,
        ordered by least point: that point is the root, so it comes first."""
        comps: dict[int, list[int]] = {}
        find = self.find
        for i in points:
            comps.setdefault(find(i), []).append(i)
        return list(comps.values())


def image_bifiltration_homology(img: ImageGrid, degree: int,
                                field: FieldSpec) -> PersistenceModule:
    """H_degree of the sublevel cubical bifiltration of a multi-channel
    image, as a module over the threshold grid {0..max}^channels.

    Supports degree 0 and 1 on 2D images with up to 3 channels, both read
    off the image's one filtration (``_sublevels``).  The components of
    the active pixel graph at each threshold come from one union-find per
    chain of the last coordinate, along which the active edges only grow:
    it unions each edge once, at the level of the chain that is its last
    filtration coordinate.

    H0 is ``_free_on_blocks`` of those components.  This is the basis
    the reduction of ``[C | I]`` picks, C the pivot columns of d1: e_w is
    a pivot unless an earlier active vertex of its component exists, since
    e_w - e_u is a boundary exactly when u and w share a component.  So the
    representatives are the least active vertex of each component, ordered
    by vertex index, and every vertex is homologous to its component's
    representative with coefficient 1, over every p.  The union-find keeps
    the smaller label as the root, so its components are listed the same
    way, and a cover map sends each class to that of the component holding
    its representative.

    For H1, dim H1 = |E| - |V| + c - |Q| at each threshold: rank d1 is
    |V| - c over any field, and d2 is injective, because a nonzero square
    chain has an extreme square (greatest y, then greatest x) whose top
    edge no other square of the chain has.  Where this count is 0 nothing
    is eliminated.  Elsewhere it is taken on the free edges, those a
    union-find taking the edges in index order finds closing a cycle: the
    others, a spanning forest, are the pivot columns of rref(d1), and the
    echelon basis of ker d1 has, per free edge f, the cycle e_f plus the
    forest path between the ends of f (``_forest_cycle``).  So cycles
    restrict isomorphically to the free edges, that cycle to e_f, and the
    reduction of [d2 | that basis] picks the cycles of the free edges whose
    unit is a pivot of rref([d2 on the free rows | I]); the rows of that
    rref with pivots in I map a cycle to its coordinates
    (``_h1_on_free_edges``).  Checked: the count
    (``EulerCountMismatch``), d1 d2 = 0 and d1 z = 0 for each
    representative z (``NotAComplex``), on which the restriction relies.
    """
    if degree not in (0, 1):
        raise UnsupportedDimension(f"H_{degree} is out of scope for 2D images")
    if img.channels > 3:
        raise UnsupportedDimension("more than 3 channels is out of scope")
    complex_, lat, actives, comps = _sublevels(img)
    if degree == 0:
        return _free_on_blocks(lat, field, comps)
    p, edges = field.p, complex_.edges
    if not all(_is_cycle(edges, complex_.square_boundary(q, p), p)
               for q in range(len(complex_.squares))):
        raise NotAComplex("a square boundary is not a cycle: d1 d2 != 0")
    h1, dims = {}, []  # where H1 is nonzero: its representatives, free rows, coordinates
    for i, ((av, ae, aq), cs) in enumerate(zip(actives, comps)):
        dims.append(count := _h1_count(len(av), len(ae), len(aq), len(cs)))
        if count:
            pos, chosen, forest, coords = _h1_on_free_edges(complex_, field, ae, aq)
            if len(chosen) != count:
                raise EulerCountMismatch(f"H1 at {lat.element(i)} has dim {len(chosen)}, "
                                         f"but the Euler count is {count}")
            reps = [_forest_cycle(edges, forest, f, p) for f in chosen]
            if not all(_is_cycle(edges, z.items(), p) for z in reps):
                raise NotAComplex(f"an H1 representative at {lat.element(i)} is not a cycle")
            h1[i] = reps, pos, coords
    maps = {}
    for v, (_, pos, coords) in h1.items():
        for u in lat.parents_i(v):
            if u in h1:  # the representatives of u in the free coordinates of v
                lift = [[z.get(e, 0) for z in h1[u][0]] for e in pos]
                maps[(u, v)] = coords @ Matrix(field, len(pos), dims[u], lift)
    return PersistenceModule(lat, field, dims, maps)


@functools.lru_cache(maxsize=1)
def _sublevels(img: ImageGrid) -> tuple[CubicalComplex, Lattice, list, list]:
    """img's complex, grid, and per element (lexicographic) its active cells
    and pixel graph components, for any field: kept for the last image, so
    H0, H1 and the intersection check build it once; shared, so not mutated."""
    complex_ = CubicalComplex(img)
    lat = Lattice.grid([img.max_value] * img.channels)
    actives = [complex_.active(level) for level in
               itertools.product(range(img.max_value + 1), repeat=img.channels)]
    comps, top = [], img.max_value
    for start in range(0, lat.n, top + 1):
        uf = _UnionFind(len(complex_.vertices))
        levels: list[list[int]] = [[] for _ in range(top + 1)]
        for e in actives[start + top][1]:
            levels[complex_.edge_filt[e][-1]].append(e)
        for (av, _, _), new in zip(actives[start:start + top + 1], levels):
            for e in new:
                uf.union(*complex_.edges[e])
            comps.append(uf.components(av))
    return complex_, lat, actives, comps


def _h1_on_free_edges(complex_: CubicalComplex, field: FieldSpec, ae: list[int],
                      aq: list[int]) -> tuple[dict[int, int], list[int], dict, Matrix]:
    """H1 of one sublevel complex on its free edges (see the caller): the
    row of each free edge, the chosen ones, the forest of the other edges
    as adjacency lists, and the map from free to H1 coordinates."""
    uf, nbrs, free = _UnionFind(len(complex_.vertices)), {}, []
    for e in ae:
        u, v = complex_.edges[e]
        if uf.find(u) == uf.find(v):
            free.append(e)
        else:
            uf.union(u, v)
            nbrs.setdefault(u, []).append((v, e))
            nbrs.setdefault(v, []).append((u, e))
    pos, nq, nf = {e: r for r, e in enumerate(free)}, len(aq), len(free)
    rows = [[0] * (nq + r) + [1] + [0] * (nf - r - 1) for r in range(nf)]
    for j, q in enumerate(aq):
        for e, c in complex_.square_boundary(q, field.p):
            if e in pos:
                rows[pos[e]][j] = c
    red, pivots = rref(Matrix(field, nf, nq + nf, rows))
    chosen = [free[c - nq] for c in pivots if c >= nq]
    coords = red.take_rows(range(nf - len(chosen), nf)).take_cols(range(nq, nq + nf))
    return pos, chosen, nbrs, coords


def _forest_cycle(edges: list[tuple[int, int]], forest: dict, f: int, p: int) -> dict[int, int]:
    """The echelon kernel basis of d1 at free edge f, as {edge:
    coefficient}: e_f plus the forest path from the head v of f to its tail
    u, found by search, each edge signed +1 where the path runs from its
    tail to its head."""
    u, v = edges[f]
    back, stack = {v: None}, [v]
    while u not in back:
        x = stack.pop()
        for y, e in forest[x]:
            if y not in back:
                back[y] = x, e
                stack.append(y)
    chain, y = {f: 1}, u
    while y != v:
        y, e = back[y]
        chain[e] = 1 if edges[e][0] == y else p - 1
    return chain


def _is_cycle(edges: list[tuple[int, int]], chain, p: int) -> bool:
    """d1 of the chain, (edge, coefficient) pairs, is zero over F_p."""
    ends: dict[int, int] = {}
    for e, c in chain:
        u, v = edges[e]
        ends[u], ends[v] = ends.get(u, 0) - c, ends.get(v, 0) + c
    return not any(x % p for x in ends.values())


def sublevel_intersection_check(img: ImageGrid) -> bool:
    """The sublevel complexes of an image satisfy
    cells(a ^ b) = cells(a) & cells(b) for all threshold pairs."""
    _, lat, actives, _ = _sublevels(img)
    for i in range(lat.n):
        for j in range(i, lat.n):
            m = lat.meet_i(i, j)
            for part in range(3):
                want = sorted(set(actives[i][part]) & set(actives[j][part]))
                if list(actives[m][part]) != want:
                    return False
    return True


# -- sublevel-Rips H0 ----------------------------------------------------------


def sublevel_rips_h0(space: MetricFunctionSpace,
                     field: FieldSpec) -> PersistenceModule:
    """H0 of the sublevel-Rips bifiltration: at threshold (a, r), the free
    space on connected components of the graph on {f <= a} with edges of
    length <= r; cover maps send a component class to the class of the
    component containing it (``_free_on_blocks``).

    For each a, one union-find takes the edges among {f <= a} in order of
    length and is read at each r level, so no level is built from scratch.
    Its roots are the least points of their components, as they would be
    from scratch, so the components are listed the same way.
    """
    lat = Lattice.grid([len(space.a_levels) - 1, len(space.r_levels) - 1])
    # Per element index: grid elements (a, r) are in lexicographic order.
    comps = []
    for a in space.a_levels:
        pts = [i for i, v in enumerate(space.values) if v <= a]
        edges = sorted((space.dist[i][j], i, j)
                       for i, j in itertools.combinations(pts, 2))
        uf = _UnionFind(len(space.values))
        k = 0
        for r in space.r_levels:
            while k < len(edges) and edges[k][0] <= r:
                uf.union(edges[k][1], edges[k][2])
                k += 1
            comps.append(uf.components(pts))
    return _free_on_blocks(lat, field, comps)


# -- random instances for the suites -------------------------------------------


def random_image(rng: random.Random, width: int = 5, height: int = 5,
                 channels: int = 2, max_value: int = 2) -> ImageGrid:
    chans = [[[rng.randint(0, max_value) for _ in range(width)]
              for _ in range(height)] for _ in range(channels)]
    return ImageGrid.from_lists(chans, max_value)


def random_metric_space(rng: random.Random, n_points: int = 6,
                        value_max: int = 4, dist_max: int = 9) -> MetricFunctionSpace:
    values = [rng.randint(0, value_max) for _ in range(n_points)]
    dist = [[0] * n_points for _ in range(n_points)]
    for i in range(n_points):
        for j in range(i + 1, n_points):
            d = rng.randint(1, dist_max)
            dist[i][j] = dist[j][i] = d
    return MetricFunctionSpace.from_data(values, dist)
