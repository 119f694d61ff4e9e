"""Module generators from data: cubical sublevel bifiltrations of
multi-channel images, and sublevel-Rips H0 of finite metric spaces.

Both pipelines take H0 from connected components, tracked by union-find:
the module is free on the components at each threshold, and one helper
builds it for both.  Image H1 is computed exactly over the module's field,
but only at thresholds where its Euler count |E| - |V| + c - |Q| is
nonzero: there cycle bases are pushed forward along chain inclusions and
reduced against boundary bases, with all basis choices pinned by the
echelon convention, and the count is checked against the elimination.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

from .lattice import Lattice
from .linalg import (FieldSpec, Matrix, hstack, image_basis, kernel_basis,
                     rref, solve, vstack)
from .pmodule import PersistenceModule


class UnsupportedDimension(Exception):
    """Homology degree / channel count outside the supported desk-scale range."""


@dataclass(frozen=True)
class ImageGrid:
    """A small raster image with one or more integer channels.

    ``values[c][y][x]`` is the value of channel c at pixel (x, y); all
    values lie in [0, max_value].
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
        return cls(len(vals[0][0]), len(vals[0]), len(vals), max_value, vals)

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
        chans = [body[i * h:(i + 1) * h] for i in range(c)]
        img = cls.from_lists(chans, m)
        if img.width != w:
            raise ValueError("row width does not match header")
        return img


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

    def boundary_1(self, field: FieldSpec, av: list[int], ae: list[int]) -> Matrix:
        """Vertex x edge boundary matrix of the sublevel complex."""
        pos = {v: i for i, v in enumerate(av)}
        p = field.p
        data = [[0] * len(ae) for _ in range(len(av))]
        for j, e in enumerate(ae):
            u, v = self.edges[e]
            data[pos[v]][j] = 1
            data[pos[u]][j] = (p - 1) % p
        return Matrix(field, len(av), len(ae), data)

    def boundary_2(self, field: FieldSpec, ae: list[int], aq: list[int]) -> Matrix:
        """Edge x square boundary matrix: bottom + right - top - left."""
        pos = {e: i for i, e in enumerate(ae)}
        p = field.p
        data = [[0] * len(aq) for _ in range(len(ae))]
        for j, q in enumerate(aq):
            bottom, right, top, left = self._square_edges[q]
            for e, sign in ((bottom, 1), (right, 1), (top, p - 1), (left, p - 1)):
                data[pos[e]][j] = (data[pos[e]][j] + sign) % p
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


def _free_on_components(lat: Lattice, field: FieldSpec,
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


def image_bifiltration_homology(img: ImageGrid, degree: int,
                                field: FieldSpec) -> PersistenceModule:
    """H_degree of the sublevel cubical bifiltration of a multi-channel
    image, as a module over the threshold grid {0..max}^channels.

    Supports degree 0 and 1 on 2D images with up to 3 channels.  The
    components of the active pixel graph at each threshold come from one
    union-find per chain of the last coordinate, along which the active
    edges only grow: it unions each edge once, at the level of the chain
    that is its last filtration coordinate.

    H0 is ``_free_on_components`` of those components.  This is the basis
    the reduction of ``[image_basis(d1) | I]`` picks: a unit vector e_w is
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
    is eliminated.  Elsewhere cycle representatives are chosen by
    reduction against the boundaries, their number is checked against the
    count (``EulerCountMismatch``), and cover maps push them forward along
    the chain inclusion and reduce them in the target homology basis.
    """
    if degree not in (0, 1):
        raise UnsupportedDimension(f"H_{degree} is out of scope for 2D images")
    if img.channels > 3:
        raise UnsupportedDimension("more than 3 channels is out of scope")
    complex_ = CubicalComplex(img)
    lat = Lattice.grid([img.max_value] * img.channels)
    # Per element index (grid elements are in lexicographic order).
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
    if degree == 0:
        return _free_on_components(lat, field, comps)
    # Where H1 is nonzero: cycle reps over the active edges cells_at, and
    # [reps | boundary basis].
    reps: dict[int, Matrix] = {}
    basis_solver: dict[int, Matrix] = {}
    cells_at: dict[int, list[int]] = {}
    dims = []
    for i, ((av, ae, aq), cs) in enumerate(zip(actives, comps)):
        count = _h1_count(len(av), len(ae), len(aq), len(cs))
        if count:
            cycles = kernel_basis(complex_.boundary_1(field, av, ae))
            bounds = image_basis(complex_.boundary_2(field, ae, aq))
            h = _homology_reps(cycles, bounds)
            if h.ncols != count:
                raise EulerCountMismatch(
                    f"H1 at {lat.element(i)} has dim {h.ncols}, "
                    f"but the Euler count is {count}")
            reps[i] = h
            basis_solver[i] = hstack([h, bounds])
            cells_at[i] = ae
        dims.append(count)

    maps = {}
    for v in reps:
        # One solve per element: basis_solver[v] has independent columns,
        # so the lifts from all lower covers share its row operations.
        us = [u for u in lat.parents_i(v) if u in reps]
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


def sublevel_intersection_check(img: ImageGrid) -> bool:
    """The sublevel complexes of an image satisfy
    cells(a ^ b) = cells(a) & cells(b) for all threshold pairs."""
    complex_ = CubicalComplex(img)
    lat = Lattice.grid([img.max_value] * img.channels)
    levels = [tuple(int(c) for c in el.split(",")) for el in lat.elements]
    actives = [complex_.active(lv) for lv in levels]
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
    component containing it (``_free_on_components``).

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
    return _free_on_components(lat, field, comps)


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
