"""Approximation functors on lattice modules.

This module implements the two Kan-extension approximations (t_lower /
t_upper: restrict to the join- or meet-dimension <= n subposet and
extend back), their image approximations (gamma_lower / gamma_upper),
the cross effects (cr_lower / cr_upper), total (co)fibers and Koszul
homology of vector-space cubes, and the four degree predicates, each
with a fast path through the canonical maps and a brute-force oracle
path over enumerated bicartesian cubes.

Only the lower side is computed: t_lower by a local sweep over the
lattice, and everything upper as its dual on the opposite lattice
(limits over meet-dimension are colimits over join-dimension there).
Induced maps are the unique solutions against cokernel projections, so
everything downstream is deterministic.  Per-module results are
memoized on the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .lattice import Lattice, LatticeCube, bicartesian_cubes_cached, _bits
from .linalg import (Matrix, factor_through, hstack, cokernel_projection,
                     rank, solve_left, vstack)
from .pmodule import (NatTrans, PersistenceModule, VecCube, cokernel_of,
                      image_of, is_iso, opposite_module, restrict_along_cube)


class NotDownClosed(Exception):
    """The selected subset of the down-set is not down-closed."""


class NotUpClosed(Exception):
    """The selected subset of the up-set is not up-closed."""


class NotAComplex(Exception):
    """A Koszul differential failed d o d = 0 (sign-rule bug)."""


@dataclass
class ApproxResult:
    """An approximation module together with its canonical map.

    ``canonical`` points into F for t_lower / gamma_lower / cr_upper and
    out of F for t_upper / gamma_upper / cr_lower.  For gamma results,
    ``factor`` is the other leg (epi from T for gamma_lower, mono into T
    for gamma_upper) and ``t_result`` the underlying Kan extension.
    """

    kind: str
    module: PersistenceModule
    canonical: NatTrans
    factor: NatTrans | None = None
    t_result: "ApproxResult | None" = None


# -- diagram colimits -----------------------------------------------------------


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
    edges = lat.induced_covers(subset)
    cols: list[list[int]] = []
    p = f.field.p
    for (u, v) in edges:
        t = f.transport_i(u, v)
        for c in range(f.dim_i(u)):
            col = [0] * total
            col[offsets[u] + c] = (-1) % p
            for r in range(f.dim_i(v)):
                col[offsets[v] + r] = t[r, c]
            cols.append(col)
    incidence = Matrix(f.field, total, len(cols),
                       [[col[r] for col in cols] for r in range(total)])
    q = cokernel_projection(incidence)
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


# -- approximations: the lower side, and the upper side as its dual ------------


def t_lower(f: PersistenceModule, n: int) -> ApproxResult:
    """The codegree-n approximation: pointwise colimit of f over elements
    of join-dimension <= n below each point, with the canonical map into f.

    One sweep in a linear extension.  Where jdim(x) <= n the colimit is
    F(x) itself.  Otherwise the index below x is the union of the indices
    below the lower covers w of x, overlapping in the index below w ^ w',
    which is a lower cover of both (the lattice is distributive); so T(x)
    is the cokernel of the sum of T(w ^ w') into the sum of T(w), and the
    cover maps T(w) -> T(x) are the blocks of that projection.
    Naturality of the canonical map is checked; the result, like every
    module, is checked on construction.
    """
    if n < 0:
        raise ValueError("approximation degree must be >= 0")
    cached = f.calc_cache.get(("t_lower", n))
    if cached is not None:
        return cached
    lat, field = f.lattice, f.field
    dims = [0] * lat.n
    eps: list = [None] * lat.n
    maps: dict[tuple[int, int], Matrix] = {}
    for x in lat.topo_order():
        ws = lat.parents_i(x)
        # The canonical map restricted to each T(w): through F(w) into F(x).
        legs = [f.cover_matrix_i(w, x) @ eps[w] for w in ws]
        if len(ws) <= n:
            dims[x] = f.dim_i(x)
            eps[x] = Matrix.identity(field, dims[x])
            maps.update(((w, x), leg) for w, leg in zip(ws, legs))
            continue
        total = sum(dims[w] for w in ws)
        blocks = [Matrix.zeros(field, total, 0)]
        for a in range(len(ws)):
            for b in range(a + 1, len(ws)):
                m = lat.meet_i(ws[a], ws[b])
                blocks.append(vstack([
                    maps[(m, w)] if w == ws[a] else
                    -maps[(m, w)] if w == ws[b] else
                    Matrix.zeros(field, dims[w], dims[m]) for w in ws]))
        q = cokernel_projection(hstack(blocks))
        dims[x] = q.nrows
        offset = 0
        for w in ws:
            maps[(w, x)] = q.take_cols(range(offset, offset + dims[w]))
            offset += dims[w]
        eps[x] = solve_left(q, hstack(legs))
    module = PersistenceModule(
        lat, field, {lat.element(x): d for x, d in enumerate(dims)},
        {(lat.element(u), lat.element(v)): m for (u, v), m in maps.items()})
    canonical = NatTrans(module, f, eps)
    canonical.validate()
    result = ApproxResult("t_lower", module, canonical)
    f.calc_cache[("t_lower", n)] = result
    return result


def gamma_lower(f: PersistenceModule, n: int) -> ApproxResult:
    """The cross-codegree-n approximation: the pointwise image of the
    canonical map t_lower(f, n) -> f, as a submodule of f.

    ``canonical`` is the monomorphism into f, ``factor`` the epimorphism
    from the Kan extension.
    """
    cached = f.calc_cache.get(("gamma_lower", n))
    if cached is not None:
        return cached
    t = t_lower(f, n)
    module, mono = image_of(t.canonical)
    epi_comps = [factor_through(t.canonical.component_i(i), mono.component_i(i))
                 for i in range(f.lattice.n)]
    epi = NatTrans(t.module, module, epi_comps)
    result = ApproxResult("gamma_lower", module, mono, factor=epi, t_result=t)
    f.calc_cache[("gamma_lower", n)] = result
    return result


def cr_lower(f: PersistenceModule, n: int) -> ApproxResult:
    """The n-th cocross effect: the pointwise cokernel of t_lower(f,n) -> f,
    with the canonical epimorphism from f."""
    cached = f.calc_cache.get(("cr_lower", n))
    if cached is not None:
        return cached
    module, epi = cokernel_of(t_lower(f, n).canonical)
    result = ApproxResult("cr_lower", module, epi)
    f.calc_cache[("cr_lower", n)] = result
    return result


def _dual_nat(nt: NatTrans) -> NatTrans:
    """The transposed natural transformation between the opposite modules."""
    return NatTrans(opposite_module(nt.target), opposite_module(nt.source),
                    [nt.component_i(i).transpose() for i in range(nt.source.lattice.n)])


def _upper(kind: str, lower: Callable[[PersistenceModule, int], ApproxResult],
           f: PersistenceModule, n: int) -> ApproxResult:
    """The upper-side result ``kind`` of f: the lower-side result of the
    opposite module, dualised back onto the lattice of f."""
    cached = f.calc_cache.get((kind, n))
    if cached is not None:
        return cached
    low = lower(opposite_module(f), n)
    result = ApproxResult(
        kind, opposite_module(low.module), _dual_nat(low.canonical),
        factor=None if low.factor is None else _dual_nat(low.factor),
        t_result=None if low.t_result is None else t_upper(f, n))
    f.calc_cache[(kind, n)] = result
    return result


def t_upper(f: PersistenceModule, n: int) -> ApproxResult:
    """The degree-n approximation: pointwise limit of f over elements of
    meet-dimension <= n above each point, with the canonical map from f.
    Computed as the dual of t_lower on the opposite module."""
    return _upper("t_upper", t_lower, f, n)


def gamma_upper(f: PersistenceModule, n: int) -> ApproxResult:
    """The cross-degree-n approximation: the pointwise image of the
    canonical map f -> t_upper(f, n).

    ``canonical`` is the epimorphism from f, ``factor`` the monomorphism
    into the Kan extension (the duals of the legs of gamma_lower on the
    opposite module).
    """
    return _upper("gamma_upper", gamma_lower, f, n)


def cr_upper(f: PersistenceModule, n: int) -> ApproxResult:
    """The n-th cross effect: the pointwise kernel of f -> t_upper(f,n),
    with the canonical monomorphism into f (the dual of cr_lower)."""
    return _upper("cr_upper", cr_lower, f, n)


# -- functorial action of the gamma approximations ---------------------------


def gamma_lower_map(alpha: NatTrans, gamma_src: ApproxResult,
                    gamma_tgt: ApproxResult) -> NatTrans:
    """The induced map gamma_lower F -> gamma_lower G of alpha: F -> G,
    obtained by factoring alpha restricted to the image submodule."""
    comps = [factor_through(alpha.component_i(i) @ gamma_src.canonical.component_i(i),
                            gamma_tgt.canonical.component_i(i))
             for i in range(alpha.source.lattice.n)]
    return NatTrans(gamma_src.module, gamma_tgt.module, comps)


def gamma_upper_map(alpha: NatTrans, gamma_src: ApproxResult,
                    gamma_tgt: ApproxResult) -> NatTrans:
    """The induced map gamma_upper F -> gamma_upper G of alpha: F -> G,
    the unique solution against the canonical epimorphisms."""
    comps = [solve_left(gamma_src.canonical.component_i(i),
                        gamma_tgt.canonical.component_i(i) @ alpha.component_i(i))
             for i in range(alpha.source.lattice.n)]
    return NatTrans(gamma_src.module, gamma_tgt.module, comps)


# -- total (co)fibers and Koszul homology -------------------------------------


def tfib(cube: VecCube) -> int:
    """Total fiber dimension: the kernel of the map from the initial vertex
    into the product of the single-bit vertices."""
    if cube.arity == 0:
        return cube.dims[0]
    stacked = vstack([cube.edge(0, b) for b in range(cube.arity)])
    return cube.dims[0] - rank(stacked)


def tcofib(cube: VecCube) -> int:
    """Total cofiber dimension: the cokernel of the map into the terminal
    vertex from the coproduct of the codimension-one vertices."""
    if cube.arity == 0:
        return cube.dims[0]
    full = cube.full_mask
    stacked = hstack([cube.edge(full & ~(1 << b), b) for b in range(cube.arity)])
    return cube.dims[full] - rank(stacked)


@dataclass
class KoszulComplex:
    """The Koszul chain complex of a k-cube: degree i collects the subsets
    of size k-i, with alternating-sign differentials."""

    k: int
    dims: tuple[int, ...]            # chain dimensions, degrees 0..k
    boundaries: tuple[Matrix, ...]   # boundary i+1: degree i+1 -> degree i

    def boundary(self, i: int) -> Matrix | None:
        """The differential from degree i to degree i-1 (None off range)."""
        if 1 <= i <= self.k:
            return self.boundaries[i - 1]
        return None

    def homology(self, i: int) -> int:
        if i < 0 or i > self.k:
            return 0
        d_i = self.boundary(i)
        ker = self.dims[i] - (rank(d_i) if d_i is not None else 0)
        d_next = self.boundary(i + 1)
        return ker - (rank(d_next) if d_next is not None else 0)


def koszul(cube: VecCube) -> KoszulComplex:
    """Build the Koszul complex of a cube and verify d o d = 0.

    Degree i is the direct sum of the cube values on subsets of size
    k - i (subsets ordered by bitmask); the differential out of a subset
    S adds one missing element t_j at a time with sign (-1)^j, the
    missing elements taken in increasing order.
    """
    k = cube.arity
    by_size: list[list[int]] = [[] for _ in range(k + 1)]
    for mask in range(1 << k):
        by_size[mask.bit_count()].append(mask)
    for masks in by_size:
        masks.sort()
    offsets: list[dict[int, int]] = []
    dims = []
    for i in range(k + 1):
        masks = by_size[k - i]
        off: dict[int, int] = {}
        total = 0
        for m in masks:
            off[m] = total
            total += cube.dims[m]
        offsets.append(off)
        dims.append(total)
    p = cube.field.p
    boundaries = []
    for i in range(k):
        # boundary_{i+1}: subsets of size k-i-1 into subsets of size k-i.
        src_masks = by_size[k - i - 1]
        rows = dims[i]
        cols = dims[i + 1]
        data = [[0] * cols for _ in range(rows)]
        for s in src_masks:
            missing = [b for b in range(k) if not (s >> b) & 1]
            for j, t in enumerate(missing):
                sign = 1 if j % 2 == 0 else (p - 1)
                edge = cube.edge(s, t)
                r0 = offsets[i][s | (1 << t)]
                c0 = offsets[i + 1][s]
                for r in range(edge.nrows):
                    row = data[r0 + r]
                    erow = edge.row(r)
                    for c in range(edge.ncols):
                        if erow[c]:
                            row[c0 + c] = (row[c0 + c] + sign * erow[c]) % p
        boundaries.append(Matrix(cube.field, rows, cols, data))
    for i in range(len(boundaries) - 1):
        if not (boundaries[i] @ boundaries[i + 1]).is_zero():
            raise NotAComplex(f"d_{i + 1} o d_{i + 2} != 0")
    return KoszulComplex(k, tuple(dims), tuple(boundaries))


# -- degree predicates --------------------------------------------------------

_FAST = "fast"
_ORACLE = "oracle"


def _fast(method: str) -> bool:
    if method not in (_FAST, _ORACLE):
        raise ValueError(f"unknown predicate method {method!r}")
    return method == _FAST


def _koszul_nonzero(cube: VecCube, *degrees: int) -> bool:
    kx = koszul(cube)
    return any(kx.homology(i) != 0 for i in degrees)


#: Per predicate kind, whether f restricted to a strongly bicartesian
#: cube violates it: codegree needs the low Koszul homology to vanish
#: (cocartesian), degree the top two degrees (cartesian), the cross
#: predicates the total cofiber / fiber.
_CUBE_FAILS: dict[str, Callable[[VecCube], bool]] = {
    "codegree": lambda c: _koszul_nonzero(c, 0, 1),
    "degree": lambda c: _koszul_nonzero(c, c.arity, c.arity - 1),
    "cross_codegree": lambda c: tcofib(c) != 0,
    "cross_degree": lambda c: tfib(c) != 0,
}


def find_failing_cube(f: PersistenceModule, n: int, kind: str) -> LatticeCube | None:
    """First bicartesian (n+1)-cube (in enumeration order) witnessing the
    failure of the given predicate, or None if the predicate holds."""
    fails = _CUBE_FAILS.get(kind)
    if fails is None:
        raise ValueError(f"unknown predicate kind {kind!r}")
    for cube in bicartesian_cubes_cached(f.lattice, n + 1):
        if fails(restrict_along_cube(f, cube)):
            return cube
    return None


def is_codegree(f: PersistenceModule, n: int, method: str = _FAST) -> bool:
    """True iff f sends strongly bicartesian (n+1)-cubes to cocartesian ones.

    Fast path: the canonical map of t_lower(f,n) is an isomorphism.
    Oracle path: enumerate the cubes and test cocartesianness through
    the low Koszul homology of the restricted cube.
    """
    if _fast(method):
        return is_iso(t_lower(f, n).canonical)
    return find_failing_cube(f, n, "codegree") is None


def is_degree(f: PersistenceModule, n: int, method: str = _FAST) -> bool:
    """True iff f sends strongly bicartesian (n+1)-cubes to cartesian ones
    (fast path: the opposite module is codegree n)."""
    if _fast(method):
        return is_codegree(opposite_module(f), n)
    return find_failing_cube(f, n, "degree") is None


def is_cross_codegree(f: PersistenceModule, n: int, method: str = _FAST) -> bool:
    """True iff every strongly bicartesian (n+1)-cube has vanishing total
    cofiber after applying f (fast path: the n-th cocross effect is zero)."""
    if _fast(method):
        return cr_lower(f, n).module.is_zero()
    return find_failing_cube(f, n, "cross_codegree") is None


def is_cross_degree(f: PersistenceModule, n: int, method: str = _FAST) -> bool:
    """True iff every strongly bicartesian (n+1)-cube has vanishing total
    fiber after applying f (fast path: the opposite module is
    cross-codegree n)."""
    if _fast(method):
        return is_cross_codegree(opposite_module(f), n)
    return find_failing_cube(f, n, "cross_degree") is None


def _min_satisfying(f: PersistenceModule, pred) -> int:
    top = f.lattice.poset_dimension()
    for n in range(top + 1):
        if pred(f, n):
            return n
    # Every predicate holds at the poset dimension for a genuine module.
    raise AssertionError(f"the predicate fails at every n <= {top}")


def min_codegree(f: PersistenceModule) -> int:
    """Least n for which f is codegree n (at most the poset dimension)."""
    return _min_satisfying(f, is_codegree)


def min_degree(f: PersistenceModule) -> int:
    return _min_satisfying(f, is_degree)


def min_cross_codegree(f: PersistenceModule) -> int:
    return _min_satisfying(f, is_cross_codegree)


def min_cross_degree(f: PersistenceModule) -> int:
    return _min_satisfying(f, is_cross_degree)
