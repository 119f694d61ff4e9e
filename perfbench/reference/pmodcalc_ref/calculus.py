"""Approximation functors on lattice modules.

This module implements the two Kan-extension approximations (t_lower /
t_upper: restrict to the join- or meet-dimension <= n subposet and
extend back), their image approximations (gamma_lower / gamma_upper),
the cross effects (cr_lower / cr_upper), total (co)fibers and Koszul
homology of vector-space cubes, and the four degree predicates, each
with a fast path through the canonical maps and a brute-force oracle
path over enumerated bicartesian cubes.

Colimits are computed as cokernels of cover-incidence maps, limits as
kernels of the dual maps.  Induced maps on (co)limits are the unique
solutions against the (co)cone projections, so everything downstream is
deterministic.  Per-module results are memoized on the module.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable

from .lattice import LatticeCube, bicartesian_cubes_cached, _bits
from .linalg import (Matrix, factor_through, hstack, kernel_basis,
                     cokernel_projection, rank, solve_left, vstack)
from .pmodule import (NatTrans, PersistenceModule, VecCube, image_of,
                      is_iso, restrict_along_cube)


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
    out of F for t_upper / gamma_upper / cr_lower.  ``witnesses`` holds
    the cocone (resp. cone) matrices per element and diagram vertex for
    the Kan extensions.  For gamma results, ``factor`` is the other leg
    (epi from T for gamma_lower, mono into T for gamma_upper) and
    ``t_result`` the underlying Kan extension.
    """

    kind: str
    module: PersistenceModule
    canonical: NatTrans
    witnesses: dict[str, dict[str, Matrix]] = dc_field(default_factory=dict)
    factor: NatTrans | None = None
    t_result: "ApproxResult | None" = None


# -- diagram (co)limits -------------------------------------------------------


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


def _diagram_limit(f: PersistenceModule, subset: list[int]) -> tuple[int, dict[int, Matrix]]:
    """Limit of f restricted to an induced subposet: the kernel of the map
    sending a tuple (x_v) to transport(u,v)*x_u - x_v per induced cover."""
    lat = f.lattice
    subset = sorted(subset)
    offsets: dict[int, int] = {}
    total = 0
    for v in subset:
        offsets[v] = total
        total += f.dim_i(v)
    edges = lat.induced_covers(subset)
    rows: list[list[int]] = []
    p = f.field.p
    for (u, v) in edges:
        t = f.transport_i(u, v)
        for r in range(f.dim_i(v)):
            row = [0] * total
            row[offsets[v] + r] = (-1) % p
            for c in range(f.dim_i(u)):
                row[offsets[u] + c] = t[r, c]
            rows.append(row)
    mat = Matrix(f.field, len(rows), total, rows)
    k = kernel_basis(mat)
    cones = {v: k.take_rows(range(offsets[v], offsets[v] + f.dim_i(v)))
             for v in subset}
    return k.ncols, cones


def colim_over_downset(f: PersistenceModule, x: str,
                       predicate: Callable[[str], bool]) -> tuple[int, dict[str, Matrix]]:
    """Colimit of f over the selected down-closed part of the down-set of x.

    Raises NotDownClosed when the predicate selects a set that is not
    down-closed inside the interval below x.
    """
    lat = f.lattice
    xi = lat.index(x)
    chosen = [v for v in _bits(lat.downset_mask(xi)) if predicate(lat.element(v))]
    chosen_mask = 0
    for v in chosen:
        chosen_mask |= 1 << v
    for v in chosen:
        below = lat.downset_mask(v) & ~chosen_mask
        if below:
            bad = next(_bits(below))
            raise NotDownClosed(
                f"{lat.element(bad)} <= {lat.element(v)} is missing from the selection")
    dim, cocones = _diagram_colimit(f, chosen)
    return dim, {lat.element(v): m for v, m in cocones.items()}


def lim_over_upset(f: PersistenceModule, x: str,
                   predicate: Callable[[str], bool]) -> tuple[int, dict[str, Matrix]]:
    """Limit of f over the selected up-closed part of the up-set of x."""
    lat = f.lattice
    xi = lat.index(x)
    chosen = [v for v in _bits(lat.upset_mask(xi)) if predicate(lat.element(v))]
    chosen_mask = 0
    for v in chosen:
        chosen_mask |= 1 << v
    for v in chosen:
        above = lat.upset_mask(v) & ~chosen_mask
        if above:
            bad = next(_bits(above))
            raise NotUpClosed(
                f"{lat.element(bad)} >= {lat.element(v)} is missing from the selection")
    dim, cones = _diagram_limit(f, chosen)
    return dim, {lat.element(v): m for v, m in cones.items()}


# -- Kan-extension approximations ---------------------------------------------


def t_lower(f: PersistenceModule, n: int) -> ApproxResult:
    """The codegree-n approximation: pointwise colimit of f over elements
    of join-dimension <= n below each point, with the canonical map into f.

    Induced cover maps send a colimit generator to the class of the same
    generator one step up; they are recovered as the unique solutions
    against the cocone projections.  Naturality of the canonical map and
    local functoriality of the result are checked.
    """
    if n < 0:
        raise ValueError("approximation degree must be >= 0")
    cached = f.calc_cache.get(("t_lower", n))
    if cached is not None:
        return cached
    lat = f.lattice
    subsets = []
    for x in range(lat.n):
        subsets.append([v for v in _bits(lat.downset_mask(x))
                        if lat.jdim_i(v) <= n])
    per_x = [_diagram_colimit(f, subsets[x]) for x in range(lat.n)]
    dims = {lat.element(x): per_x[x][0] for x in range(lat.n)}
    q_full = [hstack([per_x[x][1][v] for v in sorted(subsets[x])])
              if subsets[x] else Matrix.zeros(f.field, per_x[x][0], 0)
              for x in range(lat.n)]
    maps = {}
    for (x, y) in lat.covers_i():
        # Each diagram vertex of x also indexes the diagram of y.
        r = hstack([per_x[y][1][v] for v in sorted(subsets[x])]) \
            if subsets[x] else Matrix.zeros(f.field, per_x[y][0], 0)
        maps[(lat.element(x), lat.element(y))] = solve_left(q_full[x], r)
    module = PersistenceModule(lat, f.field, dims, maps)
    eps_comps = []
    for x in range(lat.n):
        tr = hstack([f.transport_i(v, x) for v in sorted(subsets[x])]) \
            if subsets[x] else Matrix.zeros(f.field, f.dim_i(x), 0)
        eps_comps.append(solve_left(q_full[x], tr))
    eps = NatTrans(module, f, eps_comps)
    module.validate_diamonds()
    eps.validate()
    module._validated = True
    witnesses = {lat.element(x): {lat.element(v): per_x[x][1][v]
                                  for v in subsets[x]} for x in range(lat.n)}
    result = ApproxResult("t_lower", module, eps, witnesses)
    f.calc_cache[("t_lower", n)] = result
    return result


def t_upper(f: PersistenceModule, n: int) -> ApproxResult:
    """The degree-n approximation: pointwise limit of f over elements of
    meet-dimension <= n above each point, with the canonical map from f."""
    if n < 0:
        raise ValueError("approximation degree must be >= 0")
    cached = f.calc_cache.get(("t_upper", n))
    if cached is not None:
        return cached
    lat = f.lattice
    subsets = []
    for x in range(lat.n):
        subsets.append([v for v in _bits(lat.upset_mask(x))
                        if lat.mdim_i(v) <= n])
    per_x = [_diagram_limit(f, subsets[x]) for x in range(lat.n)]
    dims = {lat.element(x): per_x[x][0] for x in range(lat.n)}
    k_full = [vstack([per_x[x][1][v] for v in sorted(subsets[x])])
              if subsets[x] else Matrix.zeros(f.field, 0, per_x[x][0])
              for x in range(lat.n)]
    maps = {}
    for (x, y) in lat.covers_i():
        # Restrict a limit tuple at x to the (smaller) diagram of y.
        sel = vstack([per_x[x][1][v] for v in sorted(subsets[y])]) \
            if subsets[y] else Matrix.zeros(f.field, 0, per_x[x][0])
        maps[(lat.element(x), lat.element(y))] = factor_through(sel, k_full[y])
    module = PersistenceModule(lat, f.field, dims, maps)
    eta_comps = []
    for x in range(lat.n):
        tr = vstack([f.transport_i(x, v) for v in sorted(subsets[x])]) \
            if subsets[x] else Matrix.zeros(f.field, 0, f.dim_i(x))
        eta_comps.append(factor_through(tr, k_full[x]))
    eta = NatTrans(f, module, eta_comps)
    module.validate_diamonds()
    eta.validate()
    module._validated = True
    witnesses = {lat.element(x): {lat.element(v): per_x[x][1][v]
                                  for v in subsets[x]} for x in range(lat.n)}
    result = ApproxResult("t_upper", module, eta, witnesses)
    f.calc_cache[("t_upper", n)] = result
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


def gamma_upper(f: PersistenceModule, n: int) -> ApproxResult:
    """The cross-degree-n approximation: the pointwise image of the
    canonical map f -> t_upper(f, n).

    ``canonical`` is the epimorphism from f, ``factor`` the monomorphism
    into the Kan extension.
    """
    cached = f.calc_cache.get(("gamma_upper", n))
    if cached is not None:
        return cached
    t = t_upper(f, n)
    module, mono = image_of(t.canonical)
    epi_comps = [factor_through(t.canonical.component_i(i), mono.component_i(i))
                 for i in range(f.lattice.n)]
    epi = NatTrans(f, module, epi_comps)
    result = ApproxResult("gamma_upper", module, epi, factor=mono, t_result=t)
    f.calc_cache[("gamma_upper", n)] = result
    return result


def cr_lower(f: PersistenceModule, n: int) -> PersistenceModule:
    """The n-th cocross effect: the pointwise cokernel of t_lower(f,n) -> f."""
    cached = f.calc_cache.get(("cr_lower", n))
    if cached is not None:
        return cached
    from .pmodule import cokernel_of
    module, _ = cokernel_of(t_lower(f, n).canonical)
    f.calc_cache[("cr_lower", n)] = module
    return module


def cr_upper(f: PersistenceModule, n: int) -> PersistenceModule:
    """The n-th cross effect: the pointwise kernel of f -> t_upper(f,n)."""
    cached = f.calc_cache.get(("cr_upper", n))
    if cached is not None:
        return cached
    from .pmodule import kernel_of
    module, _ = kernel_of(t_upper(f, n).canonical)
    f.calc_cache[("cr_upper", n)] = module
    return module


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


def koszul_homology(complex_: KoszulComplex, i: int) -> int:
    return complex_.homology(i)


# -- degree predicates --------------------------------------------------------

_FAST = "fast"
_ORACLE = "oracle"


def _check_method(method: str) -> None:
    if method not in (_FAST, _ORACLE):
        raise ValueError(f"unknown predicate method {method!r}")


def is_codegree(f: PersistenceModule, n: int, method: str = _FAST) -> bool:
    """True iff f sends strongly bicartesian (n+1)-cubes to cocartesian ones.

    Fast path: the canonical map of t_lower(f,n) is an isomorphism.
    Oracle path: enumerate the cubes and test cocartesianness through
    the low Koszul homology of the restricted cube.
    """
    _check_method(method)
    if method == _FAST:
        return is_iso(t_lower(f, n).canonical)
    for cube in bicartesian_cubes_cached(f.lattice, n + 1):
        kx = koszul(restrict_along_cube(f, cube))
        if kx.homology(0) != 0 or kx.homology(1) != 0:
            return False
    return True


def is_degree(f: PersistenceModule, n: int, method: str = _FAST) -> bool:
    """True iff f sends strongly bicartesian (n+1)-cubes to cartesian ones."""
    _check_method(method)
    if method == _FAST:
        return is_iso(t_upper(f, n).canonical)
    k = n + 1
    for cube in bicartesian_cubes_cached(f.lattice, k):
        kx = koszul(restrict_along_cube(f, cube))
        if kx.homology(k) != 0 or kx.homology(k - 1) != 0:
            return False
    return True


def is_cross_codegree(f: PersistenceModule, n: int, method: str = _FAST) -> bool:
    """True iff every strongly bicartesian (n+1)-cube has vanishing total
    cofiber after applying f (fast path: the n-th cocross effect is zero)."""
    _check_method(method)
    if method == _FAST:
        return cr_lower(f, n).is_zero()
    return all(tcofib(restrict_along_cube(f, cube)) == 0
               for cube in bicartesian_cubes_cached(f.lattice, n + 1))


def is_cross_degree(f: PersistenceModule, n: int, method: str = _FAST) -> bool:
    """True iff every strongly bicartesian (n+1)-cube has vanishing total
    fiber after applying f (fast path: the n-th cross effect is zero)."""
    _check_method(method)
    if method == _FAST:
        return cr_upper(f, n).is_zero()
    return all(tfib(restrict_along_cube(f, cube)) == 0
               for cube in bicartesian_cubes_cached(f.lattice, n + 1))


def find_failing_cube(f: PersistenceModule, n: int, kind: str) -> LatticeCube | None:
    """First bicartesian (n+1)-cube (in enumeration order) witnessing the
    failure of the given predicate, or None if the predicate holds."""
    for cube in bicartesian_cubes_cached(f.lattice, n + 1):
        kx = None
        if kind == "codegree":
            kx = koszul(restrict_along_cube(f, cube))
            bad = kx.homology(0) != 0 or kx.homology(1) != 0
        elif kind == "degree":
            kx = koszul(restrict_along_cube(f, cube))
            bad = kx.homology(n + 1) != 0 or kx.homology(n) != 0
        elif kind == "cross_codegree":
            bad = tcofib(restrict_along_cube(f, cube)) != 0
        elif kind == "cross_degree":
            bad = tfib(restrict_along_cube(f, cube)) != 0
        else:
            raise ValueError(f"unknown predicate kind {kind!r}")
        if bad:
            return cube
    return None


def _min_satisfying(f: PersistenceModule, pred) -> int:
    top = f.lattice.poset_dimension()
    for n in range(top + 1):
        if pred(f, n):
            return n
    return top  # unreachable for validated modules; every predicate holds at top


def min_codegree(f: PersistenceModule) -> int:
    """Least n for which f is codegree n (at most the poset dimension)."""
    return _min_satisfying(f, is_codegree)


def min_degree(f: PersistenceModule) -> int:
    return _min_satisfying(f, is_degree)


def min_cross_codegree(f: PersistenceModule) -> int:
    return _min_satisfying(f, is_cross_codegree)


def min_cross_degree(f: PersistenceModule) -> int:
    return _min_satisfying(f, is_cross_degree)
