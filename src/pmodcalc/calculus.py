"""Approximation functors on lattice modules.

This module implements the two Kan-extension approximations (t_lower /
t_upper: restrict to the join- or meet-dimension <= n subposet and
extend back), their image approximations (gamma_lower / gamma_upper),
the cross effects (cr_lower / cr_upper), total (co)fibers and Koszul
homology of cubes, and the four degree predicates.  A cube is a module on
the Boolean lattice {0,1}^k, as restrict_along_cube returns it.
find_failing_cube is the brute-force oracle of the predicates over
enumerated bicartesian cubes.

Only the lower side is computed, each by a local sweep over the lattice
in a linear extension, and everything upper as its dual on the opposite
lattice (limits over meet-dimension are colimits over join-dimension
there).  gamma_lower needs no Kan extension: the image of T_n F -> F is
F(x) where jdim(x) <= n and otherwise the sum of F(w -> x) Gamma(w) over
the lower covers w of x, since every y < x lies below one of them.  Each
element's basis and cover maps are read off one echelon form, and each
read-off is checked by its product, which is naturality of the inclusion
on every cover into that element.  Induced maps are the unique solutions
against the bases linalg chose, so everything downstream is
deterministic.  Per-module results are memoized on the module.

The local Koszul complex at x is the Koszul complex of F on
parent_cube(x), the Boolean interval from the meet of the lower covers
w_1..w_k of x up to x; each of its edges is a cover, so _boundary reads
every boundary d_i straight off the cover maps.  d_1 = C_x = [F(w_a ->
x)], the cover maps side by side, and d_2 = -R_x, the relations t_lower's
sweep glues T(x) by (there built from T's own cover maps).  koszul builds
the whole complex, on a parent cube of F or on a cube module's whole
lattice, and resolution's betti takes its homology at every element.

The degree statistics and predicates build neither T_n F nor Gamma_n F.
With C_x and R_x built from F's own cover maps, induct along the
linear extension: if T_n F -> F is an isomorphism below x and k > n,
then T_n(x) = coker R_x and the canonical map at x is the one C_x
induces; im R_x lies in ker C_x, so it is an isomorphism exactly when
C_x is onto and ker C_x = im R_x.  Those two conditions are beta^0_x =
dim F(x) - rank C_x = 0 and beta^1_x = dim ker C_x - rank R_x = 0, the
Koszul H_0 and H_1 of parent_cube(x).  So min_codegree is the largest
jdim(x) with beta^0_x or beta^1_x != 0.  By gamma_lower's induction, if
Gamma_n F = F below x and k > n, Gamma_n(x) is the image of C_x, which
is F(x) exactly when beta^0_x = 0; so min_cross_codegree is the largest
jdim(x) with beta^0_x != 0.  Both come from one sweep of the cover maps
of f (_read_off), and the degree and cross-degree are the same on the
opposite module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .lattice import LatticeCube, bicartesian_cubes_cached, boolean_lattice
from .linalg import (Matrix, NoFactorization, factor_through, hstack,
                     cokernel_projection, rank, rref, solve_left, vstack)
from .pmodule import (NatTrans, PersistenceModule, cokernel_of,
                      opposite_module, restrict_along_cube)


class NotAComplex(Exception):
    """A Koszul differential failed d o d = 0 (sign-rule bug)."""


@dataclass
class ApproxResult:
    """An approximation module together with its canonical map.

    ``canonical`` points into F for t_lower / gamma_lower / cr_upper and
    out of F for t_upper / gamma_upper / cr_lower.  For gamma_lower it is
    the inclusion of the image sweep, whose naturality is checked element
    by element as the sweep reads each basis off its echelon form.
    """

    kind: str
    module: PersistenceModule
    canonical: NatTrans


# -- approximations: the lower side, and the upper side as its dual ------------


def t_lower(f: PersistenceModule, n: int) -> ApproxResult:
    """The codegree-n approximation: pointwise colimit of f over elements
    of join-dimension <= n below each point, with the canonical map into f.

    One sweep in a linear extension.  Where jdim(x) <= n the colimit is
    F(x) itself.  Otherwise the index below x is the union of the indices
    below the lower covers w of x, overlapping in the index below w ^ w',
    which is a lower cover of both (the lattice is distributive); so T(x)
    is the cokernel of the sum of T(w ^ w') into the sum of T(w), d_2 of
    the local Koszul complex of T at x, and the cover maps T(w) -> T(x)
    are the blocks of that projection.  Where T(x) = 0 for want of input
    (F(x) = 0 with jdim(x) <= n, or every T(w) = 0) nothing is computed,
    and the cover maps into x are the constructor's zeros.
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
        if not (f.dim_i(x) if len(ws) <= n else any(dims[w] for w in ws)):
            eps[x] = Matrix.zeros(field, f.dim_i(x), 0)  # T(x) = 0
            continue
        # The canonical map restricted to each T(w): through F(w) into F(x).
        legs = [f.cover_matrix_i(w, x) @ eps[w] for w in ws]
        if len(ws) <= n:
            dims[x] = f.dim_i(x)
            eps[x] = Matrix.identity(field, dims[x])
            maps.update(((w, x), leg) for w, leg in zip(ws, legs))
            continue
        q, free = cokernel_projection(_boundary(
            f, x, 2, lambda m, w: maps[(m, w)], dims.__getitem__))
        dims[x] = q.nrows
        offset = 0
        for w in ws:
            maps[(w, x)] = q.take_cols(range(offset, offset + dims[w]))
            offset += dims[w]
        # q is the identity on the columns free; canonical.validate() checks.
        eps[x] = hstack(legs).take_cols(free)
    module = PersistenceModule(lat, field, dims, maps)
    canonical = NatTrans(module, f, eps)
    canonical.validate()
    result = ApproxResult("t_lower", module, canonical)
    f.calc_cache[("t_lower", n)] = result
    return result


def _boundary(f: PersistenceModule, x: int, i: int, cover, dim) -> Matrix:
    """d_i of the local Koszul complex at x (module docstring).  With ws
    the lower covers of x, degree i is the sum of the values at the meets
    of the i-subsets T of ws (x for T empty), subsets in combinations
    order; the block from T to T - {t} is (-1)^j cover(^T, ^(T - {t})),
    t at position j of T.  ``cover`` and ``dim`` read the module the
    complex is taken of, and are not asked for a zero row or column."""
    lat, field, ws = f.lattice, f.field, f.lattice.parents_i(x)

    def meet(subset):
        v = x
        for t in subset:
            v = lat.meet_i(v, ws[t])
        return v

    lower = list(combinations(range(len(ws)), i - 1))
    row_of = {s: r for r, s in enumerate(lower)}
    faces = [meet(s) for s in lower]
    blocks = [Matrix.zeros(field, sum(map(dim, faces)), 0)]
    for subset in combinations(range(len(ws)), i):
        m = meet(subset)
        if not dim(m):
            continue
        column = [Matrix.zeros(field, dim(v), dim(m)) for v in faces]
        for j in range(i):
            r = row_of[subset[:j] + subset[j + 1:]]
            if dim(faces[r]):
                edge = cover(m, faces[r])
                column[r] = -edge if j % 2 else edge
        blocks.append(vstack(column))
    return hstack(blocks)


def gamma_lower(f: PersistenceModule, n: int) -> ApproxResult:
    """The cross-codegree-n approximation: the image of the canonical map
    T_n F -> F, as a submodule of f with its inclusion as ``canonical``.

    One sweep in a linear extension, with no Kan extension under it.
    Where jdim(x) <= n, Gamma(x) = F(x) with basis B_x = I.  Elsewhere
    Gamma(x) is spanned by the legs L_x = [F(w -> x) B_w] over the lower
    covers w of x: B_x is the pivot columns of L_x, and the cover maps
    Gamma(w -> x) are the column blocks of R, the nonzero rows of
    rref(L_x).  B_x R = L_x is checked at each x (it is naturality of the
    inclusion on every cover into x) and raises NoFactorization.  Where
    F(x) = 0, Gamma(x) = 0 and nothing is computed.
    """
    if n < 0:
        raise ValueError("approximation degree must be >= 0")
    cached = f.calc_cache.get(("gamma_lower", n))
    if cached is not None:
        return cached
    lat, field = f.lattice, f.field
    bases: list = [None] * lat.n
    maps: dict[tuple[int, int], Matrix] = {}
    for x in lat.topo_order():
        if not f.dim_i(x):
            bases[x] = Matrix.zeros(field, 0, 0)
            continue
        ws = lat.parents_i(x)
        legs = [f.cover_matrix_i(w, x) @ bases[w] for w in ws]
        if len(ws) <= n:
            bases[x] = Matrix.identity(field, f.dim_i(x))
            blocks = legs
        else:
            stacked = hstack(legs)
            red, pivots = rref(stacked)
            bases[x] = stacked.take_cols(pivots)
            reduced = red.take_rows(range(len(pivots)))
            if bases[x] @ reduced != stacked:
                raise NoFactorization(
                    f"gamma_lower: the legs into {lat.element(x)} do not "
                    "factor through their pivot columns")
            blocks, offset = [], 0
            for leg in legs:
                blocks.append(reduced.take_cols(range(offset, offset + leg.ncols)))
                offset += leg.ncols
        maps.update(((w, x), m) for w, m in zip(ws, blocks))
    module = PersistenceModule(lat, field, [b.ncols for b in bases], maps)
    result = ApproxResult("gamma_lower", module, NatTrans(module, f, bases))
    f.calc_cache[("gamma_lower", n)] = result
    return result


def cr_lower(f: PersistenceModule, n: int) -> ApproxResult:
    """The n-th cocross effect: the pointwise cokernel of t_lower(f,n) -> f,
    computed as the cokernel of the inclusion gamma_lower(f, n) -> f (the
    same image), with the canonical epimorphism from f."""
    cached = f.calc_cache.get(("cr_lower", n))
    if cached is not None:
        return cached
    module, epi = cokernel_of(gamma_lower(f, n).canonical)
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
    result = ApproxResult(kind, opposite_module(low.module), _dual_nat(low.canonical))
    f.calc_cache[(kind, n)] = result
    return result


def t_upper(f: PersistenceModule, n: int) -> ApproxResult:
    """The degree-n approximation: pointwise limit of f over elements of
    meet-dimension <= n above each point, with the canonical map from f.
    Computed as the dual of t_lower on the opposite module."""
    return _upper("t_upper", t_lower, f, n)


def gamma_upper(f: PersistenceModule, n: int) -> ApproxResult:
    """The cross-degree-n approximation: the pointwise image of the
    canonical map f -> t_upper(f, n), with the canonical epimorphism from
    f (the dual of gamma_lower's inclusion on the opposite module)."""
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


# -- total (co)fibers and Koszul homology of cubes -----------------------------


def _arity(cube: PersistenceModule) -> int:
    """The k of a cube: a module on boolean_lattice(k), as restrict_along_cube
    returns it, whose value at subset mask m is dim_i(m) and whose edge adding
    bit t to s is cover_matrix_i(s, s | 1 << t).  ValueError on other lattices."""
    k = cube.lattice.poset_dimension()
    if cube.lattice != boolean_lattice(k):
        raise ValueError(f"{cube.lattice!r} is not the Boolean lattice {{0,1}}^{k}")
    return k


def tfib(cube: PersistenceModule) -> int:
    """Total fiber dimension: the kernel of the map from the initial vertex
    into the product of the single-bit vertices."""
    k = _arity(cube)
    if k == 0:
        return cube.dim_i(0)
    stacked = vstack([cube.cover_matrix_i(0, 1 << b) for b in range(k)])
    return cube.dim_i(0) - rank(stacked)


def tcofib(cube: PersistenceModule) -> int:
    """Total cofiber dimension: the cokernel of the map into the terminal
    vertex from the coproduct of the codimension-one vertices."""
    k = _arity(cube)
    if k == 0:
        return cube.dim_i(0)
    full = (1 << k) - 1
    stacked = hstack([cube.cover_matrix_i(full & ~(1 << b), full) for b in range(k)])
    return cube.dim_i(full) - rank(stacked)


@dataclass
class KoszulComplex:
    """A Koszul chain complex on a k-cube: degree i collects the vertices
    at the meets of i of the lower covers of the top, with alternating-sign
    differentials.  The rank of each boundary is taken once."""

    k: int
    dims: tuple[int, ...]            # chain dimensions, degrees 0..k
    boundaries: tuple[Matrix, ...]   # boundary i+1: degree i+1 -> degree i
    ranks: tuple[int, ...]           # rank of boundary i+1

    def boundary(self, i: int) -> Matrix | None:
        """The differential from degree i to degree i-1 (None off range)."""
        if 1 <= i <= self.k:
            return self.boundaries[i - 1]
        return None

    def homology(self, i: int) -> int:
        if i < 0 or i > self.k or not self.dims[i]:
            return 0
        return (self.dims[i] - (self.ranks[i - 1] if i else 0)
                - (self.ranks[i] if i < self.k else 0))


def koszul(f: PersistenceModule, cube: LatticeCube | None = None) -> KoszulComplex:
    """The Koszul complex of f on a cube, with d o d = 0 checked.

    With ``cube`` the parent cube of an element x of f's lattice, this is
    the local Koszul complex at x (module docstring), every edge a cover;
    with none, f must be a cube (a module on {0,1}^k, as
    restrict_along_cube returns it) and the complex is that of its whole
    lattice, x its top.  The boundaries are _boundary's.  A complex zero
    at every vertex is returned with nothing computed; otherwise a cube
    that is not a parent cube is a ValueError.  NotAComplex when
    d o d != 0, which the cover-diamond check of every module rules out
    short of a sign or layout bug.
    """
    lat = f.lattice
    if cube is None:
        k = _arity(f)
        x, vertices = lat.n - 1, range(lat.n)
    elif cube.lattice is not lat:
        raise ValueError(f"{cube.describe()} is not a cube of the module's lattice")
    else:
        k, x, vertices = cube.arity, cube.assign[-1], cube.assign
    if not any(map(f.dim_i, vertices)):
        empty = Matrix.zeros(f.field, 0, 0)
        return KoszulComplex(k, (0,) * (k + 1), (empty,) * k, (0,) * k)
    if cube is not None and lat.parents_i(x) != tuple(
            cube.assign[cube.full_mask ^ 1 << b] for b in range(k)):
        raise ValueError(f"{cube.describe()} is not the parent cube of its top")
    boundaries = [_boundary(f, x, i, f.cover_matrix_i, f.dim_i) for i in range(1, k + 1)]
    for i in range(len(boundaries) - 1):
        if not (boundaries[i] @ boundaries[i + 1]).is_zero():
            raise NotAComplex(f"d_{i + 1} o d_{i + 2} != 0")
    dims = (f.dim_i(x),) + tuple(d.ncols for d in boundaries)
    return KoszulComplex(k, dims, tuple(boundaries), tuple(map(rank, boundaries)))


# -- degree predicates --------------------------------------------------------


def _koszul_nonzero(cube: PersistenceModule, low: bool) -> bool:
    """Whether Koszul homology is nonzero in degree 0 or 1 (low) or in
    degree k or k-1 (not low)."""
    kx = koszul(cube)
    degrees = (0, 1) if low else (kx.k, kx.k - 1)
    return any(kx.homology(i) != 0 for i in degrees)


#: Per predicate kind, whether f restricted to a strongly bicartesian
#: cube violates it: codegree needs the low Koszul homology to vanish
#: (cocartesian), degree the top two degrees (cartesian), the cross
#: predicates the total cofiber / fiber.
_CUBE_FAILS: dict[str, Callable[[PersistenceModule], bool]] = {
    "codegree": lambda c: _koszul_nonzero(c, True),
    "degree": lambda c: _koszul_nonzero(c, False),
    "cross_codegree": lambda c: tcofib(c) != 0,
    "cross_degree": lambda c: tfib(c) != 0,
}


def find_failing_cube(f: PersistenceModule, n: int, kind: str) -> LatticeCube | None:
    """First bicartesian (n+1)-cube (in enumeration order) witnessing the
    failure of the given predicate, or None if the predicate holds.  This
    is the brute-force oracle of the four is_* predicates below."""
    fails = _CUBE_FAILS.get(kind)
    if fails is None:
        raise ValueError(f"unknown predicate kind {kind!r}")
    for cube in bicartesian_cubes_cached(f.lattice, n + 1):
        if fails(restrict_along_cube(f, cube)):
            return cube
    return None


def _check_degree(n: int) -> None:
    if n < 0:
        raise ValueError("degree must be >= 0")


def is_codegree(f: PersistenceModule, n: int) -> bool:
    """True iff f sends strongly bicartesian (n+1)-cubes to cocartesian
    ones, that is the canonical map of t_lower(f,n) is an isomorphism:
    min_codegree(f) <= n."""
    _check_degree(n)
    return min_codegree(f) <= n


def is_degree(f: PersistenceModule, n: int) -> bool:
    """True iff f sends strongly bicartesian (n+1)-cubes to cartesian ones,
    that is the opposite module is codegree n: min_degree(f) <= n."""
    _check_degree(n)
    return min_degree(f) <= n


def is_cross_codegree(f: PersistenceModule, n: int) -> bool:
    """True iff every strongly bicartesian (n+1)-cube has vanishing total
    cofiber after applying f, that is gamma_lower(f, n) = f:
    min_cross_codegree(f) <= n."""
    _check_degree(n)
    return min_cross_codegree(f) <= n


def is_cross_degree(f: PersistenceModule, n: int) -> bool:
    """True iff every strongly bicartesian (n+1)-cube has vanishing total
    fiber after applying f, that is the opposite module is cross-codegree
    n: min_cross_degree(f) <= n."""
    _check_degree(n)
    return min_cross_degree(f) <= n


#: The four predicates, keyed by the kind that find_failing_cube decides.
PREDICATES: dict[str, Callable[[PersistenceModule, int], bool]] = {
    "codegree": is_codegree, "degree": is_degree,
    "cross_codegree": is_cross_codegree, "cross_degree": is_cross_degree}


def _read_off(f: PersistenceModule) -> tuple[int, int]:
    """(min_codegree(f), min_cross_codegree(f)), memoised: the largest
    jdim(x) with beta^0_x or beta^1_x != 0, and with beta^0_x != 0 (the
    module docstring says why).  Elements are visited by decreasing jdim,
    and the sweep stops at the first that cannot raise either maximum.
    """
    cached = f.calc_cache.get("read_off")
    if cached is not None:
        return cached
    lat = f.lattice
    codegree = cross = 0
    for x in sorted(range(lat.n), key=lambda x: len(lat.parents_i(x)), reverse=True):
        ws = lat.parents_i(x)
        k = len(ws)
        if k <= cross:
            break
        dx, total = f.dim_i(x), sum(f.dim_i(w) for w in ws)
        rank_c = rank(_boundary(f, x, 1, f.cover_matrix_i, f.dim_i)) if dx and total else 0
        kernel = total - rank_c
        if dx > rank_c:
            codegree, cross = max(codegree, k), k
        elif k > codegree and kernel and kernel > rank(
                _boundary(f, x, 2, f.cover_matrix_i, f.dim_i)):
            codegree = k
    f.calc_cache["read_off"] = result = (codegree, cross)
    return result


def min_codegree(f: PersistenceModule) -> int:
    """Least n for which f is codegree n, read off as the module docstring
    says."""
    return _read_off(f)[0]


def min_degree(f: PersistenceModule) -> int:
    """Least n for which f is degree n: min_codegree of the opposite module."""
    return _read_off(opposite_module(f))[0]


def min_cross_codegree(f: PersistenceModule) -> int:
    """Least n for which f is cross-codegree n, read off as the module
    docstring says."""
    return _read_off(f)[1]


def min_cross_degree(f: PersistenceModule) -> int:
    """Least n for which f is cross-degree n: min_cross_codegree of the
    opposite module."""
    return _read_off(opposite_module(f))[1]
