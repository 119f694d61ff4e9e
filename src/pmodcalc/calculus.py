"""Approximation functors on lattice modules.

This module implements the two Kan-extension approximations (t_lower /
t_upper: restrict to the join- or meet-dimension <= n subposet and
extend back), their image approximations (gamma_lower / gamma_upper),
the cross effects (cr_lower / cr_upper), total (co)fibers and Koszul
homology of cubes, and the four degree predicates.  tfib, tcofib and
koszul read f along a cube of its lattice (a vertex tuple) through f's
transports, with no module built.  find_failing_cube is the brute-force
oracle of the predicates over enumerated bicartesian cubes.

Only the lower side is computed, each by a local sweep over the lattice
in a linear extension, and everything upper as its dual on the opposite
lattice (limits over meet-dimension are colimits over join-dimension
there).  gamma_lower needs no Kan extension: the image of T_n F -> F is
F(x) where jdim(x) <= n and otherwise the sum of F(w -> x) Gamma(w) over
the lower covers w of x, since every y < x lies below one of them.  Each
element's basis and cover maps are read off one echelon form, and each
read-off is checked by its product, which is naturality of the inclusion
on every cover into that element.  The bases are the ones linalg's
echelon convention chose, so everything downstream is deterministic.
Per-module results are memoised on f with no reference to f; the upper
side, the dual of the lower on f^op, keeps no memo.

An approximation that changes nothing returns its input: where the
read-off below says the canonical map is an isomorphism (the kind's
statistic is <= n), the result is f itself with f's one tuple of
identities, shared by every kind and n, and no sweep runs.  The upper
side gets the same through the two-way memo of opposite_module.

_boundary lays the Koszul complex of a k-cube out once per (k, i) and
reads its edges through the map it is given.  The local Koszul complex at
x is the one on parent_cube(x), the Boolean interval from the meet of the
lower covers w_1..w_k of x up to x, whose vertices the lattice stores and
whose edges are covers.  d_1 = C_x = [F(w_a -> x)], the cover maps side
by side, and d_2 = -R_x, the relations t_lower's sweep glues T(x) by
(there built from T's own cover maps).  A cube's Koszul homology is its
Betti tuple, which koszul returns, computed in one pass (_local_betti);
f's memo keeps it per parent cube, which koszul (so betti) and the
degree statistics share.  Any other cube's is computed on each call and not
kept, so f's memo is bounded by its lattice, whatever cubes the oracle
asks of it.

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
jdim(x) with beta^0_x != 0.  Both come from one sweep of f's records
(_read_off), and the degree and cross-degree are the same on the
opposite module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Callable

from .lattice import Lattice, _memo, bicartesian_cubes_cached
from .linalg import (FieldSpec, Matrix, NoFactorization, block_matrix,
                     cokernel_projection, hstack, rank, rref, vstack)
from .pmodule import NatTrans, PersistenceModule, cokernel_of, opposite_module


class NotAComplex(Exception):
    """A Koszul differential, or an image complex's d1 d2, failed d o d = 0,
    or an image H1 representative is not a cycle (sign-rule bug)."""


@dataclass
class ApproxResult:
    """An approximation module together with its canonical map.

    ``canonical`` points into F for t_lower / gamma_lower / cr_upper and
    out of F for t_upper / gamma_upper / cr_lower.  For gamma_lower it is
    the inclusion of the image sweep, whose naturality is checked element
    by element as the sweep reads each basis off its echelon form.

    For t and gamma, ``module`` is f and ``canonical`` its one identity map
    where the read-off says the canonical map is an isomorphism (module
    docstring).  Each call makes a new result from what f's memo keeps."""

    module: PersistenceModule
    canonical: NatTrans


# -- approximations: the lower side, and the upper side as its dual ------------


def t_lower(f: PersistenceModule, n: int) -> ApproxResult:
    """The codegree-n approximation: pointwise colimit of f over elements
    of join-dimension <= n below each point, with the canonical map into
    f.  f itself where min_codegree(f) <= n, else ``_t_sweep``."""
    return _lower("t_lower", _t_sweep, min_codegree, f, n)


def _t_sweep(f: PersistenceModule, n: int) -> ApproxResult:
    """t_lower(f, n) by one sweep in a linear extension, always a new
    module.  Where jdim(x) <= n the colimit is F(x) itself.  Otherwise the
    index below x is the union of the indices below the lower covers w of
    x, overlapping in the index below w ^ w', which is a lower cover of
    both (the lattice is distributive); so T(x) is the cokernel of the sum
    of T(w ^ w') into the sum of T(w), d_2 of the local Koszul complex of
    T at x, and the cover maps T(w) -> T(x) are the blocks of that
    projection.  Where T(x) = 0 for want of input (F(x) = 0 with jdim(x)
    <= n, or every T(w) = 0) nothing is computed, and the cover maps into
    x are the constructor's zeros.  The module is checked on
    construction, and the canonical map's naturality after.
    """
    lat, field = f.lattice, f.field
    dims = [0] * lat.n
    eps: list = [None] * lat.n
    empty = cache(lambda d: Matrix.zeros(field, d, 0))  # one F(x) x 0 per dim, shared
    maps: dict[tuple[int, int], Matrix] = {}
    for x in lat.topo_order():
        ws = lat.parents_i(x)
        if not (f.dim_i(x) if len(ws) <= n else any(dims[w] for w in ws)):
            eps[x] = empty(f.dim_i(x))  # T(x) = 0
            continue
        # The canonical map restricted to each T(w): through F(w) into F(x).
        legs = [f.transport_i(w, x) @ eps[w] for w in ws]
        if len(ws) <= n:
            dims[x] = f.dim_i(x)
            eps[x] = Matrix.identity(field, dims[x])
            maps.update(((w, x), leg) for w, leg in zip(ws, legs))
            continue
        q, free = cokernel_projection(_boundary(
            field, lat.parent_vertices_i(x), 2, lambda m, w: maps[(m, w)],
            dims.__getitem__))
        dims[x] = q.nrows
        offset = 0
        for w in ws:
            maps[(w, x)] = q.take_cols(range(offset, offset + dims[w]))
            offset += dims[w]
        eps[x] = hstack(legs).take_cols(free)  # q is the identity on the columns free
    module = PersistenceModule(lat, field, dims, maps)
    return ApproxResult(module, NatTrans(module, f, eps).validate())


def _lower(kind: str, sweep: Callable[[PersistenceModule, int], ApproxResult],
           statistic: Callable[[PersistenceModule], int],
           f: PersistenceModule, n: int) -> ApproxResult:
    """The lower result ``kind`` of f at n: f with its one identity tuple
    (memo "identity", any kind and n) where ``statistic(f) <= n``, as the
    canonical map is then an isomorphism (module docstring), else the
    checked ``sweep(f, n)``'s (memo (kind, n)); reads trust both (``_of``)."""
    if n < 0:
        raise ValueError("approximation degree must be >= 0")
    if statistic(f) <= n:
        module, components = f, _memo(f.calc_cache, "identity", lambda: tuple(
            Matrix.identity(f.field, f.dim_i(x)) for x in range(f.lattice.n)))
    else:
        def build() -> tuple:
            res = sweep(f, n)
            return res.module, tuple(map(res.canonical.component_i, range(f.lattice.n)))
        module, components = _memo(f.calc_cache, (kind, n), build)
    return ApproxResult(module, NatTrans._of(module, f, components))


def _boundary(field: FieldSpec, vertices: tuple[int, ...], i: int, edge, dim) -> Matrix:
    """d_i of the Koszul complex on the k-cube ``vertices`` (module
    docstring).  Degree i is the sum of the values at the vertices whose
    masks miss an i-subset T of the k bits, in combinations order
    (``_layout``); the block from T to T - {t} is (-1)^j edge(v_T,
    v_(T - {t})), t at position j of T.  ``edge`` and ``dim`` read the
    module the complex is taken of; only blocks between nonzero spaces are
    asked for and written (block_matrix)."""
    faces, cells = _layout(len(vertices).bit_length() - 1, i)
    rows, cols, blocks = [dim(vertices[s]) for s in faces], [], []
    for s, edges in cells:
        if dim(m := vertices[s]):
            for r, odd in edges:
                if rows[r]:
                    e = edge(m, vertices[faces[r]])
                    blocks.append((r, len(cols), -e if odd else e))
            cols.append(dim(m))
    return block_matrix(field, rows, cols, blocks)


@cache
def _layout(k: int, i: int) -> tuple[tuple[int, ...], tuple]:
    """d_i's layout on a k-cube: the rows, (i-1)-subsets as the masks of
    the vertices that miss them (the complement), and per i-subset T its
    mask and, per j, the row of T less its j-th element and j odd."""
    def mask(subset):
        return (1 << k) - 1 - sum(1 << t for t in subset)
    lower = list(combinations(range(k), i - 1))
    row_of = {s: r for r, s in enumerate(lower)}
    return tuple(map(mask, lower)), tuple(
        (mask(s), tuple((row_of[s[:j] + s[j + 1:]], j % 2) for j in range(i)))
        for s in combinations(range(k), i))


def gamma_lower(f: PersistenceModule, n: int) -> ApproxResult:
    """The cross-codegree-n approximation: the image of the canonical map
    T_n F -> F, as a submodule of f with its inclusion as ``canonical``.
    f itself where min_cross_codegree(f) <= n, else ``_gamma_sweep``."""
    return _lower("gamma_lower", _gamma_sweep, min_cross_codegree, f, n)


def _gamma_sweep(f: PersistenceModule, n: int) -> ApproxResult:
    """gamma_lower(f, n) by one sweep in a linear extension, with no Kan
    extension under it, always a new module.  Where jdim(x) <= n,
    Gamma(x) = F(x) with basis B_x = I.  Elsewhere Gamma(x) is spanned by
    the legs L_x = [F(w -> x) B_w] over the lower covers w of x: B_x is
    the pivot columns of L_x, and the cover maps Gamma(w -> x) are the
    column blocks of R, the nonzero rows of rref(L_x).  B_x R = L_x is
    checked at each x (it is naturality of the inclusion on every cover
    into x) and raises NoFactorization.  Where F(x) = 0, Gamma(x) = 0 and
    nothing is computed.
    """
    lat, field = f.lattice, f.field
    bases: list = [Matrix.zeros(field, 0, 0)] * lat.n  # Gamma(x) = 0 unless set
    maps: dict[tuple[int, int], Matrix] = {}
    for x in lat.topo_order():
        if not f.dim_i(x):
            continue
        ws = lat.parents_i(x)
        legs = [f.transport_i(w, x) @ bases[w] for w in ws]
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
    return ApproxResult(module, NatTrans(module, f, bases))


def cr_lower(f: PersistenceModule, n: int) -> ApproxResult:
    """The n-th cocross effect: the pointwise cokernel of t_lower(f,n) -> f,
    computed as the cokernel of the inclusion gamma_lower(f, n) -> f (the
    same image), with the canonical epimorphism from f (not memoised)."""
    return ApproxResult(*cokernel_of(gamma_lower(f, n).canonical))


def _dual_nat(nt: NatTrans) -> NatTrans:
    """The transposed natural transformation between the opposite modules."""
    return NatTrans(opposite_module(nt.target), opposite_module(nt.source),
                    [nt.component_i(i).transpose() for i in range(nt.source.lattice.n)])


def _upper(lower: Callable[[PersistenceModule, int], ApproxResult],
           f: PersistenceModule, n: int) -> ApproxResult:
    """An upper-side result of f: the lower-side result of the opposite
    module (memoised there, not here), dualised back onto the lattice of f."""
    low = lower(opposite_module(f), n)
    return ApproxResult(opposite_module(low.module), _dual_nat(low.canonical))


def t_upper(f: PersistenceModule, n: int) -> ApproxResult:
    """The degree-n approximation: pointwise limit of f over elements of
    meet-dimension <= n above each point, with the canonical map from f.
    Computed as the dual of t_lower on the opposite module."""
    return _upper(t_lower, f, n)


def gamma_upper(f: PersistenceModule, n: int) -> ApproxResult:
    """The cross-degree-n approximation: the pointwise image of the
    canonical map f -> t_upper(f, n), with the canonical epimorphism from
    f (the dual of gamma_lower's inclusion on the opposite module)."""
    return _upper(gamma_lower, f, n)


def cr_upper(f: PersistenceModule, n: int) -> ApproxResult:
    """The n-th cross effect: the pointwise kernel of f -> t_upper(f,n),
    with the canonical monomorphism into f (the dual of cr_lower)."""
    return _upper(cr_lower, f, n)


# -- total (co)fibers and Koszul homology of cubes -----------------------------


def _check_cube(lat: Lattice, cube: tuple[int, ...]) -> int:
    """The k of a k-cube of lat: 2^k element indices by subset mask with
    cube[s] <= cube[s | 1 << b] on every edge, else ValueError.  A parent
    cube as the lattice stores it is taken as it stands."""
    n = len(cube)
    k = n.bit_length() - 1
    if n and cube[-1] in range(lat.n) and cube is lat.parent_vertices_i(cube[-1]):
        return k
    if not n or n & (n - 1) or min(cube) < 0 or max(cube) >= lat.n or not all(
            lat.leq_i(cube[s], cube[t]) for s, t in _edges(k)):
        raise ValueError(f"{cube!r} is not a cube of {lat!r}: 2^k element "
                         "indices by subset mask, each edge going up")
    return k


@cache
def _edges(k: int) -> tuple[tuple[int, int], ...]:
    """The edges (s, s | 1 << b) of a k-cube, b not in s, by subset mask."""
    return tuple((s, s | 1 << b) for s in range(1 << k) for b in range(k) if not s >> b & 1)


def tfib(f: PersistenceModule, cube: tuple[int, ...]) -> int:
    """Total fiber dimension of f on a cube of its lattice: the kernel of
    the map from the initial vertex into the product of the single-bit
    vertices, stacked from f's transports."""
    k, bottom = _check_cube(f.lattice, cube), cube[0]
    legs = [f.transport_i(bottom, cube[1 << b]) for b in range(k)]
    return f.dim_i(bottom) - (rank(vstack(legs)) if k else 0)


def tcofib(f: PersistenceModule, cube: tuple[int, ...]) -> int:
    """Total cofiber dimension of f on a cube of its lattice: the cokernel
    of the map into the terminal vertex from the coproduct of the
    codimension-one vertices, stacked from f's transports."""
    k, top = _check_cube(f.lattice, cube), cube[-1]
    legs = [f.transport_i(cube[len(cube) - 1 - (1 << b)], top) for b in range(k)]
    return f.dim_i(top) - (rank(hstack(legs)) if k else 0)


def koszul(f: PersistenceModule, cube: tuple[int, ...]) -> tuple[int, ...]:
    """The Koszul homology of f on a cube of its lattice, its Betti tuple
    (dim H_0, .., dim H_k), kept in f's memo for a parent cube only.

    ``cube`` is any k-cube of f's lattice (``_check_cube``), else
    ValueError before anything is read.  On parent_cube(x) this is the
    local Koszul complex at x (module docstring).  A cube zero at every
    vertex returns with nothing computed.  NotAComplex when d o d != 0,
    which functoriality of f rules out short of a sign or layout bug.
    """
    k = _check_cube(f.lattice, cube)
    if not any(map(f.dim_i, cube)):
        return (0,) * (k + 1)
    return _local_betti(f, cube)


def _local_betti(f: PersistenceModule, cube: tuple[int, ...]) -> tuple[int, ...]:
    """(beta^0, .., beta^k) of f on a k-cube in one pass, beta^j = c_j - r_j
    - r_(j+1) by chain dims c and boundary ranks r.  d_(j+1) is built (edges
    are f's transports) and ranked only where d_j leaves a kernel, and checked
    against d_j, built for that check if the short cut skipped it.  Kept in
    f's memo for a parent cube as the lattice stores it, and for no other."""
    def complex_() -> tuple[int, ...]:
        k, below = len(cube).bit_length() - 1, None  # below: d_j, if built
        chain = [(f.dim_i(cube[-1]), 0)]  # (c_j, r_j)
        for j in range(k):
            if chain[j][0] == chain[j][1]:  # d_j leaves no kernel, so d_(j+1) = 0
                d, cr = None, (sum(f.dim_i(cube[s]) for s, _ in _layout(k, j + 1)[1]), 0)
            else:
                d = _boundary(f.field, cube, j + 1, f.transport_i, f.dim_i)
                if j and d.ncols:
                    below = below or _boundary(f.field, cube, j, f.transport_i, f.dim_i)
                    if not (below @ d).is_zero():
                        raise NotAComplex(f"d_{j} o d_{j + 1} != 0 on the cube with top "
                                          f"{f.lattice.element(cube[-1])}")
                cr = d.ncols, rank(d)
            chain.append(cr)
            below = d
        return tuple(c - r - r1 for (c, r), (_, r1) in zip(chain, chain[1:] + [(0, 0)]))
    if cube is f.lattice.parent_vertices_i(cube[-1]):
        return _memo(_memo(f.calc_cache, "koszul", dict), cube, complex_)
    return complex_()


# -- degree predicates --------------------------------------------------------


#: Per predicate kind, whether f on a strongly bicartesian cube violates
#: it: codegree needs the low Koszul homology to vanish (cocartesian),
#: degree the top two degrees (cartesian), the cross predicates the total
#: cofiber / fiber.
_CUBE_FAILS: dict[str, Callable[[PersistenceModule, tuple[int, ...]], bool]] = {
    "codegree": lambda f, c: any(koszul(f, c)[:2]),
    "degree": lambda f, c: any(koszul(f, c)[-2:]),
    "cross_codegree": lambda f, c: tcofib(f, c) != 0,
    "cross_degree": lambda f, c: tfib(f, c) != 0,
}


def find_failing_cube(f: PersistenceModule, n: int, kind: str) -> tuple[int, ...] | None:
    """First bicartesian (n+1)-cube (in enumeration order) witnessing the
    failure of the given predicate, or None if the predicate holds.  This
    is the brute-force oracle of the four is_* predicates below."""
    fails = _CUBE_FAILS.get(kind)
    if fails is None:
        raise ValueError(f"unknown predicate kind {kind!r}")
    for cube in bicartesian_cubes_cached(f.lattice, n + 1):
        if fails(f, cube):
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
    def sweep() -> tuple[int, int]:
        lat = f.lattice
        codegree = cross = 0
        for x in lat.jdim_order():
            ws = lat.parents_i(x)
            k = len(ws)
            if k <= cross:
                break
            if not (f.dim_i(x) or any(map(f.dim_i, ws))):
                continue  # beta^0_x = beta^1_x = 0
            beta = _local_betti(f, lat.parent_vertices_i(x))
            if beta[0]:
                codegree, cross = max(codegree, k), k
            elif k > codegree and beta[1]:
                codegree = k
        return codegree, cross
    return _memo(f.calc_cache, "read_off", sweep)


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
