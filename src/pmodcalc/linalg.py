"""Exact linear algebra over a prime field F_p.

Everything downstream (persistence modules, Kan extensions, Koszul
homology) reduces to a handful of primitives implemented here: reduced
row echelon form, rank, kernel/image bases, cokernel projections and
exact solving.  Matrices are immutable and stored row-major, entries
reduced mod p, so all results are exact for any prime modulus below
2**31.  Reduction always picks the leftmost pivot in the first nonzero
row, which makes every derived basis (and hence every module built on
top of this layer) deterministic.

Zero-dimensional shapes (0 x n, n x 0) are first-class citizens: they
encode maps to and from the zero space and show up constantly as cover
maps of sparse modules, and identities as components of approximations
that change nothing.  ``Matrix.identity`` is one instance per (p, n), and
by ``_is_identity`` (square, with its rows) products by I, ``rank(I)`` and
``solve(I, b)``, like empty shapes and a zero b, reduce and multiply nothing.

``Matrix(...)`` is the one checked constructor (entries reduced mod p
with ``operator.index`` semantics, shape checked), and all input from
outside this module goes through it.  The results linalg builds itself
are reduced by construction and use the unchecked ``Matrix._of``.

Storage.  Over GF(2) a row is an int bitmask, entry j at bit j, packed
through bytes by the constructor; elimination and products XOR whole rows,
``hstack`` and ``block_matrix`` shift, and ``transpose`` / ``take_cols`` read
each row's binary numeral, with no per-bit Python loop.  Rows are unpacked
only where a tuple is read (``row``, ``rows``, ``to_lists``, ``m[i, j]``:
PMOD printing and the tests).  Over odd p a row is a tuple of ints.
``block_matrix`` (``direct_sum``, Koszul boundaries) writes nonzero blocks only.

Maps induced on a basis chosen here are read off the echelon form that
chose it (F: free columns, P: pivot columns of the rref).  The
projection q of ``cokernel_projection`` is the identity on the columns F
returned with it, so h*q = r forces h = r.take_cols(F); and m = C*R for
C = m.take_cols(P), the image basis, and R the first rank(m) rows of
rref(m).  Callers check each read-off by its defining product; ``solve``
stays the general path.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence


class NoFactorization(Exception):
    """A linear system g*h = f (or h*q = r) has no solution."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The prime field F_p, with 2 <= p < 2**31 (checked)."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or not (2 <= self.p < 2**31):
            raise ValueError(f"field modulus out of range: {self.p!r}")
        if not _is_prime(self.p):
            raise ValueError(f"field modulus is not prime: {self.p}")

    def inv(self, a: int) -> int:
        return pow(a, -1, self.p)


GF2 = FieldSpec(2)


class Matrix:
    """An immutable rows x cols matrix over F_p, row-major (see Storage above)."""

    __slots__ = ("field", "nrows", "ncols", "_data")

    def __init__(self, field: FieldSpec, nrows: int, ncols: int,
                 entries: Sequence[Sequence[int]] | None = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix shape")
        p = field.p
        if entries is None:
            data = Matrix.zeros(field, nrows, ncols)._data
        else:
            if len(entries) != nrows:
                raise ValueError(f"expected {nrows} rows, got {len(entries)}")
            for row in entries:
                if len(row) != ncols:
                    raise ValueError(f"expected {ncols} cols, got {len(row)}")
            data = (tuple(map(_bits_of, entries)) if p == 2 else
                    tuple(tuple([operator.index(x) % p for x in row]) for row in entries))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "_data", data)

    @classmethod
    def _of(cls, field: FieldSpec, nrows: int, ncols: int, data: tuple) -> "Matrix":
        """Trusted construction: ``data`` must be ``nrows`` rows in the
        storage of the field (bitmasks below 2**ncols over GF(2), tuples of
        ``ncols`` reduced entries otherwise).  Nothing is checked."""
        m = object.__new__(cls)
        _set_field(m, field)
        _set_nrows(m, nrows)
        _set_ncols(m, ncols)
        _set_data(m, data)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- construction helpers ------------------------------------------

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix shape")
        return cls._of(field, nrows, ncols,
                       (0,) * nrows if field.p == 2 else ((0,) * ncols,) * nrows)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        """I_n: one shared instance per (p, n), safe as a Matrix is immutable."""
        if (m := _IDENTITIES.get((field.p, n))) is None:
            if n < 0:
                raise ValueError("negative matrix shape")
            units = [1 << i for i in range(n)]
            m = _IDENTITIES[field.p, n] = cls._of(field, n, n, tuple(
                units if field.p == 2 else [_row_of_bits(u, n) for u in units]))
        return m

    # -- basic access --------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if self.field.p != 2:
            return self._data[i][j]
        return self._data[i] >> range(self.ncols)[j] & 1

    def row(self, i: int) -> tuple[int, ...]:
        row = self._data[i]
        return _row_of_bits(row, self.ncols) if self.field.p == 2 else row

    def rows(self) -> tuple[tuple[int, ...], ...]:
        if self.field.p == 2:
            return tuple([_row_of_bits(r, self.ncols) for r in self._data])
        return self._data

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows()]

    def is_zero(self) -> bool:
        return not any(self._data if self.field.p == 2 else map(any, self._data))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.field.p == other.field.p
                and self.shape == other.shape and self._data == other._data)

    def __hash__(self) -> int:
        return hash((self.field, self.nrows, self.ncols, self._data))

    def __repr__(self) -> str:
        return f"Matrix(p={self.field.p}, {self.nrows}x{self.ncols}, {self.to_lists()})"

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return multiply(self, other)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        p = self.field.p
        if p == 2:
            data = tuple(map(operator.xor, self._data, other._data))
        else:
            data = tuple(tuple([(a + b) % p for a, b in zip(r1, r2)])
                         for r1, r2 in zip(self._data, other._data))
        return Matrix._of(self.field, self.nrows, self.ncols, data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c: int) -> "Matrix":
        p = self.field.p
        c %= p
        if p == 2:
            return self if c else Matrix.zeros(self.field, self.nrows, self.ncols)
        return Matrix._of(self.field, self.nrows, self.ncols,
                          tuple(tuple([(c * a) % p for a in r]) for r in self._data))

    def transpose(self) -> "Matrix":
        data = (_transpose_bits(self._data, self.ncols) if self.field.p == 2 else
                tuple(zip(*self._data)) if self.nrows else ((),) * self.ncols)
        return Matrix._of(self.field, self.ncols, self.nrows, data)

    def take_cols(self, idx: Iterable[int]) -> "Matrix":
        idx = _indices(idx, self.ncols)
        if self.field.p != 2:
            data = tuple(tuple([row[j] for j in idx]) for row in self._data)
        elif idx and isinstance(idx, range) and idx.step == 1:
            mask, lo = (1 << len(idx)) - 1, idx.start
            data = tuple([r >> lo & mask for r in self._data])
        else:
            data = _pick_bits(self._data, self.ncols, idx)
        return Matrix._of(self.field, self.nrows, len(idx), data)

    def take_rows(self, idx: Iterable[int]) -> "Matrix":
        data = tuple(self._data[i] for i in _indices(idx, self.nrows))
        return Matrix._of(self.field, len(data), self.ncols, data)

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.field.p != other.field.p:
            raise ValueError("field mismatch")
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")


# Slot descriptors write past the immutability guard in __setattr__.
_set_field, _set_nrows, _set_ncols, _set_data = (
    getattr(Matrix, name).__set__ for name in Matrix.__slots__)
_IDENTITIES: dict[tuple[int, int], Matrix] = {}


def _is_identity(m: Matrix) -> bool:
    """Exact and cheap: square, with the rows of the shared identity."""
    return m.nrows == m.ncols and m._data == Matrix.identity(m.field, m.nrows)._data


def multiply(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product a*b; over GF(2) each row is the XOR of the rows of b
    selected by the bits of the row of a.  I*b is b and a*I is a, as given."""
    if a.field.p != b.field.p:
        raise ValueError("field mismatch")
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch for product: {a.shape} @ {b.shape}")
    if _is_identity(a):  # before the empty case, so m @ I_0 is m itself
        return b
    if _is_identity(b):
        return a
    p = a.field.p
    if a.nrows == 0 or b.ncols == 0 or a.ncols == 0:
        return Matrix.zeros(a.field, a.nrows, b.ncols)
    bdata = b._data
    out = []
    if p == 2:
        for r in a._data:
            acc = 0
            while r:
                low = r & -r
                acc ^= bdata[low.bit_length() - 1]
                r ^= low
            out.append(acc)
        return Matrix._of(a.field, a.nrows, b.ncols, tuple(out))
    for row in a._data:
        new = [0] * b.ncols
        for x, brow in zip(row, bdata):
            if x:
                new = [v + x * y for v, y in zip(new, brow)]
        out.append(tuple([v % p for v in new]))
    return Matrix._of(a.field, a.nrows, b.ncols, tuple(out))


def hstack(mats: Sequence[Matrix]) -> Matrix:
    """Concatenate matrices side by side (all must share a row count)."""
    if not mats:
        raise ValueError("hstack of no matrices (shape would be ambiguous)")
    field, nrows = mats[0].field, mats[0].nrows
    for m in mats:
        if m.field.p != field.p or m.nrows != nrows:
            raise ValueError("hstack shape/field mismatch")
    if field.p == 2:
        rows, shift = mats[0]._data, mats[0].ncols
        for m in mats[1:]:
            rows = tuple([r | x << shift for r, x in zip(rows, m._data)])
            shift += m.ncols
        return Matrix._of(field, nrows, shift, rows)
    rows = tuple(sum(parts, ()) for parts in zip(*(m._data for m in mats)))
    return Matrix._of(field, nrows, sum(m.ncols for m in mats), rows)


def vstack(mats: Sequence[Matrix]) -> Matrix:
    """Stack matrices on top of each other (all must share a column count)."""
    if not mats:
        raise ValueError("vstack of no matrices (shape would be ambiguous)")
    field, ncols = mats[0].field, mats[0].ncols
    for m in mats:
        if m.field.p != field.p or m.ncols != ncols:
            raise ValueError("vstack shape/field mismatch")
    rows = tuple(row for m in mats for row in m._data)
    return Matrix._of(field, len(rows), ncols, rows)


def block_matrix(field: FieldSpec, row_dims: Sequence[int], col_dims: Sequence[int],
                 blocks: Iterable[tuple[int, int, Matrix]]) -> Matrix:
    """Block rows ``row_dims`` high and block columns ``col_dims`` wide, with
    block (r, c) = m for each (r, c, m) in ``blocks`` (checked, none repeated)
    and zeros elsewhere: only those blocks are written, into packed rows or
    rows of entries, with no zero block and no stack."""
    roff, coff = list(accumulate(row_dims, initial=0)), list(accumulate(col_dims, initial=0))
    nrows, ncols, p = roff[-1], coff[-1], field.p
    out: list = [0] * nrows if p == 2 else [[0] * ncols for _ in range(nrows)]
    for r, c, m in blocks:
        if m.field.p != p or m.shape != (row_dims[r], col_dims[c]):
            raise ValueError(f"block ({r}, {c}) shape/field mismatch")
        c0 = coff[c]
        for i, row in enumerate(m._data, roff[r]):
            if p == 2:
                out[i] |= row << c0
            else:
                out[i][c0:c0 + m.ncols] = row
    return Matrix._of(field, nrows, ncols, tuple(out if p == 2 else map(tuple, out)))


def direct_sum(mats: Sequence[Matrix]) -> Matrix:
    """Block-diagonal sum (all over one field), of its diagonal blocks alone."""
    if not mats:
        raise ValueError("direct_sum of no matrices (field would be ambiguous)")
    return block_matrix(mats[0].field, [m.nrows for m in mats], [m.ncols for m in mats],
                        [(i, i, m) for i, m in enumerate(mats)])


# -- GF(2) packing -----------------------------------------------------

_PARITY = bytes.maketrans(bytes(range(256)), b"01" * 128)
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _bits_of(row: Sequence[int]) -> int:
    """Pack a row into an int, entry j reduced mod 2 at bit j.  bytes() takes
    a list or tuple row whole (it would read other objects as a buffer or a
    length); entries it refuses (negative, above 255, not an int) are reduced
    one at a time with ``operator.index``, which rejects non-integral values.
    The last entry leads the binary numeral, hence the reversal."""
    try:
        digits = bytes(row) if type(row) in (list, tuple) else None
    except (TypeError, ValueError):
        digits = None
    if digits is None:
        digits = bytes([operator.index(x) & 1 for x in row])
    return int(digits[::-1].translate(_PARITY) or b"0", 2)


def _row_of_bits(bits: int, ncols: int) -> tuple[int, ...]:
    """Unpack the low ncols bits of ``bits``; bit ncols is set as a leading
    sentinel so the numeral has exactly ncols digits after it."""
    return tuple(format(bits | 1 << ncols, "b")[:0:-1].encode().translate(_FROM_DIGITS))


def _indices(idx: Iterable[int], n: int) -> Sequence[int]:
    """idx as a range or a list, every index in 0..n-1, else IndexError:
    no index wraps, over any field.  A range is checked at its two ends."""
    idx = idx if isinstance(idx, range) else list(idx)
    ends = (idx[0], idx[-1]) if idx and isinstance(idx, range) else idx
    if ends and (min(ends) < 0 or max(ends) >= n):
        raise IndexError(f"matrix index out of range 0..{n - 1}")
    return idx


def _pick_bits(data: tuple[int, ...], ncols: int, idx: Sequence[int]) -> tuple[int, ...]:
    """Columns ``idx`` (checked by ``_indices``) of packed rows, read from each
    row's numeral (digit ncols - j is entry j, behind the sentinel) by one itemgetter."""
    if not idx or not data:
        return (0,) * len(data)
    pick, top = operator.itemgetter(*[ncols - j for j in reversed(idx)]), 1 << ncols
    return tuple([int("".join(pick(format(r | top, "b"))), 2) for r in data])


def _transpose_bits(data: tuple[int, ...], ncols: int) -> tuple[int, ...]:
    """The packed columns of packed rows.  The rows' numerals, last row
    first, are joined into one string of stride ncols + 1; column j's
    numeral is the slice of it that starts at digit ncols - j."""
    if not data or not ncols:
        return (0,) * ncols
    if len(data) == 1:
        return _row_of_bits(data[0], ncols)
    w, top = ncols + 1, 1 << ncols
    s = "".join([format(r | top, "b") for r in reversed(data)])
    return tuple([int(s[ncols - j::w], 2) for j in range(ncols)])


# -- echelon forms -----------------------------------------------------


def _rref_gf2(rows: Sequence[int], ncols: int) -> tuple[list[int], list[int]]:
    mat = list(rows)
    pivots: list[int] = []
    pr = 0
    nr = len(mat)
    for c in range(ncols):
        if pr == nr:
            break
        bit = 1 << c
        pivot = -1
        for r in range(pr, nr):
            if mat[r] & bit:
                pivot = r
                break
        if pivot < 0:
            continue
        mat[pr], mat[pivot] = mat[pivot], mat[pr]
        prow = mat[pr]
        for r in range(nr):
            if r != pr and (mat[r] & bit):
                mat[r] ^= prow
        pivots.append(c)
        pr += 1
    return mat, pivots


def _rref_modp(rows: Sequence[Sequence[int]], ncols: int,
               p: int) -> tuple[list[list[int]], list[int]]:
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    pr = 0
    nr = len(mat)
    for c in range(ncols):
        if pr == nr:
            break
        pivot = -1
        for r in range(pr, nr):
            if mat[r][c]:
                pivot = r
                break
        if pivot < 0:
            continue
        mat[pr], mat[pivot] = mat[pivot], mat[pr]
        inv = pow(mat[pr][c], -1, p)
        if inv != 1:
            mat[pr] = [(x * inv) % p for x in mat[pr]]
        prow = mat[pr]
        for r in range(nr):
            f = mat[r][c]
            if r != pr and f:
                row = mat[r]
                mat[r] = [(x - f * y) % p for x, y in zip(row, prow)]
        pivots.append(c)
        pr += 1
    return mat, pivots


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns (leftmost-pivot convention),
    computed afresh on each call."""
    if m.field.p == 2:
        rows, pivots = _rref_gf2(m._data, m.ncols)
    else:
        rows, pivots = _rref_modp(m._data, m.ncols, m.field.p)
        rows = map(tuple, rows)
    return Matrix._of(m.field, m.nrows, m.ncols, tuple(rows)), tuple(pivots)


def rank(m: Matrix) -> int:
    """Rank over F_p.  Always in [0, min(nrows, ncols)]; a matrix with no
    rows or no columns has rank 0, and I_n rank n, read with no elimination."""
    if not (m.nrows and m.ncols):
        return 0
    if _is_identity(m):
        return m.nrows
    return len(rref(m)[1])


def cokernel_projection(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """A surjection q with q*m = 0 and rank(q) = nrows - rank(m), and the
    columns (the non-pivot columns of rref(m^T)) on which q is the identity.

    Its rows, one per free column f of rref(m^T), are the echelon basis of
    the left null space of m, so q is deterministic.  Read off rref(m^T)
    whole, row f is the unit at f, plus, at the pivot column c of each
    pivot row r, minus entry f of row r.
    """
    red, pivots = rref(m.transpose())
    n, p = m.nrows, m.field.p
    pivot_set = set(pivots)
    free = tuple(j for j in range(n) if j not in pivot_set)
    if p == 2:
        at = {1 << f: i for i, f in enumerate(free)}
        q = [1 << f for f in free]
        for c, row in zip(pivots, red._data):
            bit, row = 1 << c, row ^ 1 << c
            while row:
                low = row & -row
                q[at[low]] |= bit
                row ^= low
        return Matrix._of(m.field, len(free), n, tuple(q)), free
    rows = [[0] * n for _ in free]
    for row, f in zip(rows, free):
        row[f] = 1
    for c, pivot_row in zip(pivots, red._data):
        for row, f in zip(rows, free):
            row[c] = -pivot_row[f] % p
    return Matrix._of(m.field, len(free), n, tuple(map(tuple, rows))), free


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve a*x = b column by column; raise NoFactorization if inconsistent.

    Free variables are set to 0, so the solution is deterministic.
    """
    if a.field.p != b.field.p:
        raise ValueError("field mismatch")
    if a.nrows != b.nrows:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if b.is_zero():
        return Matrix.zeros(a.field, a.ncols, b.ncols)
    if _is_identity(a):
        return b
    red, pivots = rref(hstack([a, b]))
    n = a.ncols
    for c in pivots:
        if c >= n:
            raise NoFactorization(
                f"system has no solution (pivot in augmented column {c - n})")
    tail = red.take_cols(range(n, red.ncols))._data
    x = list(Matrix.zeros(a.field, n, b.ncols)._data)
    for r, c in enumerate(pivots):
        x[c] = tail[r]
    return Matrix._of(a.field, n, b.ncols, tuple(x))
