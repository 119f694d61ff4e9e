import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pmodcalc.linalg import (FieldSpec, Matrix, NoFactorization,
                             cokernel_projection, hstack, kernel_basis, rank,
                             rref, solve, vstack)
from pmodcalc import linalg

from oracles import (cokernel_projection_oracle, dense_cokernel_projection,
                     dense_direct_sum, dense_kernel_basis, dense_multiply,
                     dense_rref, dense_solve, dense_take_cols, dense_transpose,
                     direct_sum_oracle, free_columns, image_basis, multiply_oracle,
                     rank_oracle, solve_left, solve_oracle)


def gf(p):
    return FieldSpec(p)


def enumerate_span_gf2(vectors, length):
    """All GF(2) combinations of the given vectors, as a set of tuples."""
    span = {tuple([0] * length)}
    for v in vectors:
        v = tuple(v)
        span |= {tuple(a ^ b for a, b in zip(s, v)) for s in span}
    return span


class TestFieldSpec:
    def test_accepts_primes(self):
        for p in (2, 3, 5, 31, 2**31 - 1):
            assert FieldSpec(p).p == p

    def test_rejects_composites_and_range(self):
        for bad in (0, 1, 4, 9, 2**31):
            with pytest.raises(ValueError):
                FieldSpec(bad)

    def test_inverse(self):
        f = gf(7)
        for a in range(1, 7):
            assert (a * f.inv(a)) % 7 == 1


class TestRank:
    def test_identity(self):
        assert rank(Matrix.identity(gf(2), 3)) == 3

    def test_zero(self):
        assert rank(Matrix.zeros(gf(2), 2, 5)) == 0

    def test_all_ones_gf2(self):
        # Oracle: the row space of [[1,1],[1,1]] over GF(2) has 2^1 vectors.
        m = Matrix(gf(2), 2, 2, [[1, 1], [1, 1]])
        span = enumerate_span_gf2(m.rows(), 2)
        assert len(span) == 2
        assert rank(m) == 1

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0)])
    def test_zero_shapes(self, monkeypatch, p, shape):
        def no_rref(m):
            raise AssertionError("rref called on an empty matrix")

        monkeypatch.setattr(linalg, "rref", no_rref)
        assert rank(Matrix.zeros(gf(p), *shape)) == 0


class TestKernel:
    def test_identity_has_no_kernel(self):
        k = kernel_basis(Matrix.identity(gf(2), 2))
        assert k.shape == (2, 0)

    def test_zero_map_kernel_is_everything(self):
        k = kernel_basis(Matrix.zeros(gf(5), 1, 3))
        assert k.shape == (3, 3)
        assert rank(k) == 3

    def test_sum_map_gf2(self):
        # Oracle: of the 4 vectors in GF(2)^2, exactly (0,0) and (1,1)
        # are killed by [1 1].
        m = Matrix(gf(2), 1, 2, [[1, 1]])
        killed = [v for v in itertools.product((0, 1), repeat=2)
                  if (v[0] + v[1]) % 2 == 0]
        assert sorted(killed) == [(0, 0), (1, 1)]
        k = kernel_basis(m)
        assert k.shape == (2, 1)
        assert (k[0, 0], k[1, 0]) == (1, 1)


class TestImage:
    def test_identity(self):
        b = image_basis(Matrix.identity(gf(2), 3))
        assert b == Matrix.identity(gf(2), 3)

    def test_zero(self):
        assert image_basis(Matrix.zeros(gf(2), 3, 2)).shape == (3, 0)

    def test_repeated_column_gf3(self):
        # Oracle: the column span of [[1,0],[1,0]] over GF(3) is
        # {(0,0), (1,1), (2,2)}, one dimensional.
        m = Matrix(gf(3), 2, 2, [[1, 0], [1, 0]])
        span = {((a * 1) % 3, (a * 1) % 3) for a in range(3)}
        assert len(span) == 3
        b = image_basis(m)
        assert b.shape == (2, 1)
        assert (b[0, 0], b[1, 0]) == (1, 1)


class TestCokernelProjection:
    def test_identity_vanishes(self):
        q, _ = cokernel_projection(Matrix.identity(gf(2), 3))
        assert q.shape == (0, 3)

    def test_zero_is_identity(self):
        q, _ = cokernel_projection(Matrix.zeros(gf(3), 2, 4))
        assert q == Matrix.identity(gf(3), 2)

    def test_diagonal_vector(self):
        m = Matrix(gf(2), 2, 1, [[1], [1]])
        q, _ = cokernel_projection(m)
        assert q.shape == (1, 2)
        assert (q @ m).is_zero()
        assert rank(q) == 1


class TestFactorThrough:
    def test_f_equals_g(self):
        g = Matrix(gf(5), 2, 2, [[1, 2], [3, 4]])
        h = solve(g, g)
        assert g @ h == g

    def test_zero_factors_as_zero(self):
        g = Matrix(gf(2), 2, 1, [[1], [0]])
        f = Matrix.zeros(gf(2), 2, 3)
        assert solve(g, f).is_zero()

    def test_matrix_through_its_image_basis(self):
        m = Matrix(gf(3), 3, 4, [[1, 2, 0, 1], [0, 1, 1, 1], [1, 0, 1, 2]])
        b = image_basis(m)
        h = solve(b, m)
        assert b @ h == m

    def test_no_factorization(self):
        g = Matrix(gf(2), 2, 1, [[1], [0]])
        f = Matrix(gf(2), 2, 1, [[0], [1]])
        with pytest.raises(NoFactorization):
            solve(g, f)


class TestSolveLeft:
    def test_unique_against_surjection(self):
        q = Matrix(gf(2), 2, 3, [[1, 0, 1], [0, 1, 1]])
        r = Matrix(gf(2), 1, 3, [[1, 1, 0]])
        h = solve_left(q, r)
        assert h @ q == r

    def test_inconsistent(self):
        q = Matrix.zeros(gf(2), 1, 2)
        r = Matrix(gf(2), 1, 2, [[1, 0]])
        with pytest.raises(NoFactorization):
            solve_left(q, r)


class TestStacksAndSums:
    def test_hstack_vstack_shapes(self):
        a = Matrix(gf(2), 2, 1, [[1], [0]])
        b = Matrix(gf(2), 2, 2, [[0, 1], [1, 1]])
        assert hstack([a, b]).shape == (2, 3)
        assert vstack([a.transpose(), b]).shape == (3, 2)

    def test_direct_sum_block_structure(self):
        a = Matrix(gf(3), 1, 2, [[1, 2]])
        b = Matrix(gf(3), 2, 1, [[1], [2]])
        d = linalg.direct_sum([a, b])
        assert d.shape == (3, 3)
        assert d.to_lists() == [[1, 2, 0], [0, 0, 1], [0, 0, 2]]

    def test_multiply_zero_dims(self):
        a = Matrix.zeros(gf(2), 0, 3)
        b = Matrix.zeros(gf(2), 3, 2)
        assert (a @ b).shape == (0, 2)


# -- randomized properties -----------------------------------------------------

primes = st.sampled_from([2, 3, 5])


@st.composite
def matrices(draw, max_dim=4, p=None):
    if p is None:
        p = draw(primes)
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entries = [[draw(st.integers(0, p - 1)) for _ in range(cols)]
               for _ in range(rows)]
    return Matrix(FieldSpec(p), rows, cols, entries)


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).ncols == m.ncols


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_kernel_columns_are_killed_and_independent(m):
    k = kernel_basis(m)
    assert (m @ k).is_zero()
    assert rank(k) == k.ncols


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_cokernel_projection_contract(m):
    q, _ = cokernel_projection(m)
    assert q.nrows == m.nrows - rank(m)
    assert (q @ m).is_zero()
    assert rank(q) == q.nrows


@settings(max_examples=150, deadline=None)
@given(matrices(max_dim=9))
def test_cokernel_projection_is_the_transposed_kernel_basis(m):
    # The read-off of rref(m^T) is bit-identical to the transposes it
    # replaced.
    assert cokernel_projection(m) == cokernel_projection_oracle(m)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_image_basis_spans_columns(m):
    b = image_basis(m)
    assert b.ncols == rank(m)
    # every column of m factors through the basis, by the nonzero rows of
    # rref(m): the read-off gamma_lower uses
    h = solve(b, m)
    assert b @ h == m
    red, pivots = rref(m)
    assert b == m.take_cols(pivots)
    assert h == red.take_rows(range(len(pivots)))


@settings(max_examples=100, deadline=None)
@given(matrices(), st.integers(0, 3))
def test_solve_recovers_products(a, k):
    x = Matrix(a.field, a.ncols, k,
               [[(i * 7 + j * 3) % a.field.p for j in range(k)]
                for i in range(a.ncols)])
    b = a @ x
    y = solve(a, b)
    assert a @ y == b


@settings(max_examples=60, deadline=None)
@given(matrices(max_dim=3))
def test_rref_is_idempotent(m):
    red, pivots = rref(m)
    red2, pivots2 = rref(red)
    assert red2 == red
    assert pivots2 == pivots


def test_results_deterministic():
    m = Matrix(gf(5), 3, 4, [[1, 2, 3, 4], [2, 4, 1, 3], [0, 0, 4, 1]])
    assert kernel_basis(m) == kernel_basis(Matrix(gf(5), 3, 4, m.to_lists()))
    assert image_basis(m) == image_basis(Matrix(gf(5), 3, 4, m.to_lists()))
    assert cokernel_projection(m) == cokernel_projection(
        Matrix(gf(5), 3, 4, m.to_lists()))


def test_gf2_fast_path_matches_generic():
    # The GF(2) bitmask path and the generic modular path must agree on
    # the canonical reduced echelon form (it is unique).
    rows = [[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1]]
    m2 = Matrix(gf(2), 3, 4, rows)
    red, piv = rref(m2)
    red_generic, piv_generic = linalg._rref_modp([r[:] for r in rows], 4, 2)
    assert red.to_lists() == red_generic
    assert list(piv) == piv_generic


def test_matrix_immutable():
    m = Matrix.identity(gf(2), 2)
    with pytest.raises(AttributeError):
        m.nrows = 3


# -- the trusted constructor and GF(2) packing ----------------------------------


def bits_of_oracle(row):
    """The per-bit packing linalg used before: entry j at bit j."""
    m = 0
    for j, x in enumerate(row):
        if x:
            m |= 1 << j
    return m


def row_of_bits_oracle(bits, ncols):
    return tuple((bits >> j) & 1 for j in range(ncols))


def assert_well_formed(m):
    """m equals its checked rebuild and is stored as Matrix(...) stores it:
    over GF(2) one int bitmask below 2**ncols per row, otherwise one tuple
    of ncols reduced ints per row."""
    assert m == Matrix(m.field, m.nrows, m.ncols, m.to_lists())
    assert type(m._data) is tuple and len(m._data) == m.nrows
    for row in m._data:
        if m.field.p == 2:
            assert type(row) is int and 0 <= row < 2 ** m.ncols
        else:
            assert type(row) is tuple and len(row) == m.ncols
            assert all(type(x) is int and 0 <= x < m.field.p for x in row)


@st.composite
def shaped(draw, field, nrows, ncols):
    return Matrix(field, nrows, ncols,
                  [[draw(st.integers(0, field.p - 1)) for _ in range(ncols)]
                   for _ in range(nrows)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_op_matches_its_checked_rebuild(data):
    field = data.draw(st.sampled_from([gf(2), gf(3)]))
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, a2 = data.draw(shaped(field, r, k)), data.draw(shaped(field, r, k))
    b, y = data.draw(shaped(field, k, c)), data.draw(shaped(field, c, r))
    cols = data.draw(st.lists(st.integers(0, k - 1), max_size=5)) if k else []
    rows = data.draw(st.lists(st.integers(0, r - 1), max_size=5)) if r else []
    p, la, la2, lb = field.p, a.to_lists(), a2.to_lists(), b.to_lists()
    results = {
        "zeros": (Matrix.zeros(field, r, k), [[0] * k for _ in range(r)]),
        "identity": (Matrix.identity(field, k),
                     [[int(i == j) for j in range(k)] for i in range(k)]),
        "transpose": (a.transpose(), [[la[i][j] for i in range(r)] for j in range(k)]),
        "take_cols": (a.take_cols(cols), [[row[j] for j in cols] for row in la]),
        "take_rows": (a.take_rows(rows), [la[i] for i in rows]),
        "add": (a + a2, [[(x + z) % p for x, z in zip(u, v)] for u, v in zip(la, la2)]),
        "sub": (a - a2, [[(x - z) % p for x, z in zip(u, v)] for u, v in zip(la, la2)]),
        "neg": (-a, [[-x % p for x in u] for u in la]),
        "scale": (a.scale(5), [[5 * x % p for x in u] for u in la]),
        "multiply": (a @ b, [[sum(la[i][t] * lb[t][j] for t in range(k)) % p
                              for j in range(c)] for i in range(r)]),
        "hstack": (hstack([a, a2]), [u + v for u, v in zip(la, la2)]),
        "vstack": (vstack([a, a2]), la + la2),
        "direct_sum": (linalg.direct_sum([a, b]),
                       [u + [0] * c for u in la] + [[0] * k + v for v in lb]),
    }
    for name, (m, expected) in results.items():
        assert_well_formed(m)
        assert m.to_lists() == expected, name
    red, pivots = rref(a)
    solved = solve(a, a @ b)
    solved_left = solve_left(a, y @ a)
    for m in (red, kernel_basis(a), cokernel_projection(a)[0], solved, solved_left):
        assert_well_formed(m)
    assert (red, pivots) == rref(Matrix(field, r, k, la))
    assert a @ solved == a @ b and solved_left @ a == y @ a


def test_gf2_packing_matches_bit_loops():
    rng = random.Random(0)
    for n in range(301):
        for row in ((0,) * n, (1,) * n,
                    tuple(rng.randrange(2) for _ in range(n))):
            bits = linalg._bits_of(row)
            assert bits == bits_of_oracle(row) == linalg._bits_of(list(row))
            assert linalg._row_of_bits(bits, n) == row == row_of_bits_oracle(bits, n)
        # Packing reduces mod 2, also for entries bytes() refuses.
        wide = [rng.choice((0, 1, 2, 3, 255, 256, -1, -4, 2**70 + 1))
                for _ in range(n)]
        assert linalg._bits_of(wide) == bits_of_oracle([x % 2 for x in wide])
        # Column selection and transposition read the numerals, not bits.
        rows = tuple(rng.getrandbits(n) if n else 0 for _ in range(rng.randrange(5)))
        idx = [rng.randrange(n) for _ in range(rng.randrange(6))] if n else []
        assert linalg._pick_bits(rows, n, idx) == tuple(
            bits_of_oracle([row_of_bits_oracle(r, n)[j] for j in idx]) for r in rows)
        assert linalg._transpose_bits(rows, n) == tuple(
            bits_of_oracle([(r >> j) & 1 for r in rows]) for j in range(n))


gf2_widths = st.sampled_from([0, 1, 2, 5, 63, 64, 65, 100, 130])


@st.composite
def gf2_dense(draw, nrows, ncols):
    """A dense 0/1 list of lists, each row drawn as one int below 2**ncols."""
    rows = [draw(st.integers(0, 2 ** ncols - 1)) for _ in range(nrows)]
    return [[(r >> j) & 1 for j in range(ncols)] for r in rows]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_gf2_ops_match_dense_references(data):
    """Every packed GF(2) op against its list-of-lists reference, on shapes
    with zero sides and rows wider than a machine word."""
    f = gf(2)
    r = data.draw(st.sampled_from([0, 1, 2, 3, 6]))
    k, c = data.draw(gf2_widths), data.draw(gf2_widths)
    la, la2 = data.draw(gf2_dense(r, k)), data.draw(gf2_dense(r, k))
    lb, lrhs = data.draw(gf2_dense(k, c)), data.draw(gf2_dense(r, c))
    a, a2, b, rhs = (Matrix(f, r, k, la), Matrix(f, r, k, la2),
                     Matrix(f, k, c, lb), Matrix(f, r, c, lrhs))
    idx = data.draw(st.lists(st.integers(0, k - 1), max_size=8)) if k else []
    lo = data.draw(st.integers(0, k))
    hi = data.draw(st.integers(lo, k))
    red, pivots = rref(a)
    q, q_cols = cokernel_projection(a)
    results = {  # name: (result, reference, reference width)
        "rref": (red, dense_rref(la, k)[0], k),
        "multiply": (a @ b, dense_multiply(la, lb, c), c),
        "transpose": (a.transpose(), dense_transpose(la, k), r),
        "take_cols": (a.take_cols(idx), dense_take_cols(la, idx), len(idx)),
        "take_cols_range": (a.take_cols(range(lo, hi)),
                            dense_take_cols(la, list(range(lo, hi))), hi - lo),
        "hstack": (hstack([a, a2, rhs]),
                   [u + v + w for u, v, w in zip(la, la2, lrhs)], 2 * k + c),
        "vstack": (vstack([a, a2]), la + la2, k),
        "direct_sum": (linalg.direct_sum([a, b]), dense_direct_sum(la, k, lb, c), k + c),
        "kernel_basis": (kernel_basis(a), dense_kernel_basis(la, k), k - len(pivots)),
        "cokernel_projection": (q, dense_cokernel_projection(la, k)[0], r),
    }
    for name, (m, expected, width) in results.items():
        assert_well_formed(m)
        assert m.shape == (len(expected), width), name
        assert m.to_lists() == expected, name
        assert [list(m.row(i)) for i in range(m.nrows)] == expected, name
        assert [[m[i, j] for j in range(m.ncols)] for i in range(m.nrows)] == expected, name
    assert list(pivots) == dense_rref(la, k)[1]
    assert list(q_cols) == dense_cokernel_projection(la, k)[1]
    x = data.draw(gf2_dense(k, c))
    consistent = a @ Matrix(f, k, c, x)
    assert solve(a, consistent).to_lists() == dense_solve(la, k, consistent.to_lists(), c)
    expected = dense_solve(la, k, lrhs, c)
    if expected is None:
        with pytest.raises(NoFactorization):
            solve(a, rhs)
    else:
        assert solve(a, rhs).to_lists() == expected


def test_public_constructor_still_checks():
    assert Matrix(gf(3), 1, 3, [[4, -1, 3]]).rows() == ((1, 2, 0),)
    assert Matrix(gf(2), 1, 4, [[3, -1, 256, 2]]).rows() == ((1, 1, 0, 0),)
    assert Matrix(gf(2), 1, 2, [(True, False)]).rows() == ((1, 0),)
    with pytest.raises(ValueError):
        Matrix(gf(2), 2, 2, [[1, 0]])
    with pytest.raises(ValueError):
        Matrix(gf(2), 1, 2, [[1, 0, 1]])
    with pytest.raises(ValueError):
        Matrix.zeros(gf(2), -1, 2)
    with pytest.raises(AttributeError):
        (Matrix.identity(gf(2), 2) @ Matrix.identity(gf(2), 2)).nrows = 3
    # Non-integral entries fail loudly on the packed and the tuple path
    # alike (operator.index semantics), never rounded or parsed.
    for p in (2, 3):
        for bad in ([[1.5, 0.7]], [[1.0, 0]], [["1", 0]], [[None, 0]], ["10"],
                    [[0, 2**70 + 0.5]]):
            with pytest.raises((TypeError, ValueError)):
                Matrix(gf(p), 1, 2, bad)


def test_column_indices_out_of_range_raise():
    for p in (2, 3):
        m = Matrix(gf(p), 2, 3, [[1, 0, 1], [0, 1, 1]])
        for idx in ([3], [0, 3], range(2, 4), range(1, 4)):
            with pytest.raises(IndexError):
                m.take_cols(idx)
        with pytest.raises(IndexError):
            m[0, 3]
        assert m.take_cols(range(3, 3)).shape == (2, 0)
        assert m.take_cols([2, 2, 0]).to_lists() == [[1, 1, 1], [1, 1, 0]]


@pytest.mark.parametrize("p", [2, 3])
def test_row_and_column_picks_never_wrap(p):
    """take_cols and take_rows check their indices alike over every field:
    a negative index, or one past the end, raises IndexError instead of
    wrapping to the end or failing inside the packed read."""
    m = Matrix(gf(p), 2, 3, [[1, 0, 1], [0, 1, 1]])
    for idx in ([-1], [0, -1], (-3,), range(-1, 1), range(2, -2, -1), [3], range(1, 4)):
        with pytest.raises(IndexError):
            m.take_cols(idx)
    for idx in ([-1], [1, -2], range(-1, 1), [2], range(0, 3, 2), iter([0, 5])):
        with pytest.raises(IndexError):
            m.take_rows(idx)
    assert m.take_cols(range(2, -1, -1)).to_lists() == [[1, 0, 1], [1, 1, 0]]
    assert m.take_cols(range(0, 3, 2)).to_lists() == [[1, 1], [0, 1]]
    assert m.take_rows(range(1, -1, -1)).to_lists() == [[0, 1, 1], [1, 0, 1]]
    assert m.take_rows(iter([1])).to_lists() == [[0, 1, 1]]
    assert m.take_rows(range(-1, -1)).shape == (0, 3)
    assert m.take_cols(range(-2, -2)).shape == (2, 0)


def test_direct_sum_checks_fields():
    a, b = Matrix(gf(2), 1, 1, [[1]]), Matrix(gf(3), 1, 1, [[2]])
    with pytest.raises(ValueError):
        linalg.direct_sum([a, b])
    with pytest.raises(ValueError):
        linalg.direct_sum([b, a])
    with pytest.raises(ValueError):
        linalg.direct_sum([])
    assert linalg.direct_sum([a, a]) == Matrix.identity(gf(2), 2)


# -- read-offs: induced maps from the echelon bases, against the general solves --


gf2_or_gf3_matrices = st.sampled_from([2, 3]).flatmap(lambda p: matrices(p=p))


@settings(max_examples=200, deadline=None)
@given(gf2_or_gf3_matrices, st.data())
def test_cokernel_read_off(m, data):
    field = m.field
    q, cols = cokernel_projection(m)
    assert cols == free_columns(m.transpose())
    assert q.take_cols(cols) == Matrix.identity(field, q.nrows)
    k = data.draw(st.integers(0, 3))
    h = data.draw(shaped(field, k, q.nrows))
    assert (h @ q).take_cols(cols) == solve_left(q, h @ q) == h
    # Any right-hand side: the read-off passes its product check exactly
    # when the general solve finds a solution, and then equals it.
    r = data.draw(shaped(field, k, m.nrows))
    if r.take_cols(cols) @ q == r:
        assert solve_left(q, r) == r.take_cols(cols)
    else:
        with pytest.raises(NoFactorization):
            solve_left(q, r)


@settings(max_examples=200, deadline=None)
@given(gf2_or_gf3_matrices, st.data())
def test_kernel_read_off(m, data):
    field = m.field
    basis, rows = kernel_basis(m), free_columns(m)
    assert basis.take_rows(rows) == Matrix.identity(field, basis.ncols)
    k = data.draw(st.integers(0, 3))
    h = data.draw(shaped(field, basis.ncols, k))
    assert (basis @ h).take_rows(rows) == solve(basis, basis @ h) == h
    g = data.draw(shaped(field, m.ncols, k))
    if basis @ g.take_rows(rows) == g:
        assert solve(basis, g) == g.take_rows(rows)
    else:
        with pytest.raises(NoFactorization):
            solve(basis, g)


# -- identity and empty short-cuts, against the elimination oracles ------------


@st.composite
def operand(draw, field, nrows, ncols):
    """The identity (where square), zero or a random matrix, by a draw."""
    kind = draw(st.sampled_from(["identity", "zero", "random"]))
    if kind == "identity" and nrows == ncols:
        return Matrix.identity(field, nrows)
    if kind == "zero":
        return Matrix.zeros(field, nrows, ncols)
    return draw(shaped(field, nrows, ncols))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_short_cuts_match_the_elimination_oracles(data):
    """multiply, rank and solve agree with the dense product and the rref
    of m and of [a|b] on identities, 0 x k, k x 0 and random operands,
    including which systems raise and the column the error names."""
    field = data.draw(st.sampled_from([gf(2), gf(3)]))
    dim = st.integers(0, 4)
    r = data.draw(dim)
    k = data.draw(st.just(r) | dim)  # a square half the time
    c = data.draw(st.just(k) | dim)
    a, b = data.draw(operand(field, r, k)), data.draw(operand(field, k, c))
    assert a @ b == multiply_oracle(a, b)
    assert (rank(a), rank(b)) == (rank_oracle(a), rank_oracle(b))
    rhs = data.draw(st.sampled_from([a @ b, Matrix.zeros(field, r, c)])
                    | shaped(field, r, c))
    try:
        want = solve_oracle(a, rhs)
    except NoFactorization as exc:
        with pytest.raises(NoFactorization) as got:
            solve(a, rhs)
        assert str(got.value) == str(exc)
    else:
        assert solve(a, rhs) == want


@pytest.mark.parametrize("p", [2, 3])
def test_identities_and_empty_shapes_do_no_elimination(monkeypatch, p):
    field = gf(p)
    with pytest.raises(NoFactorization, match="augmented column 1"):
        solve(Matrix.zeros(field, 2, 0), Matrix(field, 2, 3, [[0, 0, 1], [0, 1, 0]]))
    with pytest.raises(ValueError):
        Matrix.identity(field, -1)

    def no_rref(m):
        raise AssertionError("rref called")

    monkeypatch.setattr(linalg, "rref", no_rref)
    eye = Matrix.identity(field, 3)
    assert eye is Matrix.identity(FieldSpec(p), 3)
    m = Matrix(field, 3, 2, [[1, 2], [0, 1], [1, 1]])
    t = m.transpose()
    assert eye @ m is m and t @ eye is t
    assert rank(eye) == 3
    assert rank(Matrix(field, 2, 2, [[1, 0], [0, 1]])) == 2  # built unshared
    assert solve(eye, m) is m
    for a, b in [(m, Matrix.zeros(field, 3, 0)), (Matrix.zeros(field, 0, 2),
                 Matrix.zeros(field, 0, 4)), (Matrix.zeros(field, 3, 0),
                 Matrix.zeros(field, 3, 2)), (m, Matrix.zeros(field, 3, 2))]:
        assert solve(a, b) == Matrix.zeros(field, a.ncols, b.ncols)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(
    lambda p: st.lists(matrices(p=p), min_size=1, max_size=4)))
def test_direct_sum_matches_the_stacked_zero_blocks(mats):
    assert linalg.direct_sum(mats) == direct_sum_oracle(mats)


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), seed=st.integers(0, 10 ** 6))
def test_block_matrix_matches_the_dense_layout(p, seed):
    """Blocks in any order, several or none in a block row, and block rows
    and columns of size 0, written into a dense list of lists."""
    rng, field = random.Random(seed), FieldSpec(p)
    row_dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
    col_dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
    cells = [(r, c) for r in range(len(row_dims)) for c in range(len(col_dims))]
    blocks = [(r, c, Matrix(field, row_dims[r], col_dims[c],
                            [[rng.randrange(p) for _ in range(col_dims[c])]
                             for _ in range(row_dims[r])]))
              for r, c in rng.sample(cells, rng.randint(0, len(cells)))]
    dense = [[0] * sum(col_dims) for _ in range(sum(row_dims))]
    for r, c, m in blocks:
        for i, row in enumerate(m.to_lists(), sum(row_dims[:r])):
            dense[i][sum(col_dims[:c]):sum(col_dims[:c + 1])] = row
    m = linalg.block_matrix(field, row_dims, col_dims, blocks)
    assert_well_formed(m)
    assert m.to_lists() == dense
