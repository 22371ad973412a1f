import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepcheck.gf2 import (
    BitMatrix,
    Echelon,
    LadderDiagram,
    exact_at,
    inverse,
    kernel_basis,
    ladder_check,
    random_exact_ladder,
    rank,
    solve,
    vec_from_bits,
)


def vec_to_bits(v: int, length: int) -> list[int]:
    return [(v >> j) & 1 for j in range(length)]


def cokernel_dim(m: BitMatrix) -> int:
    """dim of GF(2)^rows / column space = rows - rank."""
    return m.rows - rank(m)


def identity(n: int) -> BitMatrix:
    return BitMatrix(n, n, tuple(1 << i for i in range(n)))


def from_rows(rows: list[list[int]]) -> BitMatrix:
    """Matrix with the given 0/1 rows, packed by column."""
    cols = len(rows[0]) if rows else 0
    data = tuple(vec_from_bits(r[j] for r in rows) for j in range(cols))
    return BitMatrix(len(rows), cols, data)


def matrices(rows: int, cols: int):
    """Strategy for rows x cols matrices, one drawn integer per column."""
    column = st.integers(0, (1 << rows) - 1)
    return st.tuples(*[column] * cols).map(lambda data: BitMatrix(rows, cols, data))


@st.composite
def bit_matrices(draw, max_dim=8):
    return draw(matrices(draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))))


def test_rank_identity_and_zero():
    assert rank(identity(3)) == 3
    assert rank(BitMatrix.zero(4, 7)) == 0


def test_rank_dependent_rows():
    m = from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    # oracle: enumerate all 8 column combinations; the full sum vanishes
    combos = set()
    for mask in range(8):
        acc = 0
        for j in range(3):
            if (mask >> j) & 1:
                acc ^= m.data[j]
        combos.add(acc)
    assert len(combos) == 2 ** 2
    assert rank(m) == 2


def test_solve_examples():
    ident = identity(3)
    assert solve(ident, vec_from_bits([1, 0, 1])) == vec_from_bits([1, 0, 1])
    assert solve(BitMatrix.zero(2, 2), vec_from_bits([1, 0])) is None
    m = from_rows([[1, 1], [0, 1]])
    x = solve(m, vec_from_bits([0, 1]))
    # oracle: check all 4 candidates by substitution
    sols = [c for c in range(4) if m.matvec(c) == vec_from_bits([0, 1])]
    assert sols == [vec_from_bits([1, 1])]
    assert x == vec_from_bits([1, 1])


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(identity(2), 1 << 5)


def test_kernel_basis_examples():
    assert kernel_basis(identity(3)) == ()
    assert len(kernel_basis(BitMatrix.zero(2, 3))) == 3
    m = from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    kb = kernel_basis(m)
    # oracle: brute force over all 8 vectors
    null = [v for v in range(8) if m.matvec(v) == 0]
    assert sorted(null) == [0, vec_from_bits([1, 1, 1])]
    assert kb == (vec_from_bits([1, 1, 1]),)


def test_cokernel_dim_examples():
    assert cokernel_dim(identity(3)) == 0
    assert cokernel_dim(BitMatrix.zero(2, 3)) == 2
    assert cokernel_dim(from_rows([[1], [1]])) == 1


@given(bit_matrices())
@settings(max_examples=200)
def test_rank_transpose(m):
    assert rank(m) == rank(m.transpose())


@given(bit_matrices())
@settings(max_examples=200)
def test_rank_nullity(m):
    assert m.cols == rank(m) + len(kernel_basis(m))


@given(bit_matrices())
@settings(max_examples=200)
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        assert m.matvec(v) == 0


@given(bit_matrices(), st.integers(0, 255))
@settings(max_examples=200)
def test_solve_substitution(m, seed):
    rng = random.Random(seed)
    b = rng.getrandbits(m.rows) if m.rows else 0
    x = solve(m, b)
    if x is not None:
        assert m.matvec(x) == b
    assert (x is None) == (b not in _span(m.data))


def test_echelon_keys_rows_by_pivot_index():
    ech = Echelon([0b110, 0b100], track=True)
    assert ech.rows == {1: 0b110, 2: 0b100}
    assert ech.combos == {1: 0b01, 2: 0b10}


def _contains(vectors, v: int) -> bool:
    """Whether v lies in the span of vectors: it adds nothing to their echelon."""
    return Echelon(vectors).add(v)[0] == 0


def test_contains_with_basis_not_in_echelon_form():
    # 0b10 = 0b11 ^ 0b01, although no basis vector alone has pivot bit 1
    assert _contains((0b11, 0b01), 0b10)
    assert _contains((0b011, 0b001), 0b010)
    assert not _contains((0b011, 0b001), 0b100)


def _span(vectors):
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return span


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, (1 << n) - 1), max_size=6), st.integers(0, (1 << n) - 1))))
@settings(max_examples=300)
def test_contains_matches_span_enumeration(case):
    vectors, v = case
    assert _contains(vectors, v) == (v in _span(vectors))


@given(st.lists(st.integers(0, 255), max_size=8), st.integers(0, 255))
@settings(max_examples=200)
def test_add_keeps_an_echelon_of_the_same_span(vectors, v):
    ech = Echelon(track=True)
    for i, w in enumerate(vectors):
        row, combo = ech.add(w, 1 << i)
        used = 0
        for k, u in enumerate(vectors):
            if (combo >> k) & 1:
                used ^= u
        assert row == used  # the kept row (or 0) is the tracked combination
    assert len(ech.rows) == rank(BitMatrix(8, len(vectors), tuple(vectors)))
    assert all(row & -row == 1 << j for j, row in ech.rows.items())
    assert (ech.add(v)[0] == 0) == (v in _span(vectors))


def _transpose_entrywise(m: BitMatrix) -> BitMatrix:
    """Reference for ``transpose``: column i packs bit i of every column of m."""
    data = tuple(vec_from_bits(((c >> i) & 1) for c in m.data) for i in range(m.rows))
    return BitMatrix(m.cols, m.rows, data)


@st.composite
def column_lists(draw, max_dim=40):
    rows = draw(st.integers(0, max_dim))
    column = st.one_of(st.just(0), st.integers(0, (1 << rows) - 1))
    return rows, draw(st.lists(column, max_size=max_dim))


@given(column_lists())
@settings(max_examples=300)
@example((0, []))
@example((5, []))
@example((0, [0, 0, 0]))
@example((3, [0, 0b101, 0]))
def test_transpose_matches_entrywise_transposition(case):
    rows, cols = case
    m = BitMatrix(rows, len(cols), tuple(cols))
    assert m.transpose() == _transpose_entrywise(m)
    assert m.transpose().transpose() == m


@given(column_lists(), st.integers(0, 40), st.integers(0, 40))
@settings(max_examples=200)
def test_constructor_rejects_bits_beyond_rows(case, where, past):
    rows, cols = case
    at = where % (len(cols) + 1)
    with pytest.raises(ValueError):
        BitMatrix(rows, len(cols) + 1, tuple(cols[:at] + [1 << (rows + past)] + cols[at:]))


def test_public_constructors_still_check_the_shape():
    with pytest.raises(ValueError):
        BitMatrix(1, 2, (0b10, 0))  # a bit beyond the declared row count
    with pytest.raises(ValueError):
        BitMatrix(1, 2, (1,))  # one column short
    with pytest.raises(ValueError):
        BitMatrix(1, 1, (-1,))  # a negative column has bits everywhere
    assert BitMatrix.zero(3, 2) == BitMatrix(3, 2, (0, 0))


def _entries(m: BitMatrix) -> set[tuple[int, int]]:
    """The (i, j) pairs of the nonzero entries; bit i of column j is entry (i, j)."""
    return {(i, j) for j, c in enumerate(m.data) for i in range(m.rows) if (c >> i) & 1}


@st.composite
def operands(draw, max_dim=6):
    """(a, b, right, below, x): a is r x c, b is c x k, right is r x c2,
    below is r2 x c, and x is a vector of length c."""
    r, c, k, r2, c2 = (draw(st.integers(0, max_dim)) for _ in range(5))
    return (draw(matrices(r, c)), draw(matrices(c, k)), draw(matrices(r, c2)),
            draw(matrices(r2, c)), draw(st.integers(0, (1 << c) - 1)))


@given(operands())
@settings(max_examples=300)
@example((BitMatrix.zero(0, 0),) * 4 + (0,))
@example((BitMatrix.zero(0, 2), BitMatrix.zero(2, 0), BitMatrix.zero(0, 3),
          BitMatrix(1, 2, (1, 0)), 0b11))
@example((BitMatrix(3, 0, ()), BitMatrix.zero(0, 2), BitMatrix(3, 1, (0b101,)),
          BitMatrix.zero(2, 0), 0))
def test_operations_match_entrywise_reference(case):
    a, b, right, below, x = case
    ea, eb = _entries(a), _entries(b)

    def odd(counts: Counter) -> set:
        return {key for key, n in counts.items() if n % 2}

    t = a.transpose()
    assert (t.rows, t.cols, _entries(t)) == (a.cols, a.rows, {(j, i) for i, j in ea})
    selected = Counter(i for i, j in ea if (x >> j) & 1)
    assert a.matvec(x) == sum(1 << i for i in odd(selected))
    ab = a.matmul(b)
    products = Counter((i, k) for i, j in ea for jj, k in eb if j == jj)
    assert (ab.rows, ab.cols, _entries(ab)) == (a.rows, b.cols, odd(products))
    h = a.hstack(right)
    assert (h.rows, h.cols) == (a.rows, a.cols + right.cols)
    assert _entries(h) == ea | {(i, j + a.cols) for i, j in _entries(right)}
    v = a.vstack(below)
    assert (v.rows, v.cols) == (a.rows + below.rows, a.cols)
    assert _entries(v) == ea | {(i + a.rows, j) for i, j in _entries(below)}


def test_inverse_roundtrip():
    m = from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    inv = inverse(m)
    assert inv is not None
    assert m.matmul(inv) == identity(3)
    assert inverse(BitMatrix.zero(2, 2)) is None


def test_vec_roundtrip():
    bits = [1, 0, 1, 1, 0]
    assert vec_to_bits(vec_from_bits(bits), 5) == bits


# --- exactness ------------------------------------------------------------

@st.composite
def composable_pairs(draw, max_dim=5):
    """(into, out_of) with into: U -> V and out_of: V -> W, dims up to max_dim.

    Half the draws take ``into`` from a kernel basis of ``out_of``, padded
    with zero columns, so exact pairs are common.
    """
    u, v, w = (draw(st.integers(0, max_dim)) for _ in range(3))
    out_of = draw(matrices(w, v))
    if draw(st.booleans()):
        ker = kernel_basis(out_of) + (0,) * draw(st.integers(0, 2))
        into = BitMatrix(v, len(ker), ker)
    else:
        into = draw(matrices(v, u))
    return into, out_of


@given(composable_pairs())
@example((BitMatrix.zero(0, 0), BitMatrix.zero(0, 0)))    # 0 -> 0 -> 0
@example((BitMatrix.zero(2, 0), BitMatrix.zero(0, 2)))    # 0 -> F2^2 -> 0
@example((BitMatrix.zero(2, 0), identity(2)))   # 0 -> F2^2 --iso-->
@example((identity(2), BitMatrix.zero(0, 2)))   # --iso--> F2^2 -> 0
@settings(max_examples=300, deadline=None)
def test_exact_at_matches_brute_force(pair):
    into, out_of = pair
    image = {into.matvec(x) for x in range(1 << into.cols)}
    kernel = {y for y in range(1 << into.rows) if out_of.matvec(y) == 0}
    assert exact_at(into, out_of) == (image == kernel)


@pytest.mark.parametrize("into, out_of", [
    (BitMatrix.zero(2, 1), BitMatrix.zero(1, 3)),
    (BitMatrix.zero(0, 1), BitMatrix.zero(1, 1)),
    (identity(2), BitMatrix.zero(0, 1)),
])
def test_exact_at_rejects_non_composable_maps(into, out_of):
    with pytest.raises(ValueError):
        exact_at(into, out_of)


# --- ladder diagram (kernel/cokernel lemma) --------------------------------

def _zero_ladder():
    z = BitMatrix.zero(0, 0)
    return LadderDiagram(z, z, z, z, z, z, z, z)


def test_ladder_all_zero():
    r = ladder_check(_zero_ladder())
    assert r.commutes and r.rows_exact
    assert r.ker_h_dim == 0 and r.coker_fplus_lambda_dim == 0


def test_ladder_identity_rows():
    # rows are the same short exact sequence, verticals are identities, D = 0
    a = from_rows([[1], [0]])          # A=F2 -> B=F2^2
    b = from_rows([[0, 1]])            # B -> C=F2
    lam = BitMatrix.zero(1, 0)
    d = LadderDiagram(a, b, lam, a, b,
                      identity(1), identity(2), identity(1))
    r = ladder_check(d)
    assert r.commutes and r.rows_exact
    assert r.ker_h_dim == 0 == r.coker_fplus_lambda_dim


A_SES = from_rows([[1], [0]])   # F2 -> F2^2, first coordinate
B_SES = from_rows([[0, 1]])     # F2^2 -> F2, second coordinate


@pytest.mark.parametrize("top_a, bot_lam, vert_f", [
    # top row 0 -> F2^2 -> F2 -> 0 is not exact at B
    (BitMatrix.zero(2, 1), BitMatrix.zero(1, 0), BitMatrix.zero(1, 1)),
    # bottom row F2 -> F2 -> F2^2 has a' lambda != 0
    (A_SES, identity(1), identity(1)),
])
def test_ladder_non_exact_row(top_a, bot_lam, vert_f):
    d = LadderDiagram(top_a, B_SES, bot_lam, A_SES, B_SES,
                      vert_f, identity(2), identity(1))
    r = ladder_check(d)
    assert r.commutes and not r.rows_exact


def test_ladder_singular_g_rejected():
    a = BitMatrix.zero(1, 1)
    d = LadderDiagram(a, a, a, a, a, a, BitMatrix.zero(1, 1), a)
    with pytest.raises(ValueError):
        ladder_check(d)


def test_randomized_ladders_agree():
    rng = random.Random(20260823)
    for _ in range(150):
        r = ladder_check(random_exact_ladder(rng))
        assert r.commutes and r.rows_exact
        assert r.ker_h_dim == r.coker_fplus_lambda_dim
