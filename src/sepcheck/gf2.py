"""Exact dense linear algebra over GF(2).

Matrices store one Python integer per column, bit i of column j being the
(i, j) entry, so a matrix is built as its columns are computed and column
operations are single XORs on packed words.  Vectors are plain integers
with the same bit convention, and a basis of a subspace is a tuple of them;
every routine that needs a vector length takes it from the matrix it
accompanies.  An ``Echelon`` keys each row by the index of its pivot bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


_BIT = bytes.maketrans(b"01", b"\0\1")
_DIGIT = bytes.maketrans(b"\0\1", b"01")


def bits_of(v: int, n: int) -> bytes:
    """The 0/1 entries of v (index 0 = bit 0), padded with zeros to length n;
    one ``bin`` string, linear where a shift per bit is quadratic."""
    return bin(v)[:1:-1].encode().translate(_BIT).ljust(n, b"\0") if v else bytes(n)


def vec_from_bits(bits) -> int:
    """Pack an iterable of 0/1 entries (index 0 = bit 0) into an int, linearly."""
    return int(bytes(bits).translate(_DIGIT)[::-1] or b"0", 2)


def dot(u: int, v: int) -> int:
    """GF(2) inner product of two packed vectors."""
    return (u & v).bit_count() & 1


@dataclass(frozen=True)
class BitMatrix:
    """Immutable dense matrix over GF(2); ``data[j]`` packs column j."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self):
        if len(self.data) != self.cols:
            raise ValueError("column count does not match data")
        for c in self.data:
            if c >> self.rows:
                raise ValueError("column has bits beyond declared row count")

    @staticmethod
    def zero(rows: int, cols: int) -> "BitMatrix":
        return BitMatrix(rows, cols, (0,) * cols)

    def matvec(self, x: int) -> int:
        """The XOR of the columns that the packed vector x selects."""
        out = 0
        while x:
            out ^= self.data[(x & -x).bit_length() - 1]
            x &= x - 1
        return out

    def matmul(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matmul")
        return BitMatrix(self.rows, other.cols, tuple(self.matvec(c) for c in other.data))

    def transpose(self) -> "BitMatrix":
        """Walks the set bits of each column: O(rows + cols + set bits) updates."""
        data = [0] * self.rows
        for j, c in enumerate(self.data):
            bit = 1 << j
            while c:
                low = c & -c
                data[low.bit_length() - 1] |= bit
                c ^= low
        return BitMatrix(self.cols, self.rows, tuple(data))

    def hstack(self, other: "BitMatrix") -> "BitMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return BitMatrix(self.rows, self.cols + other.cols, self.data + other.data)

    def vstack(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        data = tuple(a | (b << self.rows) for a, b in zip(self.data, other.data))
        return BitMatrix(self.rows + other.rows, self.cols, data)

    def column(self, j: int) -> int:
        return self.data[j]

    def is_zero(self) -> bool:
        return not any(self.data)


class Echelon:
    """Rows in echelon form, each keyed by the index of its lowest set bit.

    The key j of a row is its pivot: bit j is the row's lowest set bit.  The
    rows need only distinct pivots.  With ``track=True`` each row also records,
    as a packed vector, which inputs were XORed into it;
    ``Echelon(vectors, track=True)`` numbers the inputs by position.
    """

    def __init__(self, vectors=(), track: bool = False):
        self.rows: dict[int, int] = {}
        self.combos: dict[int, int] | None = {} if track else None
        for i, v in enumerate(vectors):
            self.add(v, 1 << i if track else 0)

    def add(self, v: int, combo: int = 0) -> tuple[int, int]:
        """Reduce v only while its lowest bit is a pivot, and keep the rest.

        A nonzero v is kept once its lowest bit is new, with the bits above
        it left as they are: the rows need only distinct pivots, and on
        long vectors that takes far fewer XORs than clearing every pivot
        bit.  Returns the kept row (0 if v reduced to zero) and its combo.
        """
        rows, combos = self.rows, self.combos
        while v:
            j = (v & -v).bit_length() - 1
            row = rows.get(j)
            if row is None:
                rows[j] = v
                if combos is not None:
                    combos[j] = combo
                break
            v ^= row
            if combos is not None:
                combo ^= combos[j]
        return v, combo


def rank(m: BitMatrix) -> int:
    """GF(2) rank: the echelon of the columns, pivots at their lowest bits."""
    return len(Echelon(m.data).rows)


def exact_at(into: BitMatrix, out_of: BitMatrix) -> bool:
    """Whether U --into--> V --out_of--> W is exact at V: im(into) = ker(out_of).

    A zero matrix with 0 rows or 0 columns stands for a map to or from 0.
    """
    if out_of.cols != into.rows:
        raise ValueError("maps are not composable")
    return out_of.matmul(into).is_zero() and rank(into) + rank(out_of) == into.rows


def solve(m: BitMatrix, b: int) -> int | None:
    """Solve m x = b; returns None when inconsistent.

    Free coordinates are set to 0, so the result is deterministic: x is
    supported on the columns independent of the columns before them.
    ``b`` is a packed vector of length m.rows.
    """
    if b >> m.rows:
        raise ValueError("right-hand side longer than row count")
    # the rows have distinct pivots, so b is at most one sum of them, and
    # ``add`` reduces b to zero exactly when it is in their span
    residue, x = Echelon(m.data, track=True).add(b)
    return None if residue else x


def kernel_basis(m: BitMatrix) -> tuple[int, ...]:
    """Basis of the null space {x : m x = 0}, deterministic order."""
    ech = Echelon(track=True)
    basis = []
    for j, col in enumerate(m.data):
        residue, combo = ech.add(col, 1 << j)
        if not residue:
            basis.append(combo)
    return tuple(basis)


def column_space_basis(m: BitMatrix) -> tuple[int, ...]:
    """Basis of the column space, chosen greedily in column order."""
    ech = Echelon()
    return tuple(c for c in m.data if ech.add(c)[0])


def inverse(m: BitMatrix) -> BitMatrix | None:
    """Inverse of a square matrix, or None if singular: one echelon of its columns."""
    ech = Echelon(m.data, track=True)
    if m.rows != m.cols or len(ech.rows) < m.rows:
        return None
    return BitMatrix(m.rows, m.cols, tuple(ech.add(1 << j)[1] for j in range(m.rows)))


# ---------------------------------------------------------------------------
# Commutative-ladder diagram verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LadderDiagram:
    """Two-row ladder

        A --a--> B --b--> C --> 0
        |f       |g       |h
        v        v        v
        D --lam--> A' --a'--> B' --b'--> C'

    with verticals f: A->A', g: B->B', h: C->C' and g invertible.
    """

    top_a: BitMatrix   # a : A -> B
    top_b: BitMatrix   # b : B -> C
    bot_lam: BitMatrix  # lambda : D -> A'
    bot_a: BitMatrix   # a' : A' -> B'
    bot_b: BitMatrix   # b' : B' -> C'
    vert_f: BitMatrix  # f : A -> A'
    vert_g: BitMatrix  # g : B -> B'
    vert_h: BitMatrix  # h : C -> C'


@dataclass(frozen=True)
class LadderCheckResult:
    ker_h_dim: int
    coker_fplus_lambda_dim: int
    commutes: bool
    rows_exact: bool


def ladder_check(d: LadderDiagram) -> LadderCheckResult:
    """Verify the ladder and report dim ker(h) and dim coker(f + lambda).

    The two dimensions agree whenever the diagram commutes and both rows
    are exact; callers assert that equality, this function just reports.
    """
    dim_a = d.top_a.cols
    dim_b = d.top_a.rows
    dim_c = d.top_b.rows
    dim_ap = d.bot_a.cols
    dim_bp = d.bot_a.rows
    if d.top_b.cols != dim_b or d.bot_b.cols != dim_bp:
        raise ValueError("row maps not composable")
    if d.vert_f.cols != dim_a or d.vert_f.rows != dim_ap:
        raise ValueError("vertical f has wrong shape")
    if d.vert_g.rows != d.vert_g.cols or d.vert_g.cols != dim_b or d.vert_g.rows != dim_bp:
        raise ValueError("g must be square B -> B'")
    if rank(d.vert_g) != dim_b:
        raise ValueError("g is singular")
    if d.vert_h.cols != dim_c or d.vert_h.rows != d.bot_b.rows:
        raise ValueError("vertical h has wrong shape")
    if d.bot_lam.rows != dim_ap:
        raise ValueError("lambda must land in A'")

    commutes = (
        d.vert_g.matmul(d.top_a) == d.bot_a.matmul(d.vert_f)
        and d.vert_h.matmul(d.top_b) == d.bot_b.matmul(d.vert_g)
    )

    # Top row exact at B and at C (the -> 0 makes b surjective).
    top_exact = exact_at(d.top_a, d.top_b) and exact_at(d.top_b, BitMatrix.zero(0, dim_c))
    # Bottom row exact at A' and at B'.
    bot_exact = exact_at(d.bot_lam, d.bot_a) and exact_at(d.bot_a, d.bot_b)

    ker_h = dim_c - rank(d.vert_h)
    coker = dim_ap - rank(d.vert_f.hstack(d.bot_lam))
    return LadderCheckResult(ker_h, coker, commutes, top_exact and bot_exact)


def _random_matrix(rng: random.Random, rows: int, cols: int) -> BitMatrix:
    return BitMatrix(rows, cols, tuple(rng.getrandbits(rows) for _ in range(cols)))


def _random_full_rank(rng: random.Random, rows: int, cols: int) -> BitMatrix:
    """Random matrix of rank min(rows, cols); dims here are tiny."""
    want = min(rows, cols)
    while True:
        m = _random_matrix(rng, rows, cols)
        if rank(m) == want:
            return m


def _random_subspace(rng: random.Random, ambient: int, dim: int) -> tuple[int, ...]:
    """dim independent vectors of GF(2)^ambient."""
    while True:
        rows = Echelon(rng.getrandbits(ambient) for _ in range(dim + 2)).rows
        if len(rows) >= dim:
            return tuple(rows[p] for p in sorted(rows)[:dim])


def _quotient_map(ambient: int, sub: tuple[int, ...]) -> BitMatrix:
    """Projection GF(2)^ambient -> GF(2)^(ambient-dim) with kernel = sub.

    Also returns nothing extra; the section used in ladder generation is
    reconstructed from the same complement columns.
    """
    t, _ = _extend_to_basis(ambient, sub)
    tinv = inverse(t)
    assert tinv is not None
    return BitMatrix(ambient - len(sub), ambient, tuple(c >> len(sub) for c in tinv.data))


def _extend_to_basis(ambient: int, sub: tuple[int, ...]):
    """Invertible matrix whose first dim(sub) columns span sub.

    Returns (T, complement_columns).
    """
    ech = Echelon(sub)
    extra = [1 << j for j in range(ambient) if ech.add(1 << j)[0]]
    return BitMatrix(ambient, ambient, sub + tuple(extra)), extra


def random_exact_ladder(rng: random.Random) -> LadderDiagram:
    """Generate a valid ladder (commuting, exact rows, g invertible).

    Bottom row first: choose B', a subspace V = im(a'), the quotient C';
    then mirror the construction on the top row through a random invertible
    g, which forces the squares to close. Exactness holds by construction,
    so no rejection sampling is needed.
    """
    dim_bp = rng.randint(1, 6)
    v = rng.randint(0, dim_bp)
    vbasis = _random_subspace(rng, dim_bp, v)

    dim_ap = v + rng.randint(0, 2)
    p_bot = _random_full_rank(rng, v, dim_ap) if v else BitMatrix.zero(0, dim_ap)
    bot_a = BitMatrix(dim_bp, v, vbasis).matmul(p_bot)

    kbasis = kernel_basis(bot_a)
    dim_d = len(kbasis) + rng.randint(0, 2)
    if kbasis:
        q = _random_full_rank(rng, len(kbasis), dim_d)
        bot_lam = BitMatrix(dim_ap, len(kbasis), kbasis).matmul(q)
    else:
        bot_lam = BitMatrix.zero(dim_ap, dim_d)

    bot_b = _quotient_map(dim_bp, vbasis)

    g = _random_full_rank(rng, dim_bp, dim_bp)
    ginv = inverse(g)
    assert ginv is not None
    # W = g^{-1}(V) so that g(im a) = im a'.
    wbasis = tuple(ginv.matvec(x) for x in vbasis)

    dim_a = v + rng.randint(0, 2)
    p_top = _random_full_rank(rng, v, dim_a) if v else BitMatrix.zero(0, dim_a)
    top_a = BitMatrix(dim_bp, v, wbasis).matmul(p_top)
    top_b = _quotient_map(dim_bp, wbasis)

    # f solves a' f = g a column by column (consistent since g(W) = V).
    fcols = []
    for col in g.matmul(top_a).data:
        x = solve(bot_a, col)
        assert x is not None
        fcols.append(x)
    vert_f = BitMatrix(dim_ap, dim_a, tuple(fcols))

    # h is determined: h = b' g s for any section s of b (one column per
    # complement vector, so h has top_b.rows columns).
    _, extra = _extend_to_basis(dim_bp, wbasis)
    bg = bot_b.matmul(g)
    vert_h = BitMatrix(bot_b.rows, len(extra), tuple(bg.matvec(e) for e in extra))

    return LadderDiagram(top_a, top_b, bot_lam, bot_a, bot_b, vert_f, g, vert_h)
