"""Dense vectors and matrices over F_q.

Vectors are plain tuples of canonical integers; matrices are immutable
value types.  Index sets passed to subvector/submatrix operations are
1-based, matching the instance file format.

Elimination uses a fixed pivot order (leftmost column, topmost row) so
ranks, echelon forms and null-space bases are reproducible.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from . import kernels
from .errors import FieldMismatchError
from .gfield import Field, arithmetic


def subvector(x: Sequence[int], indices: Iterable[int]) -> tuple[int, ...]:
    """Entries of x at the given 1-based indices, in ascending index order."""
    idx = sorted(set(indices))
    if idx and (idx[0] < 1 or idx[-1] > len(x)):
        raise IndexError(f"indices {idx} out of range for length {len(x)}")
    return tuple(x[i - 1] for i in idx)


def hamming_weight(x: Iterable[int]) -> int:
    return sum(1 for v in x if v != 0)


def vec_add(field: Field, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(field.add(x, y) for x, y in zip(a, b, strict=True))


def vec_sub(field: Field, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(field.sub(x, y) for x, y in zip(a, b, strict=True))


def vec_scale(field: Field, c: int, a: Sequence[int]) -> tuple[int, ...]:
    return tuple(field.mul(c, v) for v in a)


def dot(field: Field, a: Sequence[int], b: Sequence[int]) -> int:
    acc = 0
    for x, y in zip(a, b, strict=True):
        acc = field.add(acc, field.mul(x, y))
    return acc


def table_dot(add, mul, a: Sequence[int], b: Sequence[int]) -> int:
    """dot(field, a, b) through the field's tables from gfield.arithmetic."""
    acc = 0
    for x, y in zip(a, b, strict=True):
        if x and y:
            acc = add[acc][mul[x][y]]
    return acc


def mask_of(vec: Sequence[int]) -> int:
    """Pack an F_2 vector into an int, coordinate 1 at the highest bit."""
    m = 0
    for v in vec:
        m = (m << 1) | (1 if v else 0)
    return m


def vec_of_mask(mask: int, n: int) -> tuple[int, ...]:
    return tuple((mask >> (n - 1 - k)) & 1 for k in range(n))


# ---------------------------------------------------------------------------
# packed vectors: the one place that tells F_2 from F_q

def vector_space(field: Field, n: int):
    """F_q^n packed for bulk work: int masks over F_2, tuples otherwise.

    Both packings list vectors in the lexicographic order of their
    coordinate tuples and share one interface: pack / unpack; vectors()
    and projective() (first nonzero entry 1); translate(v, vs), the
    v + s for s in vs; scale(c, v); supports(vs), masks with coordinate 1
    in the highest bit; weight(v); codeword(x, cols), x times the matrix
    with these packed columns, packed in F_q^len(cols); and
    first_failing(zs, cols, need), the index of the first z with
    wt(z * G) < need, or -1.  extend(span, v, table) serves the subspace
    walk: the span of span + {v}, or None when the coset v + span meets
    the interference table (indexed by support mask); interference is
    closed under scaling, so only that coset is tested.
    """
    return _F2Vectors(n) if field.q == 2 else _FqVectors(field, n)


class _F2Vectors:
    """F_2^n as int masks: adding is XOR and a mask is its own support;
    codeword and first_failing are the GF(2) kernels."""

    q = 2

    def __init__(self, n: int):
        self.n = n

    def pack(self, vec: Sequence[int]) -> int:
        return mask_of(vec)

    def unpack(self, v: int) -> tuple[int, ...]:
        return vec_of_mask(v, self.n)

    def vectors(self) -> range:
        return range(1 << self.n)

    def projective(self) -> range:
        return range(1, 1 << self.n)

    def translate(self, v: int, vs) -> list[int]:
        return [v ^ s for s in vs]

    def scale(self, c: int, v: int) -> int:
        return v if c else 0

    def extend(self, span: list[int], v: int, table) -> list[int] | None:
        coset = [v ^ s for s in span]
        if any(map(table.__getitem__, coset)):
            return None
        return span + coset

    def supports(self, vs):
        return vs

    def weight(self, v: int) -> int:
        return v.bit_count()

    def codeword(self, x: int, cols: list[int]) -> int:
        return kernels.gf2_mul_vec(x, cols)

    def first_failing(self, zs: list[int], cols: list[int], need: int) -> int:
        return kernels.gf2_first_failing(zs, cols, need)


class _FqVectors:
    """F_q^n as tuples of field elements, added, scaled and multiplied
    through the field's tables."""

    def __init__(self, field: Field, n: int):
        self.n = n
        self.q = field.q
        self._add, _, self._mul = arithmetic(field)
        self._scales = [self._mul[c] for c in range(2, self.q)]
        self._bits = [1 << (n - 1 - j) for j in range(n)]

    def pack(self, vec: Sequence[int]) -> tuple[int, ...]:
        return tuple(vec)

    def unpack(self, v: tuple[int, ...]) -> tuple[int, ...]:
        return v

    def vectors(self) -> list[tuple[int, ...]]:
        return list(itertools.product(range(self.q), repeat=self.n))

    def projective(self) -> list[tuple[int, ...]]:
        return [v for v in self.vectors() if next((a for a in v if a), 0) == 1]

    def translate(self, v, vs) -> list[tuple[int, ...]]:
        add = self._add
        return [tuple([add[a][b] for a, b in zip(v, s)]) for s in vs]

    def scale(self, c: int, v) -> tuple[int, ...]:
        m = self._mul[c]
        return tuple([m[a] for a in v])

    def extend(self, span: list, v, table) -> list | None:
        coset, bits = self.translate(v, span), self._bits
        for z in coset:
            if table[sum(bit for a, bit in zip(z, bits) if a)]:
                return None
        return span + coset + [tuple([m[a] for a in z])
                               for m in self._scales for z in coset]

    def supports(self, vs):
        bits = self._bits
        return [sum([bit for a, bit in zip(v, bits) if a]) for v in vs]

    def weight(self, v) -> int:
        return len(v) - v.count(0)

    def codeword(self, x, cols) -> tuple[int, ...]:
        add, mul = self._add, self._mul
        return tuple([table_dot(add, mul, x, c) for c in cols])

    def first_failing(self, zs, cols, need: int) -> int:
        return next((idx for idx, z in enumerate(zs)
                     if self.weight(self.codeword(z, cols)) < need), -1)


class Matrix:
    """An immutable r x c matrix over a finite field."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: Field, rows: Iterable[Iterable[int]], ncols: int | None = None):
        rows = tuple(tuple(field.check(v) for v in r) for r in rows)
        if rows:
            ncols_seen = len(rows[0])
            if any(len(r) != ncols_seen for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != ncols_seen:
                raise ValueError("ncols disagrees with row length")
            ncols = ncols_seen
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    # -- construction ----------------------------------------------------

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(field: Field, r: int, c: int) -> "Matrix":
        return Matrix(field, [[0] * c for _ in range(r)], ncols=c)

    def _same(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise FieldMismatchError("matrices over different fields")

    # -- selection -------------------------------------------------------

    def row(self, i: int) -> tuple[int, ...]:
        """The i-th row, 1-based."""
        if not 1 <= i <= self.nrows:
            raise IndexError(f"row {i} out of range")
        return self.rows[i - 1]

    def submatrix_rows(self, indices: Iterable[int]) -> "Matrix":
        idx = sorted(set(indices))
        if idx and (idx[0] < 1 or idx[-1] > self.nrows):
            raise IndexError(f"row indices {idx} out of range")
        return Matrix(self.field, [self.rows[i - 1] for i in idx], ncols=self.ncols)

    def transpose(self) -> "Matrix":
        if not self.rows:
            return Matrix(self.field, [[] for _ in range(self.ncols)], ncols=0)
        return Matrix(self.field, zip(*self.rows), ncols=self.nrows)

    def with_row(self, v: Sequence[int]) -> "Matrix":
        return Matrix(self.field, list(self.rows) + [tuple(v)], ncols=self.ncols)

    def columns(self) -> list[tuple[int, ...]]:
        return [tuple(r[k] for r in self.rows) for k in range(self.ncols)]

    # -- arithmetic ------------------------------------------------------

    def vec_mul(self, z: Sequence[int]) -> tuple[int, ...]:
        """Row vector z (length nrows) times this matrix."""
        f = self.field
        if len(z) != self.nrows:
            raise ValueError("dimension mismatch")
        acc = [0] * self.ncols
        for zi, row in zip(z, self.rows):
            if zi:
                for k, v in enumerate(row):
                    if v:
                        acc[k] = f.add(acc[k], f.mul(zi, v))
        return tuple(acc)

    def mul_col(self, v: Sequence[int]) -> tuple[int, ...]:
        """This matrix times the column vector v; result has nrows entries."""
        return tuple(dot(self.field, row, v) for row in self.rows)

    def mul(self, other: "Matrix") -> "Matrix":
        self._same(other)
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        return Matrix(self.field, [other.vec_mul(row) for row in self.rows],
                      ncols=other.ncols)

    # -- elimination -----------------------------------------------------

    def rref(self) -> tuple[list[list[int]], list[int]]:
        """Reduced row-echelon form; returns (rows, pivot column indices 0-based)."""
        f = self.field
        rows = [list(r) for r in self.rows]
        pivots: list[int] = []
        r = 0
        for c in range(self.ncols):
            sel = None
            for i in range(r, len(rows)):
                if rows[i][c] != 0:
                    sel = i
                    break
            if sel is None:
                continue
            rows[r], rows[sel] = rows[sel], rows[r]
            inv = f.inv(rows[r][c])
            rows[r] = [f.mul(inv, v) for v in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c] != 0:
                    coef = rows[i][c]
                    rows[i] = [f.sub(v, f.mul(coef, w)) for v, w in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == len(rows):
                break
        return rows[:r], pivots

    def rank(self) -> int:
        if self.field.q == 2:
            return kernels.gf2_rank([mask_of(r) for r in self.rows])
        return len(self.rref()[1])

    def null_space_basis(self) -> "Matrix":
        """Basis of the right kernel {v : A v^T = 0}, one row per basis vector.

        Derived from the reduced echelon form, so the output is
        deterministic: one row per free column, in ascending column order.
        """
        f = self.field
        rows, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for fc in free:
            v = [0] * self.ncols
            v[fc] = 1
            for r, pc in enumerate(pivots):
                v[pc] = f.neg(rows[r][fc])
            basis.append(v)
        return Matrix(f, basis, ncols=self.ncols)

    def in_row_span(self, v: Sequence[int]) -> bool:
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        return self.with_row(v).rank() == self.rank()

    # -- identity and serialization --------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self) -> str:
        body = "; ".join("".join(str(v) for v in r) for r in self.rows)
        return f"Matrix(F{self.field.q}, {self.nrows}x{self.ncols}: {body})"

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]
