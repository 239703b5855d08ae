"""Dense vectors and matrices over F_q.

Vectors are plain tuples of canonical integers; matrices are immutable
value types.  Index sets passed to submatrix operations are 1-based,
matching the instance file format.

``RowSpan`` is the one row reduction over F_q: an incremental span with
undo, read through the field's tables.  ``Matrix.rref``, and through it
``null_space_basis``, ``Matrix.in_row_span``, ``Matrix.rank`` over
q != 2, and encoder's ``independent_columns`` and ``minrank`` all reduce
through it; ``RowSpan.first_completion`` settles a minrank column by
elimination, with no trial completions.  Over F_2, ``Matrix.rank`` is the kernel ``gf2_rank`` on
packed rows.  The reduced row-echelon form depends only on the row
space, so echelon forms and null-space bases are reproducible.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence

from . import kernels
from .errors import FieldMismatchError
from .gfield import Field, arithmetic


def table_dot(add, mul, a: Sequence[int], b: Sequence[int]) -> int:
    """The dot product of a and b through the field's add and mul tables
    from gfield.arithmetic."""
    acc = 0
    for x, y in zip(a, b, strict=True):
        if x and y:
            acc = add[acc][mul[x][y]]
    return acc


def low_weight(k: int, q: int, t: int):
    """Every vector of F_q^k with at most t nonzero entries, as
    (positions, values): its 0-based nonzero positions, ascending, and
    the entries there.  Ordered by weight, then positions
    lexicographically, then values lexicographically; the zero vector,
    ((), ()), comes first.  Error patterns are walked in this order: the
    decoder's coset leaders and the simulation's cache errors."""
    # no weight exceeds k (combinations(.., w) allocates w)
    for w in range(min(t, k) + 1):
        for positions in itertools.combinations(range(k), w):
            for values in itertools.product(range(1, q), repeat=w):
                yield positions, values


def low_weight_count(k: int, q: int, t: int) -> int:
    """How many vectors ``low_weight(k, q, t)`` lists, counted without
    listing them."""
    return sum(math.comb(k, w) * (q - 1) ** w for w in range(min(t, k) + 1))


def mask_of(vec: Sequence[int]) -> int:
    """Pack an F_2 vector into an int, coordinate 1 at the highest bit."""
    m = 0
    for v in vec:
        m = (m << 1) | (1 if v else 0)
    return m


def vec_of_mask(mask: int, n: int) -> tuple[int, ...]:
    return tuple((mask >> (n - 1 - k)) & 1 for k in range(n))


# ---------------------------------------------------------------------------
# packed vectors: the one place that tells F_2 from F_q, and lane-packed sums

def vector_space(field: Field, n: int):
    """F_q^n packed for bulk work: int masks over F_2, tuples otherwise.

    Both packings share one interface: pack / unpack; projective(), the
    vectors with first nonzero entry 1 in the lexicographic order of
    their coordinate tuples; supports(vs), masks with coordinate 1 in
    the highest bit; first_failing(zs, cols, need), the index of the
    first z with wt(z * G) < need, or -1, for G the matrix with these
    packed columns, which validity and the minimum distance ask; and
    hit_masks(zs, cs), for each c of cs in turn, computed as it is
    read, the bitset of the z in zs with z . c != 0, bit k for zs[k],
    which the column-multiset walk counts in bit-slices.
    extend(span, v, lookup) serves the subspace walk:
    the span of span + {v}, or None when the coset v + span meets the
    interference set, lookup(support mask) being true on it (the
    walk binds its table's lookup once); interference is
    closed under scaling, so only that coset is tested.  Sums of many
    vectors, as a decode and the decodability oracle make, are
    LaneVectors' work: one packing and one int addition for every q.
    """
    return _F2Vectors(n) if field.q == 2 else _FqVectors(field, n)


class _F2Vectors:
    """F_2^n as int masks: adding is XOR, a mask is its own support and
    z . c is the parity of z & c; first_failing is the GF(2) kernel."""

    q = 2

    def __init__(self, n: int):
        self.n = n

    def pack(self, vec: Sequence[int]) -> int:
        return mask_of(vec)

    def unpack(self, v: int) -> tuple[int, ...]:
        return vec_of_mask(v, self.n)

    def projective(self) -> range:
        return range(1, 1 << self.n)

    def extend(self, span: list[int], v: int, lookup) -> list[int] | None:
        coset = [v ^ s for s in span]
        if any(map(lookup, coset)):
            return None
        return span + coset

    def supports(self, vs):
        return vs

    def first_failing(self, zs: list[int], cols: list[int], need: int) -> int:
        return kernels.gf2_first_failing(zs, cols, need)

    def hit_masks(self, zs: list[int], cs):
        # z . c is the parity of z & c, so the z that c hits are the XOR,
        # over c's coordinates, of the z holding that coordinate
        at_bit = [sum(1 << k for k, z in enumerate(zs) if z >> b & 1)
                  for b in range(self.n)]
        for c in cs:
            m = 0
            while c:
                low = c & -c
                m ^= at_bit[low.bit_length() - 1]
                c ^= low
            yield m


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

    def projective(self) -> list[tuple[int, ...]]:
        # lexicographic: the later the leading 1, the earlier the vector
        n, q = self.n, self.q
        return [(0,) * j + (1,) + tail for j in range(n - 1, -1, -1)
                for tail in itertools.product(range(q), repeat=n - 1 - j)]

    def translate(self, v, vs) -> list[tuple[int, ...]]:
        add = self._add
        return [tuple([add[a][b] for a, b in zip(v, s)]) for s in vs]

    def extend(self, span: list, v, lookup) -> list | None:
        coset, bits = self.translate(v, span), self._bits
        for z in coset:
            if lookup(sum(bit for a, bit in zip(z, bits) if a)):
                return None
        return span + coset + [tuple([m[a] for a in z])
                               for m in self._scales for z in coset]

    def supports(self, vs):
        bits = self._bits
        return [sum([bit for a, bit in zip(v, bits) if a]) for v in vs]

    def first_failing(self, zs, cols, need: int) -> int:
        add, mul = self._add, self._mul
        for idx, z in enumerate(zs):
            word = [table_dot(add, mul, z, c) for c in cols]
            if len(word) - word.count(0) < need:
                return idx
        return -1

    def hit_masks(self, zs, cs):
        add, mul = self._add, self._mul
        # each z as its nonzero coordinates and their rows of mul,
        # listed from the last z so that zs[k] lands at bit k
        terms = [[(j, mul[a]) for j, a in enumerate(z) if a]
                 for z in reversed(zs)]
        for c in cs:
            m = 0
            for term in terms:
                acc = 0
                for j, row in term:
                    acc = add[acc][row[c[j]]]
                m = (m << 1) | (acc != 0)
            yield m


class LaneVectors:
    """F_q^n as ints with one w-bit lane per base-p digit of each
    coordinate, for sums of up to `terms` vectors: SIMD within a
    register (Fisher & Dietz, LCPC 1998).

    Coordinate 1 takes the highest lanes, and digit i of a coordinate
    (the coefficient of x^i, see gfield) its i-th lowest.  A sum of
    `terms` packed vectors leaves at most terms * (p - 1) in a lane,
    which w holds with one guard bit above it to spare, so the sum is
    one int addition and no lane carries into the next.  reduce takes
    each lane mod p, giving the packed sum in F_q^n: for p = 2 by keeping
    each lane's low bit; for odd p by subtracting p * 2^k, k descending,
    from each lane that holds at least that, the guard bit telling which
    do.  The two differ only in their constants: over F_2 reduce is one
    AND with ``keep``, which a caller may apply itself.  A reduced int is
    the one packing of its vector, and v >> coordinate_bits packs v's
    first n - 1 coordinates the way pack packs them.
    """

    def __init__(self, field: Field, n: int, terms: int):
        self.field = field
        p = field.p
        most = terms * (p - 1)                  # the largest lane sum
        self._top = top = most.bit_length()     # the guard bit's position
        self._width = width = top + 1
        self._digit = (1 << top) - 1
        self.coordinate_bits = field.e * width
        low = sum(1 << b for b in range(0, n * self.coordinate_bits, width))
        self._guards = low << top
        if p == 2:
            self.keep, self._steps = low, ()
        else:
            self.keep = -1
            self._steps = tuple((p << k, (p << k) * low)
                                for k in range(top, -1, -1) if p << k <= most)

    def _lanes(self, a: int) -> int:
        """Element a's base-p digits, one to a lane, digit 0 lowest."""
        p, width = self.field.p, self._width
        v = shift = 0
        while a:
            a, d = divmod(a, p)
            v |= d << shift
            shift += width
        return v

    def _element(self, v: int) -> int:
        """The element whose digits are v's lowest e lanes, each < p."""
        p, width, digit = self.field.p, self._width, self._digit
        a, weight = 0, 1
        for _ in range(self.field.e):
            a += (v & digit) * weight
            v >>= width
            weight *= p
        return a

    def pack(self, vec: Sequence[int]) -> int:
        bits, v = self.coordinate_bits, 0
        for a in vec:
            v = (v << bits) | self._lanes(a)
        return v

    def unpack(self, v: int, n: int) -> tuple[int, ...]:
        """The n coordinates packed in v."""
        bits, out = self.coordinate_bits, []
        for _ in range(n):
            out.append(self._element(v))
            v >>= bits
        return tuple(reversed(out))

    def multiples(self, vec: Sequence[int]) -> _Multiples:
        """The packed c * vec, looked up by any c equal to an element of
        F_q, and a KeyError for anything else."""
        return _Multiples(self, vec)

    def reduce(self, s: int) -> int:
        """The packed vector whose digits are s's lanes mod p, for s a
        sum of at most `terms` packed vectors."""
        s &= self.keep
        guards, top = self._guards, self._top
        for c, lanes in self._steps:
            s -= ((((s | guards) - lanes) & guards) >> top) * c
        return s

    def split(self, z: int) -> tuple[int, int]:
        """A reduced z as its first n - 1 coordinates, packed, and its
        last coordinate."""
        bits = self.coordinate_bits
        return z >> bits, self._element(z & ((1 << bits) - 1))


class _Multiples(dict):
    """LaneVectors.multiples of vec: a dict from each element c read so
    far to the packed c * vec.  A key missing from it is looked up in
    F_q, and its multiple is packed once and kept under the element it
    equals; so a hit is one dict lookup, and the dict holds at most q
    keys."""

    __slots__ = ("lanes", "vec")

    def __init__(self, lanes: LaneVectors, vec: Sequence[int]):
        self.lanes = lanes
        self.vec = tuple(vec)

    def __missing__(self, c) -> int:
        lanes = self.lanes
        try:    # the element equal to c: index() compares, never hashes
            c = range(lanes.field.q).index(c)
        except ValueError:
            raise KeyError(c) from None
        row = arithmetic(lanes.field)[2][c]
        packed = self[c] = lanes.pack([row[a] for a in self.vec])
        return packed


class RowSpan:
    """The span of a growing list of F_q^n vectors, with undo: the one
    row reduction over F_q.

    The span is kept as one row per vector that raised the rank: the
    vector reduced against the rows kept before it, scaled so that its
    first nonzero entry, its pivot, is 1.  So every kept row is zero
    left of its pivot and at the pivots of the rows kept before it, and
    a vector reduced against all of them is zero iff it lies in the
    span.  Vectors are reduced through the field's sub and mul tables
    from ``gfield.arithmetic`` (views calling the Field above its table
    limit); each kept row costs one ``Field.inv``.
    """

    def __init__(self, field: Field):
        self.field = field
        _, self._sub, self._mul = arithmetic(field)
        self.pivots: list[tuple[int, tuple[int, ...]]] = []  # (pivot position, kept row)

    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, vec) -> list[int]:
        """vec minus its projection on the kept rows: zero iff vec is in
        the span."""
        sub, mul = self._sub, self._mul
        v = list(vec)
        for pos, pv in self.pivots:
            c = v[pos]
            if c != 0:
                mc = mul[c]
                v = [sub[a][mc[b]] for a, b in zip(v, pv)]
        return v

    def contains(self, vec) -> bool:
        """Is vec in the span?  Leaves the span unchanged."""
        return not any(self._reduce(vec))

    def push(self, vec) -> bool:
        """Add a vector; True if it increased the rank (then pop() undoes it)."""
        mul = self._mul
        v = self._reduce(vec)
        for pos, val in enumerate(v):
            if val != 0:
                m_inv = mul[self.field.inv(val)]
                self.pivots.append((pos, tuple([m_inv[a] for a in v])))
                return True
        return False

    def pop(self) -> None:
        self.pivots.pop()

    def first_completion(self, vec, positions: Sequence[int]
                         ) -> tuple[int, ...] | None:
        """The lexicographically first values (v_1, ..., v_f) that put
        vec + sum of v_k e_{p_k} in the span, for the 0-based positions
        (p_1, ..., p_f), or None when none do.  Leaves the span exactly
        as it found it.

        By elimination, one position at a time: v_1 can start a solution
        iff vec + v_1 e_{p_1} lies in the span grown by e_{p_2}, ...,
        e_{p_f}.  With a and b the reductions of vec and e_{p_1} against
        that grown span, a + c b = 0 has at most one solution c when
        b != 0, every c when b = 0 and a = 0 (the least is 0), and none
        otherwise.  Fix v_1 = c, add c e_{p_1} to vec, drop e_{p_2} from
        the span and go on with p_2.  The unit vectors are pushed last
        first, so each is popped in turn, and the last step reduces
        against the span itself.  At most 3f - 1 reductions replace
        trying up to q^f completions."""
        if not positions:
            return () if self.contains(vec) else None
        sub, mul = self._sub, self._mul
        n, depth = len(vec), len(self.pivots)

        def unit(p):
            e = [0] * n
            e[p] = 1
            return e

        grew = [self.push(unit(p)) for p in reversed(positions[1:])]
        a, values = list(vec), []
        for p in positions:
            ra = self._reduce(a)
            c = 0
            for pos, x in enumerate(ra):
                if x:           # vec + 0 e_p is out: solve a + c b = 0
                    rb = self._reduce(unit(p))
                    y = rb[pos]
                    if not y:   # b is zero where a is not
                        del self.pivots[depth:]
                        return None
                    m = x if y == 1 else mul[x][self.field.inv(y)]
                    mm = mul[m]
                    if any(sub[s][mm[t]] for s, t in zip(ra, rb)):
                        del self.pivots[depth:]
                        return None
                    c = sub[0][m]
                    a[p] = sub[a[p]][m]
                    break
            values.append(c)
            if grew and grew.pop():
                self.pop()
        return tuple(values)

    def rref(self) -> tuple[list[list[int]], list[int]]:
        """The span's reduced row-echelon form: (rows, pivot column
        indices 0-based, ascending).

        The kept rows, sorted by pivot, are an echelon basis.  Clearing
        each pivot column from the other rows, leftmost pivot first,
        keeps every column cleared before zero, since the row cleared
        with is zero left of its pivot."""
        sub, mul = self._sub, self._mul
        kept = sorted(self.pivots, key=lambda pivot: pivot[0])
        rows = [list(pv) for _, pv in kept]
        for j, (pos, _) in enumerate(kept):
            pj = rows[j]
            for i, r in enumerate(rows):
                c = r[pos]
                if c != 0 and i != j:
                    mc = mul[c]
                    rows[i] = [sub[a][mc[b]] for a, b in zip(r, pj)]
        return rows, [pos for pos, _ in kept]


class Matrix:
    """An immutable r x c matrix over a finite field."""

    __slots__ = ("field", "rows", "nrows", "ncols", "_hash")

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

    @classmethod
    def _of(cls, field: Field, rows: tuple, ncols: int) -> "Matrix":
        """The matrix of rows already checked: tuples of ncols elements,
        such as another matrix's rows."""
        m = object.__new__(cls)
        m.field, m.rows, m.nrows, m.ncols = field, rows, len(rows), ncols
        return m

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
        return Matrix._of(self.field, tuple([self.rows[i - 1] for i in idx]),
                          self.ncols)

    def transpose(self) -> "Matrix":
        if not self.rows:
            return Matrix(self.field, [[] for _ in range(self.ncols)], ncols=0)
        return Matrix(self.field, zip(*self.rows), ncols=self.nrows)

    def columns(self) -> list[tuple[int, ...]]:
        return [tuple(r[k] for r in self.rows) for k in range(self.ncols)]

    # -- arithmetic ------------------------------------------------------

    def vec_mul(self, z: Sequence[int]) -> tuple[int, ...]:
        """Row vector z (length nrows) times this matrix, through the
        field's add and mul tables from gfield.arithmetic."""
        if len(z) != self.nrows:
            raise ValueError("dimension mismatch")
        add, _, mul = arithmetic(self.field)
        acc = [0] * self.ncols
        for zi, row in zip(z, self.rows):
            if zi:
                m = mul[zi]
                for k, v in enumerate(row):
                    if v:
                        acc[k] = add[acc[k]][m[v]]
        return tuple(acc)

    def mul_col(self, v: Sequence[int]) -> tuple[int, ...]:
        """This matrix times the column vector v; result has nrows
        entries, through the field's tables from gfield.arithmetic."""
        add, _, mul = arithmetic(self.field)
        return tuple([table_dot(add, mul, row, v) for row in self.rows])

    def mul(self, other: "Matrix") -> "Matrix":
        self._same(other)
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        return Matrix(self.field, [other.vec_mul(row) for row in self.rows],
                      ncols=other.ncols)

    # -- elimination -----------------------------------------------------

    def _row_span(self) -> RowSpan:
        span = RowSpan(self.field)
        for r in self.rows:
            span.push(r)
        return span

    def rref(self) -> tuple[list[list[int]], list[int]]:
        """Reduced row-echelon form; returns (rows, pivot column indices 0-based)."""
        return self._row_span().rref()

    def rank(self) -> int:
        if self.field.q == 2:
            return kernels.gf2_rank([mask_of(r) for r in self.rows])
        return self._row_span().rank()

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
            basis.append(tuple(v))
        return Matrix._of(f, tuple(basis), self.ncols)

    def in_row_span(self, v: Sequence[int]) -> bool:
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        return self._row_span().contains(v)

    # -- identity and serialization --------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self) -> int:
        # computed once: a Matrix is immutable, and the decoder cache
        # hashes its G on every decode
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.field, self.ncols, self.rows))
            return self._hash

    def __repr__(self) -> str:
        body = "; ".join("".join(str(v) for v in r) for r in self.rows)
        return f"Matrix(F{self.field.q}, {self.nrows}x{self.ncols}: {body})"

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]
