"""GF(2) bitmask kernels.

Vectors over F_2 of length n are packed into Python ints with the
convention that coordinate 1 occupies the highest bit (bit n-1), so the
integer ordering of masks equals the lexicographic ordering of the
corresponding coordinate tuples.  Python ints grow, so every kernel
takes any number of columns.

``gf2_first_failing`` is the one weight test over F_2: validity and the
minimum distance ask it through ``linalg.vector_space``; the
column-multiset walk of ``encoder`` counts hits in bit-slices instead
and asks it nothing.  ``gf2_rank`` is ``linalg.Matrix.rank`` over F_2;
every other elimination, over F_2 too, is ``linalg.RowSpan``.  Callers
look the kernels up as attributes of this module (``kernels.gf2_rank``),
never by importing the functions, so the benchmark's tracer can wrap
them here by name.
``gf2_span_intersects`` has no caller in the library; it stays only
because that tracer still wraps it by name.
"""

from __future__ import annotations


def gf2_rank(rows: list[int]) -> int:
    """Rank of the matrix whose rows are the given bitmasks."""
    rank = 0
    pivots: list[int] = []
    for row in rows:
        for p in pivots:
            if row & p & -p:
                row ^= p
        if row:
            # keep pivots reduced against the new row's lowest set bit
            low = row & -row
            pivots = [p ^ row if p & low else p for p in pivots]
            pivots.append(row)
            rank += 1
    return rank


def gf2_first_failing(zs: list[int], cols: list[int], need: int) -> int:
    """Index of the first z in zs with wt(z * G) < need, or -1.

    G is given by its column masks.  The hot loop of generator validity
    checks and of the minimum distance.
    """
    for idx, z in enumerate(zs):
        w = 0
        for c in cols:
            w += (z & c).bit_count() & 1
        if w < need:
            return idx
    return -1


def gf2_span_intersects(basis: list[int], fmasks: list[int],
                        xmasks: list[int], caps: list[int]) -> int:
    """Whether the span of ``basis`` contains a nonzero interference vector.

    A vector z is interfering when for some receiver index r,
    z & fmasks[r] != 0 and popcount(z & xmasks[r]) <= caps[r].
    Returns the first such span element (by Gray-code walk) or 0.
    """
    d = len(basis)
    nrecv = len(fmasks)
    z = 0
    for code in range(1, 1 << d):
        # Gray-code walk over the span: flip one basis row per step.
        gray_bit = (code ^ (code >> 1)) ^ ((code - 1) ^ ((code - 1) >> 1))
        z ^= basis[gray_bit.bit_length() - 1]
        for r in range(nrecv):
            if z & fmasks[r] and (z & xmasks[r]).bit_count() <= caps[r]:
                return z
    return 0
