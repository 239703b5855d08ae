"""The GF(2) kernels against known answers and independent routes.

Each kernel is compared with a plain computation over F_2 that does not
use it: the reference elimination in ``conftest``, ``Matrix.vec_mul``
and an enumeration of the span.  The 70-column cases check that no kernel
bounds the width of a vector.
"""

import itertools
import random

from icsie import kernels
from icsie.codeset import is_valid_generator
from icsie.gfield import field_for
from icsie.linalg import Matrix, vec_of_mask
from icsie.sigraph import ProblemSpec, clique_graph

from conftest import reference_rank

F2 = field_for(2)


def _random_cases(seed):
    rng = random.Random(seed)
    for _ in range(200):
        n = rng.randrange(1, 12)
        nrows = rng.randrange(1, 8)
        rows = [rng.randrange(1 << n) for _ in range(nrows)]
        yield n, rows, rng


def _codeword(z, cols, n):
    """z times the matrix with these column masks, through Matrix.vec_mul."""
    G = Matrix(F2, zip(*(vec_of_mask(c, n) for c in cols)), ncols=len(cols))
    return G.vec_mul(vec_of_mask(z, n))


def test_rank_agrees():
    for n, rows, _ in _random_cases(1):
        M = Matrix(F2, [vec_of_mask(r, n) for r in rows])
        assert kernels.gf2_rank(rows) == reference_rank(M)


def test_first_failing_agrees():
    for n, zs, rng in _random_cases(3):
        ncols = rng.randrange(1, 8)
        cols = [rng.randrange(1 << n) for _ in range(ncols)]
        for need in (1, 2, 3):
            want = next((idx for idx, z in enumerate(zs)
                         if sum(_codeword(z, cols, n)) < need), -1)
            assert kernels.gf2_first_failing(zs, cols, need) == want


def test_span_intersects_agrees():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randrange(1, 9)
        d = rng.randrange(0, min(n, 5) + 1)
        basis = [rng.randrange(1, 1 << n) for _ in range(d)]
        m = rng.randrange(1, 5)
        fmasks = [1 << rng.randrange(n) for _ in range(m)]
        xmasks = [rng.randrange(1 << n) for _ in range(m)]
        caps = [rng.randrange(0, 4) for _ in range(m)]
        span = set()
        for pick in itertools.product((0, 1), repeat=d):
            z = 0
            for bit, b in zip(pick, basis):
                if bit:
                    z ^= b
            span.add(z)
        hits = {z for z in span - {0} for f, x, cap in zip(fmasks, xmasks, caps)
                if z & f and (z & x).bit_count() <= cap}
        got = kernels.gf2_span_intersects(basis, fmasks, xmasks, caps)
        assert got in hits if hits else got == 0


def test_pure_rank_small_known():
    assert kernels.gf2_rank([0b10, 0b01, 0b11]) == 2
    assert kernels.gf2_rank([0]) == 0


# -- vectors wider than a machine word -------------------------------------------

WIDE = 70
WIDE_ROWS = [[1] * WIDE, [0, 1] * (WIDE // 2), [1, 1, 0] * 23 + [0]]


def test_valid_generator_with_70_columns():
    spec = ProblemSpec(graph=clique_graph(3), q=2, delta_s=1, delta_c=1)
    assert is_valid_generator(spec, Matrix(F2, WIDE_ROWS)) == (True, None)


def test_rank_of_70_bit_rows():
    assert Matrix(F2, WIDE_ROWS).rank() == 3
