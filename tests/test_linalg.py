import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsie import encoder
from icsie.errors import FieldMismatchError
from icsie.gfield import field_for
from icsie.linalg import (LaneVectors, Matrix, RowSpan, low_weight,
                          low_weight_count, mask_of, vec_of_mask,
                          vector_space)
from icsie.sigraph import ProblemSpec, clique_graph

from conftest import (dot, hamming_weight, reference_rank, reference_rref,
                      subvector, vec_add, vec_scale, vec_sub)

F2 = field_for(2)
F3 = field_for(3)
F4 = field_for(4)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("k", range(6))
def test_low_weight_lists_each_light_vector_once_in_order(k, q):
    # every vector of weight <= t, sorted by (weight, positions, values)
    for t in range(k + 3):
        want = []
        for v in itertools.product(range(q), repeat=k):
            at = tuple(j for j in range(k) if v[j])
            if len(at) <= t:
                want.append((len(at), at, tuple(v[j] for j in at)))
        assert list(low_weight(k, q, t)) == [(at, vals)
                                             for _, at, vals in sorted(want)]
        assert low_weight_count(k, q, t) == len(want)


def test_subvector_one_based():
    assert subvector((9, 8, 7, 6), [1, 3]) == (9, 7)
    assert subvector((9, 8, 7, 6), {4, 2}) == (8, 6)
    assert subvector((9, 8), []) == ()
    with pytest.raises(IndexError):
        subvector((1, 2), [3])


def test_hamming_weight():
    assert hamming_weight((0, 2, 0, 1)) == 2
    assert hamming_weight(()) == 0


def test_vector_ops():
    assert vec_add(F3, (1, 2), (2, 2)) == (0, 1)
    assert vec_sub(F3, (0, 1), (2, 2)) == (1, 2)
    assert vec_scale(F3, 2, (1, 2)) == (2, 1)
    assert dot(F2, (1, 1, 0), (1, 1, 1)) == 0


def test_mask_round_trip():
    for n in range(1, 8):
        for bits in itertools.product((0, 1), repeat=n):
            assert vec_of_mask(mask_of(bits), n) == bits
    # coordinate 1 is the highest bit: integer order = lex tuple order
    assert mask_of((1, 0, 0)) > mask_of((0, 1, 1))


def test_matrix_shape_checks():
    with pytest.raises(ValueError):
        Matrix(F2, [[1, 0], [1]])
    with pytest.raises(ValueError):
        Matrix(F2, [], ncols=None)
    m = Matrix(F2, [], ncols=3)
    assert m.nrows == 0 and m.ncols == 3
    assert m.transpose().nrows == 3 and m.transpose().ncols == 0


def test_row_and_submatrix_one_based():
    m = Matrix(F2, [[1, 0], [0, 1], [1, 1]])
    assert m.row(3) == (1, 1)
    assert m.submatrix_rows([3, 1]).rows == ((1, 0), (1, 1))
    with pytest.raises(IndexError):
        m.row(0)


def test_mul_against_identity():
    m = Matrix(F3, [[1, 2, 0], [0, 1, 1]])
    assert m.mul(Matrix.identity(F3, 3)) == m
    assert Matrix.identity(F3, 2).mul(m) == m


def test_vec_mul_mul_col():
    m = Matrix(F2, [[1, 1, 0], [0, 1, 1]])
    assert m.vec_mul((1, 1)) == (1, 0, 1)
    assert m.mul_col((1, 1, 0)) == (0, 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 257])
def test_vec_mul_matches_dot(q):
    # the table-driven products against one dot per column or row;
    # F_257 is past the table limit and reads the field through its views
    f = field_for(q)
    rng = random.Random(q)
    for _ in range(20):
        r, c = rng.randint(1, 4), rng.randint(1, 5)
        M = Matrix(f, [[rng.randrange(q) for _ in range(c)] for _ in range(r)])
        z = [rng.choice((0, 1, q - 1, rng.randrange(q))) for _ in range(r)]
        assert M.vec_mul(z) == tuple(dot(f, z, col) for col in M.columns())
        v = [rng.choice((0, 1, q - 1, rng.randrange(q))) for _ in range(c)]
        assert M.mul_col(v) == tuple(dot(f, row, v) for row in M.rows)
    with pytest.raises(ValueError, match="dimension mismatch"):
        M.vec_mul([1] * (r + 1))
    with pytest.raises(ValueError):
        M.mul_col([1] * (c + 1))


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        Matrix(F2, [[1]]).mul(Matrix(F3, [[1]]))


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_rank_and_null_space_random(field):
    # rank-nullity and the kernel property, rank by the reference
    # elimination
    rng = random.Random(field.q)
    for _ in range(40):
        r = rng.randrange(1, 5)
        c = rng.randrange(1, 5)
        m = Matrix(field, [[rng.randrange(field.q) for _ in range(c)]
                           for _ in range(r)])
        ns = m.null_space_basis()
        assert ns.nrows == c - reference_rank(m)     # rank-nullity
        for v in ns.rows:
            assert m.mul_col(v) == tuple([0] * r)
        assert reference_rank(ns) == ns.nrows        # basis is independent


def test_rank_exhaustive_gf2_3x3():
    # every 3x3 over F_2: the kernel's rank, the row reduction's echelon
    # form and the reference elimination must agree
    for bits in range(512):
        rows = [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        m = Matrix(F2, rows)
        assert m.rank() == reference_rank(m)
        assert m.rref() == reference_rref(m)


def test_null_space_deterministic_golden():
    # a fixed 3x6 input must always yield the same echelon-derived basis
    m = Matrix(F2, [[0, 0, 0, 0, 0, 1], [0, 0, 1, 0, 0, 0], [1, 1, 0, 1, 0, 1]])
    ns = m.null_space_basis()
    assert ns.rows == ((1, 1, 0, 0, 0, 0), (1, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0))


def test_in_row_span():
    m = Matrix(F2, [[1, 1, 0], [0, 1, 1]])
    assert m.in_row_span((1, 0, 1))
    assert not m.in_row_span((1, 0, 0))


def _awkward_matrices(field, rng):
    """Random matrices over the field, every awkward shape in turn: no
    rows, the zero matrix, one row, one column, rank-deficient (rows
    combined from fewer rows) and sparse."""
    q = field.q

    def entry():
        return rng.choice((0, 0, 1, q - 1, rng.randrange(q)))

    for kind in range(6):
        r, c = rng.randint(1, 5), rng.randint(1, 6)
        if kind == 0:
            yield Matrix(field, [], ncols=c)
        elif kind == 1:
            yield Matrix.zero(field, r, c)
        elif kind == 2:
            yield Matrix(field, [[entry() for _ in range(c)]])
        elif kind == 3:
            yield Matrix(field, [[entry()] for _ in range(r)])
        elif kind == 4:
            base = [[entry() for _ in range(c)] for _ in range(rng.randint(1, 2))]
            rows = []
            for _ in range(r + 1):
                row = (0,) * c
                for b in base:
                    row = vec_add(field, row, vec_scale(field, rng.randrange(q), b))
                rows.append(row)
            yield Matrix(field, rows)
        else:
            yield Matrix(field, [[entry() for _ in range(c)] for _ in range(r)])


def _probes(M, rng):
    """Vectors to test for membership: random ones, M's rows, a random
    combination of them and the zero vector."""
    f, c = M.field, M.ncols
    combo = (0,) * c
    for row in M.rows:
        combo = vec_add(f, combo, vec_scale(f, rng.randrange(f.q), row))
    return ([tuple(rng.randrange(f.q) for _ in range(c)) for _ in range(3)]
            + list(M.rows) + [combo, (0,) * c])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 257])
def test_row_reduction_matches_the_reference_elimination(q):
    # rref, the null space and span membership against Gauss-Jordan in
    # Field method calls; F_257 is past the table limit
    field = field_for(q)
    rng = random.Random(2000 + q)
    for _ in range(15):
        for M in _awkward_matrices(field, rng):
            rows, pivots = reference_rref(M)
            assert M.rref() == (rows, pivots)
            want = []
            for fc in (k for k in range(M.ncols) if k not in pivots):
                v = [0] * M.ncols
                v[fc] = 1
                for row, pc in zip(rows, pivots):
                    v[pc] = field.neg(row[fc])
                want.append(tuple(v))
            ns = M.null_space_basis()
            assert ns.rows == tuple(want) and ns.ncols == M.ncols
            assert all(not any(M.mul_col(v)) for v in ns.rows)
            rank = len(pivots)
            assert M.rank() == rank
            for v in _probes(M, rng):
                inside = reference_rank(
                    Matrix(field, [*M.rows, v], ncols=M.ncols)) == rank
                assert M.in_row_span(v) == inside


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 257])
def test_row_span_pop_restores_the_span(q):
    # after each push, pop undoes it: the rank, the echelon form and
    # every membership answer are those of the span before
    field = field_for(q)
    rng = random.Random(3000 + q)
    for _ in range(15):
        for M in _awkward_matrices(field, rng):
            span = RowSpan(field)
            for row in M.rows:
                span.push(row)
            probes = _probes(M, rng)
            before = (span.rank(), span.rref(),
                      [span.contains(v) for v in probes])
            for v in probes:
                if span.push(v):
                    assert span.rank() == before[0] + 1
                    assert not before[2][probes.index(v)]
                    span.pop()
                assert (span.rank(), span.rref(),
                        [span.contains(w) for w in probes]) == before


def test_every_elimination_is_the_row_reduction(monkeypatch):
    # with RowSpan unable to reduce, every elimination over F_q fails;
    # only the F_2 rank kernel stays outside it
    def broken(self, vec):
        raise RuntimeError("no row reduction")

    monkeypatch.setattr(RowSpan, "push", broken)
    monkeypatch.setattr(RowSpan, "contains", broken)
    M3 = Matrix(F3, [[1, 2, 0], [0, 1, 1]])
    M2 = Matrix(F2, [[1, 1, 0], [0, 1, 1]])
    calls = [M3.rref, M3.null_space_basis, M3.rank, M2.rref,
             M2.null_space_basis, lambda: M2.in_row_span((1, 0, 1)),
             lambda: Matrix(F3, [], ncols=3).in_row_span((1, 0, 1)),
             lambda: encoder.independent_columns(M3),
             lambda: encoder.minrank(
                 ProblemSpec(graph=clique_graph(3), q=2, delta_s=0))]
    for call in calls:
        with pytest.raises(RuntimeError, match="no row reduction"):
            call()
    assert M2.rank() == 2


def test_rref_idempotent_gf3():
    m = Matrix(F3, [[2, 1, 0], [1, 2, 1], [0, 0, 2]])
    rows, pivots = m.rref()
    again, pivots2 = Matrix(F3, rows, ncols=3).rref()
    assert rows == again and pivots == pivots2


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).filter(lambda q: q != 6),
       st.data())
def test_rank_of_product_bounded(q, data):
    f = field_for(q)
    r = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, 4))
    c = data.draw(st.integers(1, 4))
    a = Matrix(f, [[data.draw(st.integers(0, q - 1)) for _ in range(k)]
                   for _ in range(r)])
    b = Matrix(f, [[data.draw(st.integers(0, q - 1)) for _ in range(c)]
                   for _ in range(k)])
    assert a.mul(b).rank() <= min(a.rank(), b.rank())


@pytest.mark.parametrize("field", [F2, F3])
def test_rank_equals_transpose_rank(field):
    rng = random.Random(17)
    for _ in range(50):
        r, c = rng.randrange(1, 5), rng.randrange(1, 5)
        m = Matrix(field, [[rng.randrange(field.q) for _ in range(c)]
                           for _ in range(r)])
        assert m.rank() == m.transpose().rank()


def test_subvector_composition():
    x = (5, 6, 7, 8, 9)
    D = [2, 3, 5]
    E = [1, 3]        # positions within x_D
    inner = subvector(x, D)
    composed = subvector(inner, E)
    translated = [sorted(D)[e - 1] for e in E]
    assert composed == subvector(x, translated)


def test_submatrix_rows_known_generator():
    G9 = Matrix(F2, [
        [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0], [1, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0], [1, 1, 0, 0, 0, 0], [0, 1, 1, 1, 0, 0],
        [0, 0, 1, 1, 1, 0], [0, 0, 0, 1, 1, 1], [1, 1, 0, 1, 0, 1]])
    assert G9.rank() == 6
    sub = G9.submatrix_rows({2, 3, 5, 6, 7, 8})
    assert sub.rows == ((0, 0, 0, 0, 1, 0), (1, 0, 0, 1, 0, 0),
                        (1, 1, 0, 0, 0, 0), (0, 1, 1, 1, 0, 0),
                        (0, 0, 1, 1, 1, 0), (0, 0, 0, 1, 1, 1))


@pytest.mark.parametrize("field", [F2, F3, F4], ids=["F2", "F3", "F4"])
def test_vector_space_packing(field):
    # both packings agree with tuple arithmetic and keep lexicographic order
    q, n = field.q, 3
    vs = vector_space(field, n)
    tuples = list(itertools.product(range(q), repeat=n))
    packed = [vs.pack(t) for t in tuples]
    assert [vs.unpack(v) for v in packed] == tuples
    assert list(vs.projective()) == [vs.pack(t) for t in tuples
                                     if any(t) and next(a for a in t if a) == 1]
    assert vs.supports(packed) == [mask_of(t) for t in tuples]
    rng = random.Random(q)
    G = Matrix(field, [[rng.randrange(q) for _ in range(4)] for _ in range(n)])
    cols = [vs.pack(c) for c in G.columns()]
    for need in (1, 2, 3):
        first = next((k for k, t in enumerate(tuples)
                      if hamming_weight(G.vec_mul(t)) < need), -1)
        assert vs.first_failing(packed, cols, need) == first
    assert list(vs.hit_masks(packed, cols)) == [
        sum(1 << k for k, t in enumerate(tuples) if dot(field, t, col))
        for col in G.columns()]


@pytest.mark.parametrize("q", [3, 4, 5, 7, 9])
def test_projective_points_are_the_filtered_product(q):
    # built directly, in the order of the filtered list of all q^n tuples
    for n in range(1, 5):
        want = [t for t in itertools.product(range(q), repeat=n)
                if any(t) and next(a for a in t if a) == 1]
        assert vector_space(field_for(q), n).projective() == want


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 257])
def test_lane_sums_reduce_to_the_field_sum(q):
    # `terms` vectors whose every digit is p - 1 (the element q - 1) fill
    # each lane to the top: a lane one bit too narrow carries there
    field, n = field_for(q), 3
    rng = random.Random(q)
    for terms in (1, 2, 3, 7, 12):
        lanes = LaneVectors(field, n, terms)
        sums = [[(q - 1,) * n] * terms,
                [tuple(rng.randrange(q) for _ in range(n)) for _ in range(terms)]]
        for vs in sums:
            want = (0,) * n
            for v in vs:
                want = vec_add(field, want, v)
            z = lanes.reduce(sum(lanes.pack(v) for v in vs))
            assert z == lanes.pack(want)
            assert lanes.unpack(z, n) == want
            assert lanes.split(z) == (lanes.pack(want[:-1]), want[-1])
        v = tuple(rng.randrange(q) for _ in range(n))
        multiples = lanes.multiples(v)
        for c in (0, 1, q - 1, rng.randrange(q)):
            assert lanes.unpack(multiples[c], n) == vec_scale(field, c, v)
