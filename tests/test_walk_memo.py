"""The walk memo changes no answer: warm or cold, forward or in reverse,
every optimum, witness, report and refusal is the same, and the test-side
certificates never read it."""

import sys
from unittest import mock

import pytest

from icsie import encoder, kept
from icsie.codeset import interference_supports, is_valid_generator
from icsie.encoder import (_first_column_multiset, _shortest_length,
                           core_length, optimal_length)
from icsie.errors import BudgetExceededError
from icsie.gfield import field_for
from icsie.linalg import vector_space
from icsie.sigraph import ProblemSpec, SideInfoGraph, clique_graph
from icsie.structure import bounds_report, edge_deletion_bound

from conftest import (_reference_gecic_length, _reference_shortest_length,
                      family_graphs)

CALLS = (optimal_length, core_length, bounds_report, edge_deletion_bound)
# receivers 1 and 2 cache each other, as do 3 and 4: gamma 2, optimum 2
TWO_PAIRS = SideInfoGraph.make(4, [1, 2, 3, 4], [{2}, {1}, {4}, {3}])


def _outcome(call, spec):
    try:
        return call(spec)
    except BudgetExceededError as exc:
        return "refused", str(exc)


def test_a_warm_memo_gives_the_cold_answers():
    specs = [ProblemSpec(graph=g, q=q, delta_s=ds, delta_c=dc)
             for q in (2, 3) for ds in (0, 1) for dc in (0, 1)
             for g in family_graphs()]
    cold = []
    for spec in specs:
        for call in CALLS:
            kept.clear()
            cold.append(_outcome(call, spec))
    # the channel-error search over F_3 refuses on some instances
    assert any(isinstance(o, tuple) and o[0] == "refused" for o in cold)
    kept.clear()
    forward = [_outcome(call, spec) for spec in specs for call in CALLS]
    assert forward == cold
    backward = [_outcome(call, spec) for spec in reversed(specs)
                for call in reversed(CALLS)]
    assert backward[::-1] == cold


def test_a_sweep_walks_each_table_once_per_length():
    walked = []
    real = encoder._first_avoiding_basis

    def walk(vectors, table, N, rows_of):
        walked.append((vectors.q, bytes(table), N))
        return real(vectors, table, N, rows_of)

    specs = [ProblemSpec(graph=g, q=2, delta_s=ds, delta_c=dc)
             for g in family_graphs() for ds in (0, 1) for dc in (0, 1)]
    with mock.patch("icsie.encoder._first_avoiding_basis", side_effect=walk):
        for spec in specs:
            for call in CALLS:
                call(spec)
        once = len(walked)
        for spec in specs:
            for call in CALLS:
                call(spec)
    assert len(set(walked)) == once == len(walked)


@pytest.mark.parametrize("name, small, spec", [
    # the walk from gamma = 2 reaches length 2, 35 subspaces of dimension 2
    ("DEFAULT_SUBSPACE_BUDGET", 20, ProblemSpec(graph=TWO_PAIRS, q=2,
                                                delta_s=0)),
    ("DEFAULT_COMBO_BUDGET", 10, ProblemSpec(graph=clique_graph(3), q=2,
                                             delta_s=0, delta_c=1))])
def test_a_refusal_reads_the_same_after_the_memo_holds_the_answer(
        monkeypatch, name, small, spec):
    for call in CALLS:
        call(spec)                      # the memo holds every length walked
    monkeypatch.setattr(encoder, name, small)
    warm = [_outcome(call, spec) for call in CALLS]
    cold = []
    for call in CALLS:
        kept.clear()
        cold.append(_outcome(call, spec))
    assert warm == cold
    assert warm[0][0] == "refused"


def test_a_later_length_is_refused_though_the_memo_holds_its_columns():
    # [9, 5, 3] is the shortest binary code of dimension 5 and distance 3,
    # so l_q's walk tries 3 parity columns, 5456 multisets, then 4, 46376
    vectors = vector_space(field_for(2), 5)

    def walk():
        return _first_column_multiset(vectors, lambda s: 3 - s.bit_count(),
                                      range(8, 16), 5, budget)

    budget = 1 << 20
    assert walk()[0] == 9
    budget = 10_000
    with pytest.raises(BudgetExceededError, match=(
            "^46376 column multisets at length 9 exceed the budget$")):
        walk()


def test_a_column_walk_is_kept_by_the_columns_it_places():
    # each nonzero column of F_2^2 misses one of the three points, so
    # every point reaches 2 hits first with the three distinct columns:
    # length 3 with no prefix, length 4 after a prefix of 1, where two
    # columns, walked and failed, give length 3
    vectors = vector_space(field_for(2), 2)
    for prefix, N in ((0, 3), (1, 4), (0, 3)):
        assert _first_column_multiset(vectors, lambda s: 2, range(1, 8),
                                      prefix, 1 << 20) == (N, (1, 2, 3))


def test_one_table_over_two_fields_keeps_both_answers():
    # span{101, 011} over F_2 holds only supports this table leaves out,
    # but every plane of F_3^3 without a weight-1 vector holds one of
    # weight 3, and 111 is in the table
    table = bytearray(8)
    for s in (0b100, 0b010, 0b001, 0b111):
        table[s] = 1
    table = bytes(table)
    cold = {}
    for q in (2, 3):
        kept.clear()
        cold[q] = _shortest_length(vector_space(field_for(q), 3), table, 1,
                                   {})
    assert cold[2][0] == 1 and cold[3][0] == 2
    kept.clear()
    for q in (2, 3, 2, 3):
        assert _shortest_length(vector_space(field_for(q), 3), table, 1,
                                {}) == cold[q]


def test_a_planted_memo_entry_misleads_the_library_but_not_the_certificates():
    spec = ProblemSpec(graph=TWO_PAIRS, q=2, delta_s=0)
    want = _reference_shortest_length(spec)
    assert optimal_length(spec) == want and want[0] == 2
    table = interference_supports(spec)
    # claim that lengths 2 and 3 admit no code: the walk goes on to
    # length 4, whose avoiding subspace is {0}
    walked = encoder.walk_memo.results("subspace", 2, 4, bytes(table))
    walked[2] = walked[3] = None
    assert optimal_length(spec)[0] == 4
    assert _reference_shortest_length(spec) == want

    kept.clear()
    spec = ProblemSpec(graph=TWO_PAIRS, q=2, delta_s=0, delta_c=1)
    want = _reference_gecic_length(spec)
    assert optimal_length(spec) == want
    vectors = vector_space(spec.field, 4)
    points = vectors.projective()
    needs = tuple(3 * table[s] for s in vectors.supports(points))
    # claim that want's length is met by one point repeated
    walked = encoder.walk_memo.results("multiset", 2, 4, needs)
    walked[want[0]] = (points[0],) * want[0]
    N, G = optimal_length(spec)
    assert N == want[0] and not is_valid_generator(spec, G)[0]
    assert _reference_gecic_length(spec) == want


def test_the_memo_empties_when_a_table_would_pass_its_byte_bound(monkeypatch):
    memo = encoder._WalkMemo()
    tables = [bytes([k]) * 16 for k in range(4)]
    charge = sys.getsizeof(tables[0]) + 1024
    monkeypatch.setattr(encoder, "WALK_MEMO_BYTES", 3 * charge)
    for k, table in enumerate(tables):
        memo.results("subspace", 2, 4, table)[1] = k
        assert memo._charged <= encoder.WALK_MEMO_BYTES
    # the fourth table would have charged 4 * charge: the memo started
    # again with it alone
    assert memo.results("subspace", 2, 4, tables[3]) == {1: 3}
    assert memo._charged == charge
    assert memo.results("subspace", 2, 4, tables[0]) == {}
    assert memo._charged == 2 * charge
    memo.clear()
    assert memo.results("subspace", 2, 4, tables[3]) == {}
    # a table past the bound by itself is not kept, and empties nothing
    big = bytes(3 * charge)
    memo.results("subspace", 2, 4, big)[1] = None
    assert memo.results("subspace", 2, 4, big) == {}
    assert memo.results("subspace", 2, 4, tables[3]) == {}
    assert memo._charged == charge
