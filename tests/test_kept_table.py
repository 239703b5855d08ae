"""The kept support table changes no answer: the queries on one instance
build its table once, and warm or cold every answer and refusal is the
same."""

import sys
from dataclasses import replace
from unittest import mock

import pytest

from icsie import codeset, encoder, kept, structure
from icsie.codeset import (interference_masks, is_valid_generator,
                           oracle_decodable, receiver_masks, support_table)
from icsie.encoder import core_length, l_q, minrank, optimal_length
from icsie.errors import BudgetExceededError
from icsie.linalg import Matrix
from icsie.sigraph import ProblemSpec, clique_graph
from icsie.structure import (bounds_report, edge_deletion_bound, find_cycles,
                             gamma, is_acyclic, max_disjoint_cycles)

from conftest import family_graphs

CLIQUE4 = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)


def _outcome(call, spec):
    try:
        return call(spec)
    except BudgetExceededError as exc:
        return "refused", str(exc)


def _valid_identity(spec):
    return is_valid_generator(spec, Matrix.identity(spec.field, spec.graph.n))


@pytest.mark.parametrize("spec", [
    CLIQUE4, replace(CLIQUE4, delta_s=0),
    ProblemSpec(graph=family_graphs()[100], q=2, delta_s=0)])
def test_a_family_operation_builds_its_table_once(spec):
    # the benchmark's family sequence on one instance, with both
    # validity routes on the witness
    with mock.patch("icsie.codeset.support_table",
                    wraps=support_table) as built:
        N, G = optimal_length(spec)
        minrank(spec)
        bounds_report(spec, compute_exact=False)
        optimal_length(replace(spec, delta_c=1))
        l_q(2, N, 3)
        assert is_valid_generator(spec, G)[0]
        assert oracle_decodable(spec, G)
    assert built.call_count == 1


def test_warm_and_cold_tables_give_the_same_answers_and_refusals():
    # two graphs and two delta_s in turn, each pair of graphs over F_2 at
    # delta_c = 0 or over F_3 at delta_c = 1: each call reads a table kept
    # from another instance, or its own, or builds anew
    calls = (optimal_length, bounds_report, find_cycles, gamma,
             _valid_identity)
    graphs = family_graphs()
    specs = [ProblemSpec(graph=g, q=q, delta_s=ds, delta_c=q - 2)
             for k, q in zip(range(0, len(graphs) - 1, 2), (2, 3) * len(graphs))
             for ds in (0, 1) for g in graphs[k:k + 2]]
    cold = []
    for spec in specs:
        for call in calls:
            kept.clear()
            cold.append(_outcome(call, spec))
    # the channel-error search over F_3 refuses on some instances
    assert any(isinstance(o, tuple) and o[0] == "refused" for o in cold)
    kept.clear()
    assert [_outcome(call, spec) for spec in specs for call in calls] == cold


@pytest.mark.parametrize("module, name, small, calls", [
    (structure, "DEFAULT_SUBSET_BITS", 3,
     [find_cycles, is_acyclic, gamma, max_disjoint_cycles, bounds_report]),
    (encoder, "DEFAULT_SUBSPACE_BUDGET", 4,
     [optimal_length, core_length, edge_deletion_bound]),
    (codeset, "DEFAULT_ENUM_BITS", 3, [interference_masks, _valid_identity])])
def test_a_kept_table_refuses_as_a_cold_one(monkeypatch, module, name, small,
                                            calls):
    # the table, its compressibility table and gamma are all kept
    bounds_report(CLIQUE4)
    _valid_identity(CLIQUE4)
    monkeypatch.setattr(module, name, small)
    warm = [_outcome(call, CLIQUE4) for call in calls]
    cold = []
    for call in calls:
        kept.clear()
        cold.append(_outcome(call, CLIQUE4))
    assert warm == cold
    assert all(o[0] == "refused" for o in warm)


def test_the_memo_charges_a_table_for_what_it_keeps():
    table = support_table(4, receiver_masks(CLIQUE4.graph), 2)
    kept = table.contains_compressible
    assert sys.getsizeof(table) >= sys.getsizeof(bytes(table)) \
        + sys.getsizeof(kept)
