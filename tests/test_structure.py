import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from icsie.codeset import is_valid_generator
from icsie.encoder import optimal_length
from icsie.errors import BudgetExceededError, NotUnipartiteError
from icsie.sigraph import ProblemSpec, SideInfoGraph, clique_graph
from icsie.structure import (BoundEntry, BoundsReport, bounds_report,
                             delta_s_mais, edge_deletion_bound, find_cycles,
                             gamma, is_acyclic, max_disjoint_cycles,
                             packing_generator)

from conftest import all_unipartite_graphs, sampled_unipartite_graphs

CLIQUE4 = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)


def directed_cycle(n: int) -> SideInfoGraph:
    """Unipartite 1 -> 2 -> ... -> n -> 1: receiver i caches the next packet."""
    return SideInfoGraph.make(n, range(1, n + 1),
                              [{i % n + 1} for i in range(1, n + 1)])


def two_cliques(k: int) -> SideInfoGraph:
    """Two disconnected k-cliques on packets 1..k and k+1..2k."""
    f = list(range(1, 2 * k + 1))
    X = [set(range(1, k + 1)) - {i} for i in range(1, k + 1)] \
        + [set(range(k + 1, 2 * k + 1)) - {i} for i in range(k + 1, 2 * k + 1)]
    return SideInfoGraph.make(2 * k, f, X)


# -- cycles ------------------------------------------------------------------

def test_clique4_single_minimal_cycle():
    cycles = find_cycles(CLIQUE4)
    assert [sorted(c.packets) for c in cycles] == [[1, 2, 3, 4]]
    assert cycles[0].receivers == (1, 2, 3, 4)
    assert not is_acyclic(CLIQUE4)


def test_small_clique_acyclic():
    for n in (2, 3):
        assert is_acyclic(ProblemSpec(graph=clique_graph(n), q=2, delta_s=1))


def test_directed_cycle_delta0():
    spec = ProblemSpec(graph=directed_cycle(4), q=2, delta_s=0)
    cycles = find_cycles(spec)
    assert [sorted(c.packets) for c in cycles] == [[1, 2, 3, 4]]


def test_minimality_no_subsets_listed():
    spec = ProblemSpec(graph=two_cliques(4), q=2, delta_s=1)
    cycles = [c.packets for c in find_cycles(spec)]
    for a in cycles:
        for b in cycles:
            assert a == b or not a < b


def test_cycle_budget():
    g = SideInfoGraph.make(30, [1], [set(range(2, 31))])
    with pytest.raises(BudgetExceededError):
        find_cycles(ProblemSpec(graph=g, q=2, delta_s=0), budget_bits=20)


# -- packing -----------------------------------------------------------------

def test_beta_clique4():
    beta, packing = max_disjoint_cycles(CLIQUE4)
    assert beta == 1 and len(packing) == 1


def test_beta_two_cliques():
    spec = ProblemSpec(graph=two_cliques(4), q=2, delta_s=1)
    beta, packing = max_disjoint_cycles(spec)
    assert beta == 2
    assert packing[0].isdisjoint(packing[1])


def test_beta_acyclic_zero():
    spec = ProblemSpec(graph=clique_graph(3), q=2, delta_s=1)
    assert max_disjoint_cycles(spec) == (0, [])


def test_packing_generator_valid_with_length_n_minus_beta():
    for spec in (CLIQUE4,
                 ProblemSpec(graph=two_cliques(4), q=2, delta_s=1),
                 ProblemSpec(graph=directed_cycle(5), q=2, delta_s=0)):
        beta, _ = max_disjoint_cycles(spec)
        G = packing_generator(spec)
        assert G.ncols == spec.graph.n - beta
        assert is_valid_generator(spec, G)[0]


# -- gamma and the acyclic-subgraph number -----------------------------------

def test_gamma_clique4():
    gam, witness = gamma(CLIQUE4)
    assert gam == 3 and len(witness) == 3


def test_gamma_acyclic_is_n():
    spec = ProblemSpec(graph=clique_graph(3), q=2, delta_s=1)
    assert gamma(spec)[0] == 3


def test_gamma_clique_delta0_is_1():
    for n in (2, 3, 4):
        spec = ProblemSpec(graph=clique_graph(n), q=2, delta_s=0)
        assert gamma(spec)[0] == 1


def test_mais_equals_gamma_on_family():
    graphs = list(all_unipartite_graphs(3)) + sampled_unipartite_graphs(4, 30)
    for g in graphs:
        for ds in (0, 1):
            spec = ProblemSpec(graph=g, q=2, delta_s=ds)
            assert delta_s_mais(spec) == gamma(spec)[0]


def test_mais_directed_cycle():
    spec = ProblemSpec(graph=directed_cycle(5), q=2, delta_s=0)
    assert delta_s_mais(spec) == 4


def test_mais_needs_unipartite():
    g = SideInfoGraph.make(2, [1, 2, 1], [{2}, {1}, set()])
    with pytest.raises(NotUnipartiteError):
        delta_s_mais(ProblemSpec(graph=g, q=2, delta_s=0))


# -- bounds ------------------------------------------------------------------

def test_edge_deletion_clique4():
    value, certified = edge_deletion_bound(CLIQUE4)
    assert value == 3 and certified


def test_bounds_clique4_all_tight():
    report = bounds_report(CLIQUE4)
    assert report.n_opt == 3
    assert report.entries["gamma"].value == 3
    assert report.entries["n_minus_beta"].value == 3
    assert report.entries["n_minus_beta"].kind == "exact"
    assert report.entries["edge_deletion_lower"].value == 3
    assert report.lower("icsie") == 3 and report.upper("icsie") == 3
    assert report.consistent()


def test_bounds_acyclic_marks_uncoded_exact():
    spec = ProblemSpec(graph=clique_graph(3), q=2, delta_s=1)
    report = bounds_report(spec)
    assert report.entries["n"].kind == "exact"
    assert report.n_opt == 3


def test_bounds_gecic_sandwich():
    spec = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1, delta_c=1)
    report = bounds_report(spec)
    lo = report.entries["gecic_lower"].value
    hi = report.entries["gecic_upper"].value
    assert lo == 5 and hi == 6
    N, _ = optimal_length(spec)
    assert lo <= N <= hi


@st.composite
def gecic_cases(draw):
    """A random instance with delta_c = 1, small enough for the
    channel-error search: F_2 with n <= 4 or F_3 with n <= 3."""
    q = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 4 if q == 2 else 3))
    m = draw(st.integers(1, n + 1))
    f = [draw(st.integers(1, n)) for _ in range(m)]
    X = [draw(st.sets(st.sampled_from([j for j in range(1, n + 1) if j != fi])))
         if n > 1 else set() for fi in f]
    return ProblemSpec(graph=SideInfoGraph.make(n, f, X), q=q,
                       delta_s=draw(st.integers(0, 1)), delta_c=1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gecic_cases())
def test_gecic_bounds_sandwich_the_optimum(spec):
    report = bounds_report(spec)
    N, _ = optimal_length(spec)
    assert report.lower("gecic") <= N <= report.upper("gecic")


def test_bounds_json_round_trips():
    doc = json.loads(bounds_report(CLIQUE4).to_json())
    assert doc["n_opt"] == 3
    assert set(doc["entries"]) >= {"gamma", "n", "n_minus_beta"}
    for e in doc["entries"].values():
        assert e["kind"] in ("lower", "upper", "exact")


def test_theorem8_acyclic_side_info_useless():
    # when no cycle exists, deleting all side information changes nothing
    graphs = list(all_unipartite_graphs(3)) + sampled_unipartite_graphs(4, 20)
    for g in graphs:
        for ds in (0, 1):
            spec = ProblemSpec(graph=g, q=2, delta_s=ds)
            if not is_acyclic(spec):
                continue
            bare = SideInfoGraph.make(g.n, g.f, [set() for _ in range(g.m)])
            stripped = ProblemSpec(graph=bare, q=2, delta_s=ds)
            assert optimal_length(spec)[0] == optimal_length(stripped)[0] == g.n


def test_sandwich_on_family():
    graphs = list(all_unipartite_graphs(3)) + sampled_unipartite_graphs(4, 25)
    for g in graphs:
        for ds in (0, 1):
            spec = ProblemSpec(graph=g, q=2, delta_s=ds)
            report = bounds_report(spec)
            N = report.n_opt
            assert N is not None
            assert report.lower("icsie") <= N <= report.upper("icsie")
            assert report.consistent()


def test_consistent_checks_the_exact_optimum():
    entries = {"n": BoundEntry("exact", 3, "icsie", "uncoded"),
               "gecic_lower": BoundEntry("lower", 5, "gecic", "channel")}
    assert not BoundsReport(entries=entries, n_opt=2).consistent()
    assert not BoundsReport(entries=entries, n_opt=4).consistent()
    assert BoundsReport(entries=entries, n_opt=3).consistent()
    assert BoundsReport(entries=entries).consistent()


@st.composite
def bounds_cases(draw):
    """A random instance with delta_c = 0 (a packet may have several
    receivers or none), whose edge-deletion choice space stays small."""
    q = draw(st.sampled_from((2, 3, 4, 5)))
    n = draw(st.integers(2, 5 if q == 2 else 4))
    ds = draw(st.integers(0, 1))
    m = draw(st.integers(1, n + 1))
    f = [draw(st.integers(1, n)) for _ in range(m)]
    X = [draw(st.sets(st.sampled_from([j for j in range(1, n + 1) if j != fi])))
         for fi in f]
    assume(math.prod(math.comb(len(c), min(2 * ds, len(c))) for c in X) <= 16)
    return ProblemSpec(graph=SideInfoGraph.make(n, f, X), q=q, delta_s=ds)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bounds_cases())
def test_bounds_sandwich_the_optimum(spec):
    N, _ = optimal_length(spec)
    report = bounds_report(spec)
    assert report.n_opt == N
    for name, e in report.entries.items():
        if e.kind in ("lower", "exact"):
            assert e.value <= N, (name, e)
        if e.kind in ("upper", "exact"):
            assert N <= e.value, (name, e)
    assert report.consistent()
