import itertools
import math
import random
import re
from dataclasses import replace
from unittest import mock

import pytest

from icsie import codeset, encoder, kernels, linalg
from icsie.codeset import (interference_supports, is_valid_generator,
                           oracle_decodable)
from icsie.encoder import (_first_column_multiset, clique_from_parity,
                           complete_template, core_length, cycle_code,
                           fitting_template, gaussian_binomial,
                           independent_columns, l_q,
                           min_distance_from_parity, minrank, optimal_length,
                           optimum, parse_generator, serialize_generator,
                           template_column_vector)
from icsie.errors import (BudgetExceededError, CycleTooSmallError,
                          DistanceTooSmallError, IcsieError, MismatchError,
                          ParseError)
from icsie.gfield import _FieldOp, arithmetic, field_for
from icsie.linalg import Matrix, RowSpan, mask_of, vector_space
from icsie.sigraph import ProblemSpec, SideInfoGraph, clique_graph
from icsie.structure import edge_deletion_bound

from conftest import (_reference_gecic_length, _reference_shortest_length,
                      all_unipartite_graphs, dot, first_witness,
                      hamming_weight, ind_q, reference_rank,
                      sampled_unipartite_graphs)

F2 = field_for(2)
CLIQUE4 = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)


# -- fitting template --------------------------------------------------------

def test_template_clique4_column_count():
    tmpl = fitting_template(CLIQUE4)
    assert len(tmpl.columns) == 12            # 4 receivers x C(3,2)
    for col in tmpl.columns:
        assert len(col.free_pos) == 1
        assert col.one_pos == col.receiver    # clique demands
        assert col.one_pos not in col.zero_pos + col.free_pos


def test_template_delta0_is_classical():
    spec = ProblemSpec(graph=clique_graph(3), q=2, delta_s=0)
    tmpl = fitting_template(spec)
    assert len(tmpl.columns) == 3
    for col in tmpl.columns:
        assert col.chosen == ()
        assert set(col.free_pos) == set(spec.graph.X[col.receiver - 1])


def test_template_small_cache_single_column():
    g = SideInfoGraph.make(3, [1, 2, 3], [{2}, {1, 3}, {1, 2}])
    spec = ProblemSpec(graph=g, q=2, delta_s=1)
    tmpl = fitting_template(spec)
    by_receiver = {}
    for col in tmpl.columns:
        by_receiver.setdefault(col.receiver, []).append(col)
    assert len(by_receiver[1]) == 1            # |X_1| = 1 < 2
    assert by_receiver[1][0].free_pos == ()
    assert 2 in by_receiver[1][0].zero_pos
    assert len(by_receiver[2]) == 1            # |X_2| = 2 = 2delta_s


# -- minrank -----------------------------------------------------------------

def test_minrank_clique4():
    N, A = minrank(CLIQUE4)
    assert N == 3
    assert A.rank() == 3


def test_minrank_clique_delta0_is_1():
    for n in (2, 3, 4):
        spec = ProblemSpec(graph=clique_graph(n), q=2, delta_s=0)
        assert minrank(spec)[0] == 1


def test_minrank_acyclic_two_nodes():
    g = SideInfoGraph.make(2, [1, 2], [{2}, {1}])
    spec = ProblemSpec(graph=g, q=2, delta_s=1)
    assert minrank(spec)[0] == 2


def test_minrank_budget(monkeypatch):
    monkeypatch.setattr(encoder, "DEFAULT_FREE_BITS", 4)
    spec = ProblemSpec(graph=clique_graph(14), q=2, delta_s=0)
    with pytest.raises(BudgetExceededError):
        minrank(spec)


def test_completed_template_reduced_is_valid():
    # any completion, dependent columns removed, must still be valid
    rng = random.Random(5)
    tmpl = fitting_template(CLIQUE4)
    for _ in range(25):
        assignment = tuple(rng.randrange(2) for _ in range(tmpl.free_count()))
        A = complete_template(CLIQUE4, assignment)
        G = independent_columns(A)
        assert G.ncols == A.rank()
        assert is_valid_generator(CLIQUE4, G)[0]


# -- optimal length ----------------------------------------------------------

def test_optimal_clique4_is_3_with_valid_witness():
    N, G = optimal_length(CLIQUE4)
    assert N == 3
    assert G.nrows == 4 and G.ncols == 3
    assert G.rank() == 3
    assert is_valid_generator(CLIQUE4, G)[0]


def test_optimal_small_clique_uncoded():
    for n in (2, 3):
        spec = ProblemSpec(graph=clique_graph(n), q=2, delta_s=1)
        assert optimal_length(spec)[0] == n     # size <= 2delta_s+1


def test_optimal_gecic_clique4():
    spec = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1, delta_c=1)
    N, G = optimal_length(spec)
    assert N == 6
    assert N >= optimal_length(CLIQUE4)[0] + 2
    assert is_valid_generator(spec, G)[0]
    # with channel errors N can exceed n, so full column rank is impossible;
    # the interference set still pins the rank from below
    assert G.rank() == 3


def test_optimal_gecic_classical_case():
    # no side information, single packet: just a repetition code
    g = SideInfoGraph.make(1, [1], [set()])
    spec = ProblemSpec(graph=g, q=2, delta_s=0, delta_c=1)
    assert optimal_length(spec)[0] == 3


# (N, G) of the channel-error search over F_3 / F_4, as the per-field
# search (a Matrix and a full F_q^n sweep per candidate) returned them
PINNED_GECIC = [
    (3, clique_graph(3), 0, [[1, 1, 1], [1, 1, 1], [1, 1, 1]]),
    (3, clique_graph(3), 1, [[0, 0, 0, 1, 1, 1], [0, 0, 1, 0, 1, 2],
                             [1, 1, 0, 0, 0, 1]]),
    (3, SideInfoGraph.make(3, [1, 2, 3], [{2}, {3}, set()]), 0,
     [[0, 0, 0, 1, 1, 1], [0, 0, 1, 0, 1, 2], [1, 1, 0, 0, 0, 1]]),
    (3, SideInfoGraph.make(2, [1, 2, 1], [{2}, {1}, set()]), 0,
     [[0, 1, 1, 1], [1, 0, 1, 2]]),
    (4, clique_graph(3), 0, [[1, 1, 1], [1, 1, 1], [1, 1, 1]]),
    (4, clique_graph(2), 1, [[0, 1, 1, 1], [1, 0, 1, 2]]),
    (4, SideInfoGraph.make(3, [1, 2, 3], [{2}, {3}, {1}]), 0,
     [[0, 1, 1, 1], [1, 0, 1, 2], [1, 1, 0, 3]]),
]


@pytest.mark.parametrize("q, graph, ds, rows", PINNED_GECIC)
def test_pinned_gecic_witnesses_over_fq(q, graph, ds, rows):
    spec = ProblemSpec(graph=graph, q=q, delta_s=ds, delta_c=1)
    N, G = optimal_length(spec)
    assert (N, G.to_lists()) == (len(rows[0]), rows)
    assert oracle_decodable(spec, G)


def test_gecic_budget_messages_pinned(monkeypatch):
    # F_3 clique-4 refuses at its first length, the gamma bound
    # l_3(3, 3) = 6, no longer at n0 + 2 = 5
    monkeypatch.setattr(encoder, "DEFAULT_COMBO_BUDGET", 1000)
    for q, n, msg in ((2, 6, "109453344 column multisets at length 6 exceed the budget"),
                      (3, 4, "8145060 column multisets at length 6 exceed the budget")):
        spec = ProblemSpec(graph=clique_graph(n), q=q, delta_s=1, delta_c=1)
        with pytest.raises(BudgetExceededError, match=f"^{msg}$"):
            optimal_length(spec)


def _gecic_outcome(search, spec):
    """(N, G's rows), or the length a budget refusal names."""
    try:
        N, G = search(spec)
    except BudgetExceededError as exc:
        return "refused", int(re.fullmatch(
            r"\d+ column multisets at length (\d+) exceed the budget",
            str(exc))[1])
    return N, G.to_lists()


def gecic_walk_cases(seed: int = 0x6A3C):
    """Every n = 3 unipartite graph over F_2 at delta_s in {0, 1} and
    delta_c in {1, 2}; then seeded instances over F_2 with n = 4 and
    over F_3 with n <= 3, some of them under combination budgets small
    enough to refuse (F_2 n = 4 at delta_c = 2 under such budgets only:
    its full walk takes seconds per instance)."""
    rng = random.Random(seed)
    for g in all_unipartite_graphs(3):
        for ds, dc in itertools.product((0, 1), (1, 2)):
            yield ProblemSpec(graph=g, q=2, delta_s=ds, delta_c=dc), None
    for q, n, dc, count, budgets in (
            (2, 4, 1, 8, (None, None, 300, 3000)),
            (2, 4, 2, 6, (300, 3000, 30000)),
            (3, 2, 1, 4, (None, None, 300, 3000)),
            (3, 3, 1, 8, (None, None, 300, 3000))):
        for g in sampled_unipartite_graphs(n, count, seed=rng.randrange(1 << 30)):
            spec = ProblemSpec(graph=g, q=q, delta_s=rng.choice((0, 1)),
                               delta_c=dc)
            yield spec, rng.choice(budgets)


def test_gecic_search_matches_the_walk_from_the_sphere_bound(monkeypatch):
    # the search from the larger of n0 + 2 delta_c and the gamma bound
    # against the walk of every length from n0 + 2 delta_c: the same
    # (N, G), and the same refusals.  Multiset counts grow with the
    # length, so a walk that refuses at length L makes the search refuse
    # at the larger of L and its start.
    seen = set()
    default = encoder.DEFAULT_COMBO_BUDGET
    for spec, budget in gecic_walk_cases():
        monkeypatch.setattr(encoder, "DEFAULT_COMBO_BUDGET",
                            default if budget is None else budget)
        got = _gecic_outcome(optimal_length, spec)
        want = _gecic_outcome(_reference_gecic_length, spec)
        if want[0] == "refused":
            assert got[0] == "refused" and got[1] >= want[1], spec
        else:
            assert got == want, spec
        seen.add((spec.q, spec.delta_c, got[0] == "refused"))
    assert seen == {(2, 1, False), (2, 1, True), (2, 2, False), (2, 2, True),
                    (3, 1, False), (3, 1, True)}


def test_reference_walk_checks_its_budget_before_the_table(monkeypatch):
    # 40 packets: the 2^40 support table is never built
    monkeypatch.setattr("conftest.interference_supports", mock.Mock(
        side_effect=AssertionError("support table built")))
    spec = ProblemSpec(graph=clique_graph(40), q=2, delta_s=0)
    with pytest.raises(BudgetExceededError):
        _reference_shortest_length(spec)
    with pytest.raises(BudgetExceededError):
        _reference_gecic_length(replace(spec, delta_c=1))


@pytest.mark.parametrize("q, n, ds", [(2, 4, 1), (3, 3, 1), (2, 3, 0)])
def test_gecic_builds_one_support_table(monkeypatch, q, n, ds):
    # the core search's table also lists the interference representatives,
    # and the validity test reads it again
    built = []
    real = codeset.support_table

    def counting(n, receivers, cap):
        built.append((n, cap))
        return real(n, receivers, cap)

    monkeypatch.setattr(codeset, "support_table", counting)
    spec = ProblemSpec(graph=clique_graph(n), q=q, delta_s=ds, delta_c=1)
    N, G = optimal_length(spec)
    assert is_valid_generator(spec, G)[0]
    assert built == [(n, 2 * ds)]


def test_witness_rank_equals_length_on_random_instances():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.choice((3, 4))
        X = [frozenset(j for j in range(1, n + 1) if j != i and rng.random() < .5)
             for i in range(1, n + 1)]
        spec = ProblemSpec(graph=SideInfoGraph.make(n, range(1, n + 1), X),
                           q=2, delta_s=rng.choice((0, 1)))
        N, G = optimal_length(spec)
        assert G.rank() == G.ncols == N
        assert is_valid_generator(spec, G)[0]


def test_minrank_rejects_channel_errors():
    spec = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1, delta_c=1)
    with pytest.raises(IcsieError, match="delta_c = 0"):
        minrank(spec)
    # the budget check comes first, so an over-budget template still
    # reports the budget
    big = ProblemSpec(graph=clique_graph(10), q=2, delta_s=1, delta_c=1)
    with pytest.raises(BudgetExceededError):
        minrank(big)


def test_core_length_is_the_error_free_optimum():
    spec = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1, delta_c=1)
    assert core_length(spec) == minrank(CLIQUE4)[0] == 3


@pytest.mark.parametrize("delta_c", [0, 1])
def test_optimum_returns_each_routes_witness(delta_c):
    spec = replace(CLIQUE4, delta_c=delta_c)
    brute = optimal_length(spec)
    assert optimum(spec, "brute") == brute
    if delta_c == 0:
        N, completed = minrank(spec)
        assert optimum(spec, "minrank") == (N, independent_columns(completed))
        assert optimum(spec, "both") == optimum(spec, "minrank")
    else:
        assert optimum(spec, "both") == brute
    with pytest.raises(ValueError, match="unknown method"):
        optimum(spec, "fastest")


@pytest.mark.parametrize("delta_c", [0, 1])
def test_optimum_raises_when_the_routes_disagree(monkeypatch, delta_c):
    # minrank reports one more than the core optimum 3: at delta_c = 1
    # it is compared with core_length, at delta_c = 0 with the search
    real = encoder.minrank
    monkeypatch.setattr(encoder, "minrank",
                        lambda spec: (real(spec)[0] + 1, real(spec)[1]))
    with pytest.raises(MismatchError, match=r"^minrank 4 != brute 3$"):
        optimum(replace(CLIQUE4, delta_c=delta_c), "both")


# minrank's (N, completed G) as the Field-call rank tracker found them
PINNED_MINRANK = [
    (clique_graph(4), 3, 1, 24, 3,
     [[1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1], [0, 0, 1, 1, 1, 1, 0, 2, 0, 0, 2, 0],
      [0, 1, 0, 0, 2, 0, 1, 1, 1, 2, 0, 0], [1, 0, 0, 2, 0, 0, 2, 0, 0, 1, 1, 1]]),
    (clique_graph(4), 4, 1, 24, 3,
     [[1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1], [0, 0, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0],
      [0, 1, 0, 0, 1, 0, 1, 1, 1, 1, 0, 0], [1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 1, 1]]),
    # 12 free positions over F_5 need 28 bits
    (clique_graph(4), 5, 1, 28, 3,
     [[1, 1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1], [0, 0, 1, 1, 1, 1, 0, 4, 0, 0, 4, 0],
      [0, 1, 0, 0, 4, 0, 1, 1, 1, 4, 0, 0], [1, 0, 0, 4, 0, 0, 4, 0, 0, 1, 1, 1]]),
    (SideInfoGraph.make(4, [1, 2, 3, 4, 2], [{2, 3}, {1, 4}, {1, 2}, {3}, {3, 4}]),
     3, 0, 24, 3, [[1, 0, 0, 0, 0], [0, 1, 1, 0, 1], [0, 0, 1, 2, 0], [0, 1, 0, 1, 1]]),
    (SideInfoGraph.make(4, [1, 2, 3, 4], [{2, 3, 4}, {1, 3}, {1, 2, 4}, {1, 2}]),
     4, 1, 24, 4, [[1, 1, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0],
                   [0, 0, 0, 0, 1, 1, 1, 0], [0, 0, 0, 0, 0, 0, 0, 1]]),
    (SideInfoGraph.make(4, [1, 2, 3, 4], [{2, 4}, {3}, {1, 4}, {1, 2}]),
     5, 0, 24, 2, [[1, 0, 4, 1], [1, 1, 0, 1], [0, 1, 1, 0], [1, 0, 4, 1]]),
]


@pytest.mark.parametrize("graph, q, ds, bits, N, rows", PINNED_MINRANK)
def test_minrank_pinned(monkeypatch, graph, q, ds, bits, N, rows):
    monkeypatch.setattr(encoder, "DEFAULT_FREE_BITS", bits)
    spec = ProblemSpec(graph=graph, q=q, delta_s=ds)
    assert minrank(spec) == (N, Matrix(field_for(q), rows))


def test_minrank_over_an_untabulated_field():
    # F_257 is past the table limit: the row reduction reads the field
    # through the views that call the Field
    f = field_for(257)
    assert all(isinstance(op, _FieldOp) for op in arithmetic(f))
    spec = ProblemSpec(graph=clique_graph(2), q=257, delta_s=0)
    assert minrank(spec) == (1, Matrix(f, [[1, 1], [1, 1]]))
    acyclic = SideInfoGraph.make(2, [1, 2], [{2}, set()])
    assert minrank(ProblemSpec(graph=acyclic, q=257, delta_s=0)) == (
        2, Matrix(f, [[1, 0], [0, 1]]))


def _reference_minrank(spec, budget_bits=24):
    """minrank as a full branching walk: every completion of every
    column is pushed, with no shortcut at rank best - 1."""
    tmpl = fitting_template(spec)
    field = spec.field
    nfree = tmpl.free_count()
    if nfree * math.log2(spec.q) > budget_bits:
        raise BudgetExceededError(
            f"{nfree} free positions over F_{spec.q} exceed the "
            f"{budget_bits}-bit budget")
    if spec.delta_c > 0:
        raise IcsieError(
            f"minrank requires delta_c = 0 (got {spec.delta_c}); "
            "channel errors need optimal_length")
    n = tmpl.n
    cols = tmpl.columns
    best = n + 1
    best_assign = None
    span = RowSpan(field)
    assign = []

    def walk(k):
        nonlocal best, best_assign
        if span.rank() >= best:
            return
        if k == len(cols):
            best = span.rank()
            best_assign = tuple(assign)
            return
        col = cols[k]
        vec = list(template_column_vector(field, n, col, [0] * len(col.free_pos)))
        at = [pos - 1 for pos in col.free_pos]
        for vals in itertools.product(range(spec.q), repeat=len(at)):
            for pos, val in zip(at, vals):
                vec[pos] = val
            grew = span.push(vec)
            assign.extend(vals)
            walk(k + 1)
            del assign[len(assign) - len(vals):]
            if grew:
                span.pop()

    walk(0)
    assert best_assign is not None
    return best, complete_template(spec, best_assign)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except IcsieError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_minrank_matches_the_full_walk(monkeypatch, q):
    # seeded graphs with 1 to n + 3 receivers, several demanding one
    # packet, at every delta_s up to 2 and budgets of 12-24 bits; the
    # (N, G), or the exception's type and message, must be the full
    # walk's
    rng = random.Random(900 + q)
    for _ in range(100):
        n = rng.randint(1, 4)
        f = [rng.randint(1, n) for _ in range(rng.randint(1, n + 3))]
        X = [{j for j in range(1, n + 1) if j != fi and rng.random() < .6}
             for fi in f]
        spec = ProblemSpec(graph=SideInfoGraph.make(n, f, X), q=q,
                           delta_s=rng.randint(0, 2),
                           delta_c=int(rng.random() < .1))
        bits = rng.randint(12, 24)
        monkeypatch.setattr(encoder, "DEFAULT_FREE_BITS", bits)
        assert _outcome(minrank, spec) == _outcome(
            _reference_minrank, spec, bits)


def test_minrank_settles_the_last_rank_level_without_pushing(monkeypatch):
    # on F_4 clique-4 at delta_s = 1 the full walk pushes 24,004 vectors
    # to prove rank 3 optimal
    calls = 0

    def counted(method):
        def wrapper(self, vec):
            nonlocal calls
            calls += 1
            return method(self, vec)
        return wrapper

    monkeypatch.setattr(RowSpan, "push", counted(RowSpan.push))
    monkeypatch.setattr(RowSpan, "contains", counted(RowSpan.contains))
    spec = ProblemSpec(graph=clique_graph(4), q=4, delta_s=1)
    assert minrank(spec)[0] == 3
    assert calls < 4000


# reductions of the walk that tries every completion of every column,
# less the settled last rank level: 4,081 and 970.  Settling by
# elimination alone leaves 733 and 688; skipping repeated states too,
# 654 and 227.
@pytest.mark.parametrize("spec, N, most", [
    (ProblemSpec(graph=SideInfoGraph.make(
        4, [1, 2, 3, 4], [{2, 4}, {1, 3}, {1, 4}, {2, 3}]), q=5, delta_s=0),
     2, 1500),
    (ProblemSpec(graph=clique_graph(4), q=4, delta_s=1), 3, 400),
])
def test_minrank_walks_each_state_once_and_settles_by_elimination(
        monkeypatch, spec, N, most):
    calls = 0
    reduce = RowSpan._reduce

    def counted(self, vec):
        nonlocal calls
        calls += 1
        return reduce(self, vec)

    monkeypatch.setattr(RowSpan, "_reduce", counted)
    assert minrank(spec)[0] == N
    assert calls < most


@pytest.mark.parametrize("q", [2, 3, 4, 5, 257])
def test_independent_columns_keeps_each_column_that_raises_the_rank(q):
    # the row reduction against the reference elimination, first-come order
    f = field_for(q)
    rng = random.Random(q)
    for _ in range(30):
        n, N = rng.randint(1, 4), rng.randint(1, 6)
        pool = [rng.randrange(q) for _ in range(3)]
        M = Matrix(f, [[rng.choice(pool) for _ in range(N)] for _ in range(n)], ncols=N)
        keep = []
        for c in M.columns():
            if reference_rank(Matrix(f, keep + [c])) > len(keep):
                keep.append(c)
        assert independent_columns(M) == Matrix(f, zip(*keep), ncols=len(keep))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_minrank_equals_core_length_on_random_graphs(q):
    rng = random.Random(300 + q)
    checked = 0
    while checked < 15:
        n = rng.randint(2, 5 if q == 2 else 4)
        f = [rng.randint(1, n) for _ in range(rng.randint(1, n + 1))]
        X = [{j for j in range(1, n + 1) if j != fi and rng.random() < .5}
             for fi in f]
        spec = ProblemSpec(graph=SideInfoGraph.make(n, f, X), q=q,
                           delta_s=rng.randint(0, 1),
                           delta_c=rng.randint(0, 2))
        # within minrank's budget, and small enough to stay quick
        if fitting_template(spec).free_count() * math.log2(q) > 16:
            continue
        assert minrank(replace(spec, delta_c=0))[0] == core_length(spec)
        checked += 1


# -- the pruned subspace walk against other routes ---------------------------

def _random_unipartite(rng, n):
    X = [frozenset(j for j in range(1, n + 1) if j != i and rng.random() < .6)
         for i in range(1, n + 1)]
    return SideInfoGraph.make(n, range(1, n + 1), X)


def _reference_witness(spec):
    """The search without pruning: every RREF basis of every dimension in
    enumeration order, each span tested element by element."""
    n, q, field = spec.graph.n, spec.q, spec.field
    for N in range(1, n + 1):
        d = n - N
        for pivots in itertools.combinations(range(n), d):
            cells = [(r, c) for r in range(d) for c in range(pivots[r] + 1, n)
                     if c not in pivots]
            for vals in itertools.product(range(q), repeat=len(cells)):
                rows = [[int(c == p) for c in range(n)] for p in pivots]
                for (r, c), v in zip(cells, vals):
                    rows[r][c] = v
                W = Matrix(field, rows, ncols=n)
                if all(first_witness(spec, W.vec_mul(coeffs)) is None
                       for coeffs in itertools.product(range(q), repeat=d)
                       if any(coeffs)):
                    return N, W.null_space_basis().transpose()
    raise AssertionError("the identity generator is always valid")


@pytest.mark.parametrize("q, sizes, count", [(2, (3, 4, 5, 6), 12),
                                             (3, (3, 4), 6), (4, (3, 4), 4),
                                             (5, (3, 4), 4)])
def test_optimal_witness_is_first_in_enumeration_order(q, sizes, count):
    rng = random.Random(100 + q)
    for k in range(count):
        g = _random_unipartite(rng, sizes[k % len(sizes)])
        for ds in (0, 1):
            spec = ProblemSpec(graph=g, q=q, delta_s=ds)
            assert optimal_length(spec) == _reference_witness(spec)


@pytest.mark.parametrize("q, sizes, count", [(2, (4, 5, 6), 9), (3, (3, 4), 4),
                                             (4, (3, 4), 3), (5, (3, 4), 3)])
def test_optimal_length_agrees_with_minrank_and_oracle(q, sizes, count):
    rng = random.Random(200 + q)
    for k in range(count):
        g = _random_unipartite(rng, sizes[k % len(sizes)])
        for ds in (0, 1):
            spec = ProblemSpec(graph=g, q=q, delta_s=ds)
            N, G = optimal_length(spec)
            assert G.ncols == G.rank() == N
            assert oracle_decodable(spec, G)
            try:
                assert minrank(spec)[0] == N
            except BudgetExceededError:
                pass


# (N, G) as the unpruned enumeration returned them; the walk must keep the
# enumeration order, so the witness may not drift
PINNED_WITNESSES = {
    (2, 6): [[0, 1, 1, 1], [1, 0, 1, 1], [1, 0, 0, 0], [0, 1, 0, 0],
             [0, 0, 1, 0], [0, 0, 0, 1]],
    (2, 7): [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 0, 0, 0],
             [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    (2, 8): [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0],
             [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    (3, 5): [[0, 2, 2, 2], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
             [0, 0, 0, 1]],
    (4, 4): [[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
}


@pytest.mark.parametrize("q, n", sorted(PINNED_WITNESSES))
def test_pinned_clique_witnesses(q, n):
    spec = ProblemSpec(graph=clique_graph(n), q=q, delta_s=1)
    N, G = optimal_length(spec)
    assert (N, G.to_lists()) == (len(PINNED_WITNESSES[q, n][0]),
                                 PINNED_WITNESSES[q, n])


def test_optimal_many_receivers_past_64():
    # 70 receivers on 6 packets: more than a 64-bit receiver mask holds
    rng = random.Random(70)
    f, X = [], []
    for i in range(70):
        want = i % 6 + 1
        others = [j for j in range(1, 7) if j != want]
        f.append(want)
        X.append(rng.sample(others, rng.randrange(2, 6)))
    spec = ProblemSpec(graph=SideInfoGraph.make(6, f, X), q=2, delta_s=1)
    N, G = optimal_length(spec)
    assert G.ncols == G.rank() == N
    assert is_valid_generator(spec, G)[0]
    assert oracle_decodable(spec, G)


def test_optimal_budget_checked_before_the_lookup_is_built(monkeypatch):
    # 2^23 - 1 hyperplanes exceed the default budget; the check must fire
    # before any 2^23-entry interference table is built, also in the
    # edge-deletion bound's searches (one reduced table at delta_s = 0,
    # a sample of 231^23 deletion choices at delta_s = 1)
    runs = [lambda: optimal_length(
        ProblemSpec(graph=clique_graph(23), q=2, delta_s=0))]
    runs += [lambda ds=ds: edge_deletion_bound(
        ProblemSpec(graph=clique_graph(23), q=2, delta_s=ds)) for ds in (0, 1)]
    no_table = AssertionError("a 2^23-entry table was built")
    for run in runs:
        with mock.patch("icsie.codeset.support_table", side_effect=no_table), \
                mock.patch("icsie.structure.support_table", side_effect=no_table), \
                pytest.raises(BudgetExceededError,
                              match="^8388607 subspaces of dimension 22 "
                                    "exceed the search budget$"):
            run()
    monkeypatch.setattr(encoder, "DEFAULT_SUBSPACE_BUDGET", 1 << 12)
    with pytest.raises(BudgetExceededError):
        optimal_length(ProblemSpec(graph=clique_graph(9), q=2, delta_s=1))


def test_gaussian_binomial():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 0, 2) == 1
    assert gaussian_binomial(3, 3, 3) == 1


# -- cycle code --------------------------------------------------------------

def test_cycle_code_golden_4():
    G = cycle_code(F2, 4, 1)
    assert G.to_lists() == [[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1]]


def test_cycle_code_any_subset_of_size_minus_one_independent():
    for ds, size in ((1, 4), (1, 5), (2, 6)):
        G = cycle_code(F2, size, ds)
        assert G.nrows == size and G.ncols == size - 1
        for keep in itertools.combinations(range(1, size + 1), size - 1):
            assert G.submatrix_rows(keep).rank() == size - 1
        # all rows together telescope to zero over F_2
        total = (0,) * (size - 1)
        acc = [0] * (size - 1)
        for row in G.rows:
            acc = [a ^ b for a, b in zip(acc, row)]
        assert tuple(acc) == total


def test_cycle_code_too_small():
    with pytest.raises(CycleTooSmallError):
        cycle_code(F2, 3, 1)


# -- parity-check bridge -----------------------------------------------------

def test_min_distance_from_parity_repetition():
    H = Matrix(F2, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    assert min_distance_from_parity(H) == 4


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_min_distance_from_parity_matches_every_codeword(q):
    # seeded random parity checks against the least weight over every
    # nonzero message, each codeword by Matrix.vec_mul
    f = field_for(q)
    rng = random.Random(0x3D + q)
    checked = 0
    while checked < 12:
        n = rng.randrange(2, 7)
        H = Matrix(f, [[rng.randrange(q) for _ in range(n)]
                       for _ in range(rng.randrange(1, n))])
        basis = H.null_space_basis()
        if basis.nrows == 0 or basis.nrows * math.log2(q) > 12:
            continue
        want = min(hamming_weight(basis.vec_mul(m)) for m in
                   itertools.product(range(q), repeat=basis.nrows) if any(m))
        assert min_distance_from_parity(H) == want
        checked += 1


def test_clique_from_parity_repetition():
    H = Matrix(F2, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    G, spec = clique_from_parity(H, delta_s=1)
    assert G.nrows == 4 and G.ncols == 3
    assert spec.graph == clique_graph(4)
    assert is_valid_generator(spec, G)[0]
    assert optimal_length(spec)[0] == 3       # construction hits the optimum


def test_clique_from_parity_reed_solomon_like():
    # length-4 repetition over F_5 has d_min = 4 = 2delta_s+2: N = 3 = 2delta_s+1
    f5 = field_for(5)
    H = Matrix(f5, [[1, 4, 0, 0], [0, 1, 4, 0], [0, 0, 1, 4]])
    assert min_distance_from_parity(H) == 4
    G, spec = clique_from_parity(H, delta_s=1)
    assert G.ncols == 3 == 2 * spec.delta_s + 1


def test_clique_from_parity_distance_too_small():
    # Hamming (7,4) has d_min = 3 < 4
    H = Matrix(F2, [[1, 0, 1, 0, 1, 0, 1],
                    [0, 1, 1, 0, 0, 1, 1],
                    [0, 0, 0, 1, 1, 1, 1]])
    assert min_distance_from_parity(H) == 3
    with pytest.raises(DistanceTooSmallError):
        clique_from_parity(H, delta_s=1)


# -- classical quantities ----------------------------------------------------

def test_ind_2_order3_is_half_space():
    for N in (3, 4, 5):
        assert ind_q(2, N, 3) == 2 ** (N - 1)


def test_ind_2_7_5_is_9():
    assert ind_q(2, 7, 5) == 9


def test_ind_order1_counts_nonzero():
    assert ind_q(2, 3, 1) == 7
    assert ind_q(3, 2, 1) == 8


def test_ind_order2_projective():
    # pairwise independence = distinct projective points
    assert ind_q(2, 3, 2) == 7
    assert ind_q(3, 2, 2) == 4


def test_observation_clique_lengths_match_ind():
    # for cliques: optimal length = least N whose 2delta_s+1-wise
    # independent family can host one row per packet
    for n in range(3, 7):
        spec = ProblemSpec(graph=clique_graph(n), q=2, delta_s=1)
        want = next(N for N in range(1, 10) if ind_q(2, N, 3) >= n)
        assert optimal_length(spec)[0] == want


def test_l2_values():
    assert l_q(2, 1, 3) == 3
    assert l_q(2, 4, 3) == 7
    assert l_q(2, 3, 3) == 6
    assert l_q(2, 1, 5) == 5
    for a in (1, 2, 3):
        assert l_q(2, a, 1) == a


def test_l3_repetition():
    assert l_q(3, 1, 3) == 3


# l_q(q, a, d) as the per-field systematic searches found them
PINNED_L_Q = {
    (2, 1, 3): 3, (2, 2, 3): 5, (2, 2, 4): 6, (2, 2, 5): 8, (2, 3, 2): 4,
    (2, 3, 3): 6, (2, 3, 4): 7, (2, 4, 2): 5, (2, 4, 3): 7, (2, 4, 4): 8,
    (3, 1, 4): 4, (3, 2, 3): 4, (3, 2, 4): 6, (3, 2, 5): 7, (3, 3, 2): 4,
    (3, 3, 3): 6, (3, 4, 2): 5,
    (4, 1, 5): 5, (4, 2, 3): 4, (4, 2, 4): 5, (4, 3, 2): 4, (4, 3, 3): 5,
    (4, 4, 2): 5,
    (5, 2, 3): 4, (5, 2, 4): 5, (5, 3, 2): 4, (5, 3, 3): 5, (5, 4, 2): 5,
}


def test_l_q_pinned():
    assert {key: l_q(*key) for key in PINNED_L_Q} == PINNED_L_Q


def test_l_q_budget_messages_pinned():
    with pytest.raises(BudgetExceededError, match="^25637001 column multisets "
                       "at length 8 exceed the budget$"):
        l_q(5, 4, 5)
    with pytest.raises(BudgetExceededError, match="^1078897248 column multisets "
                       "at length 13 exceed the budget$"):
        l_q(2, 6, 5)


def test_multiset_refusals_list_no_point(monkeypatch):
    # the 10303 projective points of F_101^3 are never listed when every
    # length is past the budget; l_q(101, 1, 3), the delta_s = 0 bounds,
    # lists the one point of F_101^1
    listed = linalg._FqVectors.projective

    def small_only(self):
        if self.n > 1:
            raise AssertionError(f"projective points of F_101^{self.n} listed")
        return listed(self)

    monkeypatch.setattr(linalg._FqVectors, "projective", small_only)
    with pytest.raises(BudgetExceededError,
                       match="^53081056 column multisets at length 5 "):
        l_q(101, 3, 3)
    for ds in (0, 1):
        spec = ProblemSpec(graph=clique_graph(3), q=101, delta_s=ds,
                           delta_c=1)
        with pytest.raises(BudgetExceededError,
                           match=r"^\d+ column multisets at length \d+ "):
            optimal_length(spec)


def test_l_q_budget_counts_multisets():
    # length 11 has C(21, 7) = 116280 parity multisets, well inside the
    # budget; 11 is the Griesmer bound, so a binary [11, 4, 5] code shows
    # the answer is right
    G = Matrix(field_for(2), [map(int, r) for r in (
        "10000001111", "01000110011", "00101010101", "00011101010")])
    assert min(sum(G.vec_mul(m)) for m in itertools.product((0, 1), repeat=4)
               if any(m)) == 5
    assert l_q(2, 4, 5) == 11


def _code_exists_reference(q, n, a, d):
    """Every systematic generator [I | P], P taken column by column as
    an ordered tuple, every nonzero message checked."""
    f = field_for(q)
    msgs = [m for m in itertools.product(range(q), repeat=a) if any(m)]
    for P in itertools.product(itertools.product(range(q), repeat=a), repeat=n - a):
        G = Matrix(f, [[int(i == j) for j in range(a)] + [c[i] for c in P]
                       for i in range(a)], ncols=n)
        if all(sum(1 for v in G.vec_mul(m) if v) >= d for m in msgs):
            return True
    return False


@pytest.mark.parametrize("q, cases", [
    (2, [(n, a, d) for a in (1, 2, 3) for n in range(a, a + 5) for d in (2, 3, 4, 5)]),
    (3, [(n, a, d) for a in (1, 2) for n in range(a, a + 4) for d in (2, 3, 4)]),
    (4, [(n, a, d) for a in (1, 2) for n in range(a, a + 3) for d in (2, 3)]),
    (5, [(3, 1, 3), (3, 2, 2), (4, 2, 3), (4, 2, 4)])])
def test_systematic_code_search_matches_every_ordered_parity(q, cases):
    # l_q's question at the one length n: parity columns of [I | P]
    # after the a identity columns, message m needing d - wt(m) of them
    for n, a, d in cases:
        hit = _first_column_multiset(vector_space(field_for(q), a),
                                     lambda s, d=d: d - s.bit_count(),
                                     [n], a, 1 << 24)
        assert (hit is not None) == _code_exists_reference(q, n, a, d)


def _reference_column_multiset(field, k, need_of, lengths, prefix):
    """``_first_column_multiset`` leaf by leaf: the projective points of
    F_q^k as the filtered list of all q^k tuples, each length's
    multisets in combinations_with_replacement order, and every weight
    wt(zC) counted in Field arithmetic."""
    points = [t for t in itertools.product(range(field.q), repeat=k)
              if any(t) and next(a for a in t if a) == 1]
    needs = [need_of(mask_of(z)) for z in points]
    vectors = vector_space(field, k)
    for N in lengths:
        for cols in itertools.combinations_with_replacement(points, N - prefix):
            if all(sum(1 for c in cols if dot(field, z, c)) >= need
                   for z, need in zip(points, needs)):
                return N, tuple(map(vectors.pack, cols))
    return None


def column_multiset_cases(q, seed):
    """(k, need_of, lengths, prefix) in both callers' shapes over F_q,
    and with needs drawn at random per support: l_q's d - wt(m) after a
    prefix of a identity columns; the channel-error search's
    need * table[s] over the support table of a seeded instance; some
    length ranges stop short of every hit."""
    rng = random.Random(seed)
    ks = {2: (2, 3, 4), 3: (2, 3), 4: (2, 3), 5: (2,)}[q]
    for k in ks:
        # long length ranges are slow to walk leaf by leaf over 13 or
        # more points
        span = 3 if (q ** k - 1) // (q - 1) >= 13 else 5
        for a, d in ((k, 2), (k, 3), (k, 4)):
            yield k, lambda s, d=d: d - s.bit_count(), range(a + 1, a + span), a
        for dc, g in itertools.product((1, 2), sampled_unipartite_graphs(
                k, 2, seed=rng.randrange(1 << 30))):
            table = interference_supports(ProblemSpec(
                graph=g, q=q, delta_s=rng.choice((0, 1)), delta_c=dc))
            lo = 1 + rng.randrange(3)
            yield k, lambda s, t=table, need=2 * dc + 1: need * t[s], \
                range(lo, lo + span - 1), 0
        for _ in range(2):
            needs = [rng.randrange(4) for _ in range(1 << k)]
            needs[1] = max(needs[1], 1)
            yield k, needs.__getitem__, range(1, span + 1), 0


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_column_multiset_walk_matches_the_leaf_by_leaf_reference(q):
    # the sliced walk returns the reference's first multiset, or None
    # when no length in the range has one
    f = field_for(q)
    outcomes = set()
    for k, need_of, lengths, prefix in column_multiset_cases(q, 0x51CE + q):
        got = _first_column_multiset(vector_space(f, k), need_of, lengths,
                                     prefix, 1 << 40)
        assert got == _reference_column_multiset(f, k, need_of, lengths,
                                                 prefix), (k, lengths, prefix)
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_column_multiset_walk_asks_no_weight_test(monkeypatch):
    # with every first_failing made to raise, the channel-error search
    # and l_q still answer, as pinned: the walk counts hits in its own
    # slices, so conftest's _reference_gecic_length, which tests each
    # multiset with first_failing, is a separate route
    specs = [replace(CLIQUE4, delta_c=1),
             ProblemSpec(graph=clique_graph(3), q=2, delta_s=0, delta_c=2),
             ProblemSpec(graph=clique_graph(3), q=3, delta_s=1, delta_c=1),
             ProblemSpec(graph=clique_graph(2), q=5, delta_s=1, delta_c=1)]
    want = [_gecic_outcome(_reference_gecic_length, spec) for spec in specs]

    def refuse(*args):
        raise AssertionError("first_failing called")

    monkeypatch.setattr(kernels, "gf2_first_failing", refuse)
    for cls in (linalg._F2Vectors, linalg._FqVectors):
        monkeypatch.setattr(cls, "first_failing", refuse)
    l_q.cache_clear()
    assert {key: l_q(*key) for key in PINNED_L_Q} == PINNED_L_Q
    assert [_gecic_outcome(optimal_length, spec) for spec in specs] == want


def test_l_q_refuses_past_a_fully_walked_length():
    # length 12, the Griesmer bound, is in budget and holds no code; its
    # walk is cut short enough that the refusal at 13 comes in about a
    # second
    with pytest.raises(BudgetExceededError, match="^48903492 column multisets "
                       "at length 13 exceed the budget$"):
        l_q(2, 5, 5)


def test_l_q_respects_griesmer():
    for (a, d) in ((1, 3), (2, 3), (3, 3), (4, 3), (2, 4)):
        griesmer = sum(math.ceil(d / 2 ** i) for i in range(a))
        assert l_q(2, a, d) >= griesmer


# -- wire format -------------------------------------------------------------

def test_generator_round_trip():
    _, G = optimal_length(CLIQUE4)
    assert parse_generator(serialize_generator(G)) == G


def test_parse_generator_errors():
    with pytest.raises(ParseError):
        parse_generator("{")
    with pytest.raises(ParseError):
        parse_generator('{"q": 2, "n": 2, "N": 2, "rows": [[1, 0]]}')
    with pytest.raises(ParseError):
        parse_generator('{"q": 2, "n": 1, "N": 2, "rows": [[1, 7]]}')
