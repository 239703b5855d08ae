"""The k-wise independence bound: its per-size profile, its r_q, and the
error-free search that starts at it.

The library's r_q reads l_q; the test side's ind_q, which searches
k-wise independent sets directly, is its independent check.  For
k >= 2 an [s, s - N, k + 1] code exists iff s vectors of F_q^N are
k-wise independent, the columns of its parity check (k >= 2 makes them
distinct, so they are a set), and r_q(s, k + 1) is the least N with
ind_q(N, k) >= s.
"""

import functools
import itertools
import random
from unittest import mock

import pytest

from icsie import codeset, encoder
from icsie.codeset import SupportTable, interference_supports
from icsie.encoder import (_kwise_length, _redundancy, core_length, l_q,
                           optimal_length)
from icsie.errors import BudgetExceededError
from icsie.sigraph import ProblemSpec, SideInfoGraph, clique_graph
from icsie.structure import bounds_report, edge_deletion_bound

from conftest import _reference_shortest_length, family_graphs, ind_q

cached_ind_q = functools.lru_cache(maxsize=None)(ind_q)


def least_length(q: int, s: int, k: int) -> int:
    """The least N with s k-wise independent vectors in F_q^N."""
    return next(N for N in itertools.count(1) if cached_ind_q(q, N, k) >= s)


def kwise(spec: ProblemSpec) -> int:
    return _kwise_length(interference_supports(spec), spec.q)


def gamma_of(spec: ProblemSpec) -> int:
    return interference_supports(spec).gamma_mask.bit_count()


@pytest.fixture
def cold_code_caches():
    """l_q and r_q keep their answers across budget changes; a test that
    shrinks a budget starts and leaves both empty."""
    l_q.cache_clear()
    _redundancy.cache_clear()
    yield
    l_q.cache_clear()
    _redundancy.cache_clear()


def _profile_reference(table, n: int) -> tuple:
    """Each size past gamma + 1 and its largest k, every subset of every
    mask listed."""
    masks = range(1 << n)
    gam = max(s.bit_count() for s in masks
              if all(table[x] for x in range(1, s + 1) if x & s == x))
    return tuple(
        (size, max(min(x.bit_count() for x in range(1, s + 1)
                       if x & s == x and not table[x]) - 1
                   for s in masks if s.bit_count() == size))
        for size in range(gam + 2, n + 1))


def test_the_profile_is_each_sizes_largest_k():
    rng = random.Random(2901)
    for _ in range(300):
        n = rng.randrange(1, 8)
        p = rng.random()
        table = SupportTable([0] + [rng.random() < p
                                    for _ in range((1 << n) - 1)])
        assert table.kwise_profile == _profile_reference(table, n)


def test_the_profile_is_empty_below_gamma_plus_two():
    # clique-4 at delta_s = 1: gamma 3, so no size can beat it
    table = interference_supports(ProblemSpec(graph=clique_graph(4), q=2,
                                              delta_s=1))
    assert table.kwise_profile == ()
    table = interference_supports(ProblemSpec(graph=clique_graph(8), q=2,
                                              delta_s=1))
    assert table.kwise_profile == ((5, 3), (6, 3), (7, 3), (8, 3))


# r_q(s, k + 1) = least N with ind_q(N, k) >= s, where ind_q stays cheap
# (ind_q(2, 7, 4), ind_q(3, 4, 3) and ind_q(4, 3, 2) take a minute or more)
R_Q_CASES = ([(2, s, k) for s in range(2, 9) for k in range(2, min(s, 5) + 1)]
             + [(3, s, k) for s in range(3, 7) for k in (2, 3) if k == 2 or s <= 4]
             + [(4, s, k) for s in range(3, 7) for k in (2, 3) if k == 3 or s <= 5])


def test_r_q_is_the_least_length_of_a_k_wise_independent_set():
    got = {(q, s, k): _redundancy(q, s, k + 1) for q, s, k in R_Q_CASES}
    assert got == {case: least_length(*case) for case in R_Q_CASES}


def _r_q_by_l_q(q: int, s: int, d: int) -> int:
    return s - max([0] + [a for a in range(1, s + 1) if l_q(q, a, d) <= s])


def test_the_singleton_shortcut_agrees_with_l_q():
    # s <= q + 1 (Reed-Solomon) and d <= 2 take no walk; l_q confirms
    # them wherever it stays in budget
    checked = 0
    for q in (2, 3, 4, 5):
        for s in range(1, q + 4):
            for d in range(1, s + 2):
                if s > q + 1 and d > 2:
                    continue
                try:
                    want = _r_q_by_l_q(q, s, d)
                except BudgetExceededError:
                    continue
                assert _redundancy(q, s, d) == want == d - 1, (q, s, d)
                checked += 1
    assert checked > 60


@pytest.mark.parametrize("q, ds, sizes", [
    (2, 1, range(3, 13)), (2, 2, range(3, 10)), (3, 1, range(3, 5)),
    (4, 1, range(3, 7))])
def test_kwise_on_a_clique_is_the_least_N_hosting_n_independent_rows(
        q, ds, sizes):
    # the paper's clique result: the optimum is the least N with
    # ind_q(N, 2 delta_s + 1) >= n, and kwise reads exactly that
    for n in sizes:
        spec = ProblemSpec(graph=clique_graph(n), q=q, delta_s=ds)
        want = least_length(q, n, 2 * ds + 1)
        assert kwise(spec) == want, n
        assert bounds_report(spec, compute_exact=False).entries[
            "kwise"].value == want
        if n <= 8:
            assert optimal_length(spec)[0] == want


def _random_graph(rng, n, dense):
    """n receivers; with dense, receiver i demands packet i and caches
    n - 3 or n - 2 others, where the start moves most often."""
    if dense:
        return SideInfoGraph.make(n, range(1, n + 1), [
            rng.sample([j for j in range(1, n + 1) if j != i],
                       n - rng.randint(2, 3)) for i in range(1, n + 1)])
    f = [rng.randrange(1, n + 1) for _ in range(n)]
    X = [{j for j in range(1, n + 1) if j != fi and rng.random() < .6}
         for fi in f]
    return SideInfoGraph.make(n, f, X)


def _search_specs():
    yield from (ProblemSpec(graph=g, q=2, delta_s=ds)
                for g in family_graphs() for ds in (0, 1))
    yield from (ProblemSpec(graph=clique_graph(n), q=q, delta_s=ds)
                for q in (2, 3, 4, 5) for n in range(3, 9) for ds in (0, 1, 2)
                if q ** n <= 1 << 10)
    rng = random.Random(2902)
    for q, sizes, count in ((2, (5, 6, 7), 12), (3, (4, 5), 6),
                            (4, (4, 5), 4), (5, (4,), 4)):
        for k in range(count):
            yield ProblemSpec(graph=_random_graph(rng, sizes[k % len(sizes)],
                                                  False),
                              q=q, delta_s=rng.randint(0, 2))
    for q, sizes, count in ((2, (6, 7), 20), (3, (5, 6), 6), (4, (5,), 4),
                            (5, (5,), 3)):
        for k in range(count):
            yield ProblemSpec(graph=_random_graph(rng, sizes[k % len(sizes)],
                                                  True), q=q, delta_s=1)


def test_a_search_from_kwise_returns_the_reference_answer():
    raised = 0
    for spec in _search_specs():
        N, G = optimal_length(spec)
        assert (N, G) == _reference_shortest_length(spec), spec
        assert gamma_of(spec) <= kwise(spec) <= N
        raised += kwise(spec) > gamma_of(spec)
    assert raised >= 12    # the start moves on many of them


def test_the_search_walks_only_from_kwise():
    walked = []
    real = encoder._first_avoiding_basis

    def walk(vectors, table, N, rows_of):
        walked.append(N)
        return real(vectors, table, N, rows_of)

    # F_2 clique-8 at delta_s = 1: gamma 3, kwise 4 = N
    spec = ProblemSpec(graph=clique_graph(8), q=2, delta_s=1)
    with mock.patch("icsie.encoder._first_avoiding_basis", side_effect=walk):
        assert core_length(spec) == 4
    assert walked == [4]


def test_the_bounds_report_carries_kwise():
    spec = ProblemSpec(graph=clique_graph(8), q=2, delta_s=1)
    report = bounds_report(spec, compute_exact=False)
    entry = report.entries["kwise"]
    assert (entry.kind, entry.value, entry.target) == ("lower", 4, "icsie")
    assert report.entries["gamma"].value == 3
    assert report.lower("icsie") == 4


def test_kwise_is_computed_once_per_table_and_field():
    spec = ProblemSpec(graph=clique_graph(7), q=2, delta_s=1)
    with mock.patch("icsie.encoder._redundancy",
                    wraps=encoder._redundancy) as r_q:
        optimal_length(spec)
        bounds_report(spec)
        core_length(ProblemSpec(graph=clique_graph(7), q=2, delta_s=1,
                                delta_c=1))
    assert r_q.call_count == 3          # one per size 5 to 7, once
    assert interference_supports(spec).kwise == {2: 4}


def test_kwise_errs_low_where_l_q_refuses(monkeypatch, cold_code_caches):
    exact = {(q, s, d): _redundancy(q, s, d)
             for q in (2, 3) for s in range(5, 11) for d in range(3, 7)}
    _redundancy.cache_clear()
    l_q.cache_clear()
    monkeypatch.setattr(encoder, "DEFAULT_MULTISET_BITS", 4)
    low = {case: _redundancy(*case) for case in exact}
    assert all(low[case] <= r for case, r in exact.items())
    # l_2(5, 4) = 9 is refused, and the Hamming bound allows [9, 5, 4]
    assert low[2, 9, 4] == 4 < exact[2, 9, 4] == 5
    # so F_2 clique-9 at delta_s = 1 starts one short, and its search
    # still ends at the optimum
    spec = ProblemSpec(graph=clique_graph(9), q=2, delta_s=1)
    assert gamma_of(spec) == 3 < kwise(spec) == 4 < optimal_length(spec)[0] == 5


def _outcome(call, spec):
    try:
        return call(spec)
    except BudgetExceededError as exc:
        return "refused", str(exc)


def test_a_warm_and_a_cold_run_refuse_identically(monkeypatch,
                                                  cold_code_caches):
    calls = (optimal_length, core_length, bounds_report, edge_deletion_bound)
    spec = ProblemSpec(graph=clique_graph(8), q=2, delta_s=1)
    # 255 hyperplanes fit, but the walk from kwise = 4 meets dimension 4
    monkeypatch.setattr(encoder, "DEFAULT_SUBSPACE_BUDGET", 1000)
    cold = []
    for call in calls:
        encoder.walk_memo.cache_clear()
        codeset._instance_table.cache_clear()
        l_q.cache_clear()
        _redundancy.cache_clear()
        cold.append(_outcome(call, spec))
    warm = [_outcome(call, spec) for call in calls]
    assert warm == cold
    assert cold[0] == ("refused", "at least 2^16 subspaces of dimension 4 "
                                  "exceed the search budget")
