import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsie import codeset, linalg
from icsie.codeset import (_check_generator, interference_masks,
                           interference_supports, is_valid_generator,
                           oracle_decodable)
from icsie.errors import (BudgetExceededError, DimensionError,
                          FieldMismatchError, IcsieError)
from icsie.gfield import field_for
from icsie.encoder import optimal_length
from icsie.linalg import Matrix, mask_of
from icsie.sigraph import ProblemSpec, SideInfoGraph, clique_graph
from icsie.simulation import SimulationConfig, run_simulation

from conftest import (_reference_contains_compressible, all_unipartite_graphs,
                      enum_interference, first_witness, hamming_weight,
                      in_interference, random_generator, vec_add, vec_scale)

F2 = field_for(2)

CLIQUE4 = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)
PAPER_G4 = Matrix(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])


def test_clique4_interference_is_all_but_0000_and_1111():
    zs = [z for z, _ in enum_interference(CLIQUE4)]
    assert len(zs) == 14
    assert (0, 0, 0, 0) not in zs
    assert (1, 1, 1, 1) not in zs
    assert set(zs) == {z for z in itertools.product((0, 1), repeat=4)
                       if 1 <= hamming_weight(z) <= 3}


def test_enum_is_lexicographic_and_deduplicated():
    zs = [z for z, _ in enum_interference(CLIQUE4)]
    assert zs == sorted(zs)
    assert len(zs) == len(set(zs))


def test_witness_is_smallest_receiver():
    for z, i in enum_interference(CLIQUE4):
        assert in_interference(CLIQUE4, z, i)
        assert all(not in_interference(CLIQUE4, z, j) for j in range(1, i))
    assert first_witness(CLIQUE4, (0, 0, 0, 0)) is None


def test_delta0_single_receiver():
    g = SideInfoGraph.make(2, [1], [{2}])
    spec = ProblemSpec(graph=g, q=2, delta_s=0)
    assert [z for z, _ in enum_interference(spec)] == [(1, 0)]


def test_interference_masks_match_tuples():
    for spec in (CLIQUE4, ProblemSpec(graph=clique_graph(3), q=2, delta_s=0)):
        masks = interference_masks(spec)
        assert masks == sorted(masks)
        assert masks == [mask_of(z) for z, _ in enum_interference(spec)]


def test_budget_enforced():
    g = SideInfoGraph.make(30, [1], [set(range(2, 31))])
    spec = ProblemSpec(graph=g, q=2, delta_s=0)
    with pytest.raises(BudgetExceededError):
        list(enum_interference(spec))
    with pytest.raises(BudgetExceededError):
        oracle_decodable(ProblemSpec(graph=clique_graph(13), q=2, delta_s=0),
                         Matrix.identity(F2, 13))


def support_mask(K, n: int) -> int:
    return sum(1 << (n - j) for j in K)


def test_support_family_clique4():
    table = interference_supports(CLIQUE4)
    assert table[support_mask({1, 2, 3}, 4)]
    assert not table[support_mask({1, 2, 3, 4}, 4)]
    assert table[support_mask({CLIQUE4.graph.f[0]}, 4)]
    assert not table[0]


@pytest.mark.parametrize("q", [2, 3])
def test_support_family_equals_interference_supports(q):
    # the table reads 1 at K exactly when K is the support of some z in I
    graphs = list(all_unipartite_graphs(3)) + [clique_graph(4)]
    for g in graphs:
        for ds in (0, 1):
            spec = ProblemSpec(graph=g, q=q, delta_s=ds)
            supports = {frozenset(j + 1 for j, v in enumerate(z) if v)
                        for z, _ in enum_interference(spec)}
            table = interference_supports(spec)
            for r in range(g.n + 1):
                for K in itertools.combinations(range(1, g.n + 1), r):
                    assert table[support_mask(K, g.n)] == (frozenset(K) in supports)


def _reference_gamma_mask(holds) -> int:
    """The largest mask holding no compressible set, by size then mask."""
    return max((s for s in range(len(holds)) if not holds[s]),
               key=lambda s: (s.bit_count(), s))


def test_compressible_sets_by_closure_match_the_subset_loop():
    # random tables, supports or not at any density, entry 0 either way
    rng = random.Random(3001)
    for _ in range(400):
        n = rng.randrange(0, 11)
        p = rng.random()
        table = codeset.SupportTable(rng.random() < p for _ in range(1 << n))
        want = _reference_contains_compressible(table)
        assert table.contains_compressible == want
        assert type(table.contains_compressible) is bytes
        assert table.gamma_mask == _reference_gamma_mask(want)


def test_compressible_sets_by_closure_on_instance_tables():
    for g in list(all_unipartite_graphs(3)) + [clique_graph(7)]:
        for delta_s in (0, 1, 2):
            codeset._instance_table.cache_clear()
            table = interference_supports(
                ProblemSpec(graph=g, q=2, delta_s=delta_s))
            want = _reference_contains_compressible(table)
            # gamma first: it must not depend on the bytes being built
            assert table.gamma_mask == _reference_gamma_mask(want)
            assert table.contains_compressible == want


def test_monotone_in_delta_s():
    small = {z for z, _ in enum_interference(
        ProblemSpec(graph=clique_graph(4), q=2, delta_s=0))}
    large = {z for z, _ in enum_interference(CLIQUE4)}
    assert small <= large


def test_paper_clique4_generator_valid():
    ok, z = is_valid_generator(CLIQUE4, PAPER_G4)
    assert ok and z is None


def test_identity_always_valid():
    for n in (1, 2, 3, 4):
        spec = ProblemSpec(graph=clique_graph(n), q=2, delta_s=1)
        assert is_valid_generator(spec, Matrix.identity(F2, n))[0]


def test_repeated_row_invalid_with_witness():
    G = Matrix(F2, [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    ok, z = is_valid_generator(CLIQUE4, G)
    assert not ok
    assert z == (1, 1, 0, 0)      # first failing z in lexicographic order


def test_validity_counts_codeword_weight_for_channel_errors():
    spec = ProblemSpec(graph=clique_graph(2), q=2, delta_s=0, delta_c=1)
    # identity is valid without channel errors but its rows have weight 1 < 3
    assert not is_valid_generator(spec, Matrix.identity(F2, 2))[0]
    rep = Matrix(F2, [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]])
    assert is_valid_generator(spec, rep)[0]


def test_generator_must_match_the_instance():
    # an F_3 generator under an F_2 instance would be read as its support
    G3 = Matrix(field_for(3), [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 0]])
    for check in (is_valid_generator, oracle_decodable):
        with pytest.raises(FieldMismatchError):
            check(CLIQUE4, G3)
        with pytest.raises(ValueError):
            check(CLIQUE4, Matrix.identity(F2, 3))


def test_oracle_known_cases():
    assert oracle_decodable(CLIQUE4, PAPER_G4)
    assert oracle_decodable(CLIQUE4, Matrix.identity(F2, 4))
    assert not oracle_decodable(CLIQUE4, Matrix.zero(F2, 4, 3))


def test_oracle_generic_field_path():
    f3 = field_for(3)
    g = clique_graph(3)
    spec = ProblemSpec(graph=g, q=3, delta_s=1)
    assert oracle_decodable(spec, Matrix.identity(f3, 3))
    assert not oracle_decodable(spec, Matrix.zero(f3, 3, 2))


def test_oracle_huge_delta_c_spheres_stop_at_the_length():
    # a channel error has at most N nonzero entries, so delta_c past N
    # changes nothing; the sphere walk must not run on to delta_c
    G = Matrix.identity(F2, 4)
    for delta_c in (4, 10 ** 9):
        spec = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1,
                           delta_c=delta_c)
        assert not oracle_decodable(spec, G)


def test_theorem1_equivalence_sampled():
    # the central equivalence, on a quick sampled slice (the full sweep is
    # the acceptance module's criterion 3)
    rng = random.Random(99)
    graphs = list(all_unipartite_graphs(3))
    for _ in range(120):
        g = graphs[rng.randrange(len(graphs))]
        spec = ProblemSpec(graph=g, q=2, delta_s=rng.choice((0, 1)),
                           delta_c=rng.choice((0, 1)))
        N = rng.randrange(1, g.n + 2 * spec.delta_c + 1)
        G = random_generator(rng, 2, g.n, N)
        assert is_valid_generator(spec, G)[0] == oracle_decodable(spec, G)


# -- properties over q in {2, 3, 4, 5} and multi-receiver graphs ---------------

@st.composite
def instances_with_generators(draw):
    """A random instance (any receivers, possibly several per packet) and
    a random generator over its field."""
    q = draw(st.sampled_from((2, 3, 4, 5)))
    n = draw(st.integers(2, 4 if q == 2 else 3))
    m = draw(st.integers(1, n + 2))
    f = [draw(st.integers(1, n)) for _ in range(m)]
    X = [draw(st.sets(st.sampled_from([j for j in range(1, n + 1) if j != fi])))
         for fi in f]
    spec = ProblemSpec(graph=SideInfoGraph.make(n, f, X), q=q,
                       delta_s=draw(st.integers(0, 1)),
                       delta_c=draw(st.integers(0, 1)))
    N = draw(st.integers(1, n + 2 * spec.delta_c + 1))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=N, max_size=N),
                         min_size=n, max_size=n))
    return spec, Matrix(field_for(q), rows, ncols=N)


def _lex_first_failing(spec, G):
    """The reference witness: the first z of the tuple enumeration with
    wt(zG) < 2*delta_c + 1."""
    need = 2 * spec.delta_c + 1
    for z, _ in enum_interference(spec):
        if hamming_weight(G.vec_mul(z)) < need:
            return z
    return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instances_with_generators())
def test_validity_agrees_with_oracle_and_reference_witness(case):
    spec, G = case
    ok, witness = is_valid_generator(spec, G)
    assert ok == oracle_decodable(spec, G)
    assert witness == _lex_first_failing(spec, G)
    assert ok == (witness is None)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_interference_masks_are_projective_representatives(q):
    for g in (clique_graph(3), SideInfoGraph.make(3, [1, 2, 1], [{2}, {3}, set()])):
        for ds in (0, 1):
            spec = ProblemSpec(graph=g, q=q, delta_s=ds)
            reps = [z for z, _ in enum_interference(spec)
                    if next(a for a in z if a) == 1]
            assert interference_masks(spec) == reps


# -- answers pinned from the per-field implementations these replace -----------

def test_budget_messages_pinned():
    big2 = ProblemSpec(graph=clique_graph(25), q=2, delta_s=0)
    with pytest.raises(BudgetExceededError,
                       match=r"^enumerating F_2\^25 exceeds the 24-bit budget$"):
        interference_masks(big2)
    with pytest.raises(BudgetExceededError,
                       match=r"^enumerating F_3\^16 exceeds the 24-bit budget$"):
        is_valid_generator(ProblemSpec(graph=clique_graph(16), q=3, delta_s=0),
                           Matrix.identity(field_for(3), 16))
    with pytest.raises(BudgetExceededError, match=(
            r"^pair enumeration over F_3\^8 x F_3\^8 exceeds the 24-bit budget$")):
        oracle_decodable(ProblemSpec(graph=clique_graph(8), q=3, delta_s=0),
                         Matrix.identity(field_for(3), 8))


# -- the sphere-indexed oracle against the all-pairs reference -----------------

def _all_pairs_oracle(spec, G, budget_bits=24):
    """The oracle as one loop over every message pair, in plain tuple
    arithmetic: spheres intersected pair by pair, then the support of
    the pair's difference against each distinct receiver."""
    g = spec.graph
    n, q = g.n, spec.q
    if 2 * n * math.log2(q) > budget_bits:
        raise BudgetExceededError(
            f"pair enumeration over F_{q}^{n} x F_{q}^{n} exceeds "
            f"the {budget_bits}-bit budget")
    _check_generator(spec, G)
    field = spec.field
    cap = spec.side_weight_cap()
    receivers = {(1 << (n - f), sum(1 << (n - j) for j in X))
                 for f, X in zip(g.f, g.X)}
    messages = list(itertools.product(range(q), repeat=n))

    def sphere(c):
        # c and every word that differs from it in 1 .. delta_c places
        words = {c}
        for t in range(1, spec.delta_c + 1):
            for at in itertools.combinations(range(len(c)), t):
                for shifts in itertools.product(range(1, q), repeat=t):
                    w = list(c)
                    for k, s in zip(at, shifts):
                        w[k] = (c[k] + s) % q
                    words.add(tuple(w))
        return words

    spheres = [sphere(G.vec_mul(x)) for x in messages]
    minus_one = field.neg(1)
    for a, x in enumerate(messages):
        minus_x = vec_scale(field, minus_one, x)
        for b in range(a + 1, len(messages)):
            if spheres[a].isdisjoint(spheres[b]):
                continue
            d = mask_of(vec_add(field, messages[b], minus_x))
            if any(d & fm and (d & xm).bit_count() <= cap for fm, xm in receivers):
                return False
    return True


def _outcome(check, spec, G):
    try:
        return check(spec, G)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_oracle_matches_reference(spec, G):
    assert _outcome(oracle_decodable, spec, G) == _outcome(_all_pairs_oracle, spec, G)


@st.composite
def oracle_cases(draw):
    """A random instance with delta_c up to 2, and a generator that is
    random or degenerate: all zero, one column repeated, or N = 1."""
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9)))
    n = draw(st.integers(1, 6 if q == 2 else 4 if q <= 5 else 2))
    m = draw(st.integers(1, n + 2))
    f = [draw(st.integers(1, n)) for _ in range(m)]
    X = [draw(st.sets(st.sampled_from([j for j in range(1, n + 1) if j != fi])))
         if n > 1 else set() for fi in f]
    spec = ProblemSpec(graph=SideInfoGraph.make(n, f, X), q=q,
                       delta_s=draw(st.integers(0, 1)),
                       delta_c=draw(st.integers(0, 2)))
    kind = draw(st.sampled_from(("random", "zero", "repeated", "single")))
    N = 1 if kind == "single" else draw(st.integers(1, n + 2 * spec.delta_c + 1))
    entry = st.integers(0, q - 1)
    if kind == "zero":
        rows = [[0] * N for _ in range(n)]
    elif kind == "repeated":
        rows = [[v] * N for v in draw(st.lists(entry, min_size=n, max_size=n))]
    else:
        rows = draw(st.lists(st.lists(entry, min_size=N, max_size=N),
                             min_size=n, max_size=n))
    return spec, Matrix(field_for(q), rows, ncols=N)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(oracle_cases())
def test_oracle_matches_all_pairs_reference(case):
    _assert_oracle_matches_reference(*case)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_oracle_matches_all_pairs_reference_on_optimal_witnesses(q):
    # q = 7, 8, 9 pack one to two digit lanes per coordinate and three or
    # four bit-planes per message; n = 3 at delta_c = 1 is past the search
    # budget there
    rng = random.Random(500 + q)
    for _ in range(8):
        n = rng.randint(2, 4 if q == 2 else 3 if q <= 5 else 2)
        g = SideInfoGraph.make(n, range(1, n + 1), [
            {j for j in range(1, n + 1) if j != i and rng.random() < .6}
            for i in range(1, n + 1)])
        for ds, dc in ((0, 0), (1, 0), (0, 1), (1, 1)):
            spec = ProblemSpec(graph=g, q=q, delta_s=ds, delta_c=dc)
            _, G = optimal_length(spec)
            assert oracle_decodable(spec, G)
            _assert_oracle_matches_reference(spec, G)
            # the witness with one column dropped, or with a row zeroed
            if G.ncols > 1:
                _assert_oracle_matches_reference(
                    spec, Matrix(G.field, [r[1:] for r in G.rows], ncols=G.ncols - 1))
            rows = G.to_lists()
            rows[rng.randrange(n)] = [0] * G.ncols
            _assert_oracle_matches_reference(spec, Matrix(G.field, rows, ncols=G.ncols))


def test_oracle_matches_all_pairs_reference_on_errors():
    F3 = field_for(3)
    for spec, G in (
            (ProblemSpec(graph=clique_graph(13), q=2, delta_s=0), Matrix.identity(F2, 13)),
            (ProblemSpec(graph=clique_graph(8), q=3, delta_s=0), Matrix.identity(F3, 8)),
            (CLIQUE4, Matrix.identity(F3, 4)),
            (CLIQUE4, Matrix.identity(F2, 3))):
        outcome = _outcome(oracle_decodable, spec, G)
        assert isinstance(outcome, tuple)
        assert outcome == _outcome(_all_pairs_oracle, spec, G)


def test_oracle_edge_cases_keep_their_answers():
    # no columns: every message has the empty codeword, and the receivers
    # must still tell messages apart
    for q in (2, 3, 9):
        for dc in (0, 1):
            spec = ProblemSpec(graph=clique_graph(3), q=q, delta_s=0, delta_c=dc)
            G = Matrix(field_for(q), [[] for _ in range(3)], ncols=0)
            assert oracle_decodable(spec, G) is False
            _assert_oracle_matches_reference(spec, G)
    # more receivers than packets, one of them with an empty cache: it
    # needs x_1 from the broadcast alone, which the sum code does not give
    g = SideInfoGraph.make(3, [1, 2, 3, 1, 2], [{2, 3}, {1, 3}, {1, 2}, set(), {3}])
    for q in (2, 5, 7):
        field = field_for(q)
        spec = ProblemSpec(graph=g, q=q, delta_s=0)
        assert oracle_decodable(spec, Matrix.identity(field, 3)) is True
        assert oracle_decodable(spec, Matrix(field, [[1], [1], [1]])) is False
        for G in (Matrix.identity(field, 3), Matrix(field, [[1], [1], [1]])):
            _assert_oracle_matches_reference(spec, G)
    # G = 0 puts every message in one word's list, the pair budget's worst
    # case; only packet 1 is demanded, so most of its pairs are told apart
    for q, n in ((2, 4), (3, 3), (8, 2), (9, 2)):
        g = SideInfoGraph.make(n, [1], [set(range(2, n + 1))])
        for dc in (0, 1):
            spec = ProblemSpec(graph=g, q=q, delta_s=1, delta_c=dc)
            G = Matrix.zero(field_for(q), n, 2)
            assert oracle_decodable(spec, G) is False
            _assert_oracle_matches_reference(spec, G)
    # at the budget's edge, q^n = 2^12 messages in one list
    g = SideInfoGraph.make(12, [1], [set()])
    assert oracle_decodable(ProblemSpec(graph=g, q=2, delta_s=0),
                            Matrix.zero(F2, 12, 1)) is False


def test_oracle_is_independent_of_the_validity_code(monkeypatch):
    # the oracle confirms validity answers, so it must not reach them
    # through the validity code: a shared fault would pass both
    graphs = (clique_graph(3),
              SideInfoGraph.make(3, [1, 2, 3, 1], [{2}, {3}, {1, 2}, set()]))
    cases = []
    for q in (2, 3, 4):
        for g in graphs:
            for dc in (0, 1):
                spec = ProblemSpec(graph=g, q=q, delta_s=1, delta_c=dc)
                _, G = optimal_length(spec)
                rows = G.to_lists()
                rows[0] = [0] * G.ncols
                for H in (G, Matrix(G.field, rows, ncols=G.ncols)):
                    cases.append((spec, H, is_valid_generator(spec, H)[0]))
    assert {want for _, _, want in cases} == {True, False}

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached the validity code")

    for name in ("support_table", "interference_supports", "interference_masks"):
        monkeypatch.setattr(codeset, name, refuse)
    for cls in (linalg._F2Vectors, linalg._FqVectors):
        monkeypatch.setattr(cls, "first_failing", refuse)
    for spec, G, want in cases:
        assert oracle_decodable(spec, G) is want


def test_wrong_row_count_is_a_dimension_error():
    # a 3-row G for the 4-packet clique, through every library entry point
    # that checks the generator first
    three_rows = Matrix(F2, PAPER_G4.rows[:3])
    calls = (lambda: is_valid_generator(CLIQUE4, three_rows),
             lambda: oracle_decodable(CLIQUE4, three_rows),
             lambda: run_simulation(CLIQUE4, three_rows,
                                    SimulationConfig(trials="exhaustive")))
    for call in calls:
        with pytest.raises(DimensionError, match="G must have n = 4 rows") as exc:
            call()
        assert isinstance(exc.value, IcsieError)
        assert isinstance(exc.value, ValueError)
