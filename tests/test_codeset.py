import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsie.codeset import (enum_interference, first_witness, in_interference,
                           in_support_family, interference_masks,
                           is_valid_generator, oracle_decodable)
from icsie.errors import BudgetExceededError, FieldMismatchError
from icsie.gfield import field_for
from icsie.linalg import Matrix, hamming_weight, mask_of
from icsie.sigraph import ProblemSpec, SideInfoGraph, clique_graph

from conftest import all_unipartite_graphs, random_generator

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


def test_support_family_clique4():
    assert in_support_family(CLIQUE4, {1, 2, 3})
    assert not in_support_family(CLIQUE4, {1, 2, 3, 4})
    assert in_support_family(CLIQUE4, {CLIQUE4.graph.f[0]})
    with pytest.raises(ValueError):
        in_support_family(CLIQUE4, set())


@pytest.mark.parametrize("q", [2, 3])
def test_support_family_equals_interference_supports(q):
    # K is a support pattern iff it is the exact support of some z in I
    rng = random.Random(q)
    graphs = list(all_unipartite_graphs(3)) + [clique_graph(4)]
    for g in graphs:
        for ds in (0, 1):
            spec = ProblemSpec(graph=g, q=q, delta_s=ds)
            supports = {frozenset(j + 1 for j, v in enumerate(z) if v)
                        for z, _ in enum_interference(spec)}
            for r in range(1, g.n + 1):
                for K in itertools.combinations(range(1, g.n + 1), r):
                    assert in_support_family(spec, K) == (frozenset(K) in supports)


def test_monotone_in_delta_s():
    small = {z for z, _ in enum_interference(
        ProblemSpec(graph=clique_graph(4), q=2, delta_s=0))}
    large = {z for z, _ in enum_interference(CLIQUE4)}
    assert small <= large


def test_erasure_mode_halves_the_cap():
    spec_err = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)
    spec_era = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1,
                           side_error_model="erasure")
    era = {z for z, _ in enum_interference(spec_era)}
    err = {z for z, _ in enum_interference(spec_err)}
    assert era < err
    assert era == {z for z in itertools.product((0, 1), repeat=4)
                   if 1 <= hamming_weight(z) <= 2}


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
                       delta_c=draw(st.integers(0, 1)),
                       side_error_model=draw(st.sampled_from(("error", "erasure"))))
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
