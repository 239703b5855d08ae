"""Every table the library keeps between calls (``icsie.kept``): a warm
run answers and refuses exactly as a cold one, each table stays within
its bound, and ``kept.clear`` empties them all."""

import itertools
import random
import re

import pytest

from icsie import codeset, decoder, encoder, gfield, kept
from icsie.codeset import (interference_masks, is_valid_generator,
                           receiver_masks, support_table)
from icsie.decoder import ReceiverDecoder, decode_receiver
from icsie.encoder import (_kwise_length, _redundancy, core_length, l_q,
                           optimal_length)
from icsie.errors import IcsieError
from icsie.gfield import field_for
from icsie.linalg import Matrix
from icsie.sigraph import ProblemSpec, SideInfoGraph, clique_graph
from icsie.simulation import SimulationConfig, run_simulation
from icsie.structure import (bounds_report, edge_deletion_bound, find_cycles,
                             gamma)

from conftest import family_graphs

F2 = field_for(2)
CLIQUE4 = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)
# receiver 4's demand row is zero, so its decoder's build fails
BROKEN = Matrix(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]])
SPARSE = SideInfoGraph.make(4, [1, 2, 3, 4], [{2, 3}, {3, 4}, {4, 1}, {1, 2}])


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except (IcsieError, ValueError) as exc:
        return type(exc), str(exc)


def _decodes(monkeypatch):
    # runs of decodes on one triple, receivers alternating: two
    # generators, two graphs (one a new but equal object), three
    # delta_s; the budget refuses delta_s = 3 on the clique
    monkeypatch.setattr(decoder, "COSET_CANDIDATE_BUDGET", 7)
    _, G = optimal_length(CLIQUE4)
    rng = random.Random(4)
    steps = []
    for _ in range(8):
        M = rng.choice((G, BROKEN))
        graph = rng.choice((CLIQUE4.graph, clique_graph(4), SPARSE))
        delta_s = rng.choice((1, 2, 3))
        for _ in range(30):
            i = rng.randint(1, 4)
            x = tuple(rng.randrange(2) for _ in range(4))
            x_hat = [x[j - 1] for j in sorted(graph.X[i - 1])]
            for pos in rng.sample(range(len(x_hat)), rng.randint(0, 2)):
                x_hat[pos] ^= 1
            steps.append((decode_receiver, M, graph, i, M.vec_mul(x),
                          tuple(x_hat), delta_s))
    return steps


def _sums_and_memo(monkeypatch):
    # one decoder kept across the steps, or built afresh for each:
    # repeated tuples, lists, bad entries and uncorrectable snapshots
    f = field_for(3)
    graph = clique_graph(3)
    G = Matrix(f, [[1, 0], [0, 1], [1, 1]])
    warm = ReceiverDecoder(G, graph, 1, 1)
    rng = random.Random(3)

    def decode(y, x_hat):
        dec = ReceiverDecoder(G, graph, 1, 1) if cold else warm
        return dec.decode(y, x_hat)

    steps = []
    for _ in range(150):
        x = [rng.randrange(3) for _ in range(3)]
        y, x_hat = G.vec_mul(x), [x[1], x[2]]
        for pos in rng.sample(range(2), rng.randint(0, 2)):
            x_hat[pos] = rng.randrange(3)
        if rng.random() < 0.1:
            x_hat[0] = 3
        steps.append((decode, y if rng.random() < 0.8 else list(y),
                       tuple(x_hat) if rng.random() < 0.8 else x_hat))
    cold = False
    warm_outcomes = [_outcome(*step) for step in steps]
    cold = True
    return warm_outcomes, [_outcome(*step) for step in steps]


def _walks(monkeypatch):
    # the shrunk budget refuses some lengths the walks would reach
    monkeypatch.setattr(encoder, "DEFAULT_SUBSPACE_BUDGET", 20)
    specs = [ProblemSpec(graph=g, q=q, delta_s=ds, delta_c=dc)
             for g in family_graphs()[::40] for q in (2, 3)
             for ds in (0, 1) for dc in (0, 1)]
    return [(call, spec) for spec in specs
            for call in (optimal_length, core_length, bounds_report,
                         edge_deletion_bound)]


def _instance_tables(monkeypatch):
    # F_3^4 passes the shrunk enumeration budget, F_2^4 does not
    monkeypatch.setattr(codeset, "DEFAULT_ENUM_BITS", 6)
    specs = [ProblemSpec(graph=g, q=q, delta_s=ds)
             for g in (clique_graph(4), SPARSE) for q in (2, 3)
             for ds in (0, 1)]
    return [(call, spec) for spec in specs * 2
            for call in (interference_masks, gamma, find_cycles,
                         lambda s: is_valid_generator(
                             s, Matrix.identity(s.field, s.graph.n)))]


def _derived(n, delta_s):
    graph = clique_graph(n) if n % 2 else SPARSE if n == 4 else \
        SideInfoGraph.make(n, range(1, n + 1), [{n - i + 1} for i in
                                                range(1, n + 1)])
    table = support_table(n, set(receiver_masks(graph)), 2 * delta_s)
    return (table.gamma_mask, table.kwise_profile,
            table.contains_compressible, _kwise_length(table, 2))


def _mask_sets(monkeypatch):
    return [(_derived, n, ds) for n in (3, 4, 5, 6, 4, 3) for ds in (0, 1)]


def _l_q(monkeypatch):
    # l_2(4, 5) = 11 needs more than 2^10 multisets at its length
    monkeypatch.setattr(encoder, "DEFAULT_MULTISET_BITS", 10)
    args = [(2, 3, 3), (2, 4, 5), (3, 2, 3), (2, 4, 3), (2, 1, 1),
            (5, 2, 3)]
    return [(l_q, *a) for a in args * 2]


def _r_q(monkeypatch):
    # where l_q refuses, r_q falls back on the Hamming bound
    monkeypatch.setattr(encoder, "DEFAULT_MULTISET_BITS", 8)
    args = [(2, s, d) for s in (5, 7, 9) for d in (3, 4)] + [(3, 6, 4)]
    return [(_redundancy, *a) for a in args * 2]


def _fields(monkeypatch):
    def arithmetic(q):
        f = field_for(q)
        return [f.mul(a, b) for a in range(min(q, 9)) for b in range(1, 5)
                if b < q] + [f.inv(a) for a in range(1, min(q, 9))]
    return [(arithmetic, q) for q in (2, 4, 6, 257, 9, 2, 1, 4)]


# every table kept.py lists, with the steps that fill and read it
WORKLOADS = {
    "decoder.receiver_decoder": _decodes,
    "decoder sums and z-memo": _sums_and_memo,
    "encoder.walk_memo": _walks,
    "codeset._instance_table": _instance_tables,
    "codeset._mask_bitsets": _mask_sets,
    "encoder.l_q": _l_q,
    "encoder._redundancy": _r_q,
    "gfield.field_for": _fields,
}


def test_every_kept_table_is_listed_and_tested():
    listed = re.findall(r"``(\w+\.\w+)``(?=:| and ``\w+\.\w+``:)",
                        kept.__doc__)
    assert set(listed) == set(WORKLOADS) - {"decoder sums and z-memo"}


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_warm_table_answers_and_refuses_as_a_cold_one(monkeypatch, name):
    steps = WORKLOADS[name](monkeypatch)
    if name == "decoder sums and z-memo":
        warm, cold = steps
    else:
        cold = []
        for step in steps:
            kept.clear()
            cold.append(_outcome(*step))
        kept.clear()
        warm = [_outcome(*step) for step in steps]
        reversed_warm = [_outcome(*step) for step in reversed(steps)]
        assert reversed_warm[::-1] == cold
    assert warm == cold
    assert any(kind == "ok" for kind, _ in cold)
    if name not in ("decoder sums and z-memo", "codeset._mask_bitsets",
                    "encoder._redundancy"):    # these never refuse
        assert any(kind != "ok" for kind, _ in cold)


def _checked_store(sizes):
    """kept.store, checking each table against its bound and recording
    the largest it reached under each bound in sizes."""
    real = kept.store

    def store(table, key, value, size):
        real(table, key, value, size)
        assert len(table) <= size
        sizes[size] = max(sizes.get(size, 0), len(table))
        return value
    return store


@pytest.mark.parametrize("name, limit", [
    ("DECODER_CACHE_SIZE", 3), ("_TABLE_SIZE", 5)])
def test_the_decoder_tables_never_pass_their_bound(monkeypatch, name, limit):
    sizes = {}
    monkeypatch.setattr(decoder, "store", _checked_store(sizes))
    monkeypatch.setattr(decoder, name, limit)
    for step in _decodes(monkeypatch):
        _outcome(*step)
    assert sizes[limit] == limit


def test_the_walk_memo_never_passes_its_bound(monkeypatch):
    monkeypatch.setattr(encoder, "WALK_MEMO_BYTES", 5000)
    results = encoder.walk_memo.results
    most = 0

    def checked(*args):
        nonlocal most
        walked = results(*args)
        most = max(most, encoder.walk_memo._charged)
        assert encoder.walk_memo._charged <= encoder.WALK_MEMO_BYTES
        return walked

    monkeypatch.setattr(encoder.walk_memo, "results", checked)
    for call, spec in _walks(monkeypatch):
        _outcome(call, spec)
    assert most > 3000


def test_the_last_instance_tables_are_kept_alone(monkeypatch):
    for step in _instance_tables(monkeypatch) + _mask_sets(monkeypatch):
        _outcome(*step)
        assert codeset._instance_table.cache_info().currsize <= 1
        assert codeset._mask_bitsets.cache_info().currsize <= 1


def test_the_unbounded_tables_keep_one_entry_per_answer(monkeypatch):
    # below their bounds, l_q, r_q and the fields keep one entry per
    # answer and no refusal
    for steps, cached in ((_l_q, l_q.cache_info),
                          (_r_q, _redundancy.cache_info),
                          (_fields, gfield.field_for.cache_info)):
        kept.clear()
        steps = steps(monkeypatch)
        answered = {step[1:] for step in steps if _outcome(*step)[0] == "ok"}
        assert cached().currsize == len(answered)


def test_clear_empties_every_table():
    for name, steps in WORKLOADS.items():
        if name != "decoder sums and z-memo":
            with pytest.MonkeyPatch.context() as mp:
                for step in steps(mp):
                    _outcome(*step)
    decode_receiver(BROKEN, CLIQUE4.graph, 1, (0, 0, 0), (0, 0, 0), 1)
    assert decoder._decoders and encoder.walk_memo._entries
    assert l_q.cache_info().currsize
    kept.clear()
    assert decoder._decoders == {}
    assert encoder.walk_memo._entries == {} and encoder.walk_memo._charged == 0
    for cached in (codeset._instance_table, codeset._mask_bitsets, l_q,
                   _redundancy, gfield.field_for):
        assert cached.cache_info().currsize == 0


def test_l_q_and_r_q_keep_at_most_their_bound():
    # 2,000 distinct l_q calls keep the last 1,024; an evicted answer is
    # computed again, and equals the first
    first, r_first = l_q(2, 4, 3), _redundancy(2, 7, 3)
    assert (first, r_first) == (7, 3)
    for cached in (l_q, _redundancy):
        assert cached.cache_info().maxsize == encoder._ANSWER_CACHE_SIZE
    for a in range(1, 2001):
        assert l_q(2, a, 1) == a
        assert l_q.cache_info().currsize <= encoder._ANSWER_CACHE_SIZE
    assert l_q.cache_info().currsize == encoder._ANSWER_CACHE_SIZE
    misses = l_q.cache_info().misses
    assert l_q(2, 4, 3) == first
    assert l_q.cache_info().misses == misses + 1
    for s in range(1, 2001):
        _redundancy(2, s, 1)
    assert _redundancy.cache_info().currsize == encoder._ANSWER_CACHE_SIZE
    assert _redundancy(2, 7, 3) == r_first


def _f257_report(trials):
    # random-mode F_257 clique-4 at delta_s = 1 under a Vandermonde G:
    # hardly any z repeats, so the z-memo would grow with the trials
    f = field_for(257)
    spec = ProblemSpec(graph=clique_graph(4), q=257, delta_s=1)
    G = Matrix(f, [[1, a, a * a] for a in range(1, 5)])
    return run_simulation(spec, G, SimulationConfig(trials=trials, seed=71))


def test_the_z_memo_stays_bounded_on_a_large_field(monkeypatch):
    monkeypatch.setattr(decoder, "_TABLE_SIZE", 1 << 30)
    lifted = _f257_report(3000)
    assert lifted.ok
    assert max(len(dec._memo) for dec in decoder._decoders.values()) > 64
    kept.clear()
    sizes = {}
    monkeypatch.setattr(decoder, "store", _checked_store(sizes))
    monkeypatch.setattr(decoder, "_TABLE_SIZE", 64)
    assert _f257_report(3000) == lifted
    assert sizes[64] == 64
    for dec in decoder._decoders.values():
        assert all(len(t) <= 64 for t in (dec._memo, dec._x_sums,
                                          dec._y_sums))


def test_store_empties_a_full_table_first():
    table = {}
    for k, size in zip(range(7), itertools.repeat(3)):
        assert kept.store(table, k, -k, size) == -k
    assert table == {6: -6}
    kept.store(table, 6, 0, 1)      # a full table is emptied even for its key
    assert table == {6: 0}
