import gc
import itertools
import random
import time
import weakref

import pytest
from conftest import (_reference_decode, _reference_search, random_generator,
                      vec_sub)

from icsie import decoder, kept
from icsie.decoder import (DECODER_CACHE_SIZE, build_context,
                           decode_all, decode_receiver, find_correction,
                           receiver_decoder)
from icsie.encoder import optimal_length
from icsie.errors import (BudgetExceededError, DegenerateError,
                          InconsistentError, NoSolutionError)
from icsie.gfield import field_for
from icsie.linalg import LaneVectors, Matrix
from icsie.sigraph import ProblemSpec, SideInfoGraph, clique_graph
from icsie.simulation import (SimulationConfig, SimulationReport,
                              run_simulation)

F2 = field_for(2)

# the nine-packet instance with one small-cache receiver
GRAPH9 = SideInfoGraph.make(
    9, range(1, 10),
    [frozenset(range(1, 10)) - {i} for i in range(1, 9)]
    + [frozenset({2, 3, 5, 6, 7, 8})])
G9 = Matrix(F2, [
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 1, 0],
    [1, 0, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 0],
    [1, 1, 0, 0, 0, 0],
    [0, 1, 1, 1, 0, 0],
    [0, 0, 1, 1, 1, 0],
    [0, 0, 0, 1, 1, 1],
    [1, 1, 0, 1, 0, 1]])
X9_TRUE = (1, 1, 1, 1, 0, 0, 0, 0, 1)
Y9 = (0, 1, 1, 0, 1, 0)


def test_known_codeword():
    assert G9.vec_mul(X9_TRUE) == Y9


def test_context_receiver9():
    ctx = build_context(G9, GRAPH9, 9)
    assert ctx.demand == 9
    assert ctx.cache == (2, 3, 5, 6, 7, 8)
    assert ctx.interference == (1, 4)
    # H annihilates rows 1, 4, 9; H_e annihilates rows 1, 4 only
    for h in ctx.H.rows:
        for r in (1, 4, 9):
            assert sum(a * b for a, b in zip(h, G9.row(r))) % 2 == 0
    assert ctx.H.nrows == 3 and ctx.H_e.nrows == 4
    # the published H for this receiver spans the same space
    published = Matrix(F2, [[1, 1, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0],
                            [0, 0, 0, 0, 1, 0]])
    combined = Matrix(F2, list(ctx.H.rows) + list(published.rows), ncols=6)
    assert combined.rank() == 3


def test_receiver9_trace():
    xhat = (1, 1, 0, 0, 0, 1)           # single cache error at packet 8
    value, trace = decode_receiver(G9, GRAPH9, 9, Y9, xhat, 1)
    assert value == 1
    assert trace.correction in ((0, 0, 0, 1, 1, 1), (0, 0, 1, 1, 1, 0))
    assert trace.suspected in ((8,), (7,))
    # the syndrome is consistent: H applied to the corrected word
    ctx = build_context(G9, GRAPH9, 9)
    corrected = tuple(a ^ b for a, b in zip(Y9, ctx.G_cache.vec_mul(xhat)))
    assert trace.syndrome == tuple(ctx.H.mul_col(corrected))


def test_receiver9_both_corrections_work():
    xhat = (1, 1, 0, 0, 0, 1)
    for p in ((0, 0, 0, 1, 1, 1), (0, 0, 1, 1, 1, 0)):
        value, _ = decode_receiver(G9, GRAPH9, 9, Y9, xhat, 1,
                                   forced_correction=p)
        assert value == 1


def test_error_free_cache_zero_syndrome():
    for i in (1, 5, 9):
        cache = sorted(GRAPH9.X[i - 1])
        xhat = tuple(X9_TRUE[j - 1] for j in cache)
        value, trace = decode_receiver(G9, GRAPH9, i, Y9, xhat, 1)
        assert value == X9_TRUE[i - 1]
        assert all(s == 0 for s in trace.syndrome)
        assert trace.correction == (0,) * 6


def test_find_correction_order_is_support_then_lex():
    ctx = build_context(G9, GRAPH9, 9)
    p, suspected = find_correction(ctx, (0, 0, 0), 1)
    assert p == (0,) * 6 and suspected == ()


def test_no_solution_raises():
    ctx = build_context(G9, GRAPH9, 9)
    # delta_s = 0 admits only the zero correction
    with pytest.raises(NoSolutionError):
        find_correction(ctx, (1, 1, 1), 0)


def test_invalid_generator_degenerate():
    # receiver 1 caches nothing; its demand row equals an interference row
    g = SideInfoGraph.make(2, [1, 2], [set(), {1}])
    G = Matrix(F2, [[1], [1]])
    with pytest.raises(DegenerateError):
        build_context(G, g, 1)


def test_dimension_checks():
    with pytest.raises(ValueError):
        build_context(G9, clique_graph(4), 1)
    with pytest.raises(ValueError):
        decode_receiver(G9, GRAPH9, 9, Y9, (0, 0), 1)
    with pytest.raises(ValueError, match=r"^y must have 6 entries, got 5$"):
        decode_receiver(G9, GRAPH9, 9, Y9[:-1], (0,) * 6, 1)


def test_coset_table_past_its_budget_refuses_before_the_walk(monkeypatch):
    # F_256 clique-5 at delta_s = 2 under the identity: a receiver's table
    # would list 1 + 4 * 255 + 6 * 255^2 candidate corrections, which took
    # seconds to walk
    monkeypatch.setattr(decoder, "low_weight", lambda *args: 1 / 0)
    G, graph = Matrix.identity(field_for(256), 5), clique_graph(5)
    y = G.vec_mul((1, 2, 3, 4, 5))
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=(
            r"^receiver 1: 391171 candidate corrections exceed the "
            r"coset-table budget$")):
        decode_receiver(G, graph, 1, y, (2, 3, 4, 5), 2)
    assert time.perf_counter() - start < 0.1


def test_coset_budget_refuses_before_the_context_is_built(monkeypatch):
    # a refusal is not cached, so each repeat checks the budget again;
    # it must do so before building the receiver's context
    monkeypatch.setattr(decoder, "build_context", lambda *args: 1 / 0)
    G, graph = Matrix.identity(field_for(256), 5), clique_graph(5)
    y = G.vec_mul((1, 2, 3, 4, 5))
    for _ in range(3):
        with pytest.raises(BudgetExceededError, match=(
                r"^receiver 1: 391171 candidate corrections exceed the "
                r"coset-table budget$")):
            decode_receiver(G, graph, 1, y, (2, 3, 4, 5), 2)


def test_decode_all():
    snapshots = {}
    for i in (1, 9):
        cache = sorted(GRAPH9.X[i - 1])
        snapshots[i] = tuple(X9_TRUE[j - 1] for j in cache)
    out = decode_all(G9, GRAPH9, Y9, snapshots, 1)
    assert set(out) == {1, 9}
    for i, (value, _) in out.items():
        assert value == X9_TRUE[i - 1]


def test_solution_set_law_receiver9():
    # any found correction differs from the true cache-error contribution
    # only by a combination of interference rows
    xhat = (1, 1, 0, 0, 0, 1)
    _, trace = decode_receiver(G9, GRAPH9, 9, Y9, xhat, 1)
    true_contribution = G9.row(8)         # the single error sits at packet 8
    G_y = G9.submatrix_rows({1, 4})
    diff = tuple(a ^ b for a, b in zip(trace.correction, true_contribution))
    assert G_y.in_row_span(diff)


def test_every_receiver_every_single_error_recovers():
    for i in range(1, 10):
        cache = sorted(GRAPH9.X[i - 1])
        true_hat = [X9_TRUE[j - 1] for j in cache]
        variants = [tuple(true_hat)]
        for pos in range(len(cache)):
            flipped = list(true_hat)
            flipped[pos] ^= 1
            variants.append(tuple(flipped))
        for xhat in variants:
            value, _ = decode_receiver(G9, GRAPH9, i, Y9, xhat, 1)
            assert value == X9_TRUE[i - 1]


def test_zero_message_decodes_to_zero():
    y0 = (0,) * 6
    for i in (1, 9):
        cache = sorted(GRAPH9.X[i - 1])
        value, trace = decode_receiver(G9, GRAPH9, i, y0,
                                       (0,) * len(cache), 1)
        assert value == 0 and trace.syndrome == (0,) * len(trace.syndrome)


def test_exhaustive_clique4_single_errors():
    spec = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)
    _, G = optimal_length(spec)
    g = spec.graph
    for x in itertools.product((0, 1), repeat=4):
        y = G.vec_mul(x)
        for i in range(1, 5):
            cache = sorted(g.X[i - 1])
            true_hat = [x[j - 1] for j in cache]
            variants = [tuple(true_hat)]
            for pos in range(len(cache)):
                flipped = list(true_hat)
                flipped[pos] ^= 1
                variants.append(tuple(flipped))
            for xhat in variants:
                value, _ = decode_receiver(G, g, i, y, xhat, 1)
                assert value == x[i - 1]


def test_gf4_decode_round_trip():
    # non-binary sanity: a 3-clique over GF(4) with delta_s = 1 is uncoded
    f4 = field_for(4)
    spec = ProblemSpec(graph=clique_graph(3), q=4, delta_s=1)
    N, G = optimal_length(spec)
    assert N == 3
    g = spec.graph
    for x in itertools.product(range(4), repeat=3):
        y = G.vec_mul(x)
        for i in range(1, 4):
            cache = sorted(g.X[i - 1])
            xhat = list(x[j - 1] for j in cache)
            xhat[0] = f4.add(xhat[0], 1)      # one wrong cache symbol
            value, _ = decode_receiver(G, g, i, y, tuple(xhat), 1)
            assert value == x[i - 1]


# -- the build-once decoder against the uncached route it replaced -----------

def _outcome(fn, *args, **kwargs):
    try:
        return ("ok",) + fn(*args, **kwargs)
    except (ValueError, DegenerateError, InconsistentError,
            NoSolutionError) as exc:
        return type(exc), str(exc)


def _random_case(rng):
    """A seeded decode: small graph and generator (often invalid), a
    message, a cache snapshot with up to delta_s + 1 errors, and sometimes
    a forced correction or a wrong dimension."""
    q = rng.choice((2, 3, 4, 5))
    field = field_for(q)
    n = rng.randint(2, 5)
    caches = [sorted(rng.sample([j for j in range(1, n + 1) if j != i],
                                rng.randint(0, n - 1)))
              for i in range(1, n + 1)]
    graph = SideInfoGraph.make(n, range(1, n + 1), caches)
    delta_s = rng.choice((0, 1, 1, 2))
    if rng.random() < 0.3:
        G = Matrix.identity(field, n)
    else:
        N = rng.randint(1, n + 1)
        rows = n + (rng.random() < 0.03)
        G = Matrix(field, [[rng.randrange(q) for _ in range(N)]
                           for _ in range(rows)], ncols=N)
    i = rng.randint(1, n)
    cache = caches[i - 1]
    x = [rng.randrange(q) for _ in range(G.nrows)]
    y = G.vec_mul(x)
    x_hat = [x[j - 1] for j in cache]
    errors = [0] * len(cache)
    for pos in rng.sample(range(len(cache)),
                          min(len(cache), rng.randint(0, delta_s + 1))):
        errors[pos] = rng.randrange(1, q)
        x_hat[pos] = field.add(x_hat[pos], errors[pos])
    if rng.random() < 0.03:
        x_hat.append(0)
    if rng.random() < 0.03:
        y = y[:-1]
    forced = None
    if rng.random() < 0.2:
        if rng.random() < 0.5 and len(errors) == G.nrows - 1:
            # the true cache-error contribution: always admissible
            forced = Matrix(field, [G.row(j) for j in cache],
                            ncols=G.ncols).vec_mul(errors)
        else:
            forced = tuple(rng.randrange(q) for _ in range(G.ncols))
    return G, graph, i, tuple(y), tuple(x_hat), delta_s, forced


def test_decoder_matches_uncached_reference():
    rng = random.Random(20131105)
    seen = {}
    for _ in range(2400):
        G, graph, i, y, x_hat, delta_s, forced = _random_case(rng)
        kwargs = {} if forced is None else {"forced_correction": forced}
        want = _outcome(_reference_decode, G, graph, i, y, x_hat, delta_s,
                        **kwargs)
        got = _outcome(decode_receiver, G, graph, i, y, x_hat, delta_s,
                       **kwargs)
        assert got == want, (G, graph, i, y, x_hat, delta_s, forced)
        kind = "forced" if forced is not None else "search"
        seen[kind, want[0]] = seen.get((kind, want[0]), 0) + 1
    # every outcome was exercised, except the projection's
    # InconsistentErrors: a correction matching the syndrome leaves the
    # cleaned word in the span of the demand and interference rows, where
    # the H_e rows always agree
    for key in (("search", "ok"), ("search", NoSolutionError),
                ("search", DegenerateError), ("search", ValueError),
                ("forced", "ok"), ("forced", InconsistentError)):
        assert seen.get(key, 0) >= 5, (key, seen)


# the F_2 clique-6 generator the benchmark's decode workload simulates (N = 4)
CLIQUE6_G = Matrix(F2, [[0, 1, 1, 1], [1, 0, 1, 1], [1, 0, 0, 0],
                        [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def _corruptions(q, size, weight):
    """Every offset of weight <= weight on a cache of the given size."""
    for t in range(weight + 1):
        for at in itertools.combinations(range(size), t):
            for vals in itertools.product(range(1, q), repeat=t):
                yield dict(zip(at, vals))


@pytest.mark.parametrize("n,q", [(6, 2), (4, 3)], ids=["F2-clique6", "F3-clique4"])
def test_decoder_matches_reference_exhaustively(n, q):
    # every receiver, message and cache corruption of weight <= delta_s + 1:
    # one past the guarantee, where NoSolutionError and wrong values occur.
    # Decoding for delta_s + 1 as well makes candidate syndromes collide,
    # so the table must keep the first writer
    spec = ProblemSpec(graph=clique_graph(n), q=q, delta_s=1)
    G = CLIQUE6_G if q == 2 else optimal_length(spec)[1]
    field, g = G.field, spec.graph
    outcomes = set()
    for i in range(1, g.m + 1):
        cache = sorted(g.X[i - 1])
        for x in itertools.product(range(q), repeat=n):
            y = G.vec_mul(x)
            for offsets in _corruptions(q, len(cache), spec.delta_s + 1):
                x_hat = [x[j - 1] for j in cache]
                for pos, e in offsets.items():
                    x_hat[pos] = field.add(x_hat[pos], e)
                for delta_s in (spec.delta_s, spec.delta_s + 1):
                    want = _outcome(_reference_decode, G, g, i, y, x_hat, delta_s)
                    got = _outcome(decode_receiver, G, g, i, y, x_hat, delta_s)
                    assert got == want, (i, x, offsets, delta_s)
                    outcomes.add(want[0] if want[0] != "ok"
                                 else want[1] == x[i - 1])
    # right and wrong values both occur, and syndromes no correction reaches
    assert outcomes == {True, False, NoSolutionError}


def test_find_correction_matches_reference_search():
    rng = random.Random(59)
    for _ in range(400):
        G, graph, i, y, x_hat, delta_s, _ = _random_case(rng)
        try:
            ctx = build_context(G, graph, i)
        except (ValueError, DegenerateError):
            continue
        if len(x_hat) != len(ctx.cache) or len(y) != G.ncols:
            continue
        syndrome = ctx.H.mul_col(vec_sub(G.field, y, ctx.G_cache.vec_mul(x_hat)))
        assert (_outcome(find_correction, ctx, syndrome, delta_s)
                == _outcome(_reference_search, ctx, syndrome, delta_s))


def test_large_field_decodes_without_tables():
    # F_257 is read through the Field instead of q x q tables
    f = field_for(257)
    g = clique_graph(3)
    G = Matrix.identity(f, 3)
    for x in ((0, 0, 0), (5, 256, 17), (200, 1, 99)):
        y = G.vec_mul(x)
        for i in range(1, 4):
            x_hat = [x[j - 1] for j in sorted(g.X[i - 1])]
            x_hat[1] = f.add(x_hat[1], 128)
            got = decode_receiver(G, g, i, y, x_hat, 1)
            assert got == _reference_decode(G, g, i, y, x_hat, 1)
            assert got[0] == x[i - 1]


def test_a_repeated_large_field_decode_packs_nothing(monkeypatch):
    # a column packs each multiple the first time it is read and keeps
    # it, so a decode repeated with an equal y and x_hat only looks up
    f = field_for(257)
    G = Matrix.identity(f, 4)
    dec = decoder.ReceiverDecoder(G, clique_graph(4), 1, 1)
    y = G.vec_mul((5, 256, 17, 99))
    x_hat = (256, 17, 100)          # the last cached entry is wrong
    first = dec.decode(y, x_hat)
    assert first[0] == 5
    packed = []
    pack = LaneVectors.pack
    monkeypatch.setattr(LaneVectors, "pack",
                        lambda self, vec: packed.append(vec) or pack(self, vec))
    for again in (y, tuple(y), list(y)):
        assert dec.decode(again, list(x_hat)) == first
    assert packed == []


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 257])
def test_lane_sums_match_the_reference_in_every_field(q):
    # a decode adds N + |X| lane-packed multiples in one int: words whose
    # every entry is q - 1 give the largest lane sums, where a lane one bit
    # too narrow would carry into the next
    field = field_for(q)
    rng = random.Random(q)
    n = 3 if q > 9 else 4
    spec = ProblemSpec(graph=clique_graph(n), q=q, delta_s=1)
    coded = optimal_length(spec)[1] if q <= 9 else Matrix.identity(field, n)
    top, decodes = q - 1, 0
    for G in (coded, random_generator(rng, q, n, n)):
        for delta_s in (1, 2) if q <= 9 else (1,):
            for i in range(1, n + 1):
                try:
                    dec = decoder.ReceiverDecoder(G, spec.graph, i, delta_s)
                except DegenerateError:
                    continue
                size = len(spec.graph.X[i - 1])
                words = [((top,) * G.ncols, (top,) * size)]
                for _ in range(4):
                    x = [rng.randrange(q) for _ in range(n)]
                    x_hat = [x[j - 1] for j in sorted(spec.graph.X[i - 1])]
                    x_hat[rng.randrange(size)] = rng.randrange(q)
                    words.append((G.vec_mul(x), tuple(x_hat)))
                for y, x_hat in words:
                    args = (G, spec.graph, i, y, x_hat, delta_s)
                    want = _outcome(_reference_decode, *args)
                    assert _outcome(dec.decode, y, x_hat) == want, args
                    forced = [(top,) * G.ncols]
                    if want[0] == "ok":
                        forced.append(want[2].correction)
                    for p in forced:
                        assert (_outcome(dec.decode, y, x_hat, forced_correction=p)
                                == _outcome(_reference_decode, *args,
                                            forced_correction=p)), (args, p)
                    decodes += 1
    assert decodes >= 5 * n


def test_non_field_entries_rejected():
    with pytest.raises(ValueError, match="elements of F_2"):
        decode_receiver(G9, GRAPH9, 9, (0, 1, 2, 0, 1, 0), (0,) * 6, 1)
    with pytest.raises(ValueError, match="elements of F_2"):
        decode_receiver(G9, GRAPH9, 9, Y9, (0, 0, -1, 0, 0, 0), 1)



ENTRY_FIELDS = (2, 3, 4, 5, 257)


def _clique3(q):
    """F_q clique-3 at delta_s = 1 and a generator that decodes it."""
    spec = ProblemSpec(graph=clique_graph(3), q=q, delta_s=1)
    G = optimal_length(spec)[1] if q <= 5 else Matrix.identity(field_for(q), 3)
    return spec.graph, G


def _put(vec, k, value):
    return (*vec[:k], value, *vec[k + 1:])


@pytest.mark.parametrize("q", ENTRY_FIELDS)
def test_an_entry_decodes_as_the_element_it_equals(q):
    # the frozenset rule: 0.0 and True are elements, -1, q, None, "1" and
    # an unhashable list are not, in y and in x_hat alike
    graph, G = _clique3(q)
    x = (1, 0, 1)
    y, x_hat = G.vec_mul(x), (0, 1)     # receiver 1 caches packets 2, 3
    for bad in (-1, q, None, "1", [1]):
        for args in [(_put(y, k, bad), x_hat) for k in range(len(y))] + [
                (y, _put(x_hat, k, bad)) for k in range(2)]:
            with pytest.raises(ValueError,
                               match=f"entries must be elements of F_{q}$"):
                decode_receiver(G, graph, 1, *args, 1)
    for equal, element in ((0.0, 0), (True, 1)):
        for k in range(len(y)):
            assert (_outcome(decode_receiver, G, graph, 1,
                             _put(y, k, equal), x_hat, 1)
                    == _outcome(decode_receiver, G, graph, 1,
                                _put(y, k, element), x_hat, 1))
        for k in range(2):
            assert (decode_receiver(G, graph, 1, y, _put(x_hat, k, equal), 1)
                    == decode_receiver(G, graph, 1, y,
                                       _put(x_hat, k, element), 1))


# -- each side's sum, kept by value -------------------------------------------

def test_a_list_y_changed_between_decodes_gives_the_new_answer():
    dec = decoder.ReceiverDecoder(G9, GRAPH9, 9, 1)
    xhat = (1, 1, 0, 0, 0, 1)
    y = list(Y9)
    for k in range(len(y)):
        assert (_outcome(dec.decode, y, xhat)
                == _outcome(_reference_decode, G9, GRAPH9, 9, y, xhat, 1))
        y[k] ^= 1
    y.append(0)
    with pytest.raises(ValueError, match="y must have 6 entries, got 7"):
        dec.decode(y, xhat)


SUM_FIELDS = (2, 3, 4, 257)


def _as_elements(vec):
    return [int(e) for e in vec]


def _sum_table_calls(q, G, rng, count):
    """Decodes at receiver 1 (caching packets 2 and 3): codewords and
    snapshots with up to one cache error, some entries given as an
    equal non-int (0.0, True), some as a non-element on one side, each
    as every tuple/list pairing, and every call made twice."""
    equal = {0: 0.0, 1: True}
    calls = []
    for _ in range(count):
        x = [rng.randrange(q) for _ in range(3)]
        y, x_hat = list(G.vec_mul(x)), [x[1], x[2]]
        if rng.random() < 0.5:
            x_hat[rng.randrange(2)] = rng.randrange(q)
        for vec in (y, x_hat):
            for k, e in enumerate(vec):
                if e in equal and rng.random() < 0.3:
                    vec[k] = equal[e]
        bad = rng.choice((q, -1, 1.5, None, [1]))
        side = rng.randrange(4)     # y, x_hat, or neither
        if side < 2:
            vec = (y, x_hat)[side]
            vec[rng.randrange(len(vec))] = bad
        for y_form, x_form in itertools.product((tuple, list), repeat=2):
            calls += [(y_form(y), x_form(x_hat))] * 2
    return calls


@pytest.mark.parametrize("q", SUM_FIELDS)
@pytest.mark.parametrize("order", [1, -1], ids=["forward", "backward"])
def test_kept_sums_decode_as_a_fresh_decoder_and_the_reference(q, order):
    graph, G = _clique3(q)
    kept = decoder.ReceiverDecoder(G, graph, 1, 1)
    calls = _sum_table_calls(q, G, random.Random(q), 12)
    for y, x_hat in calls[::order]:
        got = _outcome(kept.decode, y, x_hat)
        fresh = decoder.ReceiverDecoder(G, graph, 1, 1)
        assert got == _outcome(fresh.decode, y, x_hat)
        try:
            y_ints, x_ints = _as_elements(y), _as_elements(x_hat)
        except TypeError:
            y_ints = None
        if (y_ints is not None and y_ints == list(y)
                and x_ints == list(x_hat)
                and all(0 <= e < q for e in y_ints + x_ints)):
            assert got == _outcome(_reference_decode, G, graph, 1, y_ints,
                                   x_ints, 1)
        else:
            assert got[0] is ValueError
    # only checked tuples were kept
    for y in kept._y_sums:
        assert type(y) is tuple and len(y) == G.ncols
    for x_hat in kept._x_sums:
        assert type(x_hat) is tuple and len(x_hat) == 2


def test_the_sum_tables_never_pass_their_bound(monkeypatch):
    monkeypatch.setattr(decoder, "_TABLE_SIZE", 5)
    graph, G = _clique3(3)
    dec = decoder.ReceiverDecoder(G, graph, 1, 1)
    rng = random.Random(5)
    most = 0
    for _ in range(300):
        x = [rng.randrange(3) for _ in range(3)]
        x_hat = [x[1], x[2]]
        x_hat[rng.randrange(2)] = rng.randrange(3)
        y, x_hat = G.vec_mul(x), tuple(x_hat)
        assert (_outcome(dec.decode, y, x_hat)
                == _outcome(_reference_decode, G, graph, 1, y, x_hat, 1))
        assert max(map(len, (dec._y_sums, dec._x_sums, dec._memo))) <= 5
        most = max(most, len(dec._y_sums), len(dec._x_sums))
    assert most == 5


def test_a_simulation_sums_each_cache_side_once_per_snapshot(monkeypatch):
    # F_2 clique-4 at delta_s = 1, exhaustive: 16 messages times 4
    # snapshots per receiver, but only 2^3 distinct snapshots of its 3
    # cached packets; each is summed once, then looked up by value
    spec = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)
    _, G = optimal_length(spec)
    looked_up = {}
    real = decoder._lookup

    def counting(multiples, e):
        looked_up[id(multiples)] = looked_up.get(id(multiples), 0) + 1
        return real(multiples, e)

    monkeypatch.setattr(decoder, "_lookup", counting)
    report = run_simulation(spec, G, SimulationConfig(trials="exhaustive"))
    assert report.ok
    for i in range(1, 5):
        dec = receiver_decoder(G, spec.graph, i, 1)
        sums = looked_up[id(dec._x_cols[0])]
        assert 0 < sums <= 2 ** len(spec.graph.X[i - 1])
        assert report.per_receiver[i][1] == 64


@pytest.mark.parametrize("q", ENTRY_FIELDS)
def test_one_tuple_y_serves_every_snapshot_at_alternating_receivers(q):
    graph, G = _clique3(q)
    rng = random.Random(q)
    for _ in range(4):
        x = [rng.randrange(q) for _ in range(3)]
        y = G.vec_mul(x)        # one object for every decode below
        for i in itertools.islice(itertools.cycle((1, 2, 3)), 15):
            x_hat = [x[j - 1] for j in sorted(graph.X[i - 1])]
            for pos in rng.sample(range(2), rng.randint(0, 2)):
                x_hat[pos] = rng.randrange(q)
            assert (_outcome(decode_receiver, G, graph, i, y, x_hat, 1)
                    == _outcome(_reference_decode, G, graph, i, y, x_hat, 1))


@pytest.mark.parametrize("order", [1, -1], ids=["y-first", "x_hat-first"])
def test_bad_y_and_bad_x_hat_keep_their_messages_in_either_order(order):
    # x_hat's length, then the entries of both, then y's length: whether
    # or not the decoder keeps either side's sum
    xhat, bad_xhat = (1, 1, 0, 0, 0, 1), (1, 1, 0, 0, 0, 2)
    entries = "y and x_hat entries must be elements of F_2"
    y_length, x_length = "y must have 6 entries, got 5", "caches 6 packets, got 5"
    calls = [((Y9[:-1], xhat), y_length),
             ((Y9[:-1], xhat), y_length),
             ((Y9 + (2,), xhat), entries),      # past the columns
             ((Y9[:-1] + (2,), xhat), entries),
             ((Y9, bad_xhat), entries),
             ((Y9, xhat), None),
             ((Y9, bad_xhat), entries),
             ((Y9, xhat[:-1]), x_length),
             ((Y9, xhat), None),
             ((Y9[:-1], bad_xhat), entries),
             ((Y9[:-1], xhat[:-1]), x_length),
             ((Y9[:-1], xhat), y_length),
             # with both sums kept: unhashable and other non-elements
             ((Y9, xhat), None),
             ((Y9[:-1] + (1.5,), xhat), entries),
             ((Y9, xhat[:-1] + (None,)), entries),
             ((Y9[:-1] + ([1],), xhat), entries),
             ((Y9, xhat[:-1] + ([1],)), entries),
             ((Y9 + (0,), xhat), "y must have 6 entries, got 7"),
             ((Y9, xhat + (0,)), "caches 6 packets, got 7"),
             ((Y9 + (0,), xhat[:-1]), x_length),
             ((Y9 + (-1,), bad_xhat), entries),
             ((Y9, xhat), None)]
    dec = decoder.ReceiverDecoder(G9, GRAPH9, 9, 1)
    for (y, x_hat), message in calls[::order]:
        if message is None:
            assert dec.decode(y, x_hat) == _reference_decode(
                G9, GRAPH9, 9, y, x_hat, 1)
        else:
            with pytest.raises(ValueError, match=message):
                dec.decode(y, x_hat)


@pytest.mark.parametrize("q,n,forced", [(2, 4, (7, 0, 0)), (4, 3, (-1, 0, 0))])
def test_forced_correction_entries_rejected(q, n, forced):
    # F_2 clique-4 (N = 3) and F_4 clique-3 (uncoded, N = 3)
    spec = ProblemSpec(graph=clique_graph(n), q=q, delta_s=1)
    _, G = optimal_length(spec)
    y = G.vec_mul((0,) * n)
    with pytest.raises(ValueError, match=f"forced_correction must be 3 elements of F_{q}"):
        decode_receiver(G, spec.graph, 1, y, (0,) * (n - 1), 1,
                        forced_correction=forced)
    with pytest.raises(ValueError, match="forced_correction"):
        decode_receiver(G, spec.graph, 1, y, (0,) * (n - 1), 1,
                        forced_correction=(0, 0))
    for bad in (None, "1", [1], q):
        with pytest.raises(ValueError, match="forced_correction"):
            decode_receiver(G, spec.graph, 1, y, (0,) * (n - 1), 1,
                            forced_correction=(bad, 0, 0))


def test_forced_correction_entries_decode_as_the_elements_they_equal():
    xhat = (1, 1, 0, 0, 0, 1)
    want = _reference_decode(G9, GRAPH9, 9, Y9, xhat, 1,
                             forced_correction=(0, 0, 1, 1, 1, 0))
    assert decode_receiver(G9, GRAPH9, 9, Y9, xhat, 1,
                           forced_correction=(0.0, 0, 1.0, True, 1, 0)) == want


# -- the per-decoder memo ------------------------------------------------------

def test_repeated_decode_returns_the_memoized_result():
    dec = decoder.ReceiverDecoder(G9, GRAPH9, 9, 1)
    xhat = (1, 1, 0, 0, 0, 1)
    first = dec.decode(Y9, xhat)
    assert len(dec._memo) == 1
    for args in ((Y9, xhat), (list(Y9), list(xhat))):
        assert dec.decode(*args) == first
    assert len(dec._memo) == 1
    assert first == _reference_decode(G9, GRAPH9, 9, Y9, xhat, 1)


def test_forced_decode_after_a_memoized_one_runs_its_own_check():
    dec = decoder.ReceiverDecoder(G9, GRAPH9, 9, 1)
    xhat = (1, 1, 0, 0, 0, 1)
    searched = dec.decode(Y9, xhat)
    memo = dict(dec._memo)
    # an admissible correction other than the table's: its own trace
    other = next(p for p in ((0, 0, 0, 1, 1, 1), (0, 0, 1, 1, 1, 0))
                 if p != searched[1].correction)
    forced = dec.decode(Y9, xhat, forced_correction=other)
    assert forced == _reference_decode(G9, GRAPH9, 9, Y9, xhat, 1,
                                       forced_correction=other)
    assert forced[0] == searched[0] and forced[1].suspected == ()
    # a correction off the syndrome still fails, memo or not
    with pytest.raises(InconsistentError):
        dec.decode(Y9, xhat, forced_correction=(0,) * 6)
    assert dec._memo == memo
    assert dec.decode(Y9, xhat) == searched


def test_failed_search_is_not_memoized():
    dec = decoder.ReceiverDecoder(G9, GRAPH9, 9, 0)
    for _ in range(2):
        with pytest.raises(NoSolutionError):
            dec.decode(Y9, (1, 1, 0, 0, 0, 1))
    assert dec._memo == {}


def test_large_field_memo_holds_at_most_one_entry_per_decode():
    f = field_for(257)
    g = clique_graph(3)
    G = Matrix.identity(f, 3)
    rng = random.Random(257)
    decs = {i: decoder.ReceiverDecoder(G, g, i, 1) for i in range(1, 4)}
    made = {i: 0 for i in decs}
    for _ in range(300):
        x = [rng.randrange(257) for _ in range(3)]
        if rng.random() < 0.5:
            x = [v % 2 for v in x]
        i = rng.randint(1, 3)
        x_hat = [x[j - 1] for j in sorted(g.X[i - 1])]
        x_hat[rng.randrange(2)] = rng.randrange(257)
        got = decs[i].decode(G.vec_mul(x), x_hat)
        made[i] += 1
        assert got == _reference_decode(G, g, i, G.vec_mul(x), x_hat, 1)
        assert got[0] == x[i - 1]
        memo = decs[i]._memo
        assert len(memo) <= made[i]
        assert len(memo) <= 257 * len(decs[i]._table)
    # repeats were served from the memo
    assert sum(len(d._memo) for d in decs.values()) < sum(made.values())


def test_huge_delta_s_builds_the_table_of_the_cache_size():
    # receiver 1 caches one packet, whose zero row reaches one of the two
    # syndromes, so the table never fills: the candidate walk must stop
    # at supports of the cache size, not walk on to delta_s
    g = SideInfoGraph.make(2, [1, 2], [{2}, set()])
    G = Matrix(F2, [[1, 0], [0, 0]])
    small = decoder.ReceiverDecoder(G, g, 1, 1)
    huge = decoder.ReceiverDecoder(G, g, 1, 10 ** 9)
    assert huge._table == small._table and len(huge._table) == 1
    assert huge.decode((1, 0), (1,)) == small.decode((1, 0), (1,))
    with pytest.raises(NoSolutionError, match="support <= 1000000000"):
        huge.decode((1, 1), (0,))


# -- the decoder cache ---------------------------------------------------------

def test_equal_values_hash_equal_before_and_after_use():
    rows = [list(r) for r in G9.rows]
    caches = [sorted(s) for s in GRAPH9.X]
    G_a, G_b = Matrix(F2, rows), Matrix(F2, rows)
    g_a = SideInfoGraph.make(9, GRAPH9.f, caches)
    g_b = SideInfoGraph.make(9, GRAPH9.f, caches)
    assert G_a is not G_b and g_a is not g_b
    assert hash(G_a) == hash(G_b) and hash(g_a) == hash(g_b)
    # decode with the first pair only: the decoder table keeps it
    decode_receiver(G_a, g_a, 9, Y9, (1, 1, 0, 0, 0, 1), 1)
    G_c, g_c = Matrix(F2, rows), SideInfoGraph.make(9, GRAPH9.f, caches)
    assert hash(G_a) == hash(G_b) == hash(G_c)
    assert hash(g_a) == hash(g_b) == hash(g_c)
    assert G_a == G_c and g_a == g_c
    # a different value still gets a different key
    other = SideInfoGraph.make(9, GRAPH9.f, caches[:-1] + [caches[-1][1:]])
    assert other != g_a
    assert (receiver_decoder(G_a, other, 9, 1)
            is not receiver_decoder(G_a, g_a, 9, 1))


def test_cache_keeps_generators_and_graphs_apart():
    # two invertible generators of one shape, two graphs, decoded
    # interleaved: each must get its own decoder
    G_a = Matrix.identity(F2, 4)
    G_b = Matrix(F2, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    sparse = SideInfoGraph.make(4, [1, 2, 3, 4], [{2}, {3}, {4}, {1}])
    graphs = (clique_graph(4), sparse)
    for x in itertools.product((0, 1), repeat=4):
        for i in range(1, 5):
            for G in (G_a, G_b):
                for g in graphs:
                    y = G.vec_mul(x)
                    x_hat = [x[j - 1] for j in sorted(g.X[i - 1])]
                    x_hat[0] ^= 1
                    got = decode_receiver(G, g, i, y, x_hat, 1)
                    assert got == _reference_decode(G, g, i, y, x_hat, 1)
                    assert got[0] == x[i - 1]


def test_cache_keyed_by_value():
    # the last triple is matched by value when its objects are new
    rows = [list(r) for r in G9.rows]
    first = receiver_decoder(Matrix(F2, rows), GRAPH9, 9, 1)
    again = receiver_decoder(Matrix(F2, rows), SideInfoGraph.make(
        9, GRAPH9.f, [set(s) for s in GRAPH9.X]), 9, 1)
    assert again is first
    assert receiver_decoder(Matrix(F2, rows), GRAPH9, 9, 2) is not first


def test_cache_clear_builds_the_decoder_again(monkeypatch):
    # decode_receiver keeps the decoder of its last triple, but not past
    # kept.clear()
    built = []
    real = decoder.build_context

    def counting(G, graph, i):
        built.append(i)
        return real(G, graph, i)

    monkeypatch.setattr(decoder, "build_context", counting)
    xhat = (1, 1, 0, 0, 0, 1)
    first = decode_receiver(G9, GRAPH9, 9, Y9, xhat, 1)
    assert decode_receiver(G9, GRAPH9, 9, Y9, xhat, 1) == first
    assert built == [9]
    kept.clear()
    assert decoder._decoders == {}
    assert decode_receiver(G9, GRAPH9, 9, Y9, xhat, 1) == first
    assert built == [9, 9]
    assert list(decoder._decoders) == [9]


def test_each_receivers_decoder_is_kept_while_decodes_alternate(monkeypatch):
    # decodes alternating over all nine receivers build each receiver's
    # decoder once, and once more past kept.clear() or another triple
    built = []
    real = decoder.build_context

    def counting(G, graph, i):
        built.append(i)
        return real(G, graph, i)

    monkeypatch.setattr(decoder, "build_context", counting)
    snapshots = {i: tuple(X9_TRUE[j - 1] for j in sorted(GRAPH9.X[i - 1]))
                 for i in range(1, 10)}

    def sweep(delta_s=1):
        for _ in range(3):
            for i in range(1, 10):
                got = decode_receiver(G9, GRAPH9, i, Y9, snapshots[i], delta_s)
                assert got[0] == X9_TRUE[i - 1]

    sweep()
    assert built == list(range(1, 10))
    sweep()
    assert built == list(range(1, 10))
    kept.clear()
    sweep()
    assert built == list(range(1, 10)) * 2
    # another delta_s is another triple; only the last triple's are kept
    sweep(0)
    sweep()
    assert built == list(range(1, 10)) * 4
    assert sorted(decoder._decoders) == list(range(1, 10))


def test_kept_decoders_are_bounded_and_refusals_not_kept(monkeypatch):
    reached = []
    real = decoder.receiver_decoder

    def counting(G, graph, i, delta_s):
        reached.append(i)
        return real(G, graph, i, delta_s)

    monkeypatch.setattr(decoder, "receiver_decoder", counting)
    monkeypatch.setattr(decoder, "DECODER_CACHE_SIZE", 4)
    x_hat = {i: tuple(X9_TRUE[j - 1] for j in sorted(GRAPH9.X[i - 1]))
             for i in range(1, 10)}
    for _ in range(2):
        for i in range(1, 10):
            decode_receiver(G9, GRAPH9, i, Y9, x_hat[i], 1)
            assert len(decoder._decoders) <= 4
    # emptied when four are kept: every receiver reached again
    assert reached == list(range(1, 10)) * 2
    reached.clear()
    monkeypatch.setattr(decoder, "COSET_CANDIDATE_BUDGET", 3)
    for _ in range(2):
        with pytest.raises(BudgetExceededError):
            decode_receiver(G9, GRAPH9, 9, Y9, x_hat[9], 2)
    assert reached == [9, 9]
    assert decoder._decoders == {}


def test_at_most_the_cache_size_of_decoders_are_alive(monkeypatch):
    # decodes and direct receiver_decoder calls, over two delta_s: only
    # the decoders of the one table are alive, with their bounded tables
    size, table = 4, 3
    alive = weakref.WeakSet()
    real = decoder.ReceiverDecoder

    def build(G, graph, i, delta_s):
        dec = real(G, graph, i, delta_s)
        alive.add(dec)
        return dec

    monkeypatch.setattr(decoder, "ReceiverDecoder", build)
    monkeypatch.setattr(decoder, "DECODER_CACHE_SIZE", size)
    monkeypatch.setattr(decoder, "_TABLE_SIZE", table)
    x_hat = {i: tuple(X9_TRUE[j - 1] for j in sorted(GRAPH9.X[i - 1]))
             for i in range(1, 10)}

    def counted():
        if len(alive) > size:
            gc.collect()
        return len(alive)

    rng = random.Random(9)
    most = 0
    for _ in range(300):
        i, delta_s = rng.randint(1, 9), rng.randint(0, 1)
        if rng.random() < 0.5:
            receiver_decoder(G9, GRAPH9, i, delta_s)
        else:
            snapshot = list(x_hat[i])
            snapshot[rng.randrange(len(snapshot))] ^= 1
            _outcome(decode_receiver, G9, GRAPH9, i, Y9, tuple(snapshot),
                     delta_s)
        most = max(most, counted())
        assert most <= size
        assert all(len(t) <= table for dec in alive
                   for t in (dec._x_sums, dec._y_sums, dec._memo))
    assert most == size


def test_cache_is_bounded():
    # one triple with more receivers than the table holds
    m = DECODER_CACHE_SIZE + 20
    g = SideInfoGraph.make(2, [1 + k % 2 for k in range(m)],
                           [{2 - k % 2} for k in range(m)])
    G = Matrix.identity(F2, 2)
    x = (1, 0)
    most = 0
    for i in range(1, m + 1):
        other = 2 - (i - 1) % 2
        got = decode_receiver(G, g, i, G.vec_mul(x), (x[other - 1],), 0)
        assert got[0] == x[g.f[i - 1] - 1]
        most = max(most, len(decoder._decoders))
    assert most == DECODER_CACHE_SIZE
    # a new generator each call starts a new table each time
    g = SideInfoGraph.make(2, [1, 2], [{2}, {1}])
    for k in range(1, 20):
        row = tuple((k >> b) & 1 for b in range(8))
        G = Matrix(F2, [row, row])
        assert decode_receiver(G, g, 1, G.vec_mul(x), (0,), 0)[0] == 1
        assert len(decoder._decoders) == 1


# -- simulation reports pinned from the per-trial decoder ----------------------

CLIQUE4_BROKEN = Matrix(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]])
CLIQUE4_BROKEN_REPORT = SimulationReport(
    per_receiver={1: (64, 64), 2: (64, 64), 3: (64, 64), 4: (0, 64)},
    witnesses=(
        (4, (0, 0, 0, 0), {}), (4, (0, 0, 0, 0), {0: 1}),
        (4, (0, 0, 0, 0), {1: 1}), (4, (0, 0, 0, 0), {2: 1}),
        (4, (0, 0, 0, 1), {}), (4, (0, 0, 0, 1), {0: 1}),
        (4, (0, 0, 0, 1), {1: 1}), (4, (0, 0, 0, 1), {2: 1}),
        (4, (0, 0, 1, 0), {}), (4, (0, 0, 1, 0), {0: 1})))


def test_simulation_pin_clique4_broken_generator():
    spec = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)
    report = run_simulation(spec, CLIQUE4_BROKEN,
                            SimulationConfig(trials="exhaustive"))
    assert report == CLIQUE4_BROKEN_REPORT


def test_failed_build_is_kept(monkeypatch):
    # receiver 4's demand row is zero, so its build fails; the failure is
    # cached like a decoder and re-raised without building again
    built = []
    real = decoder.build_context

    def counting(G, graph, i):
        built.append(i)
        return real(G, graph, i)

    monkeypatch.setattr(decoder, "build_context", counting)
    spec = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)
    report = run_simulation(spec, CLIQUE4_BROKEN,
                            SimulationConfig(trials="exhaustive"))
    assert report == CLIQUE4_BROKEN_REPORT
    assert built == [1, 2, 3, 4]
    with pytest.raises(DegenerateError) as direct:
        real(CLIQUE4_BROKEN, spec.graph, 4)
    for _ in range(2):
        with pytest.raises(DegenerateError) as cached:
            decode_receiver(CLIQUE4_BROKEN, spec.graph, 4, (0, 0, 0), (0, 0, 0), 1)
        assert type(cached.value) is DegenerateError
        assert str(cached.value) == str(direct.value)
    assert built == [1, 2, 3, 4]


def test_simulation_pin_random_mode():
    spec = ProblemSpec(graph=clique_graph(4), q=3, delta_s=1)
    G = Matrix(field_for(3), [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 0]])
    report = run_simulation(spec, G, SimulationConfig(trials=300, seed=5))
    assert report.per_receiver == {1: (69, 90), 2: (41, 61), 3: (77, 77),
                                   4: (50, 72)}
    assert report.witnesses == (
        (2, (1, 1, 0, 2), {2: 1}), (1, (1, 0, 2, 1), {2: 2}),
        (4, (0, 2, 1, 1), {1: 1}), (1, (1, 1, 0, 0), {2: 1}),
        (4, (2, 0, 2, 1), {1: 1}), (2, (0, 1, 2, 0), {2: 1}),
        (1, (1, 1, 2, 2), {2: 1}), (2, (0, 2, 0, 2), {2: 1}),
        (1, (1, 1, 1, 1), {2: 1}), (1, (1, 1, 1, 1), {2: 2}))
