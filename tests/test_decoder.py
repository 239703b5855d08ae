import itertools
import random

import pytest

from icsie import decoder
from icsie.decoder import (DECODER_CACHE_SIZE, DecodeTrace, build_context,
                           decode_all, decode_receiver, find_correction,
                           receiver_decoder)
from icsie.encoder import optimal_length
from icsie.errors import (DegenerateError, InconsistentError,
                          NoSolutionError)
from icsie.gfield import field_for
from icsie.linalg import Matrix, dot, vec_sub
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

def _reference_search(ctx, syndrome, delta_s):
    """Corrections by support size, then supports, then coefficients,
    in Field arithmetic; the first whose syndrome matches."""
    field = ctx.G_cache.field
    rows = ctx.G_cache.rows
    for t in range(0, delta_s + 1):
        for support in itertools.combinations(range(len(rows)), t):
            for coeffs in itertools.product(range(1, field.q), repeat=t):
                p = tuple([0] * ctx.G_cache.ncols)
                for j, c in zip(support, coeffs):
                    p = tuple(field.add(a, field.mul(c, b))
                              for a, b in zip(p, rows[j]))
                if tuple(ctx.H.mul_col(p)) == tuple(syndrome):
                    return p, tuple(ctx.cache[j] for j in support)
    raise NoSolutionError(
        f"receiver {ctx.receiver}: no correction with support <= {delta_s}; "
        f"more cache errors than allowed, or an invalid generator")


def _reference_decode(G, graph, i, y, x_hat, delta_s, forced_correction=None):
    """Uncached decode: build_context, the search, then the H_e projection."""
    ctx = build_context(G, graph, i)
    field = G.field
    if len(x_hat) != len(ctx.cache):
        raise ValueError(
            f"receiver {i} caches {len(ctx.cache)} packets, got {len(x_hat)}")
    corrected = vec_sub(field, y, ctx.G_cache.vec_mul(x_hat))
    syndrome = tuple(ctx.H.mul_col(corrected))
    if forced_correction is not None:
        p = tuple(forced_correction)
        if tuple(ctx.H.mul_col(p)) != syndrome:
            raise InconsistentError("forced correction does not match the syndrome")
        suspected = ()
    else:
        p, suspected = _reference_search(ctx, syndrome, delta_s)
    cleaned = vec_sub(field, corrected, p)
    value = None
    for h in ctx.H_e.rows:
        a = dot(field, h, ctx.demand_row)
        b = dot(field, h, cleaned)
        if a != 0:
            v = field.mul(b, field.inv(a))
            if value is None:
                value = v
            elif value != v:
                raise InconsistentError(
                    f"receiver {i}: projection rows disagree on the demand value")
        elif b != 0:
            raise InconsistentError(
                f"receiver {i}: cleaned word not in the expected row span")
    if value is None:
        raise DegenerateError(
            f"receiver {i}: no projection row sees the demand row")
    return value, DecodeTrace(syndrome=syndrome, correction=p,
                              suspected=suspected, value=value)


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


def test_non_field_entries_rejected():
    with pytest.raises(ValueError, match="elements of F_2"):
        decode_receiver(G9, GRAPH9, 9, (0, 1, 2, 0, 1, 0), (0,) * 6, 1)
    with pytest.raises(ValueError, match="elements of F_2"):
        decode_receiver(G9, GRAPH9, 9, Y9, (0, 0, -1, 0, 0, 0), 1)


# -- the decoder cache ---------------------------------------------------------

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
    rows = [list(r) for r in G9.rows]
    first = receiver_decoder(Matrix(F2, rows), GRAPH9, 9, 1)
    before = receiver_decoder.cache_info().hits
    again = receiver_decoder(Matrix(F2, rows), SideInfoGraph.make(
        9, GRAPH9.f, [set(s) for s in GRAPH9.X]), 9, 1)
    assert again is first
    assert receiver_decoder.cache_info().hits == before + 1
    assert receiver_decoder(Matrix(F2, rows), GRAPH9, 9, 2) is not first


def test_cache_is_bounded():
    g = SideInfoGraph.make(2, [1, 2], [{2}, {1}])
    for k in range(1, DECODER_CACHE_SIZE + 20):
        row = tuple((k >> b) & 1 for b in range(8))
        G = Matrix(F2, [row, row])
        x = (1, 0)
        assert decode_receiver(G, g, 1, G.vec_mul(x), (0,), 0)[0] == 1
    info = receiver_decoder.cache_info()
    assert info.maxsize == DECODER_CACHE_SIZE
    assert info.currsize == DECODER_CACHE_SIZE


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
    receiver_decoder.cache_clear()
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
