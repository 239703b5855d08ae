import itertools
import random
from unittest import mock

import pytest
from conftest import _reference_decode

from icsie import simulation
from icsie.codeset import is_valid_generator
from icsie.decoder import decode_receiver
from icsie.encoder import optimal_length
from icsie.errors import (BudgetExceededError, DegenerateError,
                          FieldMismatchError, IcsieError, InconsistentError,
                          NoSolutionError)
from icsie.gfield import field_for
from icsie.linalg import Matrix, low_weight
from icsie.sigraph import ProblemSpec, SideInfoGraph, clique_graph
from icsie.simulation import SimulationConfig, run_simulation

EXHAUSTIVE = SimulationConfig(trials="exhaustive")


def test_budget_counts_messages_over_any_field(monkeypatch):
    # F_5^3 has 125 messages, more than 2^6, although 3 symbols of
    # "2 bits" each would fit 6 bits
    monkeypatch.setattr(simulation, "DEFAULT_TRIAL_BITS", 6)
    n = 3
    spec = ProblemSpec(graph=SideInfoGraph.make(n, range(1, n + 1),
                                                [set()] * n),
                       q=5, delta_s=0)
    with pytest.raises(BudgetExceededError, match="375 simulation trials"):
        run_simulation(spec, Matrix.identity(field_for(5), n), EXHAUSTIVE)


def test_budget_counts_receivers_and_side_errors(monkeypatch):
    # 2^4 messages fit 4 bits, but 4 receivers x 4 side-error variants
    # make 2^8 trials
    monkeypatch.setattr(simulation, "DEFAULT_TRIAL_BITS", 4)
    spec = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)
    with pytest.raises(BudgetExceededError, match="256 simulation trials"):
        run_simulation(spec, Matrix.identity(field_for(2), 4), EXHAUSTIVE)


def test_budget_is_exact_trial_count(monkeypatch):
    # clique-4 over F_2 at delta_s = 1: 16 messages x 4 receivers x 4 variants
    spec = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)
    G = Matrix.identity(field_for(2), 4)
    monkeypatch.setattr(simulation, "DEFAULT_TRIAL_BITS", 8)
    report = run_simulation(spec, G, EXHAUSTIVE)
    assert sum(total for _, total in report.per_receiver.values()) == 2 ** 8
    monkeypatch.setattr(simulation, "DEFAULT_TRIAL_BITS", 7)
    with pytest.raises(BudgetExceededError):
        run_simulation(spec, G, EXHAUSTIVE)


def test_coset_budget_checked_for_every_receiver_before_any_trial(monkeypatch):
    # receiver 2's decoder would list 1 + 4 * 255 + 6 * 255^2 candidate
    # corrections; receiver 1's cache is empty
    monkeypatch.setattr(simulation, "decode_receiver", mock.Mock(
        side_effect=AssertionError("a trial ran")))
    graph = SideInfoGraph.make(5, [1, 2], [set(), {1, 3, 4, 5}])
    spec = ProblemSpec(graph=graph, q=256, delta_s=2)
    with pytest.raises(BudgetExceededError, match=(
            r"^receiver 2: 391171 candidate corrections exceed the "
            r"coset-table budget$")):
        run_simulation(spec, Matrix.identity(field_for(256), 5),
                       SimulationConfig(trials=1))


def test_random_mode_trials_within_budget(monkeypatch):
    monkeypatch.setattr(simulation, "DEFAULT_TRIAL_BITS", 6)
    spec = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)
    G = Matrix.identity(field_for(2), 4)
    report = run_simulation(spec, G, SimulationConfig(trials=2 ** 6))
    assert sum(total for _, total in report.per_receiver.values()) == 2 ** 6
    with pytest.raises(BudgetExceededError):
        run_simulation(spec, G, SimulationConfig(trials=2 ** 6 + 1))


@pytest.mark.parametrize("trials", [0, -5, "12", 2.5, True, False])
def test_trial_count_must_be_positive(trials):
    # a bool is no count, although Python reads True as 1
    with pytest.raises(IcsieError, match="positive count"):
        SimulationConfig(trials=trials)


@pytest.mark.parametrize("seed", [None, -3, -1, 1.5, "abc", True])
def test_seed_must_be_a_non_negative_integer(seed):
    # None would seed from the OS and -3 would draw the trials of 3
    with pytest.raises(IcsieError, match="seed must be an integer >= 0"):
        SimulationConfig(trials=5, seed=seed)


def test_a_count_of_one_runs_one_trial():
    spec = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)
    report = run_simulation(spec, Matrix.identity(field_for(2), 4),
                            SimulationConfig(trials=1))
    assert sum(total for _, total in report.per_receiver.values()) == 1



def test_generator_over_another_field_rejected():
    # an F_3 identity would decode every F_2 trial: the run must not start
    spec = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)
    for config in (EXHAUSTIVE, SimulationConfig(trials=10)):
        with pytest.raises(FieldMismatchError, match="F_3"):
            run_simulation(spec, Matrix.identity(field_for(3), 4), config)


# -- exhaustive mode encodes each message once, witnesses stay in order ------

F3_CLIQUE4 = ProblemSpec(graph=clique_graph(4), q=3, delta_s=1)
F3_G = Matrix(field_for(3), [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 0]])


def test_exhaustive_report_pinned():
    # receivers 1, 2 and 4 fail; the report is the receiver-by-receiver one
    report = run_simulation(F3_CLIQUE4, F3_G, SimulationConfig(trials="exhaustive"))
    assert report.per_receiver == {1: (405, 567), 2: (405, 567), 3: (567, 567),
                                   4: (405, 567)}
    assert report.witnesses == tuple(
        (1, x, {2: e}) for x in ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2),
                                 (0, 0, 1, 0), (0, 0, 1, 1)) for e in (1, 2))


def _decodes(spec, G, i, x, y, x_hat) -> bool:
    """One trial, decoded on its own: does receiver i recover its demand?"""
    try:
        value, _ = decode_receiver(G, spec.graph, i, y, x_hat, spec.delta_s)
    except (NoSolutionError, InconsistentError, DegenerateError):
        return False
    return value == x[spec.graph.f[i - 1] - 1]


def test_exhaustive_witnesses_in_receiver_then_message_order(monkeypatch):
    monkeypatch.setattr(simulation, "MAX_WITNESSES", 10 ** 6)
    report = run_simulation(F3_CLIQUE4, F3_G, SimulationConfig(trials="exhaustive"))
    expected = []
    for i in range(1, 5):
        cache = sorted(F3_CLIQUE4.graph.X[i - 1])
        for x in itertools.product(range(3), repeat=4):
            for positions, deltas in low_weight(len(cache), 3, 1):
                offsets = dict(zip(positions, deltas))
                x_hat = [x[j - 1] for j in cache]
                for pos, delta in offsets.items():
                    x_hat[pos] = (x_hat[pos] + delta) % 3
                if not _decodes(F3_CLIQUE4, F3_G, i, x, F3_G.vec_mul(x),
                                x_hat):
                    expected.append((i, x, offsets))
    assert report.witnesses == tuple(expected)
    assert {w[0] for w in expected} == {1, 2, 4}


def test_exhaustive_encodes_each_message_once(monkeypatch):
    encoded = []
    real = Matrix.vec_mul

    def counting(self, z):
        encoded.append(tuple(z))
        return real(self, z)

    monkeypatch.setattr(Matrix, "vec_mul", counting)
    run_simulation(F3_CLIQUE4, F3_G, SimulationConfig(trials="exhaustive"))
    assert encoded == list(itertools.product(range(3), repeat=4))


# -- one decode_receiver call per trial ----------------------------------------

@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("config", [EXHAUSTIVE, SimulationConfig(trials=300, seed=11)],
                         ids=["exhaustive", "random"])
def test_one_decode_receiver_call_per_trial(monkeypatch, q, config):
    # the traced benchmark checks decode_receiver calls against the trials
    # simulate reports; a batched shortcut must fail here first.  Over F_2
    # receiver 4's build fails (a zero demand row); over F_3 receivers
    # 1, 2 and 4 decode wrongly.  Failing trials count too.
    G = (Matrix(field_for(2), [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]])
         if q == 2 else F3_G)
    spec = ProblemSpec(graph=clique_graph(4), q=q, delta_s=1)
    calls = []
    real = simulation.decode_receiver

    def counting(G, graph, i, *args, **kwargs):
        calls.append(i)
        return real(G, graph, i, *args, **kwargs)

    monkeypatch.setattr(simulation, "decode_receiver", counting)
    report = run_simulation(spec, G, config)
    assert not report.ok
    assert {i: calls.count(i) for i in report.per_receiver} == {
        i: total for i, (_, total) in report.per_receiver.items()}
    assert len(calls) == sum(t for _, t in report.per_receiver.values())


# -- the simulation against a per-trial loop over the uncached decode ---------

def _reference_trial(spec, G, i, x, offsets):
    """Encode x, corrupt receiver i's cache by offsets and decode through
    the uncached route: (did the demand come out right, the witness)."""
    cache = sorted(spec.graph.X[i - 1])
    x_hat = [x[j - 1] for j in cache]
    for pos, delta in offsets.items():
        x_hat[pos] = spec.field.add(x_hat[pos], delta)
    try:
        value, _ = _reference_decode(G, spec.graph, i, G.vec_mul(x), x_hat,
                                     spec.delta_s)
        ok = value == x[spec.graph.f[i - 1] - 1]
    except (NoSolutionError, InconsistentError, DegenerateError):
        ok = False
    return ok, (i, x, offsets)


def _reference_variants(spec, i):
    """Receiver i's cache corruptions of weight <= delta_s, lightest first,
    then by positions, then by values."""
    size = len(spec.graph.X[i - 1])
    return [dict(zip(at, vals)) for t in range(spec.delta_s + 1)
            for at in itertools.combinations(range(size), t)
            for vals in itertools.product(range(1, spec.q), repeat=t)]


def _reference_draws(spec, config):
    """Random mode's (receiver, message, offsets) in trial order, drawn
    through randrange."""
    g = spec.graph
    rng = random.Random(config.seed)
    for _ in range(config.trials):
        i = rng.randrange(1, g.m + 1)
        x = tuple(rng.randrange(spec.q) for _ in range(g.n))
        variants = _reference_variants(spec, i)
        yield i, x, variants[rng.randrange(len(variants))]


def _reference_report(spec, G, config):
    """(per_receiver, witnesses) from one reference trial at a time."""
    g = spec.graph
    per = {i: [0, 0] for i in range(1, g.m + 1)}
    witnesses = []

    def count(ok, witness):
        per[witness[0]][0] += ok
        per[witness[0]][1] += 1
        if not ok:
            witnesses.append(witness)

    if config.trials == "exhaustive":
        for i in per:
            for x in itertools.product(range(spec.q), repeat=g.n):
                for offsets in _reference_variants(spec, i):
                    count(*_reference_trial(spec, G, i, x, offsets))
    else:
        for i, x, offsets in _reference_draws(spec, config):
            count(*_reference_trial(spec, G, i, x, offsets))
    return {i: tuple(c) for i, c in per.items()}, tuple(witnesses)


@pytest.mark.parametrize("delta_s", [0, 1, 2])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_simulation_matches_reference_trials(monkeypatch, q, delta_s):
    # random mode draws inline what randrange draws; the bounds it draws
    # below cover w = 1 (the empty cache, and every receiver at
    # delta_s = 0), powers of two (q = 8; m = 4 when q is 4 or 5) and
    # neither (m = 5 or 3, q = 7 or 9)
    monkeypatch.setattr(simulation, "MAX_WITNESSES", 10 ** 6)
    rng = random.Random(1000 * q + delta_s)
    n = 4 if q <= 3 else 3 if q <= 5 else 2
    caches = [sorted(rng.sample([j for j in range(1, n + 1) if j != i],
                                rng.randint(1, n - 1)))
              for i in range(1, n + 1)]
    # one receiver more, demanding packet 1 with an empty cache
    spec = ProblemSpec(graph=SideInfoGraph.make(n, [*range(1, n + 1), 1],
                                                caches + [[]]),
                       q=q, delta_s=delta_s)
    valid = optimal_length(spec)[1]
    invalid = valid
    while is_valid_generator(spec, invalid)[0]:
        invalid = Matrix(spec.field,
                         [[rng.randrange(q) for _ in range(valid.ncols)]
                          for _ in range(n)], ncols=valid.ncols)
    configs = (EXHAUSTIVE, SimulationConfig(trials=400, seed=rng.randrange(99)))
    outcomes = set()
    for G in (valid, invalid):
        for config in configs:
            report = run_simulation(spec, G, config)
            want = _reference_report(spec, G, config)
            assert (report.per_receiver, report.witnesses) == want
            outcomes.add((G is valid, report.ok))
    # the valid generator decodes every trial, the invalid one does not
    assert outcomes == {(True, True), (False, False)}


@pytest.mark.parametrize("q", [2, 3])
def test_random_encodes_each_message_once_per_block(monkeypatch, q):
    # a block's dict starts empty, so it never holds more than _BLOCK
    # messages; over F_2 the 16 messages repeat across blocks
    monkeypatch.setattr(simulation, "_BLOCK", 16)
    spec = ProblemSpec(graph=clique_graph(4), q=q, delta_s=1)
    G = Matrix.identity(spec.field, 4)
    config = SimulationConfig(trials=300, seed=5)
    encoded = []
    real = Matrix.vec_mul

    def counting(self, z):
        encoded.append(tuple(z))
        return real(self, z)

    monkeypatch.setattr(Matrix, "vec_mul", counting)
    run_simulation(spec, G, config)
    drawn = [x for _, x, _ in _reference_draws(spec, config)]
    want = [x for start in range(0, len(drawn), 16)
            for x in dict.fromkeys(drawn[start:start + 16])]
    assert encoded == want
    assert len(set(drawn)) < len(want) < len(drawn)


def test_huge_delta_s_counts_no_more_errors_than_cached_symbols():
    # every cache holds 3 packets, so delta_s past 3 admits nothing more;
    # the variant walk used to allocate one slot per unit of delta_s
    G = Matrix.identity(field_for(2), 4)
    reports = [run_simulation(ProblemSpec(graph=clique_graph(4), q=2,
                                          delta_s=ds), G, EXHAUSTIVE)
               for ds in (3, 10 ** 9)]
    assert reports[0] == reports[1]
    assert sum(t for _, t in reports[1].per_receiver.values()) == 16 * 4 * 8
