import itertools

import pytest

from icsie import simulation
from icsie.errors import BudgetExceededError, IcsieError
from icsie.gfield import field_for
from icsie.linalg import Matrix
from icsie.sigraph import ProblemSpec, SideInfoGraph, clique_graph
from icsie.simulation import SimulationConfig, run_simulation

EXHAUSTIVE = SimulationConfig(trials="exhaustive")


def test_budget_counts_messages_over_any_field():
    # F_5^3 has 125 messages, more than 2^6, although 3 symbols of
    # "2 bits" each would fit 6 bits
    n = 3
    spec = ProblemSpec(graph=SideInfoGraph.make(n, range(1, n + 1),
                                                [set()] * n),
                       q=5, delta_s=0)
    with pytest.raises(BudgetExceededError, match="375 simulation trials"):
        run_simulation(spec, Matrix.identity(field_for(5), n), EXHAUSTIVE,
                       budget_bits=6)


def test_budget_counts_receivers_and_side_errors():
    # 2^4 messages fit 4 bits, but 4 receivers x 4 side-error variants
    # make 2^8 trials
    spec = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)
    with pytest.raises(BudgetExceededError, match="256 simulation trials"):
        run_simulation(spec, Matrix.identity(field_for(2), 4), EXHAUSTIVE,
                       budget_bits=4)


def test_budget_is_exact_trial_count():
    # clique-4 over F_2 at delta_s = 1: 16 messages x 4 receivers x 4 variants
    spec = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)
    G = Matrix.identity(field_for(2), 4)
    report = run_simulation(spec, G, EXHAUSTIVE, budget_bits=8)
    assert sum(total for _, total in report.per_receiver.values()) == 2 ** 8
    with pytest.raises(BudgetExceededError):
        run_simulation(spec, G, EXHAUSTIVE, budget_bits=7)


def test_random_mode_trials_within_budget():
    spec = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)
    G = Matrix.identity(field_for(2), 4)
    report = run_simulation(spec, G, SimulationConfig(trials=2 ** 6), budget_bits=6)
    assert sum(total for _, total in report.per_receiver.values()) == 2 ** 6
    with pytest.raises(BudgetExceededError):
        run_simulation(spec, G, SimulationConfig(trials=2 ** 6 + 1), budget_bits=6)


@pytest.mark.parametrize("trials", [0, -5, "12", 2.5])
def test_trial_count_must_be_positive(trials):
    with pytest.raises(IcsieError, match="positive count"):
        SimulationConfig(trials=trials)


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


def test_exhaustive_witnesses_in_receiver_then_message_order(monkeypatch):
    monkeypatch.setattr(simulation, "MAX_WITNESSES", 10 ** 6)
    report = run_simulation(F3_CLIQUE4, F3_G, SimulationConfig(trials="exhaustive"))
    expected = []
    for i in range(1, 5):
        cache = sorted(F3_CLIQUE4.graph.X[i - 1])
        for x in itertools.product(range(3), repeat=4):
            for offsets in simulation._side_error_variants(F3_CLIQUE4, i):
                x_hat = [x[j - 1] for j in cache]
                for pos, delta in offsets.items():
                    x_hat[pos] = (x_hat[pos] + delta) % 3
                if not simulation._trial(F3_CLIQUE4, F3_G, i, x,
                                         F3_G.vec_mul(x), x_hat):
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
