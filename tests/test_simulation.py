import pytest

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
