"""Every work budget is a module constant that its routine reads when it
is called, and no public function takes one as a parameter."""

import importlib
import inspect
import pkgutil

import pytest

import conftest
import icsie
from icsie import codeset, decoder, encoder, simulation, structure
from icsie.decoder import decode_receiver, receiver_decoder
from icsie.encoder import (core_length, l_q, min_distance_from_parity,
                           minrank, optimal_length)
from icsie.errors import BudgetExceededError
from icsie.gfield import field_for
from icsie.linalg import Matrix
from icsie.sigraph import ProblemSpec, clique_graph
from icsie.simulation import SimulationConfig, run_simulation
from icsie.structure import (bounds_report, delta_s_mais,
                             edge_deletion_bound, find_cycles, gamma,
                             is_acyclic, max_disjoint_cycles)

from conftest import enum_interference, ind_q

F2 = field_for(2)
CLIQUE4 = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)
G4 = Matrix(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
# parity checks of the [7, 4, 3] Hamming code
HAMMING = Matrix(F2, [[1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 1],
                      [0, 0, 0, 1, 1, 1, 1]])


def _decode():
    receiver_decoder.cache_clear()     # a built decoder would be reused
    return decode_receiver(G4, CLIQUE4.graph, 1, G4.vec_mul((1, 0, 1, 1)),
                           (0, 1, 1), 1)


def _l_q():
    l_q.cache_clear()                  # a cached answer would be returned
    return l_q(2, 4, 5)


# (module, constant, a value small enough to refuse, the calls it refuses)
BUDGETS = [
    (codeset, "DEFAULT_ENUM_BITS", 3,
     [lambda: codeset.is_valid_generator(CLIQUE4, G4),
      lambda: list(enum_interference(CLIQUE4)),
      lambda: codeset.interference_masks(CLIQUE4)]),
    (codeset, "DEFAULT_PAIR_BITS", 7,
     [lambda: codeset.oracle_decodable(CLIQUE4, G4)]),
    (encoder, "DEFAULT_FREE_BITS", 11, [lambda: minrank(CLIQUE4)]),
    (encoder, "DEFAULT_MULTISET_BITS", 10, [_l_q]),
    (encoder, "DEFAULT_LEN_CAP", 10, [_l_q]),
    (encoder, "DEFAULT_SUBSPACE_BUDGET", 4,
     [lambda: optimal_length(CLIQUE4), lambda: core_length(CLIQUE4),
      lambda: edge_deletion_bound(CLIQUE4)]),
    (encoder, "DEFAULT_COMBO_BUDGET", 10,
     [lambda: optimal_length(ProblemSpec(graph=clique_graph(3), q=2,
                                         delta_s=0, delta_c=1))]),
    (encoder, "DEFAULT_CODEBOOK_BITS", 3,
     [lambda: min_distance_from_parity(HAMMING)]),
    # the test side's ind_q, the independent check of r_q, keeps its own
    (conftest, "DEFAULT_IND_BITS", 3, [lambda: ind_q(2, 4, 2)]),
    (structure, "DEFAULT_SUBSET_BITS", 3,
     [lambda: find_cycles(CLIQUE4), lambda: is_acyclic(CLIQUE4),
      lambda: max_disjoint_cycles(CLIQUE4), lambda: gamma(CLIQUE4),
      lambda: delta_s_mais(CLIQUE4), lambda: bounds_report(CLIQUE4)]),
    # clique-4 at delta_s = 1 has 3^4 = 81 deletion choices
    (structure, "DEFAULT_DELETION_CHOICES", 10,
     [lambda: edge_deletion_bound(CLIQUE4)]),
    (simulation, "DEFAULT_TRIAL_BITS", 7,
     [lambda: run_simulation(CLIQUE4, G4,
                             SimulationConfig(trials="exhaustive"))]),
    (decoder, "COSET_CANDIDATE_BUDGET", 3, [_decode]),
]


@pytest.mark.parametrize("module, name, small, calls", BUDGETS,
                         ids=[name for _, name, _, _ in BUDGETS])
def test_each_budget_constant_is_read_when_its_routine_runs(
        monkeypatch, module, name, small, calls):
    for call in calls:
        call()                         # in budget as shipped
    monkeypatch.setattr(module, name, small)
    for call in calls:
        with pytest.raises(BudgetExceededError):
            call()


def test_l_q_keeps_answers_across_a_budget_change(monkeypatch):
    # only refusals depend on the budget, and they are never cached
    l_q.cache_clear()
    assert l_q(2, 4, 5) == 11
    monkeypatch.setattr(encoder, "DEFAULT_MULTISET_BITS", 10)
    assert l_q(2, 4, 5) == 11
    with pytest.raises(BudgetExceededError):
        l_q(2, 5, 5)


def _public_functions():
    for info in pkgutil.iter_modules(icsie.__path__):
        module = importlib.import_module(f"icsie.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != module.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member
            elif callable(obj):
                yield f"{module.__name__}.{name}", obj


def test_public_functions_default_only_these_parameters():
    defaulted = sorted(
        f"{where}({param.name})" for where, fn in _public_functions()
        for param in inspect.signature(fn).parameters.values()
        if param.default is not inspect.Parameter.empty)
    assert defaulted == [
        "icsie.decoder.ReceiverDecoder.decode(forced_correction)",
        "icsie.decoder.decode_receiver(forced_correction)",
        "icsie.structure.bounds_report(compute_exact)"]
