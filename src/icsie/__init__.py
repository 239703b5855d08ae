"""Index codes that tolerate erroneous side information.

Linear index codes over small finite fields for broadcast instances
where each receiver's cached packets may be partly wrong: validity
checking, exact optimal-codelength search, syndrome decoding, cycle
structure analysis and codelength bounds, all at brute-force-verifiable
scale.
"""

from .codeset import is_valid_generator, oracle_decodable
from .decoder import decode_all, decode_receiver
from .encoder import (cycle_code, ind_q, l_q, minrank, optimal_length,
                      parse_generator, serialize_generator)
from .gfield import Field, field_for
from .linalg import Matrix
from .sigraph import (ProblemSpec, SideInfoGraph, clique_graph,
                      parse_instance, serialize_instance)
from .simulation import SimulationConfig, SimulationReport, run_simulation
from .structure import (bounds_report, delta_s_mais, find_cycles, gamma,
                        is_acyclic, max_disjoint_cycles)

__version__ = "0.1.0"

# the GF(2) kernels are pure Python; the benchmark records this name
KERNEL_BACKEND = "pure"

__all__ = [
    "Field", "field_for", "Matrix", "SideInfoGraph", "ProblemSpec",
    "clique_graph", "parse_instance", "serialize_instance",
    "is_valid_generator", "oracle_decodable",
    "minrank", "optimal_length", "cycle_code", "ind_q", "l_q",
    "serialize_generator", "parse_generator",
    "decode_receiver", "decode_all",
    "SimulationConfig", "SimulationReport", "run_simulation",
    "find_cycles", "is_acyclic", "max_disjoint_cycles", "gamma",
    "delta_s_mais", "bounds_report",
    "KERNEL_BACKEND", "__version__",
]
