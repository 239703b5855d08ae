"""Cycle structure of an instance and the bounds ledger.

A packet set B is compressible ("cycle-like") when every receiver
demanding inside B also caches more than 2*delta_s packets of B, the
cap ``ProblemSpec.side_weight_cap`` that every rule here reads; the
instance is acyclic exactly when no such set exists, which in turn
happens exactly when the code cannot beat the uncoded length n.

The bounds report gathers every bound the library knows how to compute
for one instance, each tagged with its provenance and whether it was
certified exhaustively or only sampled.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field, replace

from .codeset import in_support_family
from .encoder import cycle_code, l_q, optimal_length
from .errors import BudgetExceededError, NotUnipartiteError
from .linalg import Matrix
from .sigraph import ProblemSpec, SideInfoGraph

DEFAULT_SUBSET_BITS = 22
EDGE_DELETION_EXHAUSTIVE_CAP = 10_000
EDGE_DELETION_SAMPLES = 64
EDGE_DELETION_SEED = 0x1C51E


@dataclass(frozen=True)
class CycleSet:
    packets: frozenset[int]
    receivers: tuple[int, ...]   # all i with f(i) in packets


def _cycle_condition(graph: SideInfoGraph, cap: int, B: frozenset[int]) -> bool:
    """Does every receiver demanding inside B cache more than
    cap = side_weight_cap() packets of B?  Then B compresses."""
    for i in range(1, graph.m + 1):
        if graph.f[i - 1] in B and len(graph.X[i - 1] & B) <= cap:
            return False
    return True


def _check_subset_budget(n: int, budget_bits: int) -> None:
    if n > budget_bits:
        raise BudgetExceededError(f"2^{n} subsets exceed the budget")


def find_cycles(spec: ProblemSpec,
                budget_bits: int = DEFAULT_SUBSET_BITS) -> list[CycleSet]:
    """All minimal compressible packet sets, by size then lexicographically."""
    g = spec.graph
    _check_subset_budget(g.n, budget_bits)
    cap = spec.side_weight_cap()
    members: list[frozenset[int]] = []
    packets = list(range(1, g.n + 1))
    for size in range(1, g.n + 1):
        for B in itertools.combinations(packets, size):
            Bf = frozenset(B)
            if any(m <= Bf for m in members):
                continue
            if _cycle_condition(g, cap, Bf):
                members.append(Bf)
    return [CycleSet(packets=B,
                     receivers=tuple(i for i in range(1, g.m + 1)
                                     if g.f[i - 1] in B))
            for B in members]


def is_acyclic(spec: ProblemSpec, budget_bits: int = DEFAULT_SUBSET_BITS) -> bool:
    return not find_cycles(spec, budget_bits)


def _acyclic_on_subset(graph: SideInfoGraph, cap: int, Q: frozenset[int]) -> bool:
    """Is the sub-instance induced on packet set Q free of compressible
    sets?  Each has a demand plus more than cap cached packets."""
    for size in range(cap + 2, len(Q) + 1):
        for B in itertools.combinations(sorted(Q), size):
            if _cycle_condition(graph, cap, frozenset(B)):
                return False
    return True


def max_disjoint_cycles(spec: ProblemSpec,
                        budget_bits: int = DEFAULT_SUBSET_BITS
                        ) -> tuple[int, list[frozenset[int]]]:
    """Maximum number of pairwise-disjoint compressible sets, with a witness.

    Exact set packing over the minimal members; any packing by larger
    members can be shrunk to one by minimal members, so this is lossless.
    """
    cycles = [c.packets for c in find_cycles(spec, budget_bits)]
    best: list[frozenset[int]] = []

    def walk(idx: int, chosen: list[frozenset[int]], used: frozenset[int]) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if len(chosen) + (len(cycles) - idx) <= len(best):
            return
        for j in range(idx, len(cycles)):
            if not (cycles[j] & used):
                chosen.append(cycles[j])
                walk(j + 1, chosen, used | cycles[j])
                chosen.pop()

    walk(0, [], frozenset())
    return len(best), best


def gamma(spec: ProblemSpec,
          budget_bits: int = DEFAULT_SUBSET_BITS) -> tuple[int, frozenset[int]]:
    """Largest packet set all of whose nonempty subsets are supports of
    interference vectors; its size lower-bounds the optimal codelength."""
    g = spec.graph
    _check_subset_budget(g.n, budget_bits)
    packets = list(range(1, g.n + 1))
    for size in range(g.n, 0, -1):
        for Q in itertools.combinations(packets, size):
            if all(in_support_family(spec, K)
                   for t in range(1, size + 1)
                   for K in itertools.combinations(Q, t)):
                return size, frozenset(Q)
    return 0, frozenset()


def delta_s_mais(spec: ProblemSpec,
                 budget_bits: int = DEFAULT_SUBSET_BITS) -> int:
    """Largest packet subset whose induced sub-instance is acyclic.

    Defined for the unipartite case (m = n, f(i) = i), where it coincides
    with gamma(): Q is acyclic iff every nonempty K within Q has a
    receiver demanding in K that caches at most side_weight_cap()
    packets of K, i.e. K is in the support family.
    """
    g = spec.graph
    if not g.is_unipartite():
        raise NotUnipartiteError("maximum acyclic induced subgraph needs m = n, f(i) = i")
    _check_subset_budget(g.n, budget_bits)
    cap = spec.side_weight_cap()
    packets = list(range(1, g.n + 1))
    for size in range(g.n, 0, -1):
        for Q in itertools.combinations(packets, size):
            if _acyclic_on_subset(g, cap, frozenset(Q)):
                return size
    return 0


# ---------------------------------------------------------------------------
# bounds report

@dataclass(frozen=True)
class BoundEntry:
    kind: str          # "lower" | "upper" | "exact"
    value: int
    target: str        # "icsie" | "gecic"
    provenance: str
    certified: bool = True


@dataclass(frozen=True)
class BoundsReport:
    entries: dict[str, BoundEntry] = field(default_factory=dict)
    n_opt: int | None = None           # exact error-free optimum when computed
    notes: tuple[str, ...] = ()

    def lower(self, target: str) -> int | None:
        vals = [e.value for e in self.entries.values()
                if e.target == target and e.kind in ("lower", "exact")]
        return max(vals) if vals else None

    def upper(self, target: str) -> int | None:
        vals = [e.value for e in self.entries.values()
                if e.target == target and e.kind in ("upper", "exact")]
        return min(vals) if vals else None

    def consistent(self) -> bool:
        """lower <= upper per target, with n_opt between the icsie bounds."""
        for target in ("icsie", "gecic"):
            exact = self.n_opt if target == "icsie" else None
            known = [v for v in (self.lower(target), exact, self.upper(target))
                     if v is not None]
            if known != sorted(known):
                return False
        return True

    def to_json(self) -> str:
        doc = {
            "n_opt": self.n_opt,
            "entries": {
                name: {"kind": e.kind, "value": e.value, "target": e.target,
                       "provenance": e.provenance, "certified": e.certified}
                for name, e in sorted(self.entries.items())
            },
            "notes": list(self.notes),
        }
        return json.dumps(doc, indent=1)


def edge_deletion_bound(spec: ProblemSpec,
                        exhaustive_cap: int = EDGE_DELETION_EXHAUSTIVE_CAP,
                        samples: int = EDGE_DELETION_SAMPLES,
                        seed: int = EDGE_DELETION_SEED) -> tuple[int, bool]:
    """Best error-free-conventional lower bound over cache-edge deletions.

    Every way of deleting min(side_weight_cap(), |X_i|) cache edges per
    receiver yields a conventional instance whose optimum lower-bounds
    ours, so the maximum over deletions is wanted.  Exhaustive when the choice
    space is small; otherwise a deterministic sample, still a valid
    lower bound but flagged uncertified.
    """
    g, cap = spec.graph, spec.side_weight_cap()
    per_receiver = [list(itertools.combinations(sorted(X), min(cap, len(X))))
                    for X in g.X]
    total = math.prod(len(c) for c in per_receiver)
    if total <= exhaustive_cap:
        choice_iter = itertools.product(*per_receiver)
        certified = True
    else:
        rng = random.Random(seed)
        choice_iter = ([choices[rng.randrange(len(choices))]
                        for choices in per_receiver]
                       for _ in range(samples))
        certified = False
    reduced = (g.delete_side_edges({i + 1: set(c) for i, c in enumerate(choices)})
               for choices in choice_iter)
    best = max(optimal_length(ProblemSpec(graph=r, q=spec.q, delta_s=0))[0]
               for r in reduced)
    return best, certified


def packing_generator(spec: ProblemSpec) -> Matrix:
    """Length n - beta generator: one bidiagonal block per disjoint
    compressible set, identity on the remaining packets."""
    g = spec.graph
    fieldq = spec.field
    beta, packing = max_disjoint_cycles(spec)
    covered = set().union(*packing) if packing else set()
    blocks: list[tuple[list[int], Matrix]] = []
    for B in packing:
        order = sorted(B)
        blocks.append((order, cycle_code(fieldq, len(order), spec.delta_s)))
    singles = [j for j in range(1, g.n + 1) if j not in covered]
    ncols = sum(len(o) - 1 for o, _ in blocks) + len(singles)
    rows = [[0] * ncols for _ in range(g.n)]
    col0 = 0
    for order, block in blocks:
        for r, j in enumerate(order):
            for c in range(block.ncols):
                rows[j - 1][col0 + c] = block.rows[r][c]
        col0 += block.ncols
    for j in singles:
        rows[j - 1][col0] = 1
        col0 += 1
    return Matrix(fieldq, rows, ncols=ncols)


def bounds_report(spec: ProblemSpec,
                  compute_exact: bool = True) -> BoundsReport:
    """Assemble every known lower/upper bound for the instance.

    Per-entry budget failures are recorded as notes, never fatal.
    Entries targeting the error-free problem and the channel-error
    problem are kept apart; consistency is enforced within each target.
    """
    g = spec.graph
    entries: dict[str, BoundEntry] = {}
    notes: list[str] = []
    base = replace(spec, delta_c=0)

    gam, _ = gamma(base)
    entries["gamma"] = BoundEntry(
        "lower", gam, "icsie", "independence-number lower bound")

    cap = spec.side_weight_cap()
    S = {g.f[i - 1] for i in range(1, g.m + 1) if len(g.X[i - 1]) <= cap}
    # an undemanded packet may get a zero row: only a demanded one adds a dimension
    if set(g.f) - S:
        entries["S_plus_1"] = BoundEntry(
            "lower", len(S) + 1, "icsie",
            "receivers with caches within the error budget force "
            "independent rows")
    else:
        entries["S_plus_1"] = BoundEntry(
            "exact", len(S), "icsie", "every demand row independent: uncoded")

    beta, packing = max_disjoint_cycles(base)
    acyclic = beta == 0
    entries["n"] = BoundEntry(
        "exact" if acyclic else "upper", g.n, "icsie",
        "no compressible set: uncoded is optimal" if acyclic
        else "uncoded upper bound")
    cor1_exact = False
    if not acyclic:
        # does some removal of one packet per packed set break every cycle?
        for removal in itertools.product(*(sorted(B) for B in packing)):
            reduced, _ = g.delete_packets(set(removal))
            if is_acyclic(replace(base, graph=reduced)):
                cor1_exact = True
                break
        entries["n_minus_beta"] = BoundEntry(
            "exact" if cor1_exact else "upper", g.n - beta, "icsie",
            "disjoint compressible sets"
            + (", removal witness leaves no cycle: tight" if cor1_exact else ""))

    try:
        edge_val, certified = edge_deletion_bound(spec)
        entries["edge_deletion_lower"] = BoundEntry(
            "lower", edge_val, "icsie",
            "worst conventional instance after cache-edge deletion",
            certified=certified)
    except BudgetExceededError as exc:
        notes.append(f"edge_deletion_lower skipped: {exc}")

    n_opt = None
    if compute_exact:
        try:
            n_opt, _ = optimal_length(base)
        except BudgetExceededError as exc:
            notes.append(f"exact error-free optimum skipped: {exc}")

    if spec.delta_c > 0:
        try:
            base_n = n_opt if n_opt is not None else optimal_length(base)[0]
            entries["gecic_lower"] = BoundEntry(
                "lower", base_n + 2 * spec.delta_c, "gecic",
                "channel errors cost two coordinates each on top of the "
                "error-free optimum")
            entries["gecic_upper"] = BoundEntry(
                "upper", l_q(spec.q, base_n, 2 * spec.delta_c + 1), "gecic",
                "re-encode the error-free optimum with a classical code")
        except BudgetExceededError as exc:
            notes.append(f"gecic bounds skipped: {exc}")

    return BoundsReport(entries=entries, n_opt=n_opt, notes=tuple(notes))
