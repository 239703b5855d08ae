"""Cycle structure of an instance and the bounds ledger.

A packet set B is compressible ("cycle-like") when every receiver
demanding inside B also caches more than 2*delta_s packets of B, the
cap ``ProblemSpec.side_weight_cap`` that every rule here reads; the
instance is acyclic exactly when no such set exists, which in turn
happens exactly when the code cannot beat the uncoded length n.

Compressible is the complement of support: a nonempty B is
compressible exactly when no interference vector has support B, i.e.
when ``codeset.interference_supports`` reads 0 at B's mask.  So one
table decides everything here: the table keeps which masks contain a
compressible set and gamma's mask, and the minimal cycles, acyclicity,
gamma, the delta_s-MAIS and the n - beta removal witness are all read
from there.  ``codeset`` keeps the last instance's table, so the
queries here, the error-free search and the validity test on one
instance build it once between them.

The bounds report gathers every bound the library knows how to compute
for one instance, each tagged with its provenance, and carries the
cycles, gamma witness and packing it read them from; its kwise entry
is ``encoder._kwise_length`` of the same table, and its exact optimum
and channel-error entries read ``encoder.core_length``, which searches
that table from its kwise.  The channel-error entries are
``encoder._gecic_bounds``, the bounds the channel-error search walks
between, gamma's own among them.  The edge-deletion bound reads support
tables too: one per deletion choice, built at delta_s = 0 by
``codeset.support_table``, each keeping its own gamma.  Each distinct
table is searched from the larger of its gamma and the best length so
far, and the search returns the larger of its start and the table's
optimum: the new best.  Every search here reads ``encoder.walk_memo``,
so a table walked before and still kept there is not walked again.

Each query checks the 2^n table against DEFAULT_SUBSET_BITS before it
reads it; the searches check their lengths against the encoder's
subspace budget, and the edge-deletion bound checks its number of
deletion choices against DEFAULT_DELETION_CHOICES before it builds a
table.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

from .codeset import (SupportTable, interference_supports, packet_mask,
                      receiver_masks, support_table)
from .encoder import (_check_subspace_budget, _gecic_bounds, _kwise_length,
                      _shortest_length, core_length, cycle_code)
from .errors import BudgetExceededError, NotUnipartiteError
from .linalg import Matrix, vector_space
from .sigraph import ProblemSpec

DEFAULT_SUBSET_BITS = 22
DEFAULT_DELETION_CHOICES = 10_000


@dataclass(frozen=True)
class CycleSet:
    packets: frozenset[int]
    receivers: tuple[int, ...]   # all i with f(i) in packets


def _packets(mask: int, n: int) -> frozenset[int]:
    return frozenset(j for j in range(1, n + 1) if mask >> (n - j) & 1)


def _supports(spec: ProblemSpec) -> SupportTable:
    """The instance's support table, once its 2^n masks are checked
    against the subset budget."""
    n = spec.graph.n
    if n > DEFAULT_SUBSET_BITS:
        raise BudgetExceededError(f"2^{n} subsets exceed the budget")
    return interference_supports(spec)


def find_cycles(spec: ProblemSpec) -> list[CycleSet]:
    """All minimal compressible packet sets, by size then lexicographically.

    A mask is a minimal compressible set when it contains a compressible
    set and none of its one-packet-smaller subsets does.  Among masks of
    one size, the lexicographic order of packet sets is descending mask
    order.
    """
    g = spec.graph
    n = g.n
    holds = _supports(spec).contains_compressible
    bits = [1 << k for k in range(n)]
    minimal = [s for s in range(1, 1 << n)
               if holds[s] and not any(holds[s ^ b] for b in bits if s & b)]
    minimal.sort(key=lambda s: (s.bit_count(), -s))
    cycles = [_packets(s, n) for s in minimal]
    return [CycleSet(packets=B,
                     receivers=tuple(i for i in range(1, g.m + 1)
                                     if g.f[i - 1] in B))
            for B in cycles]


def is_acyclic(spec: ProblemSpec) -> bool:
    return not _supports(spec).contains_compressible[-1]


def _packing(cycles: list[frozenset[int]]) -> tuple[int, list[frozenset[int]]]:
    """Exact set packing over the minimal compressible sets; any packing
    by larger members can be shrunk to one by minimal members, so this
    is lossless."""
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


def max_disjoint_cycles(spec: ProblemSpec) -> tuple[int, list[frozenset[int]]]:
    """Maximum number of pairwise-disjoint compressible sets, with a witness."""
    return _packing([c.packets for c in find_cycles(spec)])


def gamma(spec: ProblemSpec) -> tuple[int, frozenset[int]]:
    """Largest packet set all of whose nonempty subsets are supports of
    interference vectors, with the lexicographically first witness; its
    size lower-bounds the optimal codelength.

    Those are the masks that contain no compressible set; the support
    table keeps the one it reads.
    """
    best = _supports(spec).gamma_mask
    return best.bit_count(), _packets(best, spec.graph.n)


def delta_s_mais(spec: ProblemSpec) -> int:
    """Largest packet subset whose induced sub-instance is acyclic.

    Defined for the unipartite case (m = n, f(i) = i).  A compressible
    set inside Q is one of the sub-instance on Q, so Q is acyclic
    exactly when its mask contains no compressible set: this is
    gamma's size.
    """
    if not spec.graph.is_unipartite():
        raise NotUnipartiteError("maximum acyclic induced subgraph needs m = n, f(i) = i")
    return gamma(spec)[0]


# ---------------------------------------------------------------------------
# bounds report

@dataclass(frozen=True)
class BoundEntry:
    kind: str          # "lower" | "upper" | "exact"
    value: int
    target: str        # "icsie" | "gecic"
    provenance: str


@dataclass(frozen=True)
class BoundsReport:
    entries: dict[str, BoundEntry] = field(default_factory=dict)
    n_opt: int | None = None           # exact error-free optimum when computed
    notes: tuple[str, ...] = ()
    # the structure the entries were read from; not part of to_json
    cycles: tuple[CycleSet, ...] = ()              # minimal compressible sets
    gamma_witness: frozenset[int] = frozenset()
    packing: tuple[frozenset[int], ...] = ()       # beta = len(packing)

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
                       "provenance": e.provenance}
                for name, e in sorted(self.entries.items())
            },
            "notes": list(self.notes),
        }
        return json.dumps(doc, indent=1)


def edge_deletion_bound(spec: ProblemSpec) -> int:
    """Best error-free-conventional lower bound over cache-edge deletions.

    Every way of deleting min(side_weight_cap(), |X_i|) cache edges per
    receiver yields a conventional instance (delta_s = 0) whose optimum
    lower-bounds ours, so the maximum over all deletions is the bound.
    More than DEFAULT_DELETION_CHOICES choices raise BudgetExceededError
    before any table is built.

    A reduced instance's optimum depends only on q and its support table,
    so each choice's table is built from the shrunken cache masks, and
    each distinct table is looked at once, in the order the choices first
    give it, keeping the best length so far, best.  Each table is
    searched from max(best, its gamma), and ``_shortest_length`` returns
    the larger of its start and the table's optimum (gamma is a lower
    bound on that optimum: every nonzero z supported inside the gamma
    set interferes, so G's rows there are independent).  That is the
    new best, so the maximum is the one a full search of every table
    gives.  A table whose optimum is at most best costs one walk, at
    length best.  One cache of candidate rows serves all the walks, and
    a table's walk made by an earlier call is read from
    ``encoder.walk_memo``.  The budget of the first length is checked
    before the first table is built, and each length walked is checked
    when it is walked, memo or not.
    """
    g, cap = spec.graph, spec.side_weight_cap()
    n = g.n
    per_receiver = [list(itertools.combinations(sorted(X), min(cap, len(X))))
                    for X in g.X]
    total = math.prod(len(c) for c in per_receiver)
    _check_subspace_budget(n, n - 1, spec.q)
    if total > DEFAULT_DELETION_CHOICES:
        raise BudgetExceededError(
            f"{total} edge-deletion choices exceed the budget")
    receivers = receiver_masks(g)
    vectors = vector_space(spec.field, n)
    rows_of: dict = {}
    searched: set[SupportTable] = set()
    best = 0
    for choices in itertools.product(*per_receiver):
        kept = {(fm, xm & ~packet_mask(drop, n))
                for (fm, xm), drop in zip(receivers, choices)}
        table = support_table(n, kept, 0)
        if table in searched:
            continue
        searched.add(table)
        best = _shortest_length(
            vectors, table, max(best, table.gamma_mask.bit_count()),
            rows_of)[0]
    return best


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

    The structure entries (gamma, kwise, n, n_minus_beta) and the
    cycles, gamma witness and packing the report carries all come from
    one support table, whose subset budget is fatal: BudgetExceededError
    propagates; kwise itself never raises (``encoder._kwise_length``).
    The searched entries (edge deletion, the exact optimum, which is
    ``encoder.core_length``, and the channel-error bounds) record a
    budget failure as a note instead, so every entry recorded is proved.
    With delta_c > 0 the channel-error entries are those of
    ``encoder._gecic_bounds`` over the error-free optimum n0 and the
    report's gamma: gecic_lower = n0 + 2 delta_c, gecic_gamma =
    l_q(q, gamma, 2 delta_c + 1) and gecic_upper = l_q(q, n0,
    2 delta_c + 1); the channel-error search starts at the larger lower
    one.  They are recorded together or, past l_q's budget, not at all.
    Entries targeting the error-free problem and the channel-error
    problem are kept apart; consistency is enforced within each target.
    """
    g = spec.graph
    entries: dict[str, BoundEntry] = {}
    notes: list[str] = []

    table = _supports(spec)
    holds = table.contains_compressible
    cycles = find_cycles(spec)
    gam, gamma_witness = gamma(spec)
    entries["gamma"] = BoundEntry(
        "lower", gam, "icsie", "independence-number lower bound")
    entries["kwise"] = BoundEntry(
        "lower", _kwise_length(table, spec.q), "icsie",
        "each packet set's rows are k-wise independent")

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

    beta, packing = _packing([c.packets for c in cycles])
    acyclic = beta == 0
    entries["n"] = BoundEntry(
        "exact" if acyclic else "upper", g.n, "icsie",
        "no compressible set: uncoded is optimal" if acyclic
        else "uncoded upper bound")
    if not acyclic:
        # does some removal R of one packet per packed set break every
        # cycle?  A compressible set of the instance without R is one of
        # the original that misses R.
        full = (1 << g.n) - 1
        cor1_exact = any(not holds[full & ~packet_mask(removal, g.n)]
                         for removal in itertools.product(*packing))
        entries["n_minus_beta"] = BoundEntry(
            "exact" if cor1_exact else "upper", g.n - beta, "icsie",
            "disjoint compressible sets"
            + (", removal witness leaves no cycle: tight" if cor1_exact else ""))

    try:
        entries["edge_deletion_lower"] = BoundEntry(
            "lower", edge_deletion_bound(spec), "icsie",
            "worst conventional instance after cache-edge deletion")
    except BudgetExceededError as exc:
        notes.append(f"edge_deletion_lower skipped: {exc}")

    n_opt = None
    if compute_exact:
        try:
            n_opt = core_length(spec)
        except BudgetExceededError as exc:
            notes.append(f"exact error-free optimum skipped: {exc}")

    if spec.delta_c > 0:
        try:
            base_n = n_opt if n_opt is not None else core_length(spec)
            (sphere, alpha), upper = _gecic_bounds(spec.q, base_n, gam,
                                                   spec.delta_c)
            entries["gecic_lower"] = BoundEntry(
                "lower", sphere, "gecic",
                "channel errors cost two coordinates each on top of the "
                "error-free optimum")
            entries["gecic_gamma"] = BoundEntry(
                "lower", alpha, "gecic",
                "the gamma set's rows generate a classical code of "
                "distance at least 2 delta_c + 1")
            entries["gecic_upper"] = BoundEntry(
                "upper", upper, "gecic",
                "re-encode the error-free optimum with a classical code")
        except BudgetExceededError as exc:
            notes.append(f"gecic bounds skipped: {exc}")

    return BoundsReport(entries=entries, n_opt=n_opt, notes=tuple(notes),
                        cycles=tuple(cycles), gamma_witness=gamma_witness,
                        packing=tuple(packing))
