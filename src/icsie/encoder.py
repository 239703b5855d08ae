"""Code construction and exact optimal-codelength search.

Two exact routes to the optimal length are implemented and must agree:

* ``minrank`` -- minimum rank over all completions of the structured
  column template derived from the side-information graph (one column
  per receiver per choice of 2*delta_s cache positions forced to zero).
  It walks the completions depth first, column by column, cutting a
  branch whose span already reaches the best rank and skipping a
  completion that reaches a (span, column) state an earlier sibling
  reached: a kept row, reduced with its pivot scaled to 1, names the
  span it grows to, and the first subtree of a state leaves best at
  most every rank reachable from it, so a repeat records nothing.  At
  rank best - 1 it stops branching and settles the rest column by
  column, each taking its lexicographically first completion inside
  the current span, found by elimination (``RowSpan.first_completion``)
  instead of by trying completions in order.
* ``optimal_length`` -- direct search for the shortest valid generator.
  With no channel errors, validity of G depends only on its column
  space, so the search looks for the largest subspace avoiding the
  interference set (G's null space).  It walks RREF bases depth first,
  one row at a time, keeping the span of the rows chosen so far and
  cutting a partial basis, with all its completions, as soon as its
  span meets the interference set; membership is one lookup in the
  instance's support table, ``codeset.interference_supports``, which
  the validity test and the structure queries read too.  The lengths
  walked start at kwise, the k-wise independence bound kept on the
  same table (``_kwise_length``, at least gamma): on every packet set
  B, each nonzero z supported in B with at most k(B) nonzero entries
  interferes, so G's rows on B are k(B)-wise independent and no length
  below kwise is feasible.  One length's walk alone decides whether the
  optimum is at most that length, so a search started at a length no
  higher than the optimum still returns it, and one started higher
  returns the larger of the two; ``structure.edge_deletion_bound``
  starts each table's search at the larger of its gamma and its best
  length so far that way.  With channel errors, codeword weights
  matter and the search runs over multisets of projective columns
  instead.  Its lengths start at the larger of two lower bounds,
  n0 + 2*delta_c over the delta_c = 0 optimum n0 and the gamma bound
  l_q(gamma, 2*delta_c + 1), and stop at the upper bound
  l_q(n0, 2*delta_c + 1); ``_gecic_bounds`` is the one definition of
  all three, and ``structure.bounds_report`` reads its channel-error
  entries from it too.

The channel-error search and l_q share one multiset walk,
``_first_column_multiset``: an interference representative needs
wt(zG) >= 2*delta_c + 1, a message m of a systematic [I | P] needs
d - wt(m) from the parity columns.  The walk places columns depth
first and keeps every z's hit count in saturating bit-slices over the
z, one big-int per count, cutting a branch as soon as some z can no
longer reach its need with the columns left; it asks no weight test.

Both walks read nothing of the instance but one table (the support
table, or the needs of the projective points) and a length, so each
result is kept in one bounded memo, ``walk_memo``, keyed by exactly
that: a sweep whose instances share tables walks each table once per
length.  The budget of a length is checked before the memo is read.

All of these work over any F_q through one seam,
``linalg.vector_space``: how vectors are packed, added, scaled and
multiplied is decided there, once, and nothing here tests q itself.
minrank's incremental rank and ``independent_columns`` are
``linalg.RowSpan``, the one row reduction, which also gives the
witnesses' null spaces.

``optimum`` is the one place the two routes meet: it runs one of them
or both, and with both it checks minrank's length against the direct
search's, or, since ``minrank`` covers the error-free channel only,
against ``core_length``, the optimum of the delta_c = 0 core, when
delta_c > 0.  A disagreement raises ``MismatchError``.

Also here: the bidiagonal cycle code, the parity-check-transpose
construction for cliques, and the classical-code quantities l_q and
r_q, the least redundancy, which kwise reads.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache

from .codeset import (_check_enum_budget, interference_supports,
                      is_valid_generator)
from .errors import (BudgetExceededError, CycleTooSmallError,
                     DistanceTooSmallError, IcsieError, MismatchError,
                     ParseError)
from .gfield import Field, field_for
from .linalg import Matrix, RowSpan, vector_space
from .sigraph import ProblemSpec, clique_graph, is_integer

DEFAULT_FREE_BITS = 24          # minrank's free positions, in bits
DEFAULT_MULTISET_BITS = 24      # l_q's parity multisets per length, in bits
DEFAULT_SUBSPACE_BUDGET = 1 << 22
DEFAULT_COMBO_BUDGET = 1 << 22
DEFAULT_CODEBOOK_BITS = 20     # min_distance_from_parity's codewords, in bits
DEFAULT_LEN_CAP = 15
WALK_MEMO_BYTES = 1 << 24       # bytes charged to the walk memo's tables


# ---------------------------------------------------------------------------
# fitting template

@dataclass(frozen=True)
class TemplateColumn:
    receiver: int
    chosen: tuple[int, ...]    # cache positions forced to zero
    one_pos: int               # demanded packet, forced to one
    zero_pos: tuple[int, ...]  # chosen positions plus the interference set
    free_pos: tuple[int, ...]  # remaining cache positions, ascending


@dataclass(frozen=True)
class FittingTemplate:
    n: int
    columns: tuple[TemplateColumn, ...]

    def free_count(self) -> int:
        return sum(len(c.free_pos) for c in self.columns)


def fitting_template(spec: ProblemSpec) -> FittingTemplate:
    """Column descriptors of the structured matrices fitting the graph.

    Receiver i contributes one column per way of choosing side_weight_cap()
    of its cached packets (a single column when the cache is smaller).
    """
    g = spec.graph
    t = spec.side_weight_cap()
    cols = []
    for i in range(1, g.m + 1):
        cache = sorted(g.X[i - 1])
        y = sorted(g.y_set(i))
        chooses = itertools.combinations(cache, t) if len(cache) >= t else [tuple(cache)]
        for chosen in chooses:
            free = tuple(j for j in cache if j not in chosen)
            cols.append(TemplateColumn(
                receiver=i, chosen=tuple(chosen), one_pos=g.f[i - 1],
                zero_pos=tuple(sorted(set(chosen) | set(y))), free_pos=free))
    return FittingTemplate(n=g.n, columns=tuple(cols))


def template_column_vector(field: Field, n: int, col: TemplateColumn,
                           values) -> tuple[int, ...]:
    v = [0] * n
    v[col.one_pos - 1] = 1
    for pos, val in zip(col.free_pos, values, strict=True):
        v[pos - 1] = field.check(val)
    return tuple(v)


def complete_template(spec: ProblemSpec, assignment) -> Matrix:
    """Full fitting matrix for a flat tuple of free-position values."""
    return _completed(spec.field, fitting_template(spec), assignment)


def _completed(field: Field, tmpl: FittingTemplate, assignment) -> Matrix:
    """complete_template on a template already built."""
    vecs = []
    k = 0
    for col in tmpl.columns:
        vals = assignment[k:k + len(col.free_pos)]
        k += len(col.free_pos)
        vecs.append(template_column_vector(field, tmpl.n, col, vals))
    return Matrix(field, zip(*vecs), ncols=len(vecs))


def independent_columns(M: Matrix) -> Matrix:
    """A maximal independent subset of M's columns, first-come order.

    Removing dependent columns from a completed fitting matrix yields a
    generator of the same column space, hence still valid.
    """
    span = RowSpan(M.field)
    keep = [c for c in M.columns() if span.push(c)]
    return Matrix(M.field, zip(*keep), ncols=len(keep))


def minrank(spec: ProblemSpec) -> tuple[int, Matrix]:
    """Exact minimum rank over all completions of the fitting template.

    Depth-first over columns in template order, free values assigned
    lexicographically; a branch is cut as soon as its partial column
    span already reaches the best rank found.  Returns the minimum and
    the first completion attaining it.  The free positions, log2 q bits
    each, are checked against DEFAULT_FREE_BITS first.  The template
    knows nothing of channel errors, so delta_c > 0 is rejected once the
    budget check has passed: compare the delta_c = 0 core with
    core_length instead.

    At rank best - 1 the walk stops branching and settles the subtree
    column by column, with the same result as walking it:

    * a completion that grows the rank reaches best and is cut;
    * a completion inside the span leaves the span unchanged;
    * so the subtree's leaves are the product of each later column's
      in-span completions, chosen independently, and its first leaf in
      depth-first order takes each column's first in-span completion in
      lexicographic order; when some later column has none, the subtree
      has no leaf;
    * once that leaf is recorded, best is the current rank, and the
      rank >= best test cuts every later sibling, so no later leaf of the
      full walk is recorded either.

    Each column's first in-span completion is ``RowSpan.first_completion``:
    elimination fixes one free value at a time, each the one value (or
    the least, 0, when every value works) that leaves the rest solvable,
    so it is the lexicographically first solution, found with O(f)
    reductions instead of up to q^f membership tests.

    Below rank best - 1 the walk skips a sibling that repeats a state.
    A node's state is (span, k), and everything below it depends on
    nothing else.  A completion that grows the span keeps its reduced
    vector, pivot scaled to 1, as its new row, so two siblings keeping
    equal rows reach the same span; every in-span completion reaches
    the node's own span.  After the first subtree of a state returns,
    best is at most every rank reachable from that state: a cut branch
    already reached best, and a settled one either recorded its rank or
    has no leaf below best.  Leaves are recorded only below best, and
    best never rises, so a repeated state records nothing and is
    skipped.  For the same reason, once best <= rank + 1 and an in-span
    sibling has been walked, every later sibling is cut or repeats a
    state, and the node returns.

    The returned (N, G) is therefore the full walk's.
    """
    tmpl = fitting_template(spec)
    field = spec.field
    nfree = tmpl.free_count()
    if nfree * math.log2(spec.q) > DEFAULT_FREE_BITS:
        raise BudgetExceededError(
            f"{nfree} free positions over F_{spec.q} exceed the "
            f"{DEFAULT_FREE_BITS}-bit budget")
    if spec.delta_c > 0:
        raise IcsieError(
            f"minrank requires delta_c = 0 (got {spec.delta_c}); "
            "channel errors need optimal_length")
    n = tmpl.n
    cols = tmpl.columns
    bases = [template_column_vector(field, n, col, [0] * len(col.free_pos))
             for col in cols]
    free_at = [[pos - 1 for pos in col.free_pos] for col in cols]
    best = n + 1
    best_assign: tuple[int, ...] | None = None
    span = RowSpan(field)
    assign: list[int] = []

    def completions(k: int):
        """Column k's completions in lexicographic order, as (values,
        vector); the one vector is refilled in place for each."""
        vec, at = list(bases[k]), free_at[k]
        # values come from range(q), so they need no Field.check
        for vals in itertools.product(range(spec.q), repeat=len(at)):
            for pos, val in zip(at, vals):
                vec[pos] = val
            yield vals, vec

    def settle(k: int) -> None:
        """Record the first leaf below k, whose columns all stay in the
        span, if every column from k on has an in-span completion."""
        nonlocal best, best_assign
        tail: list[int] = []
        for j in range(k, len(cols)):
            vals = span.first_completion(bases[j], free_at[j])
            if vals is None:
                return
            tail.extend(vals)
        best = span.rank()
        best_assign = tuple(assign) + tuple(tail)

    def walk(k: int) -> None:
        rank = span.rank()
        if rank >= best:
            return
        if rank == best - 1 or k == len(cols):  # at a leaf settle records it
            settle(k)
            return
        kept = set()    # rows kept by earlier siblings, None once one stayed in
        for vals, vec in completions(k):
            grew = span.push(vec)
            state = span.pivots[-1][1] if grew else None
            if state not in kept:
                kept.add(state)
                assign.extend(vals)
                walk(k + 1)
                del assign[len(assign) - len(vals):]
            if grew:
                span.pop()
            if rank + 1 >= best and None in kept:
                return  # every later sibling is cut or repeats a state

    walk(0)
    assert best_assign is not None
    return best, _completed(field, tmpl, best_assign)


# ---------------------------------------------------------------------------
# the walk memo

class _WalkMemo:
    """The results of the two exact walks made in this process, so that
    each walk runs at most once: the error-free walk of one support table
    at one length, and the column-multiset walk of one list of needs
    placing one number of columns.

    Each walk reads q, n, one table and one length and nothing else, so
    an entry is keyed by (walk, q, n, table) and holds a dict from length
    to result.  Each entry is charged the size of its table (twice its
    bytes for a ``codeset.SupportTable``, which may keep a compressibility
    table as large) plus 1 KiB for the key, the dict and the results
    around it; while the charges exceed WALK_MEMO_BYTES the oldest entry
    is dropped, so a table past the bound alone is not kept.  Callers check a length's budget before
    they read the memo, so a refusal and its message never depend on
    what ran earlier in the process."""

    def __init__(self) -> None:
        self._entries: dict = {}     # key -> (charge, {length: result})
        self._charged = 0

    def results(self, walk: str, q: int, n: int, table) -> dict:
        """The dict from length to result of the walks over table,
        empty the first time; results put in it are kept."""
        key = (walk, q, n, table)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = (sys.getsizeof(table) + 1024, {})
            self._charged += entry[0]
            while self._charged > WALK_MEMO_BYTES:
                self._charged -= self._entries.pop(next(iter(self._entries)))[0]
        return entry[1]

    def cache_clear(self) -> None:
        self._entries.clear()
        self._charged = 0


walk_memo = _WalkMemo()


# ---------------------------------------------------------------------------
# optimal length: dual-subspace search (no channel errors)

def gaussian_binomial(n: int, d: int, q: int) -> int:
    """The number of d-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(min(d, n - d)):       # [n, d] = [n, n - d]
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _first_avoiding_basis(vectors, table, N: int, rows_of: dict):
    """RREF rows of the first subspace of F_q^n of dimension n - N whose
    span avoids the interference set, or None; the caller counts the
    subspaces of that dimension against DEFAULT_SUBSPACE_BUDGET first.

    Subspaces are taken in the order of their RREF bases: pivot sets in
    lexicographic order, then each row's free values lexicographically,
    row 0 most significant.  The walk chooses rows depth first and keeps
    the span of the rows chosen so far; a prefix whose span meets the
    interference set is cut with all its completions.  rows_of caches
    each row's candidates, which depend only on q, n, its pivot and the
    later pivots, so one cache serves every table over the same space.
    """
    q, n = vectors.q, vectors.n
    d = n - N
    lookup = table.__getitem__

    def candidates(p: int, later: tuple[int, ...]):
        key = (p, later)
        if key not in rows_of:
            free = [c for c in range(p + 1, n) if c not in later]
            rows = []
            for vals in itertools.product(range(q), repeat=len(free)):
                row = [0] * n
                row[p] = 1
                for c, v in zip(free, vals):
                    row[c] = v
                rows.append((tuple(row), vectors.pack(tuple(row))))
            rows_of[key] = rows
        return rows_of[key]

    def walk(pivots, k, span):
        if k == d:
            return []
        for row, vec in candidates(pivots[k], pivots[k + 1:]):
            grown = vectors.extend(span, vec, lookup)
            if grown is not None:
                rest = walk(pivots, k + 1, grown)
                if rest is not None:
                    return [row] + rest
        return None

    zero = vectors.pack([0] * n)
    for pivots in itertools.combinations(range(n), d):
        basis = walk(pivots, 0, [zero])
        if basis is not None:
            return basis
    return None


def _check_subspace_budget(n: int, d: int, q: int) -> None:
    # the subspaces with pivots 1..d alone number q^(d(n-d)) >= 2^(d(n-d)):
    # past the budget's bits that settles it without the exact count,
    # which has about d(n - d) log2 q bits
    if d * (n - d) >= DEFAULT_SUBSPACE_BUDGET.bit_length():
        raise BudgetExceededError(
            f"at least 2^{d * (n - d)} subspaces of dimension {d} exceed "
            f"the search budget")
    count = gaussian_binomial(n, d, q)
    if count > DEFAULT_SUBSPACE_BUDGET:
        raise BudgetExceededError(
            f"{count} subspaces of dimension {d} exceed the search budget")


def _shortest_length(vectors, table, start: int,
                     rows_of: dict) -> tuple[int, list]:
    """Shortest length over an error-free channel, read from a support
    table alone: (N, RREF rows of the largest avoiding subspace W).

    With no channel errors a generator is valid iff the set of messages
    it encodes to zero avoids the interference set; that null set is the
    orthogonal complement of the column space.  So: find the largest
    subspace W avoiding the interference set; a basis of its complement,
    as columns, is a shortest generator.  The table is all the search
    reads of the instance, so equal tables give equal results.

    Lengths are walked from start up, and each length's walk is the
    same whatever the start.  Feasibility is monotone in N: a subspace
    of an avoiding subspace avoids too.  So the length returned is the
    larger of start and the table's optimum, and when start is at most
    the optimum, the basis is the one a walk from length 1 finds.  The
    table's kwise (``_kwise_length``), never below its gamma, always is,
    so the delta_c = 0 search starts there.  Only the lengths walked are
    checked against the budget, each once, here.
    ``structure.edge_deletion_bound`` starts at the
    larger of a table's gamma and its best length so far, and so learns
    a table's optimum only where it exceeds that best.

    Each length's walk reads q, n, the table and N alone, so its basis,
    or None, is kept in ``walk_memo`` under the table itself, a bytes
    object, and a later walk of the same table at that length is read
    from there, once its budget is checked.
    """
    q, n = vectors.q, vectors.n
    walked = walk_memo.results("subspace", q, n, table)
    for N in range(start, n + 1):
        _check_subspace_budget(n, n - N, q)
        if N not in walked:
            basis = _first_avoiding_basis(vectors, table, N, rows_of)
            walked[N] = None if basis is None else tuple(basis)
        if walked[N] is not None:
            return N, list(walked[N])
    raise AssertionError("the identity generator is always valid")


def _core_search(spec: ProblemSpec) -> tuple[int, list]:
    """``_shortest_length`` of the delta_c = 0 core, whose support table
    is the instance's, from the table's ``_kwise_length``; the table is
    read after the first length is in budget."""
    n = spec.graph.n
    _check_subspace_budget(n, n - 1, spec.q)
    table = interference_supports(spec)
    return _shortest_length(vector_space(spec.field, n), table,
                            _kwise_length(table, spec.q), {})


def core_length(spec: ProblemSpec) -> int:
    """Optimal length of the delta_c = 0 core: the same instance over an
    error-free channel.  The channel-error search starts from it, and it
    is the length minrank computes."""
    return _core_search(spec)[0]


# ---------------------------------------------------------------------------
# optimal length: projective column-multiset search (with channel errors)

def _first_column_multiset(vectors, need_of, lengths, prefix: int,
                           budget: int):
    """The first N in lengths with a multiset C of N - prefix projective
    columns under which every projective z of vectors reaches
    wt(zC) >= need_of(z's support mask), as (N, C packed), or None.

    Each length's multisets, counted from the (q^k - 1)/(q - 1) points
    of F_q^k, are checked against the budget before that length is
    walked and before any point is listed.  A length is one depth-first
    walk over its multisets in ``combinations_with_replacement`` order,
    points taken in non-decreasing index, counting hits in saturating
    bit-slices (Biham, FSE 1997):

    * only the z with a positive need are listed (both callers have
      some); z number k is bit k of every mask, and a point's hit mask
      (from ``hit_masks``, computed when the walk first reaches the
      point) holds the z it meets with z . c != 0;
    * with top the largest need, z starts at top - need(z) hits, so
      every z is satisfied exactly when it reaches top;
    * slice t, for t = 0..top, is the set of z with at least t hits,
      the count capped at top; adding a column with hit mask h sets
      slice t to slice t | (slice t-1 & h);
    * a column adds at most one hit to a z, so with `left` columns
      still to place a branch is cut unless slice top - left is every z.

    A cut subtree holds no multiset that passes, and the walk visits
    the rest in the order ``combinations_with_replacement`` lists them,
    so the first multiset it completes is the first that order passes.
    A node updates only the slices above the last full one, at most
    top of them.

    A walk reads q, n, every projective point's need and the number of
    columns it places, N - prefix, and nothing else, so its result, the
    columns or None, is kept in ``walk_memo`` under those and read from
    there by a later walk, once that length's count is checked."""
    q = vectors.q
    npoints = (q ** vectors.n - 1) // (q - 1)
    points = None

    def walk(i: int, slices: list[int], left: int) -> list[int] | None:
        # indices of the first completion from point i on, or None;
        # slices[top - left] is every z, and the column placed here must
        # make slices[lo] every z too
        lo = top - left + 1
        miss = full & ~slices[lo] if lo > 0 else 0
        below = max(lo, 1)
        for j in range(i, npoints):
            if j == len(hits):
                hits.append(next(masks))
            h = hits[j]
            if h & miss != miss:
                continue
            if left == 1:
                return [j]
            rest = walk(j, slices[:below] + [slices[t] | (slices[t - 1] & h)
                                             for t in range(below, top + 1)],
                        left - 1)
            if rest is not None:
                return [j] + rest
        return None

    for N in lengths:
        count = math.comb(npoints + N - prefix - 1, N - prefix)
        if count > budget:
            raise BudgetExceededError(
                f"{count} column multisets at length {N} exceed the budget")
        if points is None:
            points = vectors.projective()
            needs = tuple(need_of(s) for s in vectors.supports(points))
            walked = walk_memo.results("multiset", q, vectors.n, needs)
            zs = [z for z, need in zip(points, needs) if need > 0]
            needs = [need for need in needs if need > 0]
            top = max(needs)
            full = (1 << len(zs)) - 1
            start = [sum(1 << k for k, need in enumerate(needs)
                         if need <= top - t) for t in range(top + 1)]
            hits: list[int] = []
            masks = vectors.hit_masks(zs, points)
        ncols = N - prefix
        if ncols < top and start[top - ncols] != full:
            continue
        if ncols not in walked:
            placed = walk(0, start, ncols)
            walked[ncols] = (None if placed is None
                             else tuple(points[j] for j in placed))
        if walked[ncols] is not None:
            return N, walked[ncols]
    return None


def _gecic_bounds(q: int, n0: int, gam: int,
                 delta_c: int) -> tuple[tuple[int, int], int]:
    """The channel-error bounds on the optimal length, from the
    error-free optimum n0 and gamma: ((n0 + 2 delta_c, l_q(q, gamma,
    2 delta_c + 1)), l_q(q, n0, 2 delta_c + 1)), two lower bounds then
    the upper one.  ``_optimal_length_gecic`` proves them.  The upper
    bound is computed first, so its budget message is the one raised.
    The gamma bound's own l_q search then stays within that budget:
    gamma <= n0, and shortening an [l, n0, d] code on n0 - gamma
    message positions gives an [l - n0 + gamma, gamma, d] one, so its
    walk counts fewer parity multisets at every length it tries."""
    need = 2 * delta_c + 1
    upper = l_q(q, n0, need)
    return (n0 + need - 1, l_q(q, gam, need)), upper


def _optimal_length_gecic(spec: ProblemSpec) -> tuple[int, Matrix]:
    """Shortest valid generator when delta_c > 0.

    Codeword weights are invariant under permuting columns and scaling
    a column, so candidates are multisets of projective points.  Zero
    columns never appear in a shortest valid generator (dropping one
    would beat a length already proved unreachable), so they are
    excluded.  Lengths are walked from the larger of the two lower
    bounds of ``_gecic_bounds`` up to its upper bound, each length's
    multisets in ``combinations_with_replacement`` order:

    * N >= n0 + 2 delta_c, with n0 the optimum of the delta_c = 0 core:
      deleting any 2 delta_c columns of a valid generator leaves every
      interference codeword with weight >= 1, a valid core generator of
      length N - 2 delta_c.
    * N >= l_q(q, gamma, 2 delta_c + 1), the alpha bound of Dau,
      Skachek and Chee (IEEE Trans. IT 59(3), 2013) read with this
      paper's gamma: every nonempty subset of the gamma set is an
      interference support, so every nonzero z supported on that set
      needs wt(zG) >= 2 delta_c + 1.  The rows of G on the gamma set
      therefore generate a code of dimension gamma (a nonzero z with
      zG = 0 would have weight 0) and minimum distance
      >= 2 delta_c + 1, of length N.
    * N <= l_q(q, n0, 2 delta_c + 1): a shortest core generator G0
      followed by the generator of a classical [l, n0, 2 delta_c + 1]
      code C maps an interference z to a nonzero zG0 (G0 is valid for
      the core), hence to a codeword of C of weight >= 2 delta_c + 1.

    No length below the start is feasible and each length's walk does
    not depend on where the walk began, so the first feasible length
    and its witness are those of a walk from n0 + 2 delta_c; the tests
    compare against such a walk.  Only the lengths walked are checked
    against DEFAULT_COMBO_BUDGET.  gamma and the interference
    representatives are both read from the instance's support table.
    """
    n, q = spec.graph.n, spec.q
    field = spec.field
    n0 = core_length(spec)
    table = interference_supports(spec)
    lowers, cap = _gecic_bounds(q, n0, table.gamma_mask.bit_count(),
                                spec.delta_c)
    need = 2 * spec.delta_c + 1
    _check_enum_budget(spec)
    vectors = vector_space(field, n)
    # an interference z needs wt(zG) >= need, any other z nothing
    hit = _first_column_multiset(vectors, lambda s: need * table[s],
                                 range(max(lowers), cap + 1), 0,
                                 DEFAULT_COMBO_BUDGET)
    if hit is None:
        raise AssertionError(
            "the classical-code upper bound guarantees a hit by the cap")
    N, cols = hit
    return N, Matrix(field, zip(*map(vectors.unpack, cols)), ncols=N)


def optimal_length(spec: ProblemSpec) -> tuple[int, Matrix]:
    """Exact optimal codelength and a witness generator of full column
    rank.  Each length is checked against DEFAULT_SUBSPACE_BUDGET
    subspaces, or with channel errors DEFAULT_COMBO_BUDGET column
    multisets, before it is walked."""
    if spec.delta_c == 0:
        N, basis = _core_search(spec)
        W = Matrix(spec.field, basis, ncols=spec.graph.n)
        G = W.null_space_basis().transpose()  # n x N, rank N
        assert G.ncols == N
        return N, G
    return _optimal_length_gecic(spec)


def optimum(spec: ProblemSpec, method: str) -> tuple[int, Matrix]:
    """The optimal length and a witness generator by one route or both:
    "brute" (``optimal_length``), "minrank" (error-free channel only,
    its completed template cut to independent columns) or "both".
    "both" runs minrank on the delta_c = 0 core, then ``optimal_length``,
    then, when delta_c > 0, ``core_length``, and raises MismatchError
    unless minrank's length is the core optimum.  Its witness is
    minrank's when delta_c = 0 and the direct search's otherwise, the
    only one that corrects channel errors."""
    if method == "brute":
        return optimal_length(spec)
    if method not in ("minrank", "both"):
        raise ValueError(f"unknown method {method!r}")
    N, completed = minrank(replace(spec, delta_c=0) if method == "both"
                           else spec)
    if method == "minrank":
        return N, independent_columns(completed)
    brute = optimal_length(spec)
    core = brute[0] if spec.delta_c == 0 else core_length(spec)
    if N != core:
        raise MismatchError(f"minrank {N} != brute {core}")
    return (N, independent_columns(completed)) if spec.delta_c == 0 else brute


# ---------------------------------------------------------------------------
# cycle code

def cycle_code(field: Field, size: int, delta_s: int) -> Matrix:
    """The size x (size-1) bidiagonal generator of a cycle-compression code.

    Encodes x as (x_1+x_2, x_2+x_3, ..., x_{size-1}+x_size).  Any
    size-1 rows are linearly independent; all rows together are not.
    """
    if size < 2 * delta_s + 2:
        raise CycleTooSmallError(
            f"cycle of size {size} needs at least {2 * delta_s + 2} packets")
    rows = []
    for j in range(1, size + 1):
        row = [0] * (size - 1)
        if j > 1:
            row[j - 2] = 1
        if j < size:
            row[j - 1] = 1
        rows.append(row)
    return Matrix(field, rows)


# ---------------------------------------------------------------------------
# clique construction from a classical parity-check matrix

def min_distance_from_parity(H: Matrix) -> int:
    """Exhaustive minimum distance of the code with parity-check matrix H,
    whose q^k codewords must fit in DEFAULT_CODEBOOK_BITS bits."""
    field = H.field
    basis = H.null_space_basis()
    k = basis.nrows
    if k == 0:
        raise ValueError("trivial code: H has full column rank")
    if k * math.log2(field.q) > DEFAULT_CODEBOOK_BITS:
        raise BudgetExceededError(f"codebook of size {field.q}^{k} too large")
    # weights are invariant under scaling: projective messages suffice;
    # the rows are independent, so every codeword has weight >= 1
    vectors = vector_space(field, k)
    cols = [vectors.pack(c) for c in basis.columns()]
    msgs = vectors.projective()
    d = 1
    while vectors.first_failing(msgs, cols, d + 1) < 0:
        d += 1
    return d


def clique_from_parity(H: Matrix, delta_s: int) -> tuple[Matrix, ProblemSpec]:
    """Generator for the size-n clique from a classical parity check.

    The transpose of H works whenever the classical code corrects the
    combined cache-error budget: minimum distance at least 2*delta_s+2.
    Validity of the result is re-checked against the clique instance.
    """
    n = H.ncols
    d_min = min_distance_from_parity(H)
    if d_min < 2 * delta_s + 2:
        raise DistanceTooSmallError(
            f"minimum distance {d_min} < {2 * delta_s + 2}")
    G = H.transpose()
    spec = ProblemSpec(graph=clique_graph(n), q=H.field.q, delta_s=delta_s)
    ok, bad = is_valid_generator(spec, G)
    assert ok, f"transpose construction failed on {bad}"
    return G, spec


# ---------------------------------------------------------------------------
# shortest classical codes and the k-wise independence bound

@lru_cache(maxsize=None)
def l_q(q: int, a: int, d: int) -> int:
    """Shortest length of a linear code over F_q with dimension a and
    minimum distance at least d; exhaustive from the Griesmer bound up.

    Up to coordinate permutation every such code has a systematic
    generator [I | P], and m [I | P] has weight wt(m) + wt(mP).
    Permuting or scaling parity columns keeps every codeword weight, and
    a zero column can be swapped for any other without lowering one, so
    trying each multiset of projective parity columns is exhaustive;
    weights are invariant under scaling, so only projective messages m
    are checked, each needing wt(mP) >= d - wt(m).  A length is searched
    only if its multisets of n - a parity columns number at most
    2^DEFAULT_MULTISET_BITS, and no length past DEFAULT_LEN_CAP is.

    The cache keeps its answers when either constant changes: only a
    refusal depends on them, and a refusal raises, so it is never
    cached."""
    if a < 1 or d < 1:
        raise ValueError("need a >= 1 and d >= 1")
    if d == 1:
        return a
    hit = _first_column_multiset(vector_space(field_for(q), a),
                                 lambda s: d - s.bit_count(),
                                 range(_griesmer(q, a, d), DEFAULT_LEN_CAP + 1),
                                 a, 1 << DEFAULT_MULTISET_BITS)
    if hit is None:
        raise BudgetExceededError(
            f"no [n, {a}, {d}] code found up to length {DEFAULT_LEN_CAP}")
    return hit[0]


def _griesmer(q: int, a: int, d: int) -> int:
    """The Griesmer bound: no [l, a, d] code over F_q is shorter."""
    return sum(-(-d // q ** i) for i in range(a))


@lru_cache(maxsize=None)
def _redundancy(q: int, s: int, d: int) -> int:
    """r_q(s, d), the least redundancy s - a of a linear [s, a, >= d]
    code over F_q (a = 0 allowed, 1 <= d <= s + 1): s minus the largest
    a with l_q(q, a, d) <= s.  It never raises.

    With s <= q + 1 or d <= 2 it is d - 1, the Singleton bound, met by
    shortened extended Reed-Solomon codes, the parity check and the
    whole space, so nothing is walked.  Otherwise a grows while a + 1
    fits: l_q grows with a, a dimension whose Griesmer bound exceeds s
    does not fit, and one where l_q refuses fits unless the Hamming
    bound excludes it, so r errs low there and stays a lower bound.
    Like l_q's, the cache keeps its answers when a budget changes."""
    if s <= q + 1 or d <= 2:
        return d - 1
    a = 0
    while _griesmer(q, a + 1, d) <= s and _fits(q, a + 1, d, s):
        a += 1
    return s - a


def _fits(q: int, a: int, d: int, s: int) -> bool:
    """Is l_q(q, a, d) <= s, or, where l_q refuses, does the Hamming
    bound allow an [s, a, d] code?"""
    try:
        return l_q(q, a, d) <= s
    except BudgetExceededError:
        ball = sum(math.comb(s, i) * (q - 1) ** i for i in range((d + 1) // 2))
        return q ** (s - a) >= ball


def _kwise_length(table, q: int) -> int:
    """The k-wise independence bound of a support table over F_q, kept
    on the table per q: the largest r_q(|B|, k(B) + 1) over packet sets
    B, and at least gamma.  It never raises.

    G's rows on B, as the columns of a parity check, give an
    [|B|, |B| - rank, >= k(B) + 1] code, so N >= r_q(|B|, k(B) + 1): the
    code-distance argument of Dau, Skachek and Chee (IEEE Trans. IT
    59(3), 2013) on every packet set, which on a clique is the least N
    with ind_q(N, 2 delta_s + 1) >= n.  gamma is the case k(B) = |B|;
    any other B gives at most |B| - 1 (a repetition code), so only sizes
    from gamma + 2 count, and a size s with s - 1 at most the best so
    far is passed over.  r_q(s, d) grows with d, so each size's largest
    k (``SupportTable.kwise_profile``) is enough."""
    gam = table.gamma_mask.bit_count()
    if len(table) < 4 << gam:           # n < gamma + 2
        return gam
    kept = table.kwise
    if q not in kept:
        best = gam
        for s, k in table.kwise_profile:
            if s - 1 > best:
                best = max(best, _redundancy(q, s, k + 1))
        kept[q] = best
    return kept[q]


# ---------------------------------------------------------------------------
# generator matrix wire format

def serialize_generator(G: Matrix) -> str:
    doc = {"q": G.field.q, "n": G.nrows, "N": G.ncols, "rows": G.to_lists()}
    return json.dumps(doc, indent=1)


def parse_generator(text: str) -> Matrix:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    try:
        rows = doc["rows"]
        if not all(is_integer(doc[key]) for key in ("q", "n", "N")):
            raise ParseError("fields 'q', 'n' and 'N' must be integers")
        if not all(is_integer(v) for r in rows for v in r):
            raise ParseError("generator entries must be integers")
        field = field_for(doc["q"])
        if len(rows) != doc["n"] or any(len(r) != doc["N"] for r in rows):
            raise ParseError("generator dimensions disagree with n/N fields")
        return Matrix(field, rows, ncols=doc["N"])
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"bad generator document: {exc}") from exc
