"""Code construction and exact optimal-codelength search.

Two exact routes to the optimal length are implemented and must agree:

* ``minrank`` -- minimum rank over all completions of the structured
  column template derived from the side-information graph (one column
  per receiver per choice of 2*delta_s cache positions forced to zero).
* ``optimal_length`` -- direct search for the shortest valid generator.
  With no channel errors, validity of G depends only on its column
  space, so the search looks for the largest subspace avoiding the
  interference set (G's null space).  It walks RREF bases depth first,
  one row at a time, keeping the span of the rows chosen so far and
  cutting a partial basis, with all its completions, as soon as its
  span meets the interference set; membership is one lookup in a table
  over support masks, built once per search.  With channel errors,
  codeword weights matter and the search runs over multisets of
  projective columns instead, testing each against the interference
  list built once per search.

Both searches, and l_q's code search, work over any F_q through one
seam, ``linalg.vector_space``: how vectors are packed, added, scaled and
multiplied is decided there, once, and nothing here tests q itself.

``minrank`` covers the error-free channel only; with delta_c > 0 it is
compared against ``core_length``, the optimum of the delta_c = 0 core.

Also here: the bidiagonal cycle code, the parity-check-transpose
construction for cliques, and the classical-code quantities l_q and
the maximal k-wise-independent set size.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache

from .codeset import (interference_masks, interference_supports,
                      is_valid_generator)
from .errors import (BudgetExceededError, CycleTooSmallError,
                     DistanceTooSmallError, IcsieError, ParseError)
from .gfield import Field, arithmetic, field_for
from .linalg import Matrix, vector_space
from .sigraph import ProblemSpec, clique_graph

DEFAULT_FREE_BITS = 24
DEFAULT_SUBSPACE_BUDGET = 1 << 22
DEFAULT_COMBO_BUDGET = 1 << 22
DEFAULT_IND_BITS = 20
DEFAULT_LEN_CAP = 15


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

    Receiver i contributes one column per way of choosing 2*delta_s of
    its cached packets (a single column when the cache is smaller).
    """
    g = spec.graph
    t = 2 * spec.delta_s
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
    tmpl = fitting_template(spec)
    field = spec.field
    vecs = []
    k = 0
    for col in tmpl.columns:
        vals = assignment[k:k + len(col.free_pos)]
        k += len(col.free_pos)
        vecs.append(template_column_vector(field, tmpl.n, col, vals))
    return Matrix(field, zip(*vecs), ncols=len(vecs))


# ---------------------------------------------------------------------------
# incremental rank tracking for the minrank search

class _SpanTracker:
    """Incremental rank of a growing set of F_q^n vectors, with undo.

    Vectors are reduced through the field's sub and mul tables from
    ``gfield.arithmetic`` (views calling the Field above its table
    limit); each accepted pivot costs one ``Field.inv``.
    """

    def __init__(self, field: Field):
        self.field = field
        _, self._sub, self._mul = arithmetic(field)
        self.pivots: list[tuple[int, tuple[int, ...]]] = []  # (pivot position, reduced vector)

    def rank(self) -> int:
        return len(self.pivots)

    def push(self, vec) -> bool:
        """Add a vector; True if it increased the rank (then pop() undoes it)."""
        sub, mul = self._sub, self._mul
        v = list(vec)
        for pos, pv in self.pivots:
            c = v[pos]
            if c != 0:
                mc = mul[c]
                v = [sub[a][mc[b]] for a, b in zip(v, pv)]
        for pos, val in enumerate(v):
            if val != 0:
                m_inv = mul[self.field.inv(val)]
                self.pivots.append((pos, tuple([m_inv[a] for a in v])))
                return True
        return False

    def pop(self) -> None:
        self.pivots.pop()


def independent_columns(M: Matrix) -> Matrix:
    """A maximal independent subset of M's columns, first-come order.

    Removing dependent columns from a completed fitting matrix yields a
    generator of the same column space, hence still valid.
    """
    tracker = _SpanTracker(M.field)
    keep = [c for c in M.columns() if tracker.push(c)]
    return Matrix(M.field, zip(*keep), ncols=len(keep))


def minrank(spec: ProblemSpec,
            budget_bits: int = DEFAULT_FREE_BITS) -> tuple[int, Matrix]:
    """Exact minimum rank over all completions of the fitting template.

    Depth-first over columns in template order, free values assigned
    lexicographically; a branch is cut as soon as its partial column
    span already reaches the best rank found.  Returns the minimum and
    the first completion attaining it.  The template knows nothing of
    channel errors, so delta_c > 0 is rejected once the budget check has
    passed: compare the delta_c = 0 core with core_length instead.
    """
    tmpl = fitting_template(spec)
    field = spec.field
    nfree = tmpl.free_count()
    if nfree * math.log2(spec.q) > budget_bits:
        raise BudgetExceededError(
            f"{nfree} free positions over F_{spec.q} exceed the "
            f"{budget_bits}-bit budget")
    if spec.delta_c > 0:
        raise IcsieError(
            f"minrank requires delta_c = 0 (got {spec.delta_c}); "
            "channel errors need optimal_length")
    n = tmpl.n
    cols = tmpl.columns
    best = n + 1
    best_assign: tuple[int, ...] | None = None
    tracker = _SpanTracker(field)
    assign: list[int] = []

    def walk(k: int) -> None:
        nonlocal best, best_assign
        if tracker.rank() >= best:
            return
        if k == len(cols):
            best = tracker.rank()
            best_assign = tuple(assign)
            return
        col = cols[k]
        vec = list(template_column_vector(field, n, col, [0] * len(col.free_pos)))
        at = [pos - 1 for pos in col.free_pos]
        # values come from range(q), so they need no Field.check
        for vals in itertools.product(range(spec.q), repeat=len(at)):
            for pos, val in zip(at, vals):
                vec[pos] = val
            grew = tracker.push(vec)
            assign.extend(vals)
            walk(k + 1)
            del assign[len(assign) - len(vals):]
            if grew:
                tracker.pop()

    walk(0)
    assert best_assign is not None
    return best, complete_template(spec, best_assign)


# ---------------------------------------------------------------------------
# optimal length: dual-subspace search (no channel errors)

def gaussian_binomial(n: int, d: int, q: int) -> int:
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _first_avoiding_basis(vectors, table: bytearray, d: int, rows_of: dict):
    """RREF rows of the first d-dimensional subspace of F_q^n whose span
    avoids the interference set, or None.

    Subspaces are taken in the order of their RREF bases: pivot sets in
    lexicographic order, then each row's free values lexicographically,
    row 0 most significant.  The walk chooses rows depth first and keeps
    the span of the rows chosen so far; a prefix whose span meets the
    interference set is cut with all its completions.  rows_of caches
    each row's candidates, which depend only on its pivot and the later
    pivots.
    """
    q, n = vectors.q, vectors.n

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
            grown = vectors.extend(span, vec, table)
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


def _optimal_length_icsie(spec: ProblemSpec,
                          subspace_budget: int) -> tuple[int, Matrix]:
    """Shortest valid generator when delta_c = 0.

    With no channel errors a generator is valid iff the set of messages
    it encodes to zero avoids the interference set; that null set is the
    orthogonal complement of the column space.  So: find the largest
    subspace W avoiding the interference set and emit a basis of its
    complement as columns.  The interference lookup is built once, after
    the first length is within budget.
    """
    n, q = spec.graph.n, spec.q
    field = spec.field
    vectors = vector_space(field, n)
    table = None
    rows_of: dict = {}
    for N in range(1, n + 1):
        d = n - N
        if gaussian_binomial(n, d, q) > subspace_budget:
            raise BudgetExceededError(
                f"{gaussian_binomial(n, d, q)} subspaces of dimension {d} "
                f"exceed the search budget")
        if table is None:
            table = interference_supports(spec)
        basis = _first_avoiding_basis(vectors, table, d, rows_of)
        if basis is not None:
            W = Matrix(field, basis, ncols=n)
            G = W.null_space_basis().transpose()  # n x N, rank N
            assert G.ncols == N
            return N, G
    raise AssertionError("the identity generator is always valid")


def core_length(spec: ProblemSpec,
                subspace_budget: int = DEFAULT_SUBSPACE_BUDGET) -> int:
    """Optimal length of the delta_c = 0 core: the same instance over an
    error-free channel.  The channel-error search starts from it, and it
    is the length minrank computes."""
    return _optimal_length_icsie(replace(spec, delta_c=0), subspace_budget)[0]


# ---------------------------------------------------------------------------
# optimal length: projective column-multiset search (with channel errors)

def _optimal_length_gecic(spec: ProblemSpec, subspace_budget: int,
                          combo_budget: int) -> tuple[int, Matrix]:
    """Shortest valid generator when delta_c > 0.

    Codeword weights are invariant under permuting columns and scaling
    a column, so candidates are multisets of projective points.  Zero
    columns never appear in a shortest valid generator (dropping one
    would beat a length already proved unreachable), so they are
    excluded.  The search starts at the channel-error lower bound on
    top of the error-free optimum and stops at the classical-code
    upper bound.
    """
    n, q = spec.graph.n, spec.q
    field = spec.field
    n0 = core_length(spec, subspace_budget)
    need = 2 * spec.delta_c + 1
    cap = l_q(q, n0, need)
    vectors = vector_space(field, n)
    points = vectors.projective()
    zs = interference_masks(spec)
    for N in range(n0 + need - 1, cap + 1):
        ncombos = math.comb(len(points) + N - 1, N)
        if ncombos > combo_budget:
            raise BudgetExceededError(
                f"{ncombos} column multisets at length {N} exceed the budget")
        for cols in itertools.combinations_with_replacement(points, N):
            if vectors.first_failing(zs, cols, need) < 0:
                return N, Matrix(field, zip(*map(vectors.unpack, cols)), ncols=N)
    raise AssertionError(
        "the classical-code upper bound guarantees a hit by the cap")


def optimal_length(spec: ProblemSpec,
                   subspace_budget: int = DEFAULT_SUBSPACE_BUDGET,
                   combo_budget: int = DEFAULT_COMBO_BUDGET) -> tuple[int, Matrix]:
    """Exact optimal codelength and a witness generator of full column rank."""
    if spec.delta_c == 0:
        return _optimal_length_icsie(spec, subspace_budget)
    return _optimal_length_gecic(spec, subspace_budget, combo_budget)


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

def min_distance_from_parity(H: Matrix, budget_bits: int = DEFAULT_IND_BITS) -> int:
    """Exhaustive minimum distance of the code with parity-check matrix H."""
    field = H.field
    basis = H.null_space_basis()
    k = basis.nrows
    if k == 0:
        raise ValueError("trivial code: H has full column rank")
    if k * math.log2(field.q) > budget_bits:
        raise BudgetExceededError(f"codebook of size {field.q}^{k} too large")
    # weights are invariant under scaling: projective messages suffice
    vectors = vector_space(field, k)
    cols = [vectors.pack(c) for c in basis.columns()]
    return min(vectors.weight(vectors.codeword(m, cols))
               for m in vectors.projective())


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
# k-wise independent sets and shortest classical codes

def _max_kindep_containing_basis(field: Field, r: int, k: int) -> int:
    """Largest k-wise independent set in F_q^r containing the standard basis.

    Any k-wise independent set of rank r can be mapped onto one through
    an invertible change of basis, so maximizing over r <= N with the
    basis pinned loses nothing and prunes enormously.
    """
    q = field.q
    basis = [tuple(1 if i == j else 0 for j in range(r)) for i in range(r)]

    def ok_with(S, v):
        take = min(k, len(S) + 1) - 1
        for sub in itertools.combinations(S, take):
            if Matrix(field, list(sub) + [v]).rank() < take + 1:
                return False
        return True

    candidates = [v for v in itertools.product(range(q), repeat=r)
                  if any(v) and v not in set(basis) and ok_with(basis, v)]
    best = r

    def walk(S, cands):
        nonlocal best
        if len(S) > best:
            best = len(S)
        for idx, v in enumerate(cands):
            if len(S) + len(cands) - idx <= best:
                break
            if ok_with(S, v):
                walk(S + [v], cands[idx + 1:])

    walk(list(basis), candidates)
    return best


def ind_q(q: int, N: int, k: int,
          budget_bits: int = DEFAULT_IND_BITS) -> int:
    """Maximum size of a subset of F_q^N with every k members independent."""
    if k < 1 or N < 1:
        raise ValueError("need k >= 1 and N >= 1")
    field = field_for(q)
    if N * math.log2(q) > budget_bits:
        raise BudgetExceededError(f"F_{q}^{N} too large to enumerate")
    if k == 1:
        return q ** N - 1  # independence of single vectors = nonzero
    return max(_max_kindep_containing_basis(field, r, k) for r in range(1, N + 1))


def _systematic_code_exists(q: int, n: int, a: int, d: int) -> bool:
    """Is there an [n, a, >= d] linear code over F_q?  Up to coordinate
    permutation every such code has a systematic generator [I | P].
    Permuting or scaling parity columns keeps every codeword weight, and
    a zero column can be swapped for any other without lowering one, so
    trying each multiset of projective parity columns is exhaustive.
    Weights are invariant under scaling, so only projective messages are
    checked."""
    vectors = vector_space(field_for(q), a)
    points = vectors.projective()
    # m [I | P] has weight wt(m) + wt(mP)
    msgs = [(m, vectors.weight(m)) for m in points]
    for parity in itertools.combinations_with_replacement(points, n - a):
        if all(w + vectors.weight(vectors.codeword(m, parity)) >= d
               for m, w in msgs):
            return True
    return False


@lru_cache(maxsize=None)
def l_q(q: int, a: int, d: int, max_len: int = DEFAULT_LEN_CAP,
        budget_bits: int = DEFAULT_FREE_BITS) -> int:
    """Shortest length of a linear code over F_q with dimension a and
    minimum distance at least d; exhaustive from the Griesmer bound up.
    A length is searched only if its multisets of n - a projective
    parity columns number at most 2^budget_bits."""
    if a < 1 or d < 1:
        raise ValueError("need a >= 1 and d >= 1")
    if d == 1:
        return a
    griesmer = sum(-(-d // q ** i) for i in range(a))
    points = (q ** a - 1) // (q - 1)
    for n in range(max(griesmer, a), max_len + 1):
        if math.comb(points + n - a - 1, n - a) > 1 << budget_bits:
            raise BudgetExceededError(
                f"systematic search at length {n} exceeds the budget")
        if _systematic_code_exists(q, n, a, d):
            return n
    raise BudgetExceededError(f"no [n, {a}, {d}] code found up to length {max_len}")


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
        field = field_for(int(doc["q"]))
        rows = doc["rows"]
        if len(rows) != doc["n"] or any(len(r) != doc["N"] for r in rows):
            raise ParseError("generator dimensions disagree with n/N fields")
        return Matrix(field, rows, ncols=doc["N"])
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"bad generator document: {exc}") from exc
