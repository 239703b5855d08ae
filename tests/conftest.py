"""Shared instance families for the exhaustive and sampled sweeps."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from icsie import Matrix, codeset, encoder, field_for
from icsie.codeset import (_check_enum_budget, interference_masks,
                           interference_supports)
from icsie.decoder import DecodeTrace, build_context
from icsie.encoder import _check_subspace_budget, _first_avoiding_basis
from icsie.errors import (BudgetExceededError, DegenerateError,
                          InconsistentError, NoSolutionError)
from icsie.gfield import Field
from icsie.linalg import vector_space
from icsie.sigraph import ProblemSpec, SideInfoGraph

FAMILY_SEED = 0xD5C0DE


def all_unipartite_graphs(n: int):
    """Every unipartite graph on n packets: each receiver i caches any
    subset of the other packets."""
    others = [[j for j in range(1, n + 1) if j != i] for i in range(1, n + 1)]
    pools = [list(itertools.chain.from_iterable(
        itertools.combinations(o, k) for k in range(len(o) + 1)))
        for o in others]
    for caches in itertools.product(*pools):
        yield SideInfoGraph.make(n, range(1, n + 1), caches)


def sampled_unipartite_graphs(n: int, count: int, seed: int = FAMILY_SEED):
    """A deterministic sample of unipartite graphs on n packets."""
    rng = random.Random(seed)
    pool = list(all_unipartite_graphs(n))
    return [pool[rng.randrange(len(pool))] for _ in range(count)]


def family_graphs():
    """Criteria 3-5,7-8 family: all n=3 graphs plus 200 sampled n=4 graphs."""
    return list(all_unipartite_graphs(3)) + sampled_unipartite_graphs(4, 200)


def random_generator(rng: random.Random, q: int, n: int, N: int) -> Matrix:
    f = field_for(q)
    return Matrix(f, [[rng.randrange(q) for _ in range(N)] for _ in range(n)],
                  ncols=N)


@pytest.fixture(scope="session")
def small_family():
    return family_graphs()


@pytest.fixture(autouse=True)
def cold_walk_memo():
    """Every test starts with an empty walk memo and no kept support
    table, so a test that counts or records walks or table builds sees
    the same ones whatever ran before it."""
    encoder.walk_memo.cache_clear()
    codeset._instance_table.cache_clear()


# -- vector helpers in Field arithmetic, for the tests only

def subvector(x, indices) -> tuple[int, ...]:
    """Entries of x at the given 1-based indices, in ascending index order."""
    idx = sorted(set(indices))
    if idx and (idx[0] < 1 or idx[-1] > len(x)):
        raise IndexError(f"indices {idx} out of range for length {len(x)}")
    return tuple(x[i - 1] for i in idx)


def hamming_weight(x) -> int:
    return sum(1 for v in x if v != 0)


def vec_add(field: Field, a, b) -> tuple[int, ...]:
    return tuple(field.add(x, y) for x, y in zip(a, b, strict=True))


def vec_sub(field: Field, a, b) -> tuple[int, ...]:
    return tuple(field.sub(x, y) for x, y in zip(a, b, strict=True))


def vec_scale(field: Field, c: int, a) -> tuple[int, ...]:
    return tuple(field.mul(c, v) for v in a)


def dot(field: Field, a, b) -> int:
    acc = 0
    for x, y in zip(a, b, strict=True):
        acc = field.add(acc, field.mul(x, y))
    return acc


# -- the elimination the library's row reduction is checked against

def reference_rref(M: Matrix) -> tuple[list[list[int]], list[int]]:
    """M's reduced row-echelon form by Gauss-Jordan elimination in Field
    method calls, column by column: (rows, pivot column indices 0-based).
    It shares nothing with linalg.RowSpan but the Field."""
    f = M.field
    rows = [list(r) for r in M.rows]
    pivots: list[int] = []
    r = 0
    for c in range(M.ncols):
        sel = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                coef = rows[i][c]
                rows[i] = [f.sub(v, f.mul(coef, w))
                           for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def reference_rank(M: Matrix) -> int:
    return len(reference_rref(M)[1])


# -- the tuple-level interference rule the support tables are checked against

def in_interference(spec: ProblemSpec, z, i: int) -> bool:
    """Is z an interference vector for receiver i?"""
    g = spec.graph
    if z[g.f[i - 1] - 1] == 0:
        return False
    return hamming_weight(subvector(z, g.X[i - 1])) <= spec.side_weight_cap()


def first_witness(spec: ProblemSpec, z) -> int | None:
    for i in range(1, spec.graph.m + 1):
        if in_interference(spec, z, i):
            return i
    return None


def enum_interference(spec: ProblemSpec):
    """Yield each interference vector exactly once as (z, witness receiver).

    Order is lexicographic in the coordinate tuple; the witness is the
    smallest receiver index that admits z.  F_q^n must fit in the
    library's codeset.DEFAULT_ENUM_BITS bits.
    """
    _check_enum_budget(spec)
    n = spec.graph.n
    for z in itertools.product(range(spec.q), repeat=n):
        i = first_witness(spec, z)
        if i is not None:
            yield z, i


def _reference_shortest_length(spec: ProblemSpec) -> tuple[int, Matrix]:
    """The delta_c = 0 optimum walked from length 1, every length checked
    against the library's subspace budget, without the gamma start: (N, G) as
    optimal_length builds them from the first avoiding basis.  The
    length-1 budget is checked before the 2^n support table is read,
    as the library's search does."""
    n = spec.graph.n
    _check_subspace_budget(n, n - 1, spec.q)
    vectors = vector_space(spec.field, n)
    table = interference_supports(spec)
    rows_of: dict = {}
    for N in range(1, n + 1):
        _check_subspace_budget(n, n - N, spec.q)
        basis = _first_avoiding_basis(vectors, table, N, rows_of)
        if basis is not None:
            W = Matrix(spec.field, basis, ncols=n)
            return N, W.null_space_basis().transpose()
    raise AssertionError("the identity generator is always valid")


def _reference_gecic_length(spec: ProblemSpec) -> tuple[int, Matrix]:
    """The delta_c > 0 optimum walked from n0 + 2 delta_c, without the
    gamma bound, every length checked against the library's
    encoder.DEFAULT_COMBO_BUDGET as it stands at the call: n0 is
    ``_reference_shortest_length``'s, and each length's multisets of
    projective columns are tried in combinations_with_replacement order
    against the interference list, (N, G) as optimal_length builds them.
    Nothing here reads gamma, so a search that starts higher is checked
    against every shorter length.  Each multiset is tested whole with
    first_failing, which the library's sliced walk never calls (see
    test_column_multiset_walk_asks_no_weight_test), so the two routes
    share neither the pruning nor the weight test."""
    n0 = _reference_shortest_length(spec)[0]
    need = 2 * spec.delta_c + 1
    vectors = vector_space(spec.field, spec.graph.n)
    points = vectors.projective()
    zs = interference_masks(spec)
    for N in itertools.count(n0 + need - 1):
        ncombos = math.comb(len(points) + N - 1, N)
        if ncombos > encoder.DEFAULT_COMBO_BUDGET:
            raise BudgetExceededError(
                f"{ncombos} column multisets at length {N} exceed the budget")
        for cols in itertools.combinations_with_replacement(points, N):
            if vectors.first_failing(zs, cols, need) < 0:
                return N, Matrix(spec.field,
                                 zip(*map(vectors.unpack, cols)), ncols=N)


# -- k-wise independent sets: the independent check of r_q and kwise

DEFAULT_IND_BITS = 20


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


def ind_q(q: int, N: int, k: int) -> int:
    """Maximum size of a subset of F_q^N with every k members
    independent; F_q^N must fit in DEFAULT_IND_BITS bits.  It reads no
    code of the library's r_q: a k-wise independent set of size s in
    F_q^N holds the columns of a parity check of an [s, s - N, k + 1]
    code, so r_q(s, k + 1) is the least N with ind_q(N, k) >= s."""
    if k < 1 or N < 1:
        raise ValueError("need k >= 1 and N >= 1")
    field = field_for(q)
    if N * math.log2(q) > DEFAULT_IND_BITS:
        raise BudgetExceededError(f"F_{q}^{N} too large to enumerate")
    if k == 1:
        return q ** N - 1  # independence of single vectors = nonzero
    return max(_max_kindep_containing_basis(field, r, k)
               for r in range(1, N + 1))


# -- the uncached decode route the decoder and simulation are checked against

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
    if len(y) != G.ncols:
        raise ValueError(f"y must have {G.ncols} entries, got {len(y)}")
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
