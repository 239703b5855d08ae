"""Interference vectors, their support family, validity and the
sphere-disjointness decodability oracle.

The interference set collects every message difference z some receiver
must be able to see on the channel: z hits the receiver's demand
(z_{f(i)} != 0) while staying within its cache-error weight budget.
A generator matrix works exactly when every such z maps to a codeword
of weight at least 2*delta_c + 1.

Every routine here works over any F_q through one seam,
``linalg.vector_space``: int masks and the GF(2) kernel over F_2, tuples
and the field's tables otherwise.  No function here tests q itself.

``oracle_decodable`` deliberately does NOT reuse that criterion: it
enumerates message pairs and intersects explicit Hamming spheres, so it
can serve as an independent oracle for the validity test.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from .errors import BudgetExceededError, FieldMismatchError
from .linalg import Matrix, hamming_weight, subvector, vector_space
from .sigraph import ProblemSpec

DEFAULT_ENUM_BITS = 24
DEFAULT_PAIR_BITS = 24


def _log2_q(q: int) -> float:
    return q.bit_length() - 1 if q & (q - 1) == 0 else math.log2(q)


def _check_enum_budget(spec: ProblemSpec, budget_bits: int) -> None:
    n = spec.graph.n
    if n * _log2_q(spec.q) > budget_bits:
        raise BudgetExceededError(
            f"enumerating F_{spec.q}^{n} exceeds the {budget_bits}-bit budget")


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


def enum_interference(spec: ProblemSpec,
                      budget_bits: int = DEFAULT_ENUM_BITS) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield each interference vector exactly once as (z, witness receiver).

    Order is lexicographic in the coordinate tuple; the witness is the
    smallest receiver index that admits z.
    """
    _check_enum_budget(spec, budget_bits)
    n = spec.graph.n
    for z in itertools.product(range(spec.q), repeat=n):
        i = first_witness(spec, z)
        if i is not None:
            yield z, i


def interference_supports(spec: ProblemSpec) -> bytearray:
    """Interference as a lookup over support masks.

    Entry s is 1 iff the vectors whose support mask is s interfere.
    Interference depends only on which coordinates are nonzero, so one
    table of 2^n entries serves every q; over F_2 a vector is its own
    support mask.  Masks put coordinate 1 in the highest bit, as the
    kernels do.  Receivers with the same demand and cache are tested once.
    """
    g = spec.graph
    n = g.n
    cap = spec.side_weight_cap()
    receivers = {(1 << (n - g.f[i]), sum(1 << (n - j) for j in g.X[i]))
                 for i in range(g.m)}
    table = bytearray(1 << n)
    for z in range(1, 1 << n):
        for fm, xm in receivers:
            if z & fm and (z & xm).bit_count() <= cap:
                table[z] = 1
                break
    return table


def interference_masks(spec: ProblemSpec,
                       budget_bits: int = DEFAULT_ENUM_BITS) -> list:
    """The interference vectors with first nonzero entry 1 (over F_2, all
    of them), ascending, packed by ``linalg.vector_space``.  Interference
    and wt(zG) are invariant under nonzero scaling, and the first failing
    z in lexicographic order is such a representative."""
    _check_enum_budget(spec, budget_bits)
    vectors = vector_space(spec.field, spec.graph.n)
    table = interference_supports(spec)
    points = vectors.projective()
    return [z for z, s in zip(points, vectors.supports(points)) if table[s]]


def in_support_family(spec: ProblemSpec, K) -> bool:
    """Membership of a nonempty index set K in the support family.

    K qualifies iff some receiver demands a packet of K and caches at
    most the weight budget of K's packets; the split of K into demand,
    interference and cache parts is then forced.
    """
    K = set(K)
    if not K:
        raise ValueError("K must be nonempty")
    g = spec.graph
    cap = spec.side_weight_cap()
    for i in range(1, g.m + 1):
        if g.f[i - 1] in K and len(K & g.X[i - 1]) <= cap:
            return True
    return False


def _check_generator(spec: ProblemSpec, G: Matrix) -> None:
    if G.nrows != spec.graph.n:
        raise ValueError(f"G must have n = {spec.graph.n} rows")
    if G.field != spec.field:
        raise FieldMismatchError(
            f"G is over F_{G.field.q}, the instance over F_{spec.q}")


def is_valid_generator(spec: ProblemSpec, G: Matrix,
                       budget_bits: int = DEFAULT_ENUM_BITS
                       ) -> tuple[bool, tuple[int, ...] | None]:
    """Does G encode the instance?  Returns (ok, first failing z).

    The criterion: wt(zG) >= 2*delta_c + 1 for every interference
    vector z (for delta_c = 0 this is just zG != 0).  The witness is the
    lexicographically first failing z.
    """
    _check_generator(spec, G)
    vectors = vector_space(spec.field, spec.graph.n)
    zs = interference_masks(spec, budget_bits)
    idx = vectors.first_failing(zs, [vectors.pack(c) for c in G.columns()],
                                2 * spec.delta_c + 1)
    if idx < 0:
        return True, None
    return False, vectors.unpack(zs[idx])


def oracle_decodable(spec: ProblemSpec, G: Matrix,
                     budget_bits: int = DEFAULT_PAIR_BITS) -> bool:
    """Brute-force decodability straight from the decoding contract.

    For every message pair that some receiver cannot tell apart through
    its (possibly corrupted) cache but must tell apart on the demand,
    the radius-delta_c spheres around the two codewords have to be
    disjoint.  Spheres are materialized as sets; no weight shortcut is
    taken, and the interference set is not consulted.
    """
    g = spec.graph
    n, q = g.n, spec.q
    if 2 * n * _log2_q(q) > budget_bits:
        raise BudgetExceededError(
            f"pair enumeration over F_{q}^{n} x F_{q}^{n} exceeds "
            f"the {budget_bits}-bit budget")
    _check_generator(spec, G)
    field = spec.field
    cap = spec.side_weight_cap()
    # (demand mask, cache mask) of each distinct receiver
    receivers = {(1 << (n - f), sum(1 << (n - j) for j in X))
                 for f, X in zip(g.f, g.X)}
    msgs = vector_space(field, n)
    words = vector_space(field, G.ncols)
    cols = [msgs.pack(c) for c in G.columns()]
    messages = msgs.vectors()
    # every nonzero channel error of weight <= delta_c
    errors = [words.pack([dict(zip(at, vals)).get(k, 0) for k in range(G.ncols)])
              for t in range(1, spec.delta_c + 1)
              for at in itertools.combinations(range(G.ncols), t)
              for vals in itertools.product(range(1, q), repeat=t)]
    spheres = [frozenset([c, *words.translate(c, errors)])
               for c in (msgs.codeword(x, cols) for x in messages)]
    minus_one = field.neg(1)
    for a, x in enumerate(messages):
        # where x differs from each later message
        diffs = msgs.supports(msgs.translate(msgs.scale(minus_one, x),
                                             messages[a + 1:]))
        for fm, xm in receivers:
            for b, d in enumerate(diffs, a + 1):
                # the receiver must tell x from message b apart
                if (d & fm and (d & xm).bit_count() <= cap
                        and not spheres[a].isdisjoint(spheres[b])):
                    return False
    return True
