"""Interference vectors, their support family, validity and the
sphere-disjointness decodability oracle.

The interference set collects every message difference z some receiver
must be able to see on the channel: z hits the receiver's demand
(z_{f(i)} != 0) while staying within its cache-error weight budget.
A generator matrix works exactly when every such z maps to a codeword
of weight at least 2*delta_c + 1.

``oracle_decodable`` deliberately does NOT reuse that criterion: it
enumerates message pairs and intersects explicit Hamming spheres, so it
can serve as an independent oracle for the validity test.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from . import kernels
from .errors import BudgetExceededError
from .linalg import Matrix, hamming_weight, subvector, vec_of_mask
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
                       budget_bits: int = DEFAULT_ENUM_BITS) -> list[int]:
    """All interference vectors as packed bitmasks, ascending (q = 2 only)."""
    assert spec.q == 2
    _check_enum_budget(spec, budget_bits)
    return [z for z, hit in enumerate(interference_supports(spec)) if hit]


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


def is_valid_generator(spec: ProblemSpec, G: Matrix,
                       budget_bits: int = DEFAULT_ENUM_BITS
                       ) -> tuple[bool, tuple[int, ...] | None]:
    """Does G encode the instance?  Returns (ok, first failing z).

    The criterion: wt(zG) >= 2*delta_c + 1 for every interference
    vector z (for delta_c = 0 this is just zG != 0).
    """
    if G.nrows != spec.graph.n:
        raise ValueError(f"G must have n = {spec.graph.n} rows")
    need = 2 * spec.delta_c + 1
    if spec.q == 2:
        zs = interference_masks(spec, budget_bits)
        idx = kernels.gf2_first_failing(zs, G.col_masks(), need)
        if idx < 0:
            return True, None
        return False, vec_of_mask(zs[idx], spec.graph.n)
    for z, _ in enum_interference(spec, budget_bits):
        if hamming_weight(G.vec_mul(z)) < need:
            return False, z
    return True, None


def oracle_decodable(spec: ProblemSpec, G: Matrix,
                     budget_bits: int = DEFAULT_PAIR_BITS) -> bool:
    """Brute-force decodability straight from the decoding contract.

    For every receiver and every message pair that the receiver cannot
    tell apart through its (possibly corrupted) cache but must tell
    apart on the demand, the radius-delta_c spheres around the two
    codewords have to be disjoint.  Spheres are materialized as sets;
    no weight shortcut is taken.
    """
    g = spec.graph
    n, q = g.n, spec.q
    if 2 * n * _log2_q(q) > budget_bits:
        raise BudgetExceededError(
            f"pair enumeration over F_{q}^{n} x F_{q}^{n} exceeds "
            f"the {budget_bits}-bit budget")
    field = spec.field
    cap = spec.side_weight_cap()

    if q == 2:
        # same literal pair loop, integer-packed for speed
        msg_ints = list(range(1 << n))
        cols = G.col_masks()
        cw = []
        for x in msg_ints:
            w = 0
            for k, c in enumerate(cols):
                if (x & c).bit_count() & 1:
                    w |= 1 << (len(cols) - 1 - k)
            cw.append(w)

        def sphere2(c):
            out = {c}
            for t in range(1, spec.delta_c + 1):
                for positions in itertools.combinations(range(G.ncols), t):
                    e = 0
                    for p in positions:
                        e |= 1 << p
                    out.add(c ^ e)
            return frozenset(out)

        spheres2 = [sphere2(c) for c in cw] if spec.delta_c > 0 else None
        for i in range(1, g.m + 1):
            fbit = 1 << (n - g.f[i - 1])
            xmask = 0
            for j in g.X[i - 1]:
                xmask |= 1 << (n - j)
            for a in msg_ints:
                for b in range(a + 1, len(msg_ints)):
                    d = a ^ b
                    if not d & fbit or (d & xmask).bit_count() > cap:
                        continue
                    if spec.delta_c == 0:
                        if cw[a] == cw[b]:
                            return False
                    elif not spheres2[a].isdisjoint(spheres2[b]):
                        return False
        return True

    messages = list(itertools.product(range(q), repeat=n))
    codewords = [G.vec_mul(x) for x in messages]

    def sphere(c):
        out = {c}
        for t in range(1, spec.delta_c + 1):
            for positions in itertools.combinations(range(G.ncols), t):
                for vals in itertools.product(range(1, q), repeat=t):
                    y = list(c)
                    for p, v in zip(positions, vals):
                        y[p] = field.add(y[p], v)
                    out.add(tuple(y))
        return frozenset(out)

    spheres = [sphere(c) for c in codewords] if spec.delta_c > 0 else None
    for i in range(1, g.m + 1):
        fpos = g.f[i - 1] - 1
        xset = g.X[i - 1]
        for a, x in enumerate(messages):
            for b in range(a + 1, len(messages)):
                xp = messages[b]
                if x[fpos] == xp[fpos]:
                    continue
                diff = sum(1 for j in xset if x[j - 1] != xp[j - 1])
                if diff > cap:
                    continue
                if spec.delta_c == 0:
                    if codewords[a] == codewords[b]:
                        return False
                elif not spheres[a].isdisjoint(spheres[b]):
                    return False
    return True
