"""Interference vectors, their support family, validity and the
sphere-disjointness decodability oracle.

The interference set collects every message difference z some receiver
must be able to see on the channel: z hits the receiver's demand
(z_{f(i)} != 0) while staying within its cache-error weight budget.
A generator matrix works exactly when every such z maps to a codeword
of weight at least 2*delta_c + 1.

Every routine here works over any F_q, and no function here tests q
itself.  Validity goes through one seam, ``linalg.vector_space``: int
masks and the GF(2) kernel over F_2, tuples and the field's tables
otherwise.  The oracle packs its own ints the same way for every q:
codewords as ``linalg.LaneVectors`` sums, messages as bit-planes.

Interference depends only on the support of z, so one table over the
2^n support masks holds it.  From that table ``contains_compressible``
marks every packet set that contains a compressible one (a nonempty set
that is no support) and ``gamma_mask`` reads gamma's set off it: the
structure queries and the error-free search both read gamma there.

``oracle_decodable`` deliberately does NOT reuse that criterion: it
materializes explicit Hamming spheres around every codeword and tests
the message pairs whose spheres share a word, found through an index
from word to messages, so it can serve as an independent oracle for the
validity test.  It takes no weight shortcut, reads neither the
interference set nor its support table, and calls nothing of
``vector_space``: whether a receiver confuses a pair comes from its own
loop over the receivers.  Its budget still counts all pairs, the worst
case.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from .errors import BudgetExceededError, DimensionError, FieldMismatchError
from .linalg import LaneVectors, Matrix, hamming_weight, subvector, vector_space
from .sigraph import ProblemSpec, SideInfoGraph

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


def receiver_masks(graph: SideInfoGraph) -> list[tuple[int, int]]:
    """(demand mask, cache mask) of each receiver, in receiver order.
    Masks put coordinate 1 in the highest bit, as the kernels do."""
    n = graph.n
    return [(1 << (n - f), sum(1 << (n - j) for j in X))
            for f, X in zip(graph.f, graph.X)]


def support_table(n: int, receivers, cap: int) -> bytearray:
    """Entry s is 1 iff the vectors whose support mask is s interfere:
    they hit some receiver's demand while meeting at most cap of its
    cached packets.  receivers holds (demand mask, cache mask) pairs, as
    ``receiver_masks`` gives them; pass each distinct pair once."""
    table = bytearray(1 << n)
    for z in range(1, 1 << n):
        for fm, xm in receivers:
            if z & fm and (z & xm).bit_count() <= cap:
                table[z] = 1
                break
    return table


def interference_supports(spec: ProblemSpec) -> bytearray:
    """Interference as a lookup over support masks.

    Interference depends only on which coordinates are nonzero, so one
    table of 2^n entries (``support_table``) serves every q; over F_2 a
    vector is its own support mask.  Receivers with the same demand and
    cache are tested once.
    """
    return support_table(spec.graph.n, set(receiver_masks(spec.graph)),
                         spec.side_weight_cap())


def contains_compressible(supports) -> bytearray:
    """Entry s is 1 iff packet mask s contains a compressible set: a
    nonempty set that is not an interference support.

    A nonempty mask holds when it is not a support itself or when one of
    its one-packet-smaller subsets holds; ascending masks meet every
    subset first.
    """
    n = (len(supports) - 1).bit_length()
    bits = [1 << k for k in range(n)]
    holds = bytearray(len(supports))
    for s in range(1, len(supports)):
        holds[s] = not supports[s] or any(holds[s ^ b] for b in bits if s & b)
    return holds


def gamma_mask(holds) -> int:
    """The largest mask containing no compressible set, as
    ``contains_compressible`` marks them; among masks of one size, the
    largest.  Its packets' size is gamma: every nonzero z supported
    inside it interferes, so a valid G has independent rows there and at
    least gamma columns."""
    return max((s for s in range(len(holds)) if not holds[s]),
               key=lambda s: (s.bit_count(), s))


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


def _check_generator(spec: ProblemSpec, G: Matrix) -> None:
    if G.nrows != spec.graph.n:
        raise DimensionError(f"G must have n = {spec.graph.n} rows")
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
    disjoint.  All q^n messages are built in lexicographic order, one
    row of G at a time, in two packings:

    * the raw codeword, a lane-packed sum (``linalg.LaneVectors``) of
      one multiple of each row; ``reduce(raw + e)`` over the packed
      channel errors e of weight at most delta_c, zero first, gives the
      words of its sphere;
    * b = bit_length(q - 1) bit-planes of n bits, plane k holding bit k
      of every coordinate: two messages differ where some plane of their
      XOR is set, so the OR of those planes is the support mask of
      their difference.

    Spheres are indexed by the words they hold, and only the pairs in
    one word's list are tested: a pair with disjoint spheres never
    breaks the contract.  Whether some receiver confuses a pair depends
    only on that support, so it is memoised per support mask; it comes
    from this function's own loop over the receivers, never from the
    interference set or a weight test, which keeps the oracle
    independent of the validity code it checks.  The budget counts all
    pairs, the worst case: an all-zero G puts every message in one
    word's list.
    """
    g = spec.graph
    n, q = g.n, spec.q
    if 2 * n * _log2_q(q) > budget_bits:
        raise BudgetExceededError(
            f"pair enumeration over F_{q}^{n} x F_{q}^{n} exceeds "
            f"the {budget_bits}-bit budget")
    _check_generator(spec, G)
    cap = spec.side_weight_cap()
    # (demand mask, cache mask) of each distinct receiver
    receivers = set(receiver_masks(g))
    N = G.ncols
    # a raw codeword sums n row multiples; a sphere word adds one error
    lanes = LaneVectors(spec.field, N, n + 1)
    # bit k of element a at the lowest bit of plane k; each later row
    # shifts the planes up one, so coordinate 1 ends at bit n - 1
    planed = [sum(((a >> k) & 1) << (k * n) for k in range((q - 1).bit_length()))
              for a in range(q)]
    messages, raws = [0], [0]
    for row in G.rows:
        # listed once: a field too large to tabulate packs as it is read
        multiples = lanes.multiples(row)
        multiples = [multiples[a] for a in range(q)]
        messages = [x << 1 | p for x in messages for p in planed]
        raws = [r + m for r in raws for m in multiples]
    # every channel error of weight <= delta_c, the zero error first:
    # packed nonzero symbols shifted to their coordinates' lanes
    symbols, bits = [lanes.pack([a]) for a in range(1, q)], lanes.coordinate_bits
    errors = [sum(a << (N - 1 - k) * bits for k, a in zip(at, vals))
              for t in range(min(spec.delta_c, N) + 1)
              for at in itertools.combinations(range(N), t)
              for vals in itertools.product(symbols, repeat=t)]
    # word -> the messages whose sphere holds it
    reduce = lanes.reduce
    holders: dict[int, list[int]] = {}
    for x, r in zip(messages, raws):
        for e in errors:
            holders.setdefault(reduce(r + e), []).append(x)
    full = (1 << n) - 1
    confuses: list[bool | None] = [None] * (1 << n)
    for held in holders.values():
        for i, x in enumerate(held):
            for y in held[i + 1:]:
                d, s = x ^ y, 0
                while d:
                    s |= d & full
                    d >>= n
                hit = confuses[s]
                if hit is None:
                    # some receiver must tell the two apart
                    hit = confuses[s] = any(
                        s & fm and (s & xm).bit_count() <= cap
                        for fm, xm in receivers)
                if hit:
                    return False
    return True
