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
2^n support masks holds it, a ``SupportTable``, which keeps what is
read off it when first read: ``contains_compressible`` (the packet sets
containing a compressible one, a nonempty set that is no support),
gamma's set, ``gamma_mask``, ``kwise_profile`` and, per q, the k-wise
independence bound ``encoder._kwise_length`` reads off that profile.
The table depends on the graph and 2*delta_s alone, and
``interference_supports`` keeps the last instance's: the validity
test, the structure queries and the error-free search on one instance
build it once between them.  Each caller checks
its own budget before it reads the table, so a refusal never depends on
what ran earlier.

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
from functools import cached_property, lru_cache

from .errors import BudgetExceededError, DimensionError, FieldMismatchError
from .linalg import LaneVectors, Matrix, vector_space
from .sigraph import ProblemSpec, SideInfoGraph

DEFAULT_ENUM_BITS = 24
DEFAULT_PAIR_BITS = 24


def _check_enum_budget(spec: ProblemSpec) -> None:
    n = spec.graph.n
    if n * math.log2(spec.q) > DEFAULT_ENUM_BITS:
        raise BudgetExceededError(
            f"enumerating F_{spec.q}^{n} exceeds the {DEFAULT_ENUM_BITS}-bit "
            f"budget")


def packet_mask(packets, n: int) -> int:
    """Support mask of a set of packets out of n: packet (coordinate) 1
    in the highest bit, as the kernels and the support tables put it."""
    return sum(1 << (n - j) for j in packets)


def receiver_masks(graph: SideInfoGraph) -> list[tuple[int, int]]:
    """(demand mask, cache mask) of each receiver, in receiver order,
    as ``packet_mask`` packs them."""
    n = graph.n
    return [(1 << (n - f), packet_mask(X, n)) for f, X in zip(graph.f, graph.X)]


class SupportTable(bytes):
    """Entry s is 1 iff the vectors whose support mask is s interfere,
    with what is read off the table, each computed when first read."""

    @cached_property
    def contains_compressible(self) -> bytes:
        """Entry s is 1 iff packet mask s contains a compressible set: a
        nonempty set that is not an interference support.

        A nonempty mask holds when it is not a support itself or when one
        of its one-packet-smaller subsets holds; ascending masks meet
        every subset first.
        """
        bits = [1 << k for k in range((len(self) - 1).bit_length())]
        holds = bytearray(len(self))
        for s in range(1, len(self)):
            holds[s] = not self[s] or any(holds[s ^ b] for b in bits if s & b)
        return bytes(holds)      # every reader gets this one, so it is frozen

    @cached_property
    def gamma_mask(self) -> int:
        """The largest mask containing no compressible set; among masks
        of one size, the largest.  Its packets' size is gamma: every
        nonzero z supported inside it interferes, so a valid G has
        independent rows there and at least gamma columns.  At least 1,
        since a demanded packet alone is a support."""
        holds = self.contains_compressible
        return max((s for s in range(len(holds)) if not holds[s]),
                   key=lambda s: (s.bit_count(), s))

    @cached_property
    def kwise_profile(self) -> tuple[tuple[int, int], ...]:
        """(s, k) for each packet-set size s >= gamma + 2, k the largest
        k(B) over the sets B of size s, where k(B) + 1 is the size of B's
        smallest nonempty non-support subset; smaller sets cannot beat
        gamma (``encoder._kwise_length``).

        With mask s at bit s of one int, the masks holding a non-support
        set of at most t packets are those sets' upward closure, n
        shifts; size s settles, k = t - 1, at the first t that covers all
        its masks, and every size past gamma settles by t = gamma + 1."""
        n = (len(self) - 1).bit_length()
        nonsupport = int(self.translate(_NONSUPPORT)[::-1], 2) & ~1
        sizes, lacking = _mask_bitsets(n)
        pending = list(range(self.gamma_mask.bit_count() + 2, n + 1))
        profile, covered, t = [], 0, 0
        while pending:
            t += 1
            grown = nonsupport & sizes[t]
            for b, without in enumerate(lacking):
                grown |= (grown & without) << (1 << b)
            covered |= grown
            # a size settles no later than a larger one
            while pending and not sizes[pending[-1]] & ~covered:
                profile.append((pending.pop(), t - 1))
        return tuple(reversed(profile))

    @cached_property
    def kwise(self) -> dict[int, int]:
        """The k-wise independence bound per q, as
        ``encoder._kwise_length`` computes it from ``kwise_profile``."""
        return {}

    def __sizeof__(self) -> int:
        # the walk memo charges a table by its size: count the
        # compressibility table, as large, that it may keep
        return 2 * super().__sizeof__()


# a table's bytes read as binary digits, 1 where the mask is no support
_NONSUPPORT = bytes.maketrans(b"\x00\x01", b"10")


@lru_cache(maxsize=1)
def _mask_bitsets(n: int) -> tuple[list[int], list[int]]:
    """Sets of masks below 2^n as ints, mask s at bit s: by size (entry
    k holds the masks of k packets) and by bit (entry b holds the masks
    without bit b).  Those of the last n are kept: 2n + 1 ints of 2^n
    bits, 23 MB at n = 22."""
    sizes = [1]                 # below 2^0 only the empty mask
    for m in range(n):
        # the masks with bit m are those below 2^m, shifted up by 2^m
        sizes = [(sizes[k] if k < len(sizes) else 0)
                 | (sizes[k - 1] << (1 << m) if k else 0)
                 for k in range(m + 2)]
    lacking = []
    for b in range(n):
        # a run of 2^b masks without bit b, then 2^b with it, repeated
        run, width = (1 << (1 << b)) - 1, 2 << b
        while width < 1 << n:
            run |= run << width
            width <<= 1
        lacking.append(run)
    return sizes, lacking


def support_table(n: int, receivers, cap: int) -> SupportTable:
    """The support table of the vectors that hit some receiver's demand
    while meeting at most cap of its cached packets.  receivers holds
    (demand mask, cache mask) pairs, as ``receiver_masks`` gives them;
    pass each distinct pair once."""
    table = bytearray(1 << n)
    for z in range(1, 1 << n):
        for fm, xm in receivers:
            if z & fm and (z & xm).bit_count() <= cap:
                table[z] = 1
                break
    return SupportTable(table)


def interference_supports(spec: ProblemSpec) -> SupportTable:
    """Interference as a lookup over support masks.

    Interference depends only on which coordinates are nonzero, so one
    table of 2^n entries (``support_table``) serves every q; over F_2 a
    vector is its own support mask.  Receivers with the same demand and
    cache are tested once.  The table of the last (graph, 2*delta_s) is
    kept, so asking again, at any q or delta_c, builds nothing.
    """
    return _instance_table(spec.graph, spec.side_weight_cap())


@lru_cache(maxsize=1)
def _instance_table(graph: SideInfoGraph, cap: int) -> SupportTable:
    return support_table(graph.n, set(receiver_masks(graph)), cap)


def interference_masks(spec: ProblemSpec) -> list:
    """The interference vectors with first nonzero entry 1 (over F_2, all
    of them), ascending, packed by ``linalg.vector_space``.  Interference
    and wt(zG) are invariant under nonzero scaling, and the first failing
    z in lexicographic order is such a representative.  F_q^n must fit
    in DEFAULT_ENUM_BITS bits."""
    _check_enum_budget(spec)
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


def is_valid_generator(spec: ProblemSpec, G: Matrix
                       ) -> tuple[bool, tuple[int, ...] | None]:
    """Does G encode the instance?  Returns (ok, first failing z).

    The criterion: wt(zG) >= 2*delta_c + 1 for every interference
    vector z (for delta_c = 0 this is just zG != 0).  The witness is the
    lexicographically first failing z.
    """
    _check_generator(spec, G)
    vectors = vector_space(spec.field, spec.graph.n)
    zs = interference_masks(spec)
    idx = vectors.first_failing(zs, [vectors.pack(c) for c in G.columns()],
                                2 * spec.delta_c + 1)
    if idx < 0:
        return True, None
    return False, vectors.unpack(zs[idx])


def oracle_decodable(spec: ProblemSpec, G: Matrix) -> bool:
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
    independent of the validity code it checks.  The budget,
    DEFAULT_PAIR_BITS, counts all pairs, the worst case: an all-zero G
    puts every message in one word's list.
    """
    g = spec.graph
    n, q = g.n, spec.q
    if 2 * n * math.log2(q) > DEFAULT_PAIR_BITS:
        raise BudgetExceededError(
            f"pair enumeration over F_{q}^{n} x F_{q}^{n} exceeds "
            f"the {DEFAULT_PAIR_BITS}-bit budget")
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
