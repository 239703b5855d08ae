"""Syndrome decoding at a receiver with a partly corrupted cache.

Works on the error-free broadcast channel (delta_c = 0).  The receiver
projects the cache-corrected codeword through a matrix H annihilating
both the demand row and the interference rows; the resulting syndrome
is matched by a low-support combination of cache rows (the suspected
cache errors); subtracting that correction leaves the demand visible
through a second matrix H_e that annihilates only the interference rows.
Which admissible correction is found does not matter: all of them differ
by interference-row combinations only, which H_e removes.

Only the received word and the cache snapshot change from one decode to
the next, so the rest is built once per (G, graph, receiver, delta_s),
as a ReceiverDecoder:

* the receiver's context (H, H_e and the rows it needs), from
  ``build_context``;
* the linear map (y, x_hat) -> A (y - x_hat G_X), A stacking H over the
  one H_e row h that is kept: a column of A for each codeword symbol and
  -A g_j for each cache row g_j, every scaling precomputed, packed into
  integer lanes by ``linalg.LaneVectors`` and looked up by element, so
  that an entry that is not an element of F_q fails in the lookup;
* the syndrome -> (syndrome, correction, suspected packets, h . correction)
  table: the coset leaders of the syndrome decoding of Dau, Skachek &
  Chee, "Error correction for index coding with side information" (IEEE
  Trans. IT 59(3), 2013, Sec. V).  ``_coset_leaders`` is its one
  definition: the correction patterns come from ``linalg.low_weight``
  -- support size, then supports lexicographically, then coefficients
  -- and the first to reach a syndrome keeps it; their number is checked
  against COSET_CANDIDATE_BUDGET before any is listed, and a
  ReceiverDecoder checks it before it builds anything.  ``find_correction``
  looks a syndrome up there; the decoder re-keys the same table by the
  packed syndrome, so both return the same correction;
* a memo from the packed z = A (y - x_hat G_X) to the (value, trace) a
  search decode returned for it, filled as decodes come (see
  ``ReceiverDecoder`` for its bound).

``decode_receiver`` takes its decoder from a bounded LRU cache keyed by
the value of (G, graph, i, delta_s), and remembers the decoder of its
last call: a call with the very objects of that call skips the cache's
hashing.  A decoder keeps the sum of the last codeword y it was given
as a tuple, which cannot change, and uses it while y is that very
object.  So a repeated decode at a receiver with the same tuple y costs,
for every q, one C-level ``sum`` of the packed multiples the entries of
x_hat pick, one lane reduction mod p (one AND over F_2), and one memo
lookup.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (BudgetExceededError, DegenerateError, DimensionError,
                     InconsistentError, NoSolutionError)
from .gfield import arithmetic
from .linalg import LaneVectors, Matrix, low_weight, low_weight_count, table_dot
from .sigraph import SideInfoGraph

DECODER_CACHE_SIZE = 128     # receivers whose decoders stay built
COSET_CANDIDATE_BUDGET = 1 << 16   # candidate corrections per coset table
# a lookup in a column's multiples, a dict subclass: dict's own method
# reads a hit at plain dict speed and still calls __missing__ on a miss
_lookup = dict.__getitem__


@dataclass(frozen=True)
class ReceiverContext:
    receiver: int
    demand: int                       # packet index f(i)
    cache: tuple[int, ...]            # X_i ascending
    interference: tuple[int, ...]     # Y_i ascending
    demand_row: tuple[int, ...]       # G_{f(i)}
    G_cache: Matrix                   # rows G_{X_i}
    H: Matrix                         # annihilates demand + interference rows
    H_e: Matrix                       # annihilates interference rows only


class DecodeTrace(NamedTuple):
    syndrome: tuple[int, ...]
    correction: tuple[int, ...]
    suspected: tuple[int, ...]        # cache packet indices blamed by the correction
    value: int


def build_context(G: Matrix, graph: SideInfoGraph, i: int) -> ReceiverContext:
    """Precompute the per-receiver decoding matrices.

    H and H_e are full null-space bases (deterministic, echelon-derived);
    callers comparing against externally given matrices should compare
    row spaces, not entries.
    """
    if G.nrows != graph.n:
        raise DimensionError(f"G must have n = {graph.n} rows")
    fpkt = graph.f[i - 1]
    cache = tuple(sorted(graph.X[i - 1]))
    interf = tuple(sorted(graph.y_set(i)))
    demand_row = G.row(fpkt)
    G_y = G.submatrix_rows(interf) if interf else Matrix(G.field, [], ncols=G.ncols)
    if G_y.in_row_span(demand_row):
        raise DegenerateError(
            f"demand row of receiver {i} lies in the interference row span; "
            f"G is not a valid generator for this instance")
    H = G.submatrix_rows(set(interf) | {fpkt}).null_space_basis()
    H_e = G_y.null_space_basis()
    return ReceiverContext(
        receiver=i, demand=fpkt, cache=cache, interference=interf,
        demand_row=demand_row, G_cache=G.submatrix_rows(cache), H=H, H_e=H_e)


def _check_coset_budget(receiver: int, candidates: int) -> None:
    """Refuse a coset table that would list more candidate corrections
    than COSET_CANDIDATE_BUDGET."""
    if candidates > COSET_CANDIDATE_BUDGET:
        raise BudgetExceededError(
            f"receiver {receiver}: {candidates} candidate corrections "
            f"exceed the coset-table budget")


def _coset_leaders(ctx: ReceiverContext, delta_s: int) -> dict:
    """Syndrome -> (correction, suspected cache packets): the coset
    leaders of the syndrome decoding.  The candidates are the
    combinations of at most delta_s cache rows with nonzero
    coefficients, in ``linalg.low_weight``'s order -- support size, then
    supports lexicographically, then coefficients -- and the first to
    reach a syndrome keeps it.  Once all q^rows syndromes have one the
    rest cannot change the table, so the walk stops there.  Their count
    is checked against the budget before any is listed."""
    field, rows = ctx.G_cache.field, ctx.G_cache.rows
    _check_coset_budget(ctx.receiver,
                        low_weight_count(len(rows), field.q, delta_s))
    add, _, mul = arithmetic(field)
    zero = (0,) * ctx.G_cache.ncols
    syndromes = field.q ** ctx.H.nrows
    leaders: dict = {}
    for support, coeffs in low_weight(len(rows), field.q, delta_s):
        p = zero
        for j, c in zip(support, coeffs):
            mc = mul[c]
            p = tuple(add[a][mc[b]] for a, b in zip(p, rows[j]))
        s = ctx.H.mul_col(p)
        if s not in leaders:
            leaders[s] = (p, tuple(ctx.cache[j] for j in support))
            if len(leaders) == syndromes:
                break
    return leaders


def _no_solution(ctx: ReceiverContext, delta_s: int) -> NoSolutionError:
    return NoSolutionError(
        f"receiver {ctx.receiver}: no correction with support <= {delta_s}; "
        f"more cache errors than allowed, or an invalid generator")


def find_correction(ctx: ReceiverContext, syndrome, delta_s: int
                    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A combination of at most delta_s cache rows matching the syndrome:
    its coset leader from ``_coset_leaders``, so the first in support
    size, then lexicographic order over supports and coefficients.
    Returns the correction vector and the blamed cache packet indices.
    """
    leader = _coset_leaders(ctx, delta_s).get(tuple(syndrome))
    if leader is None:
        raise _no_solution(ctx, delta_s)
    return leader


def _not_elements(q: int) -> ValueError:
    return ValueError(f"y and x_hat entries must be elements of F_{q}")


_UNSEEN = object()   # a decoder's last y before its first decode


class ReceiverDecoder:
    """Receiver i's decoder under G with at most delta_s cache errors,
    built once and then applied to any number of received words.

    One H_e row h with a = h . demand_row != 0 gives the demand value;
    the other rows would always agree with it.  Proof: the rows of H
    span the null space of G_{Y u {f}}, so the vectors H annihilates are
    exactly the row space of G_{Y u {f}}.  A correction p whose syndrome
    matches (found or forced) gives H (corrected - p) = 0, whatever y
    and x_hat are, so cleaned = corrected - p = c * demand_row + w with
    w in the row space of G_Y.  c is unique, because build_context
    rejects a demand row in that span.  Every H_e row annihilates w, so
    h . cleaned = c * (h . demand_row) for each of them: a row with a != 0
    yields c = (h . cleaned) / a, and a row with a = 0 sees 0.  The same
    rejection guarantees a row with a != 0, since the vectors H_e
    annihilates are exactly the row space of G_Y.

    Both the syndrome H . corrected and h . corrected come from one
    linear map.  With A = [H; h] and corrected = y - x_hat G_X, where
    G_X stacks the cache rows g_j,

        A corrected = A y - A (G_X^T x_hat) = sum_k y_k A_k - sum_j x_hat_j A g_j,

    A_k being column k of A.  So z = A corrected is the sum, over the
    entries e of y then x_hat, of e times the matching column of
    [A | -A g_1 ... -A g_|X|]: its first rows are the syndrome and its
    last is h . corrected.  Then h . cleaned = h . corrected - h . p, and
    h . p is stored with p.  Every multiple of those columns is packed
    once into integer lanes wide enough for the N + |X| terms of a
    decode (``linalg.LaneVectors``), so a decode picks one multiple per
    entry, adds them up and reduces each lane mod p: the reduced int is
    the one packing of z.  The sum splits into y's side and x_hat's.
    y's side is kept with the last y that was a tuple, its entries and
    length checked, and reused while y is that object; a list is summed
    on every decode, since it may have changed.  Each column's multiples
    are looked up by any value equal to an element, each packed the
    first time it is read; any other value fails the lookup, and the
    decode raises the ValueError of a non-element.  The checks run in
    the order x_hat's length, the entries, y's length.

    The memo maps z to the (value, DecodeTrace) of a search decode.  The
    pair is a function of z alone: the table entry (syndrome, p,
    suspected, h . p) depends only on z's syndrome part, and value =
    (h . corrected - h . p) / a on that entry and z's last coordinate.
    So a memo hit returns exactly what the lookup would compute.  Only
    successful search decodes fill it: a NoSolutionError is raised
    again each time, and a forced_correction decode neither reads nor
    writes it, so its own syndrome check always runs.  Its keys are
    distinct z with a syndrome in the table, so it holds at most
    q * len(table) entries, and at most one per decode made.
    """

    def __init__(self, G: Matrix, graph: SideInfoGraph, i: int, delta_s: int):
        # a refusal is not cached, so it comes before anything is built
        _check_coset_budget(i, low_weight_count(len(graph.X[i - 1]),
                                                G.field.q, delta_s))
        ctx = build_context(G, graph, i)
        field = G.field
        add, sub, mul = arithmetic(field)
        self.ctx = ctx
        self.delta_s = delta_s
        self._add, self._sub, self._mul = add, sub, mul
        self._q = field.q
        # the first H_e row that sees the demand row (one exists: see above)
        self._h, a = next((h, a) for h in ctx.H_e.rows
                          if (a := table_dot(add, mul, h, ctx.demand_row)))
        self._a_inv = field.inv(a)
        # z = A (y - x_hat G_X), A = [H; h]: every scaling of A's columns,
        # looked up by the entries of y, and of the -A g_j, by those of x_hat
        A = Matrix(field, [*ctx.H.rows, self._h], ncols=G.ncols)
        self._lanes = lanes = LaneVectors(field, A.nrows,
                                          G.ncols + len(ctx.cache))
        self._reduce = lanes.reduce
        self._keep = lanes.keep if field.p == 2 else None
        self._length, self._size = G.ncols, len(ctx.cache)
        self._y_cols = [lanes.multiples(col) for col in A.columns()]
        self._x_cols = [lanes.multiples([field.neg(e) for e in A.mul_col(g)])
                        for g in ctx.G_cache.rows]
        self._y, self._y_sum = _UNSEEN, 0   # the last tuple y and its sum
        self._table = {
            lanes.pack(s): (s, p, suspected, table_dot(add, mul, self._h, p))
            for s, (p, suspected) in _coset_leaders(ctx, delta_s).items()}
        self._memo: dict = {}

    def decode(self, y, x_hat, forced_correction=None) -> tuple[int, DecodeTrace]:
        """decode_receiver at this decoder's receiver."""
        if len(x_hat) != self._size:
            raise ValueError(
                f"receiver {self.ctx.receiver} caches {self._size} packets, "
                f"got {len(x_hat)}")
        # z = A (y - x_hat G_X): syndrome on top, h . corrected last; an
        # entry that is not an element misses its column's lookup
        try:
            s = sum(map(_lookup, self._x_cols, x_hat))
        except (KeyError, TypeError):
            raise _not_elements(self._q) from None
        s += self._y_sum if y is self._y else self._codeword_sum(y)
        keep = self._keep
        z = self._reduce(s) if keep is None else s & keep
        if forced_correction is not None:
            return self._forced(z, forced_correction)
        hit = self._memo.get(z)
        if hit is None:
            key, hc = self._lanes.split(z)
            entry = self._table.get(key)
            if entry is None:
                raise _no_solution(self.ctx, self.delta_s)
            syndrome, p, suspected, hp = entry
            hit = self._memo[z] = self._result(hc, hp, syndrome, p, suspected)
        return hit

    def _codeword_sum(self, y) -> int:
        """y's side of z, its entries and then its length checked; kept
        for the next decode when y is a tuple, which cannot change."""
        cols = self._y_cols
        try:
            y_sum = sum(map(_lookup, cols, y))
            for e in y[self._length:]:      # entries past the columns
                cols[0][e]
        except (KeyError, TypeError):
            raise _not_elements(self._q) from None
        if len(y) != self._length:
            raise ValueError(
                f"y must have {self._length} entries, got {len(y)}")
        if type(y) is tuple:
            self._y, self._y_sum = y, y_sum
        return y_sum

    def _forced(self, z, forced_correction) -> tuple[int, DecodeTrace]:
        """The decode of z with the given correction instead of the table's."""
        try:    # each entry as the element it equals
            p = tuple(map(range(self._q).index, forced_correction))
        except ValueError:
            p = None
        if p is None or len(p) != self._length:
            raise ValueError(
                f"forced_correction must be {self._length} elements "
                f"of F_{self._q}")
        key, hc = self._lanes.split(z)
        syndrome = self._lanes.unpack(key, self.ctx.H.nrows)
        if self.ctx.H.mul_col(p) != syndrome:
            raise InconsistentError("forced correction does not match the syndrome")
        hp = table_dot(self._add, self._mul, self._h, p)
        return self._result(hc, hp, syndrome, p, ())

    def _result(self, hc, hp, syndrome, p, suspected) -> tuple[int, DecodeTrace]:
        # cleaned = x_f * demand_row + (interference combination), so
        # h . cleaned = h . corrected - h . p = x_f * (h . demand_row)
        value = self._mul[self._sub[hc][hp]][self._a_inv]
        return value, DecodeTrace(syndrome, p, suspected, value)


class _FailedDecoder:
    """Receiver i under a G that is degenerate there: every decode
    raises the build's error again, without rebuilding."""

    def __init__(self, error: DegenerateError):
        # type and message only: the traceback would keep the build's frames
        self._error = (type(error), error.args)

    def decode(self, *args):
        kind, message = self._error
        raise kind(*message)


@functools.lru_cache(maxsize=DECODER_CACHE_SIZE)
def receiver_decoder(G: Matrix, graph: SideInfoGraph, i: int,
                     delta_s: int) -> ReceiverDecoder | _FailedDecoder:
    """The decoder of receiver i, built once per value of (G, graph, i,
    delta_s) while it stays among the DECODER_CACHE_SIZE most recent.
    A failed build is kept too, as a decoder that raises its
    DegenerateError on every decode; a BudgetExceededError is not kept,
    and each call checks the budget again, before the receiver's context
    is built."""
    try:
        return ReceiverDecoder(G, graph, i, delta_s)
    except DegenerateError as exc:
        return _FailedDecoder(exc)


# (G, graph, i, delta_s, decoder) of decode_receiver's last call
_NO_DECODER = (None,) * 5
_last = _NO_DECODER


def _cache_clear(clear=receiver_decoder.cache_clear) -> None:
    """Empty receiver_decoder's cache, and forget decode_receiver's last
    decoder with it."""
    global _last
    _last = _NO_DECODER
    clear()


receiver_decoder.cache_clear = _cache_clear


def decode_receiver(G: Matrix, graph: SideInfoGraph, i: int, y, x_hat,
                    delta_s: int,
                    forced_correction=None) -> tuple[int, DecodeTrace]:
    """Recover the demanded symbol of receiver i from codeword y and the
    cache snapshot x_hat (entries in ascending cache order).

    Requires an error-free channel (y = xG exactly) and at most delta_s
    wrong cache entries.  forced_correction bypasses the search, for
    exercising alternative admissible corrections.  The receiver's
    decoder is built on the first call for this (G, graph, i, delta_s)
    and reused while it stays in receiver_decoder's cache.  A call with
    the very objects of the last call takes the last decoder without
    hashing them for the cache: they are immutable, so their value is
    the one that decoder was built for.
    """
    global _last
    last = _last
    if last[0] is G and last[1] is graph and last[2] is i and last[3] is delta_s:
        decoder = last[4]
    else:
        decoder = receiver_decoder(G, graph, i, delta_s)
        _last = (G, graph, i, delta_s, decoder)
    return decoder.decode(y, x_hat, forced_correction)


def decode_all(G: Matrix, graph: SideInfoGraph, y, x_hat_by_receiver: dict,
               delta_s: int) -> dict[int, tuple[int, DecodeTrace]]:
    """decode_receiver for every receiver with a provided cache snapshot."""
    out = {}
    for i, x_hat in sorted(x_hat_by_receiver.items()):
        out[i] = decode_receiver(G, graph, i, y, x_hat, delta_s)
    return out
