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
* the field's add, sub and mul as lookup tables (``gfield.arithmetic``),
  so a decode makes no Field method calls;
* the syndrome -> (correction, suspected packets) table: the coset
  leaders of the syndrome decoding of Dau, Skachek & Chee, "Error
  correction for index coding with side information" (IEEE Trans. IT
  59(3), 2013, Sec. V).  It is filled in ``find_correction``'s search
  order -- support size, then supports lexicographically, then
  coefficients -- and the first correction to reach a syndrome keeps
  it, so a lookup returns exactly the correction the search would find.

``decode_receiver`` takes its decoder from a bounded LRU cache keyed by
the value of (G, graph, i, delta_s), so repeated decodes at a receiver
cost one lookup, two small matrix-vector products and one dot product.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import DegenerateError, InconsistentError, NoSolutionError
from .gfield import arithmetic
from .linalg import Matrix, table_dot
from .sigraph import SideInfoGraph

DECODER_CACHE_SIZE = 128     # receivers whose decoders stay built


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


@dataclass(frozen=True)
class DecodeTrace:
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
        raise ValueError(f"G must have n = {graph.n} rows")
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


def _mul_col(add, mul, M: Matrix, v) -> tuple[int, ...]:
    """M times the column vector v, like Matrix.mul_col."""
    return tuple(table_dot(add, mul, row, v) for row in M.rows)


def _candidate_corrections(ctx: ReceiverContext, delta_s: int, add, mul):
    """Every combination of at most delta_s cache rows with nonzero
    coefficients, with the cache packets it blames, in search order:
    support size, then supports lexicographically, then coefficients."""
    rows = ctx.G_cache.rows
    zero = (0,) * ctx.G_cache.ncols
    units = range(1, ctx.G_cache.field.q)
    for t in range(delta_s + 1):
        for support in itertools.combinations(range(len(rows)), t):
            suspected = tuple(ctx.cache[j] for j in support)
            for coeffs in itertools.product(units, repeat=t):
                p = zero
                for j, c in zip(support, coeffs):
                    mc = mul[c]
                    p = tuple(add[a][mc[b]] for a, b in zip(p, rows[j]))
                yield p, suspected


def _no_solution(ctx: ReceiverContext, delta_s: int) -> NoSolutionError:
    return NoSolutionError(
        f"receiver {ctx.receiver}: no correction with support <= {delta_s}; "
        f"more cache errors than allowed, or an invalid generator")


def find_correction(ctx: ReceiverContext, syndrome, delta_s: int
                    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A combination of at most delta_s cache rows matching the syndrome.

    Searched by support size, then lexicographically over supports and
    coefficients, so the result is deterministic.  Returns the
    correction vector and the blamed cache packet indices.
    """
    add, _, mul = arithmetic(ctx.G_cache.field)
    syndrome = tuple(syndrome)
    for p, suspected in _candidate_corrections(ctx, delta_s, add, mul):
        if _mul_col(add, mul, ctx.H, p) == syndrome:
            return p, suspected
    raise _no_solution(ctx, delta_s)


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
    """

    def __init__(self, G: Matrix, graph: SideInfoGraph, i: int, delta_s: int):
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
        # first writer wins; once every syndrome has a writer the rest
        # of the candidates cannot change the table
        table: dict[tuple[int, ...], tuple] = {}
        syndromes = field.q ** ctx.H.nrows
        for p, suspected in _candidate_corrections(ctx, delta_s, add, mul):
            table.setdefault(_mul_col(add, mul, ctx.H, p), (p, suspected))
            if len(table) == syndromes:
                break
        self._table = table

    def decode(self, y, x_hat, forced_correction=None) -> tuple[int, DecodeTrace]:
        """decode_receiver at this decoder's receiver."""
        ctx = self.ctx
        add, sub, mul = self._add, self._sub, self._mul
        if len(x_hat) != len(ctx.cache):
            raise ValueError(
                f"receiver {ctx.receiver} caches {len(ctx.cache)} packets, "
                f"got {len(x_hat)}")
        for v in (y, x_hat):
            if v and (min(v) < 0 or max(v) >= self._q):
                raise ValueError(f"y and x_hat entries must be elements of F_{self._q}")
        # y minus the cache contribution x_hat . G_cache
        gx = [0] * ctx.G_cache.ncols
        for c, row in zip(x_hat, ctx.G_cache.rows):
            if c:
                mc = mul[c]
                for k, v in enumerate(row):
                    if v:
                        gx[k] = add[gx[k]][mc[v]]
        corrected = tuple(sub[a][b] for a, b in zip(y, gx, strict=True))
        syndrome = _mul_col(add, mul, ctx.H, corrected)
        if forced_correction is not None:
            p = tuple(forced_correction)
            if _mul_col(add, mul, ctx.H, p) != syndrome:
                raise InconsistentError("forced correction does not match the syndrome")
            suspected: tuple[int, ...] = ()
        else:
            hit = self._table.get(syndrome)
            if hit is None:
                raise _no_solution(ctx, self.delta_s)
            p, suspected = hit
        cleaned = tuple(sub[a][b] for a, b in zip(corrected, p, strict=True))
        # cleaned = x_f * demand_row + (interference combination), so
        # h . cleaned = x_f * (h . demand_row) for the kept H_e row h
        value = mul[table_dot(add, mul, self._h, cleaned)][self._a_inv]
        return value, DecodeTrace(syndrome=syndrome, correction=p,
                                  suspected=suspected, value=value)


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
    DegenerateError on every decode."""
    try:
        return ReceiverDecoder(G, graph, i, delta_s)
    except DegenerateError as exc:
        return _FailedDecoder(exc)


def decode_receiver(G: Matrix, graph: SideInfoGraph, i: int, y, x_hat,
                    delta_s: int,
                    forced_correction=None) -> tuple[int, DecodeTrace]:
    """Recover the demanded symbol of receiver i from codeword y and the
    cache snapshot x_hat (entries in ascending cache order).

    Requires an error-free channel (y = xG exactly) and at most delta_s
    wrong cache entries.  forced_correction bypasses the search, for
    exercising alternative admissible corrections.  The receiver's
    decoder is built on the first call for this (G, graph, i, delta_s)
    and reused while it stays in receiver_decoder's cache.
    """
    return receiver_decoder(G, graph, i, delta_s).decode(
        y, x_hat, forced_correction)


def decode_all(G: Matrix, graph: SideInfoGraph, y, x_hat_by_receiver: dict,
               delta_s: int) -> dict[int, tuple[int, DecodeTrace]]:
    """decode_receiver for every receiver with a provided cache snapshot."""
    out = {}
    for i, x_hat in sorted(x_hat_by_receiver.items()):
        out[i] = decode_receiver(G, graph, i, y, x_hat, delta_s)
    return out
