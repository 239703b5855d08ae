"""Every table the library keeps between calls, and the one rule that
bounds them: a bounded table is a plain dict filled through ``store``,
and a store into a full table empties it first, so a hit costs one
dict lookup and the bookkeeping runs only at a store.  ``clear``
empties them all.

Each value is a function of its key alone, so a warm call returns what
a cold one computes, and a refusal is never kept.  The walk memo's
callers check their budget before they read it; l_q, r_q and the
decoders keep an answer when a budget later shrinks.  Bytes were
measured with tracemalloc on CPython 3.11 (64-bit); no budget lets a
support table past n = 24 (``codeset.DEFAULT_ENUM_BITS``).

``decoder.receiver_decoder``: receiver -> decoder, for the last (G,
graph, delta_s) only, matched by identity and then by value; another
triple empties it.  At most ``DECODER_CACHE_SIZE`` (128); a failed
build is kept as a decoder that raises its error again.  Each decoder
keeps two sum tables (tuple y or x_hat -> its packed side of z, only
for tuples whose entries passed the checks) and its z-memo (z -> the
(value, trace) of a successful search decode), at most
``decoder._TABLE_SIZE`` (1,024) each, plus its coset table (at most
q^rows entries, after ``COSET_CANDIDATE_BUDGET``) and its column
multiples (at most q per column).  An entry takes ~300 B over F_257 at
N = 3: ~1 MB per full decoder, ~120 MB for 128.

``encoder.walk_memo``: (walk, q, n, table) -> {length: result}, each
entry charged ``sys.getsizeof(table)`` + 1 KiB, at most
``WALK_MEMO_BYTES`` (16 MiB) in all; a table past that alone is not
kept.

``codeset._instance_table``: the last (graph, 2*delta_s) -> its
``SupportTable``, with what is read off it, ~2.1 * 2^n B (35 MB at
n = 24).  ``codeset._mask_bitsets``: the last n -> 2n + 1 ints of 2^n
bits (24 MB at n = 22, 103 MB at n = 24).

``encoder.l_q`` and ``encoder._redundancy``: arguments -> answer, at
most ``encoder._ANSWER_CACHE_SIZE`` (1,024) each, ~180 B an entry
(~230 kB each when full).  These two stay ``functools.lru_cache``s,
which evict the least recently used answer instead of emptying, because
the benchmark reads ``l_q.cache_info()``.

``gfield.field_for``: q -> ``Field``, one per prime power q <= ``MAX_Q``
asked for: 1.7 MB at q = 256 and 32 MB for all 70 tabulated q (at most
``TABLE_Q_LIMIT``), ~100 B each above.
"""


def clear() -> None:
    """Empty every table listed above."""
    # imported here: decoder imports store from this module
    from . import codeset, decoder, encoder, gfield
    decoder._decoders.clear()
    encoder.walk_memo.clear()
    for cached in (codeset._instance_table, codeset._mask_bitsets,
                   encoder.l_q, encoder._redundancy, gfield.field_for):
        cached.cache_clear()


def store(table: dict, key, value, size: int):
    """Keep value under key in a table of at most size entries, emptying
    the table first when it is full.  Returns value."""
    if len(table) >= size:
        table.clear()
    table[key] = value
    return value
