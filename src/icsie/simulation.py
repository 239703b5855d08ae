"""Error-injection simulation of the syndrome decoder.

A trial encodes a message x, corrupts up to delta_s of one receiver's
cached symbols, and checks that ``decode_receiver`` recovers the demand.
The exhaustive (adversarial) mode walks every (receiver, message,
side-error) triple; random mode samples them with a seeded stdlib
Mersenne Twister, portable across platforms.  Only the error-free
channel (delta_c = 0) is simulated; with channel errors use
``oracle_decodable``.

A receiver's side-error variants V_i are the error patterns of
``linalg.low_weight`` over its cache, at most min(delta_s, |X_i|)
errors each, in the order the decoder's coset leaders are walked.  The
budget counts trials: an exhaustive run makes sum_i q^n * |V_i| of
them, counted by ``linalg.low_weight_count`` before any variant is
listed, and a random run makes ``trials``; either must be at most
2^DEFAULT_TRIAL_BITS.  Each receiver's decoder lists the same |V_i|
candidate corrections, so its coset-table budget is checked for every
receiver before the first trial too.

A trial is its one ``decode_receiver`` call and its tally.  A
receiver's corrupted snapshots depend only on its clean cache -- x's
entries at its ascending cache positions, taken as a tuple by one
``operator.itemgetter`` call -- and on (|X_i|, q, delta_s).  So the
receivers of one cache size share one variant list.  Exhaustive mode
walks each encoded block receiver by receiver, keeps one snapshot table
per run that maps a clean tuple to its |V_i| snapshots in variant
order, and adds the tallies once per (receiver, block).  Every receiver
of a cache size reads the same entries, and each snapshot is built once
while it is kept: all 8 receivers of clique-8 cache 7 packets, so an
F_2 run at delta_s = 1 builds 1,024 snapshots for its 16,384 trials.
Random mode corrupts each trial's clean tuple for its one drawn
variant and keeps no table: a (clean tuple, variant) table hit on none
of 30,000 trials over F_257 at |X_i| = 3, delta_s = 1, where it made
the run slower.

The table lives for one call and holds at most ``_SNAPSHOT_TUPLES``
(65,536) snapshots, as _SNAPSHOT_TUPLES // max |V_i| entries; a store
into a full table empties it first (``kept.store``).  The trial budget
keeps max |V_i| <= 4,096 (every |V_i| <= q^n, so max |V_i|^2 <= the
trials), so at least 16 entries fit.  Past the bound, a receiver whose
clean tuples recur further apart than the table holds builds its
snapshots again per message, as the walk did before the table.  A full
table takes ~11 MB at caches of 13 packets and delta_s = 1 (14
snapshots an entry, ~170 B each), and ~35 MB at its most: caches of 23
packets at delta_s = 0 (one snapshot an entry, ~540 B each), which the
budget admits only for n = 24 and one receiver (``sys.getsizeof`` of
the table, its keys, entries and snapshots; CPython 3.11).

Every trial passes decode_receiver the same G, graph and delta_s
objects, whose decoders ``decoder.receiver_decoder`` keeps by receiver,
and the codeword y and the snapshot x_hat as tuples.  The decoder keeps
each side's packed sum by value, so a trial whose y and x_hat that
receiver has seen costs two dict lookups, an add, a lane reduction and
one memo lookup there (see ``decoder``; ``kept`` bounds them); in
exhaustive mode a kept snapshot is the very key the decoder holds,
which its lookup finds by identity.  Every trial still makes its own
decode: the simulation is the decoder's independent check.

Both modes encode in blocks of ``_BLOCK``, so memory stays bounded:
exhaustive mode encodes each message once, random mode each distinct
message once per block of trials.  A random trial draws, from
``random.Random(seed)``, the receiver (1 + a draw below m), then the n
message symbols (each below q), then the variant's index (below |V_i|).
Each draw below w follows ``randrange``'s rule -- getrandbits(k) for
k = w.bit_length(), drawn again while it is >= w -- so a seed gives the
trials that earlier versions drew with ``randrange``.  The seed must be
an integer >= 0: ``random.Random`` would seed None from the operating
system and a negative seed by its absolute value.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from operator import itemgetter

from .codeset import _check_generator
from .decoder import _check_coset_budget, decode_receiver
from .errors import (BudgetExceededError, DegenerateError, IcsieError,
                     InconsistentError, NoSolutionError)
from .gfield import arithmetic
from .kept import store
from .linalg import Matrix, low_weight, low_weight_count
from .sigraph import ProblemSpec, is_integer

DEFAULT_TRIAL_BITS = 24
MAX_WITNESSES = 10
_BLOCK = 1 << 12   # each mode encodes a message once per this many trials
_SNAPSHOT_TUPLES = 1 << 16   # corrupted snapshots one run's table holds


@dataclass(frozen=True)
class SimulationConfig:
    trials: int | str                  # random-mode count, or "exhaustive"
    seed: int = 0

    def __post_init__(self):
        if self.trials != "exhaustive" and not (
                is_integer(self.trials) and self.trials >= 1):
            raise IcsieError(
                f'trials must be a positive count or "exhaustive", '
                f'got {self.trials!r}')
        if not (is_integer(self.seed) and self.seed >= 0):
            raise IcsieError(
                f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class SimulationReport:
    per_receiver: dict[int, tuple[int, int]]   # receiver -> (ok, total)
    witnesses: tuple[tuple, ...]               # failing (receiver, x, x_hat)

    @property
    def ok(self) -> bool:
        return not self.witnesses

    def rates(self) -> dict[int, float]:
        return {i: ok / total if total else 1.0
                for i, (ok, total) in sorted(self.per_receiver.items())}


def run_simulation(spec: ProblemSpec, G: Matrix,
                   config: SimulationConfig) -> SimulationReport:
    """Exercise the decoder against injected cache errors.

    Exhaustive/adversarial mode walks every (receiver, message,
    side-error) triple and encodes each message once; its witnesses come
    receiver by receiver, each receiver's in message order.  Random mode
    samples the triples and keeps witnesses in trial order; its trials
    are the ones ``randrange`` draws from ``random.Random(seed)``, and
    it encodes each distinct message once per block of trials.  An
    exhaustive run's corrupted snapshots come from its snapshot table
    (see the module docstring), built once per clean cache and shared
    by the receivers of its cache size, so a trial is its one
    ``decode_receiver`` call and its tally.
    Raises BudgetExceededError, before any trial, when the run would
    make more than 2^DEFAULT_TRIAL_BITS trials or some receiver's
    decoder would list more candidate corrections than its budget, and
    FieldMismatchError when G is over another field than the instance.
    """
    if spec.delta_c != 0:
        raise IcsieError(
            "decoder-backed simulation requires delta_c = 0; "
            "use oracle_decodable for channel errors")
    _check_generator(spec, G)
    g = spec.graph
    n, q, delta_s = g.n, spec.q, spec.delta_s
    add = arithmetic(spec.field)[0]
    exhaustive = config.trials == "exhaustive"
    counts = [low_weight_count(len(X), q, delta_s) for X in g.X]
    trials = q ** n * sum(counts) if exhaustive else config.trials
    if trials > 1 << DEFAULT_TRIAL_BITS:
        raise BudgetExceededError(
            f"{trials} simulation trials exceed the {DEFAULT_TRIAL_BITS}-bit "
            f"budget")
    for i, count in enumerate(counts, start=1):
        _check_coset_budget(i, count)
    per: dict[int, list[int]] = {i: [0, 0] for i in range(1, g.m + 1)}
    # receiver i's clean-cache picker, its demand's position in x, its
    # side-error variants as (position, delta) pairs in low_weight's
    # order (one list per cache size) and their count's bit length
    by_size: dict[int, list] = {}
    plan = {}
    for i in per:
        cache = sorted(g.X[i - 1])
        variants = by_size.get(len(cache))
        if variants is None:
            variants = by_size[len(cache)] = [
                tuple(zip(at, deltas))
                for at, deltas in low_weight(len(cache), q, delta_s)]
        plan[i] = (_picker([j - 1 for j in cache]), g.f[i - 1] - 1,
                   variants, len(variants).bit_length())

    def corrupt(clean, offsets):
        x_hat = list(clean)
        for pos, delta in offsets:
            x_hat[pos] = add[x_hat[pos]][delta]
        return tuple(x_hat)

    decode = decode_receiver    # read once: a patched binding is seen
    failures = (NoSolutionError, InconsistentError, DegenerateError)
    if exhaustive:
        table: dict = {}        # the snapshot table (module docstring)
        entries = _SNAPSHOT_TUPLES // max(counts)
        found: dict[int, list[tuple]] = {i: [] for i in per}
        messages = itertools.product(range(q), repeat=n)
        while block := list(itertools.islice(messages, _BLOCK)):
            coded = [(x, G.vec_mul(x)) for x in block]
            for i, (pick, demand, variants, _) in plan.items():
                mine, good = found[i], 0
                for x, y in coded:
                    clean = pick(x)
                    snapshots = table.get(clean)
                    if snapshots is None:
                        snapshots = tuple(corrupt(clean, offsets)
                                          for offsets in variants)
                        store(table, clean, snapshots, entries)
                    want = x[demand]
                    for x_hat in snapshots:
                        try:
                            if decode(G, g, i, y, x_hat, delta_s)[0] == want:
                                good += 1
                                continue
                        except failures:
                            pass
                        if len(mine) < MAX_WITNESSES:
                            # distinct variants give distinct snapshots
                            r = snapshots.index(x_hat)
                            mine.append((i, x, dict(variants[r])))
                tally = per[i]
                tally[0] += good
                tally[1] += len(coded) * len(variants)
        witnesses = [w for i in per for w in found[i]][:MAX_WITNESSES]
    else:
        # randrange's draws, inline (see the module docstring)
        witnesses = []
        getrandbits = random.Random(config.seed).getrandbits
        m, m_bits, q_bits = g.m, g.m.bit_length(), q.bit_length()
        symbols = range(n)
        for start in range(0, trials, _BLOCK):
            coded = {}
            for _ in range(min(_BLOCK, trials - start)):
                r = getrandbits(m_bits)
                while r >= m:
                    r = getrandbits(m_bits)
                i = r + 1
                x = []
                for _ in symbols:
                    r = getrandbits(q_bits)
                    while r >= q:
                        r = getrandbits(q_bits)
                    x.append(r)
                x = tuple(x)
                y = coded.get(x)
                if y is None:
                    y = coded[x] = G.vec_mul(x)
                pick, demand, variants, bits = plan[i]
                r = getrandbits(bits)
                while r >= len(variants):
                    r = getrandbits(bits)
                x_hat = corrupt(pick(x), variants[r])
                tally = per[i]
                tally[1] += 1
                try:
                    ok = decode(G, g, i, y, x_hat, delta_s)[0] == x[demand]
                except failures:
                    ok = False
                if ok:
                    tally[0] += 1
                elif len(witnesses) < MAX_WITNESSES:
                    witnesses.append((i, x, dict(variants[r])))
    return SimulationReport(
        per_receiver={i: (ok, tot) for i, (ok, tot) in per.items()},
        witnesses=tuple(witnesses))


def _picker(positions: list[int]):
    """x -> the tuple of x's entries at the 0-based positions, one C call
    (``operator.itemgetter``) for two or more."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda x: tuple(x[j] for j in positions)
