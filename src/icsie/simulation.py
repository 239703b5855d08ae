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

Both modes feed one inline trial body: each mode yields groups of
(receiver, message, codeword, clean cache, variants), and the body
corrupts the cache by each variant and decodes it, with no Python call
per trial but its one ``decode_receiver`` call.  Each receiver's
constants -- its ascending cache, its variants as (position, delta)
pairs, their count and its bit length -- are set up once, before the
first trial, and the decoder it reaches is built once: every trial
passes decode_receiver the same G, graph and delta_s objects, whose
decoders ``decoder.receiver_decoder`` keeps by receiver.  The codeword
y and the corrupted snapshot x_hat go in as tuples, and the decoder
keeps each side's packed sum by value, so a trial whose y and x_hat
that receiver has seen costs two dict lookups, an add, a lane reduction
and one memo lookup there (see ``decoder``; ``kept`` bounds them).
Every trial still makes its own decode: the simulation is the decoder's
independent check.

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

from .codeset import _check_generator
from .decoder import _check_coset_budget, decode_receiver
from .errors import (BudgetExceededError, DegenerateError, IcsieError,
                     InconsistentError, NoSolutionError)
from .gfield import arithmetic
from .linalg import Matrix, low_weight, low_weight_count
from .sigraph import ProblemSpec, is_integer

DEFAULT_TRIAL_BITS = 24
MAX_WITNESSES = 10
_BLOCK = 1 << 12   # each mode encodes a message once per this many trials


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
    it encodes each distinct message once per block of trials.
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
    n, q = g.n, spec.q
    add = arithmetic(spec.field)[0]
    exhaustive = config.trials == "exhaustive"
    counts = [low_weight_count(len(X), q, spec.delta_s) for X in g.X]
    trials = q ** n * sum(counts) if exhaustive else config.trials
    if trials > 1 << DEFAULT_TRIAL_BITS:
        raise BudgetExceededError(
            f"{trials} simulation trials exceed the {DEFAULT_TRIAL_BITS}-bit "
            f"budget")
    for i, count in enumerate(counts, start=1):
        _check_coset_budget(i, count)
    per: dict[int, list[int]] = {i: [0, 0] for i in range(1, g.m + 1)}
    # receiver i's ascending cache, its side-error variants as (position,
    # delta) pairs in low_weight's order, their count and its bit length
    plan = {}
    for i in per:
        cache = sorted(g.X[i - 1])
        variants = [tuple(zip(at, deltas)) for at, deltas
                    in low_weight(len(cache), q, spec.delta_s)]
        plan[i] = cache, variants, len(variants), len(variants).bit_length()

    def every_trial():
        """Each message encoded once, in blocks so memory stays bounded
        and each receiver's decoder serves a whole block; receivers keep
        their own witnesses, joined receiver by receiver."""
        messages = itertools.product(range(q), repeat=n)
        while block := list(itertools.islice(messages, _BLOCK)):
            coded = [(x, G.vec_mul(x)) for x in block]
            for i in per:
                cache, variants, _, _ = plan[i]
                mine = found[i]
                for x, y in coded:
                    yield i, x, y, [x[j - 1] for j in cache], variants, mine

    def sampled_trials():
        """randrange's draws, inline (see the module docstring), and
        each distinct message of a block encoded once."""
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
                cache, variants, count, bits = plan[i]
                r = getrandbits(bits)
                while r >= count:
                    r = getrandbits(bits)
                yield (i, x, y, [x[j - 1] for j in cache], (variants[r],),
                       witnesses)

    found: dict[int, list[tuple]] = {i: [] for i in per}
    witnesses: list[tuple] = []
    f, delta_s = g.f, spec.delta_s
    # one trial body for both modes: receiver i decodes its clean cache
    # corrupted by each variant's offsets; a failure becomes a witness
    # while room is left
    for i, x, y, clean, variants, mine in (
            every_trial() if exhaustive else sampled_trials()):
        want = x[f[i - 1] - 1]
        tally = per[i]
        tally[1] += len(variants)
        for offsets in variants:
            x_hat = clean.copy()
            for pos, delta in offsets:
                x_hat[pos] = add[x_hat[pos]][delta]
            try:
                ok = decode_receiver(G, g, i, y, tuple(x_hat),
                                     delta_s)[0] == want
            except (NoSolutionError, InconsistentError, DegenerateError):
                ok = False
            if ok:
                tally[0] += 1
            elif len(mine) < MAX_WITNESSES:
                mine.append((i, x, dict(offsets)))
    if exhaustive:
        witnesses = [w for i in per for w in found[i]][:MAX_WITNESSES]
    return SimulationReport(
        per_receiver={i: (ok, tot) for i, (ok, tot) in per.items()},
        witnesses=tuple(witnesses))
