"""Error-injection simulation of the syndrome decoder.

A trial encodes a message x, corrupts up to delta_s of one receiver's
cached symbols, and checks that ``decode_receiver`` recovers the demand.
The exhaustive (adversarial) mode walks every (receiver, message,
side-error) triple; random mode samples them with a seeded stdlib
Mersenne Twister, portable across platforms.  Only the error-free
channel (delta_c = 0) is simulated; with channel errors use
``oracle_decodable``.

The budget counts trials: an exhaustive run makes
sum_i q^n * |V_i| of them, V_i being receiver i's side-error variants
(at most min(delta_s, |X_i|) errors each), and a random run makes
``trials``; either must be at most 2^budget_bits.

Both modes share one trial step, which makes one ``decode_receiver``
call.  Each receiver's constants -- its ascending cache, its variants as
(position, delta) pairs and its demand's index -- are set up once, and
the decoder it reaches is built once: a repeated trial costs one
accumulate and one memo lookup there (see ``decoder``).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .codeset import _check_generator
from .decoder import decode_receiver
from .errors import (BudgetExceededError, DegenerateError, IcsieError,
                     InconsistentError, NoSolutionError)
from .gfield import arithmetic
from .linalg import Matrix
from .sigraph import ProblemSpec

DEFAULT_TRIAL_BITS = 24
MAX_WITNESSES = 10
_BLOCK = 1 << 12   # exhaustive mode encodes this many messages at a time


@dataclass(frozen=True)
class SimulationConfig:
    trials: int | str                  # random-mode count, or "exhaustive"
    seed: int = 0

    def __post_init__(self):
        if self.trials != "exhaustive" and not (
                isinstance(self.trials, int) and self.trials >= 1):
            raise IcsieError(
                f'trials must be a positive count or "exhaustive", '
                f'got {self.trials!r}')


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


def _side_error_variants(spec: ProblemSpec, i: int):
    """All admissible corrupted caches as offsets: list of index/value dicts."""
    q = spec.q
    cache = sorted(spec.graph.X[i - 1])
    out: list[dict[int, int]] = [{}]
    # no more errors than cached symbols (combinations(.., t) allocates t)
    for t in range(1, min(spec.delta_s, len(cache)) + 1):
        for positions in itertools.combinations(range(len(cache)), t):
            for vals in itertools.product(range(1, q), repeat=t):
                out.append(dict(zip(positions, vals)))
    return out


def _variant_count(spec: ProblemSpec, cache_size: int) -> int:
    """len(_side_error_variants) for a cache of the given size."""
    return sum(math.comb(cache_size, t) * (spec.q - 1) ** t
               for t in range(min(spec.delta_s, cache_size) + 1))


def run_simulation(spec: ProblemSpec, G: Matrix,
                   config: SimulationConfig,
                   budget_bits: int = DEFAULT_TRIAL_BITS) -> SimulationReport:
    """Exercise the decoder against injected cache errors.

    Exhaustive/adversarial mode walks every (receiver, message,
    side-error) triple and encodes each message once; its witnesses come
    receiver by receiver, each receiver's in message order.  Random mode
    samples the triples and keeps witnesses in trial order.
    Raises BudgetExceededError, before any trial, when the run would
    make more than 2^budget_bits trials, and FieldMismatchError when G
    is over another field than the instance.
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
    trials = (q ** n * sum(_variant_count(spec, len(X)) for X in g.X)
              if exhaustive else config.trials)
    if trials > 1 << budget_bits:
        raise BudgetExceededError(
            f"{trials} simulation trials exceed the {budget_bits}-bit budget")
    per: dict[int, list[int]] = {i: [0, 0] for i in range(1, g.m + 1)}
    setups: dict[int, tuple] = {}
    delta_s = spec.delta_s

    def setup(i: int):
        """Receiver i's ascending cache, its side-error variants as
        (position, delta) pairs, and the index of its demand in x."""
        if i not in setups:
            setups[i] = (sorted(g.X[i - 1]),
                         [tuple(v.items()) for v in _side_error_variants(spec, i)],
                         g.f[i - 1] - 1)
        return setups[i]

    def trial(i: int, demand: int, x, y, clean, offsets,
              witnesses: list) -> None:
        """Decode receiver i's cache clean, corrupted by offsets, and
        count the trial; a failure becomes a witness while room is left."""
        x_hat = list(clean)
        for pos, delta in offsets:
            x_hat[pos] = add[x_hat[pos]][delta]
        tally = per[i]
        tally[1] += 1
        try:
            ok = decode_receiver(G, g, i, y, x_hat, delta_s)[0] == x[demand]
        except (NoSolutionError, InconsistentError, DegenerateError):
            ok = False
        if ok:
            tally[0] += 1
        elif len(witnesses) < MAX_WITNESSES:
            witnesses.append((i, x, dict(offsets)))

    if exhaustive:
        # each message encoded once, in blocks so memory stays bounded and
        # each receiver's cached decoder serves a whole block; receivers
        # keep their own witnesses, joined receiver by receiver
        found: dict[int, list[tuple]] = {i: [] for i in per}
        messages = itertools.product(range(q), repeat=n)
        while block := list(itertools.islice(messages, _BLOCK)):
            coded = [(x, G.vec_mul(x)) for x in block]
            for i in per:
                cache, variants, demand = setup(i)
                mine = found[i]
                for x, y in coded:
                    clean = [x[j - 1] for j in cache]
                    for offsets in variants:
                        trial(i, demand, x, y, clean, offsets, mine)
        witnesses = [w for i in per for w in found[i]][:MAX_WITNESSES]
    else:
        witnesses = []
        rng = random.Random(config.seed)
        for _ in range(trials):
            i = rng.randrange(1, g.m + 1)
            x = tuple(rng.randrange(q) for _ in range(n))
            cache, variants, demand = setup(i)
            offsets = variants[rng.randrange(len(variants))]
            trial(i, demand, x, G.vec_mul(x), [x[j - 1] for j in cache],
                  offsets, witnesses)
    return SimulationReport(
        per_receiver={i: (ok, tot) for i, (ok, tot) in per.items()},
        witnesses=tuple(witnesses))
