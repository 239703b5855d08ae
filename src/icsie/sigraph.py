"""Side-information graph model, problem instances and their JSON format.

A SideInfoGraph is the directed bipartite graph of n packet nodes and
m receiver nodes: receiver i demands packet f(i) and caches the packets
in X_i.  Packets and receivers are numbered from 1.  All types here are
immutable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import IcsieError, ParseError
from .gfield import field_for

# Packets per instance.  Every search is exponential in n and refuses
# far smaller instances by budget; the cap bounds the work linear in n
# done before that (validate lists each undemanded packet, and each
# receiver's interference set spans all n packets).
MAX_N = 1 << 16


@dataclass(frozen=True)
class SideInfoGraph:
    n: int
    m: int
    f: tuple[int, ...]                 # demand map, f[i-1] = packet wanted by receiver i
    X: tuple[frozenset[int], ...]      # cache sets, X[i-1] subset of {1..n}

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need at least one packet and one receiver")
        if self.n > MAX_N:
            raise ValueError(f"n = {self.n} exceeds the cap {MAX_N}")
        if len(self.f) != self.m or len(self.X) != self.m:
            raise ValueError("f and X must have one entry per receiver")
        for i in range(self.m):
            if not 1 <= self.f[i] <= self.n:
                raise IndexError(f"f({i + 1}) = {self.f[i]} out of range")
            bad = [j for j in self.X[i] if not 1 <= j <= self.n]
            if bad:
                raise IndexError(f"X_{i + 1} contains out-of-range packets {bad}")

    @staticmethod
    def make(n: int, f, X) -> "SideInfoGraph":
        return SideInfoGraph(n=n, m=len(f), f=tuple(f),
                             X=tuple(frozenset(s) for s in X))

    def y_set(self, i: int) -> frozenset[int]:
        """Interfering packets of receiver i: neither demanded nor cached."""
        if not 1 <= i <= self.m:
            raise IndexError(f"receiver {i} out of range")
        return frozenset(range(1, self.n + 1)) - ({self.f[i - 1]} | self.X[i - 1])

    def demands_in_side_info(self) -> list[str]:
        """validate()'s message for each receiver caching its own demand."""
        return [f"demand-in-side-info: receiver {i} demands packet {f} "
                f"which it already caches"
                for i, (f, X) in enumerate(zip(self.f, self.X), start=1)
                if f in X]

    def validate(self) -> list[str]:
        """All semantic invariants, one message per violation; empty when ok."""
        problems = self.demands_in_side_info()
        demanded = set(self.f)
        for j in range(1, self.n + 1):
            if j not in demanded:
                problems.append(f"undemanded-packet: packet {j} has no receiver")
        return problems

    def is_unipartite(self) -> bool:
        return self.m == self.n and all(self.f[i] == i + 1 for i in range(self.m))


def clique_graph(n: int) -> SideInfoGraph:
    """Unipartite clique: receiver i demands i and caches everything else."""
    return SideInfoGraph.make(
        n, range(1, n + 1),
        [frozenset(range(1, n + 1)) - {i} for i in range(1, n + 1)])


@dataclass(frozen=True)
class ProblemSpec:
    graph: SideInfoGraph
    q: int
    delta_s: int
    delta_c: int = 0

    def __post_init__(self):
        if self.delta_s < 0 or self.delta_c < 0:
            raise ValueError("delta_s and delta_c must be nonnegative")
        # a receiver that caches its demand has nothing to decode, and
        # the searches and bounds assume none does
        own = self.graph.demands_in_side_info()
        if own:
            raise ValueError(own[0])
        field_for(self.q)  # raises on non-prime-power q

    @property
    def field(self):
        return field_for(self.q)

    def side_weight_cap(self) -> int:
        """The one cache-weight cap, 2*delta_s: with up to delta_s wrong
        cached symbols at unknown positions, two messages differing in at
        most 2*delta_s cached positions can look alike to a receiver."""
        return 2 * self.delta_s


def is_integer(val) -> bool:
    """The one integer rule for input documents: a JSON integer, and not
    true or false, which Python reads as 1 and 0."""
    return isinstance(val, int) and not isinstance(val, bool)


def parse_instance(text: str) -> ProblemSpec:
    """Parse the JSON instance document; see serialize_instance for the
    schema.  A "side_error_model" key, kept by older documents, must be
    "error", the one cache-error model."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # a RecursionError: arrays or objects nested past the stack
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")

    def need(key, kind):
        if key not in doc:
            raise ParseError(f"missing field {key!r}")
        val = doc[key]
        if kind is int and not is_integer(val):
            raise ParseError(f"field {key!r} must be an integer")
        if kind is list and not isinstance(val, list):
            raise ParseError(f"field {key!r} must be an array")
        return val

    n = need("n", int)
    m = need("m", int)
    q = need("q", int)
    delta_s = need("delta_s", int)
    delta_c = need("delta_c", int)
    f = need("f", list)
    X = need("X", list)
    if doc.get("side_error_model", "error") != "error":
        raise ParseError('side_error_model must be "error" when given')
    if len(f) != m:
        raise ParseError(f"f has {len(f)} entries, expected m = {m}")
    if len(X) != m:
        raise ParseError(f"X has {len(X)} entries, expected m = {m}")
    if not all(map(is_integer, f)):
        raise ParseError("entries of f must be integers")
    for i, xs in enumerate(X, start=1):
        if not isinstance(xs, list):
            raise ParseError(f"X[{i}] must be an array")
        if not all(map(is_integer, xs)):
            raise ParseError(f"entries of X[{i}] must be integers")
        if xs != sorted(set(xs)):
            raise ParseError(f"X[{i}] must be strictly ascending")
    try:
        graph = SideInfoGraph.make(n, f, X)
        return ProblemSpec(graph=graph, q=q, delta_s=delta_s, delta_c=delta_c)
    except (IcsieError, ValueError, IndexError) as exc:
        raise ParseError(str(exc)) from exc


def serialize_instance(spec: ProblemSpec) -> str:
    """Deterministic JSON rendering; parse(serialize(s)) == s."""
    g = spec.graph
    doc = {
        "n": g.n,
        "m": g.m,
        "q": spec.q,
        "delta_s": spec.delta_s,
        "delta_c": spec.delta_c,
        "f": list(g.f),
        "X": [sorted(s) for s in g.X],
    }
    return json.dumps(doc, indent=1)
