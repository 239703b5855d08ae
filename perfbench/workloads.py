"""The four workloads: seeded instances and the operation list of one pass.

Every instance is generated here from the workload seed, never from the
test suite, so editing a test cannot change what the benchmark measures.
Instances are written in the library's JSON instance format and
generators in its generator format; the program only ever sees those
files.  Each operation carries what the checker needs to verify its
answer after the timed region.

Why each workload exists (the same sentences are in BENCHMARK.json):

* cli    -- one CLI query at a time, dominated by the big F_2 subspace
            search (encoder enumeration, codeset masks, span kernel).
* family -- many small library calls over the acceptance family, where
            per-call set-up and the delta_c = 1 multiset loop dominate.
* decode -- exhaustive adversarial simulation, where the decoder, linalg
            and field arithmetic dominate and the search kernels idle.
* gfq    -- the only workload over q in {3, 4, 5}: general-q branches of
            codeset and encoder and non-binary field arithmetic.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

from check import code_exists_q2, optimal_generator_q2

PINNED = json.loads(Path(__file__).with_name("pinned.json").read_text())

WORKLOADS = ("cli", "family", "decode", "gfq")


def clique_caches(n: int) -> list[list[int]]:
    return [[j for j in range(1, n + 1) if j != i] for i in range(1, n + 1)]


def random_caches(rng: random.Random, n: int, k: int) -> list[list[int]]:
    """Unipartite graph where every receiver caches k random other packets."""
    return [sorted(rng.sample([j for j in range(1, n + 1) if j != i], k))
            for i in range(1, n + 1)]


def all_unipartite_caches(n: int):
    """Every unipartite graph on n packets, as its list of cache sets."""
    pools = [[list(c) for k in range(n) for c in itertools.combinations(
        [j for j in range(1, n + 1) if j != i], k)] for i in range(1, n + 1)]
    return [list(caches) for caches in itertools.product(*pools)]


def clique_length_q2(n: int) -> int:
    """Closed-form optimal length of the F_2 clique at delta_s = 1:
    the least N with 2^(N-1) >= n."""
    return next(N for N in itertools.count(1) if 2 ** (N - 1) >= n)


def simulate_trials(q: int, n: int, caches, delta_s: int) -> list[int]:
    """Trials per receiver of an exhaustive adversarial simulation:
    every message times every cache corruption of weight <= delta_s."""
    return [q ** n * sum(math.comb(len(X), t) * (q - 1) ** t
                         for t in range(delta_s + 1))
            for X in caches]


class Plan:
    """Instance and generator files of one run, plus its operation list."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.instances: dict[str, dict] = {}
        self.generators: dict[str, dict] = {}
        self.ops: list[dict] = []

    def instance(self, label: str, caches, q: int, delta_s: int,
                 delta_c: int = 0) -> str:
        n = len(caches)
        doc = {"n": n, "m": n, "q": q, "delta_s": delta_s, "delta_c": delta_c,
               "side_error_model": "error", "f": list(range(1, n + 1)),
               "X": [sorted(X) for X in caches]}
        path = self.dir / f"{label}.instance.json"
        path.write_text(json.dumps(doc))
        self.instances[label] = dict(doc, path=str(path))
        return str(path)

    def generator(self, label: str, q: int, rows) -> str:
        doc = {"q": q, "n": len(rows), "N": len(rows[0]), "rows": rows}
        path = self.dir / f"{label}.generator.json"
        path.write_text(json.dumps(doc))
        self.generators[label] = dict(doc, path=str(path))
        return str(path)

    def cli(self, label: str, argv: list[str], expect: dict,
            top_opt: int = 0) -> None:
        """A CLI call; top_opt is how many optimal_length calls it makes
        directly, which the traced run cross-checks."""
        self.ops.append({"label": label, "kind": "cli", "argv": argv,
                         "expect": expect, "top_opt": top_opt})

    def lib(self, label: str, call: str, args: dict, expect: dict,
            top_opt: int = 0) -> None:
        self.ops.append({"label": label, "kind": "lib", "call": call,
                         "args": args, "expect": expect, "top_opt": top_opt})

    def search(self, label: str, inst: str, method: str, N: int | None,
               known_defect: str | None = None) -> None:
        """search --json; N None means the checker derives the optimum itself.
        known_defect is the exact error of a known library defect: that
        failure, and no other, gets a verdict of its own."""
        argv = ["search", "--json", self.instances[inst]["path"]]
        if method != "both":
            argv[1:1] = ["--method", method]
        self.cli(label, argv, {"check": "search", "inst": inst, "N": N,
                               "known_defect": known_defect}, top_opt=1)

    def simulate(self, label: str, inst: str, gen: str,
                 random_trials: tuple[int, int] | None = None) -> None:
        """Exhaustive adversarial simulate, or random mode given
        (trials, seed)."""
        spec = self.instances[inst]
        argv = ["simulate", spec["path"], self.generators[gen]["path"]]
        if random_trials is None:
            trials = simulate_trials(spec["q"], spec["n"], spec["X"],
                                     spec["delta_s"])
        else:
            trials = random_trials[0]
            argv += ["--mode", "random", "--trials", str(trials),
                     "--seed", str(random_trials[1])]
        self.cli(label, argv, {"check": "simulate", "inst": inst,
                               "trials": trials})

    def validity(self, label: str, inst: str, gen: str) -> None:
        """is_valid_generator and oracle_decodable on a valid generator."""
        self.lib(label, "validity",
                 {"inst": self.instances[inst]["path"],
                  "gen": self.generators[gen]["path"]},
                 {"check": "validity"})


def pinned_generator(plan: Plan, name: str) -> str:
    g = PINNED["generators"][name]
    return plan.generator(name, g["q"], g["rows"])


def build_cli(plan: Plan, rng: random.Random) -> None:
    plan.instance("F2-clique8", clique_caches(8), 2, 1)
    plan.search("search-brute-F2-clique8", "F2-clique8", "brute",
                clique_length_q2(8))
    plan.instance("F2-clique6", clique_caches(6), 2, 1)
    plan.cli("analyze-F2-clique6", ["analyze", "--json",
                                    plan.instances["F2-clique6"]["path"]],
             {"check": "analyze", "inst": "F2-clique6",
              "N": clique_length_q2(6)})
    # Known defect: minrank ignores delta_c, so the default --method both
    # exits 1 with this MISMATCH.  It stays, reported as a known defect;
    # any other failure of it fails the run, and a fix must give N = 6.
    plan.instance("F2-clique4-dc1", clique_caches(4), 2, 1, 1)
    plan.search("search-both-F2-clique4-dc1", "F2-clique4-dc1", "both",
                PINNED["N"]["F2-clique4-dc1"],
                known_defect="MISMATCH: minrank 3 != brute 6")
    # Random n=8 graphs at delta_s = 1 take ~6 s each, so delta_s = 1 is
    # exercised on n = 7 and n = 8 keeps delta_s = 0.
    for j in range(4):
        label = f"rand8-k5-ds0-{j}"
        plan.instance(label, random_caches(rng, 8, 5), 2, 0)
        plan.search(f"search-brute-{label}", label, "brute", None)
    for j in range(4):
        k = 4 + j % 2
        label = f"rand7-k{k}-ds1-{j}"
        plan.instance(label, random_caches(rng, 7, k), 2, 1)
        plan.search(f"search-brute-{label}", label, "brute", None)


# The n = 4 sample: how many graphs to draw for each optimal length at
# delta_s = 0.  That length sets most of an instance's cost (2:3:4 cost
# about 1 : 1.2 : 1.7), so fixing the mix, in about the proportions of all
# n = 4 graphs, keeps the cost of a pass nearly independent of the seed.
FAMILY_N4_STRATA = {2: 4, 3: 9, 4: 3}


def family_n4_sample(rng: random.Random) -> list[list[list[int]]]:
    """n = 4 unipartite graphs drawn at random within the strata above."""
    left = dict(FAMILY_N4_STRATA)
    graphs = all_unipartite_caches(4)
    rng.shuffle(graphs)
    sample = []
    for caches in graphs:
        inst = {"n": 4, "delta_s": 0, "f": [1, 2, 3, 4], "X": caches}
        N = next(N for N in range(1, 5) if code_exists_q2(inst, N))
        if left.get(N, 0) > 0:
            left[N] -= 1
            sample.append(caches)
            if not any(left.values()):
                return sample
    raise AssertionError("too few n = 4 graphs in some stratum")


def build_family(plan: Plan, rng: random.Random) -> None:
    """Every n=3 unipartite graph plus a seeded sample of n=4 graphs, each at
    delta_s in {0, 1}; one operation (the sweep's library calls) per
    instance."""
    graphs = all_unipartite_caches(3) + family_n4_sample(rng)
    for g, caches in enumerate(graphs):
        for ds in (0, 1):
            label = f"g{g}-n{len(caches)}-ds{ds}"
            path = plan.instance(label, caches, 2, ds)
            plan.lib(label, "family", {"inst": path},
                     {"check": "family", "inst": label}, top_opt=2)


def build_decode(plan: Plan, rng: random.Random) -> None:
    for n in (6, 7, 8):
        name = f"F2-clique{n}"
        plan.instance(name, clique_caches(n), 2, 1)
        pinned_generator(plan, name)
        plan.simulate(f"simulate-{name}", name, name)
    # n = 6 graphs cache two packets (half clique-6's trials) so that
    # clique-6 stays the middle operation whatever the seed
    for j, (n, k) in enumerate(((7, 5), (6, 2), (6, 2), (6, 2))):
        label = f"rand{n}-k{k}-ds1-{j}"
        plan.instance(label, random_caches(rng, n, k), 2, 1)
        plan.generator(label, 2, optimal_generator_q2(plan.instances[label]))
        plan.simulate(f"simulate-{label}", label, label)


def build_gfq(plan: Plan, rng: random.Random) -> None:
    for q, n, method in ((3, 6, "brute"), (4, 5, "brute"), (5, 4, "brute"),
                         (3, 4, "both"), (4, 4, "both")):
        name = f"F{q}-clique{n}"
        plan.instance(name, clique_caches(n), q, 1)
        plan.search(f"search-{method}-{name}", name, method, PINNED["N"][name])
    plan.instance("F3-clique5", clique_caches(5), 3, 1)
    for name in ("F3-clique4", "F3-clique5", "F4-clique4"):
        pinned_generator(plan, name)
    plan.simulate("simulate-F3-clique4", "F3-clique4", "F3-clique4")
    # exhaustive sweeps of these two (13365 and 5120 trials) would take two
    # thirds of the pass, so they sample seeded random trials instead
    plan.simulate("simulate-random-F3-clique5", "F3-clique5", "F3-clique5",
                  (1500, rng.randrange(1 << 30)))
    plan.simulate("simulate-random-F4-clique4", "F4-clique4", "F4-clique4",
                  (1200, rng.randrange(1 << 30)))
    # with these four the F_4 clique-5 search is the middle operation
    for name in ("F3-clique6", "F5-clique4"):
        pinned_generator(plan, name)
    for name in ("F3-clique5", "F3-clique6", "F4-clique4", "F5-clique4"):
        plan.validity(f"validity-{name}", name, name)
    # minrank fits its budget on n = 4 graphs with two cached packets each
    for q in (3, 4, 5):
        label = f"F{q}-rand4-k2-ds0"
        plan.instance(label, random_caches(rng, 4, 2), q, 0)
        plan.search(f"search-both-{label}", label, "both", None)


def build(name: str, seed: int, workdir: Path) -> Plan:
    """Write the workload's files under workdir and return its plan."""
    rng = random.Random(f"{name}/{seed}")
    plan = Plan(workdir)
    if name == "cli":
        build_cli(plan, rng)
    elif name == "family":
        build_family(plan, rng)
    elif name == "decode":
        build_decode(plan, rng)
    elif name == "gfq":
        build_gfq(plan, rng)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return plan
