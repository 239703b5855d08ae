"""Answer checks, run after the timed region.

Each operation ends "ok" (its answer was confirmed by an independent
route), "failed" (no answer: non-zero exit, traceback, MISMATCH, or an
answer that cannot be verified), "wrong" (an answer the independent
route rejects) or "known-defect" (exactly the failure the operation
names as a known defect of the library, and no other).  The independent
routes:

* every witness generator is re-checked with oracle_decodable, which
  enumerates message pairs and Hamming spheres instead of using the
  weight criterion the searches use;
* F_2 cliques at delta_s = 1 must match the closed form, and the other
  fixed instances the lengths in pinned.json;
* random F_2 instances (delta_c = 0) get their optimum from
  shortest_length_q2 below, written here from the definitions and
  sharing no code with the library;
* the family must satisfy minrank == optimal_length, the bounds
  sandwich, and N + 2 <= N_{delta_c=1} <= l_q(2, N, 3);
* simulations must recover every trial, and report the trial count
  computed here from the instance.
"""

from __future__ import annotations

import json
import re
from pathlib import Path


# ---------------------------------------------------------------------------
# independent optimal length over F_2 without channel errors

def interference_set_q2(inst: dict) -> list[int]:
    """Nonzero z (bit j-1 = packet j) that hit some receiver's demand while
    differing from its cache in at most 2*delta_s positions."""
    n, cap = inst["n"], 2 * inst["delta_s"]
    receivers = [(1 << (f - 1), sum(1 << (j - 1) for j in X))
                 for f, X in zip(inst["f"], inst["X"])]
    return [z for z in range(1, 1 << n)
            if any(z & fbit and (z & xmask).bit_count() <= cap
                   for fbit, xmask in receivers)]


def _avoiding_subspace(bad: set[int], n: int, d: int) -> list[int] | None:
    """The elements of a d-dimensional subspace of F_2^n none of whose
    nonzero elements is in bad, or None.  Tries every ascending basis."""
    def grow(span: list[int], last: int, left: int) -> list[int] | None:
        if left == 0:
            return span
        for v in range(last + 1, 1 << n):
            new = [s ^ v for s in span]
            if not any(x in bad for x in new):
                found = grow(span + new, v, left - 1)
                if found is not None:
                    return found
        return None
    return grow([0], 0, d)


def _parity_cover(zs: list[int], n: int, cols: int) -> bool:
    """Can `cols` vectors c be chosen so that every z has z.c = 1 for one of
    them?  Those vectors are then the columns of a valid generator."""
    covers = [sum(1 << k for k, z in enumerate(zs) if (z & c).bit_count() & 1)
              for c in range(1 << n)]

    def cover(left_mask: int, left: int) -> bool:
        if left_mask == 0:
            return True
        if left == 0:
            return False
        z = zs[(left_mask & -left_mask).bit_length() - 1]
        return any(cover(left_mask & ~covers[c], left - 1)
                   for c in range(1, 1 << n) if (z & c).bit_count() & 1)
    return cover((1 << len(zs)) - 1, cols)


def code_exists_q2(inst: dict, length: int) -> bool:
    """Is there a valid n x length generator?  G is valid iff its kernel
    avoids the interference set Z, iff some (n - length)-dimensional
    subspace avoids Z, iff `length` parity checks cover Z."""
    n = inst["n"]
    if length >= n:
        return True
    zs = interference_set_q2(inst)
    if n - length <= length:
        return _avoiding_subspace(set(zs) | {0}, n, n - length) is not None
    return _parity_cover(zs, n, length)


def shortest_length_q2(inst: dict, claimed: int) -> bool:
    """Is `claimed` the optimal length of a q = 2, delta_c = 0 instance?"""
    return code_exists_q2(inst, claimed) and (
        claimed == 1 or not code_exists_q2(inst, claimed - 1))


def optimal_generator_q2(inst: dict) -> list[list[int]]:
    """An optimal generator of a q = 2, delta_c = 0 instance: the largest
    subspace W avoiding Z is its kernel, so its columns are a basis of
    W's orthogonal complement."""
    n = inst["n"]
    bad = set(interference_set_q2(inst)) | {0}
    W = [0]
    while (bigger := _avoiding_subspace(bad, n, len(W).bit_length())) is not None:
        W = bigger
    cols: list[int] = []
    pivots: list[int] = []
    for c in range(1, 1 << n):
        if any((c & w).bit_count() & 1 for w in W):
            continue
        r = c
        for p in pivots:
            r = min(r, r ^ p)
        if r:
            pivots.append(r)
            cols.append(c)
    return [[(c >> j) & 1 for c in cols] for j in range(n)]


# ---------------------------------------------------------------------------
# per-operation verdicts

def simulate_counts(stdout: str) -> dict[int, tuple[int, int]]:
    """receiver -> (recovered, trials) from `icsie simulate` text output."""
    return {int(i): (int(ok), int(tot)) for i, ok, tot in re.findall(
        r"^receiver (\d+): (\d+)/(\d+) recovered$", stdout, re.M)}


class Checker:
    def __init__(self, lib, plan):
        self.lib = lib
        self.instances = plan.instances
        self.specs = {label: lib.parse_instance(Path(inst["path"]).read_text())
                      for label, inst in plan.instances.items()}

    def oracle(self, label: str, rows, delta_c: int | None = None) -> bool:
        spec = self.specs[label]
        if delta_c is not None:
            spec = self.lib.ProblemSpec(graph=spec.graph, q=spec.q,
                                        delta_s=spec.delta_s, delta_c=delta_c)
        G = self.lib.Matrix(spec.field, rows, ncols=len(rows[0]))
        return self.lib.oracle_decodable(spec, G)

    def verdict(self, op: dict, res: dict) -> tuple[str, str]:
        if res.get("error"):
            return "failed", res["error"].strip().splitlines()[-1]
        expect = op["expect"]
        if op["kind"] == "cli" and res["exit"] != 0:
            why = f"exit {res['exit']}: {res['stderr'].strip()}"
            known = expect.get("known_defect")
            if known is not None and why == f"exit 1: {known}":
                return "known-defect", why
            return "failed", why
        return getattr(self, "check_" + expect["check"])(expect, res)

    def _shape(self, label: str, rows, N: int) -> bool:
        inst = self.instances[label]
        return (len(rows) == inst["n"] and all(len(r) == N for r in rows)
                and all(0 <= v < inst["q"] for r in rows for v in r))

    def check_search(self, expect, res):
        doc = json.loads(res["stdout"])
        label, N = expect["inst"], doc["N"]
        inst = self.instances[label]
        if not self._shape(label, doc["G"]["rows"], N):
            return "wrong", f"witness is not {inst['n']} x {N} over F_{inst['q']}"
        if expect["N"] is not None and N != expect["N"]:
            return "wrong", f"N = {N}, expected {expect['N']}"
        if expect["N"] is None and inst["q"] == 2 and inst["delta_c"] == 0:
            if not shortest_length_q2(inst, N):
                return "wrong", f"N = {N} is not the optimum"
        # q > 2 random instances run --method both: exit 0 means minrank and
        # brute agree, the second exact route.
        if not self.oracle(label, doc["G"]["rows"]):
            return "wrong", "oracle rejects the witness"
        return "ok", f"N = {N}"

    def check_analyze(self, expect, res):
        doc = json.loads(res["stdout"])
        N, n = expect["N"], self.instances[expect["inst"]]["n"]
        bounds = doc["bounds"]
        if bounds["n_opt"] != N:
            return "wrong", f"n_opt = {bounds['n_opt']}, expected {N}"
        for name, e in bounds["entries"].items():
            if e["target"] != "icsie":
                continue
            lo_ok = e["kind"] == "upper" or e["value"] <= N
            hi_ok = e["kind"] == "lower" or e["value"] >= N
            if not (lo_ok and hi_ok):
                return "wrong", f"bound {name} = {e['value']} contradicts N = {N}"
        if not doc["gamma"] <= N <= n - doc["beta"]:
            return "wrong", "gamma <= N <= n - beta fails"
        return "ok", f"n_opt = {N}"

    def check_simulate(self, expect, res):
        """Every trial recovered; per receiver for an exhaustive sweep (a
        list), in total for random mode (an int)."""
        counts = simulate_counts(res["stdout"])
        want = expect["trials"]
        if isinstance(want, int):
            total = sum(tot for _, tot in counts.values())
            ok = total == want and all(r == t for r, t in counts.values())
        else:
            ok = [counts.get(i + 1) for i in range(len(want))] == [(t, t) for t in want]
        if not ok or "overall: PASS" not in res["stdout"]:
            return "wrong", f"recovered/trials {sorted(counts.items())}, expected all of {want}"
        return "ok", "all trials recovered"

    def check_validity(self, expect, res):
        v = res["value"]
        if not (v["valid"] and v["oracle"]):
            return "wrong", f"validity {v['valid']}, oracle {v['oracle']} on a valid G"
        return "ok", "valid by both routes"

    def check_family(self, expect, res):
        label, v = expect["inst"], res["value"]
        N, Ng = v["N"], v["N_dc1"]
        if v["minrank"] != N:
            return "wrong", f"minrank {v['minrank']} != optimal_length {N}"
        if not self._shape(label, v["G"], N) or not self.oracle(label, v["G"]):
            return "wrong", "witness rejected by the oracle"
        if not v["consistent"]:
            return "wrong", "bounds report inconsistent"
        for name, (kind, value, target) in v["bounds"].items():
            if target == "icsie" and ((kind != "upper" and value > N)
                                      or (kind != "lower" and value < N)):
                return "wrong", f"bound {name} = {value} contradicts N = {N}"
        if not N + 2 <= Ng <= v["l_q"]:
            return "wrong", f"N + 2 <= {Ng} <= l_q = {v['l_q']} fails (N = {N})"
        if (not self._shape(label, v["G_dc1"], Ng)
                or not self.oracle(label, v["G_dc1"], 1)):
            return "wrong", "delta_c = 1 witness rejected by the oracle"
        return self.check_validity(expect, res)
