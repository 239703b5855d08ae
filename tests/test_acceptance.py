"""Acceptance gate: one test per criterion, one pass/fail line each.

Each criterion prints a ``criterion N: PASS`` line on success (visible
with ``pytest -s`` or in the captured output); under ``pytest -v`` the
per-test PASSED/FAILED lines serve the same purpose.
"""

import itertools
import random
import time

import pytest

from icsie.codeset import is_valid_generator, oracle_decodable
from icsie.decoder import build_context, decode_receiver
from icsie.encoder import (clique_from_parity, l_q,
                          min_distance_from_parity, minrank, optimal_length)
from icsie.errors import DistanceTooSmallError
from icsie.gfield import field_for
from icsie.linalg import Matrix
from icsie.sigraph import ProblemSpec, SideInfoGraph, clique_graph
from icsie.structure import bounds_report, is_acyclic, max_disjoint_cycles

from conftest import (_reference_shortest_length, family_graphs, ind_q,
                      random_generator)

F2 = field_for(2)


def _report(n, ok, detail=""):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


# -- 1: clique-4 reproduction ------------------------------------------------

def test_criterion_1_clique4_reproduction():
    t0 = time.time()
    spec = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)
    N, _ = optimal_length(spec)
    paper_G = Matrix(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    ok = N == 3 and is_valid_generator(spec, paper_G)[0]
    # independent exhaustive certificate: all 256 possible 4x2 matrices fail
    no_two = all(
        not is_valid_generator(
            spec, Matrix(F2, [[(bits >> (2 * i + j)) & 1 for j in range(2)]
                              for i in range(4)], ncols=2))[0]
        for bits in range(256))
    elapsed = time.time() - t0
    _report(1, ok and no_two and elapsed < 1.0,
            f"N={N}, no valid N=2 of 256, {elapsed:.2f}s")


# -- 2: nine-packet decode walk-through --------------------------------------

def test_criterion_2_nine_packet_decode():
    graph = SideInfoGraph.make(
        9, range(1, 10),
        [frozenset(range(1, 10)) - {i} for i in range(1, 9)]
        + [frozenset({2, 3, 5, 6, 7, 8})])
    G = Matrix(F2, [
        [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0], [1, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0], [1, 1, 0, 0, 0, 0], [0, 1, 1, 1, 0, 0],
        [0, 0, 1, 1, 1, 0], [0, 0, 0, 1, 1, 1], [1, 1, 0, 1, 0, 1]])
    x = (1, 1, 1, 1, 0, 0, 0, 0, 1)
    y = G.vec_mul(x)
    ok = y == (0, 1, 1, 0, 1, 0)
    xhat = (1, 1, 0, 0, 0, 1)          # error at position 8 of X_9
    value, trace = decode_receiver(G, graph, 9, y, xhat, 1)
    ok = ok and value == 1

    # syndrome consistency up to basis choice: our H spans the published
    # H's row space, and the syndrome matches H applied to the corrected word
    ctx = build_context(G, graph, 9)
    published_H = Matrix(F2, [[1, 1, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0],
                              [0, 0, 0, 0, 1, 0]])
    stacked = Matrix(F2, list(ctx.H.rows) + list(published_H.rows), ncols=6)
    ok = ok and ctx.H.nrows == 3 and stacked.rank() == 3
    corrected = tuple(a ^ b for a, b in zip(y, ctx.G_cache.vec_mul(xhat)))
    ok = ok and trace.syndrome == tuple(ctx.H.mul_col(corrected))
    expected_syndrome = tuple(published_H.mul_col(corrected))
    ok = ok and expected_syndrome == (0, 1, 1)

    alt, _ = decode_receiver(G, graph, 9, y, xhat, 1,
                             forced_correction=(0, 0, 1, 1, 1, 0))
    ok = ok and alt == 1
    _report(2, ok, f"x_9={value}, alternative correction also {alt}")


# -- shared family ------------------------------------------------------------

@pytest.fixture(scope="module")
def family():
    return family_graphs()


# -- 3: validity criterion vs sphere oracle ----------------------------------

def test_criterion_3_validity_equals_oracle(family):
    t0 = time.time()
    rng = random.Random(0xC3)
    checked = disagreements = 0
    for g in family:
        for ds in (0, 1):
            for dc in (0, 1):
                spec = ProblemSpec(graph=g, q=2, delta_s=ds, delta_c=dc)
                cases = [Matrix.identity(F2, g.n)]
                if dc == 0:
                    cases.append(optimal_length(spec)[1])
                for _ in range(8):
                    N = rng.randrange(1, g.n + 2 * dc + 1)
                    cases.append(random_generator(rng, 2, g.n, N))
                for G in cases:
                    checked += 1
                    if is_valid_generator(spec, G)[0] != oracle_decodable(spec, G):
                        disagreements += 1
    elapsed = time.time() - t0
    _report(3, disagreements == 0 and elapsed < 300,
            f"{checked} generator checks, {disagreements} disagreements, "
            f"{elapsed:.1f}s")


# -- 4: acyclicity = incompressibility ---------------------------------------

def test_criterion_4_acyclic_iff_uncoded(family):
    # the optimum walked from length 1: optimal_length starts at gamma,
    # which is n exactly when the instance is acyclic
    t0 = time.time()
    bad = 0
    for g in family:
        for ds in (0, 1):
            spec = ProblemSpec(graph=g, q=2, delta_s=ds)
            if is_acyclic(spec) != (_reference_shortest_length(spec)[0] == g.n):
                bad += 1
    elapsed = time.time() - t0
    _report(4, bad == 0 and elapsed < 300, f"{bad} disagreements, {elapsed:.1f}s")


# -- 5: minrank = brute force ------------------------------------------------

@pytest.fixture(scope="module")
def family_optima(family):
    """(spec, optimal N, witness G) for the delta_c = 0 family."""
    out = []
    for g in family:
        for ds in (0, 1):
            spec = ProblemSpec(graph=g, q=2, delta_s=ds)
            N, G = optimal_length(spec)
            out.append((spec, N, G))
    return out


def test_criterion_5_minrank_agrees(family_optima):
    t0 = time.time()
    bad = 0
    for spec, N, _ in family_optima:
        if minrank(spec)[0] != N:
            bad += 1
    elapsed = time.time() - t0
    _report(5, bad == 0 and elapsed < 300,
            f"{len(family_optima)} instances, {bad} mismatches, {elapsed:.1f}s")


# -- 6: clique formulas and k-wise independence ------------------------------

def test_criterion_6_clique_formulas():
    t0 = time.time()
    ok = True
    for n, want in zip(range(3, 9), (3, 3, 4, 4, 4, 4)):
        spec = ProblemSpec(graph=clique_graph(n), q=2, delta_s=1)
        got = optimal_length(spec)[0]
        ok = ok and got == want == next(
            N for N in range(1, 10) if 2 ** (N - 1) >= n)
    for ds in (1, 2):
        spec = ProblemSpec(graph=clique_graph(2 * ds + 2), q=2, delta_s=ds)
        ok = ok and optimal_length(spec)[0] == 2 * ds + 1
    ok = ok and ind_q(2, 7, 5) == 9
    elapsed = time.time() - t0
    _report(6, ok and elapsed < 120, f"{elapsed:.1f}s")


# -- 7: decoding completeness sweep ------------------------------------------

def test_criterion_7_decoding_completeness(family_optima):
    t0 = time.time()
    failures = swept = 0
    for spec, _, G in family_optima:
        g = spec.graph
        for x in itertools.product((0, 1), repeat=g.n):
            y = G.vec_mul(x)
            for i in range(1, g.m + 1):
                cache = sorted(g.X[i - 1])
                true_hat = [x[j - 1] for j in cache]
                variants = [tuple(true_hat)]
                if spec.delta_s >= 1:
                    for pos in range(len(cache)):
                        flipped = list(true_hat)
                        flipped[pos] ^= 1
                        variants.append(tuple(flipped))
                for xhat in variants:
                    swept += 1
                    value, _ = decode_receiver(G, g, i, y, xhat, spec.delta_s)
                    if value != x[i - 1]:
                        failures += 1
    elapsed = time.time() - t0
    _report(7, failures == 0 and elapsed < 600,
            f"{swept} decodes, {failures} failures, {elapsed:.1f}s")


# -- 8: bounds sanity ---------------------------------------------------------

def test_criterion_8_bounds_sanity(family_optima):
    t0 = time.time()
    violations = 0
    gecic_checked = 0
    for spec, N, _ in family_optima:
        report = bounds_report(spec, compute_exact=False)
        gam = report.entries["gamma"].value
        beta, _ = max_disjoint_cycles(spec)
        edge = report.entries["edge_deletion_lower"].value
        if not (gam <= N <= spec.graph.n - beta and edge <= N):
            violations += 1
        gspec = ProblemSpec(graph=spec.graph, q=2, delta_s=spec.delta_s,
                            delta_c=1)
        Ng = optimal_length(gspec)[0]
        gecic_checked += 1
        if not N + 2 <= Ng <= l_q(2, N, 3):
            violations += 1
    elapsed = time.time() - t0
    _report(8, violations == 0,
            f"{len(family_optima)} instances, {gecic_checked} with channel "
            f"errors, {violations} violations, {elapsed:.1f}s")


# -- 9: parity-check bridge ---------------------------------------------------

def test_criterion_9_parity_check_bridge():
    rep_H = Matrix(F2, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    G, spec = clique_from_parity(rep_H, delta_s=1)
    ok = (G.ncols == 3 and is_valid_generator(spec, G)[0]
          and optimal_length(spec)[0] == 3)
    ham_H = Matrix(F2, [[1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 1],
                        [0, 0, 0, 1, 1, 1, 1]])
    assert min_distance_from_parity(ham_H) == 3
    rejected = False
    try:
        clique_from_parity(ham_H, delta_s=1)
    except DistanceTooSmallError:
        rejected = True
    _report(9, ok and rejected, "repetition code accepted, d=3 code rejected")
