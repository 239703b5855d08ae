"""The compiled and pure GF(2) kernels must be interchangeable.

The compiled twin is built from _gf2fast.c by the session fixture
``gf2fast`` (conftest.py); these tests skip only without a C compiler or
Python.h.
"""

import random
from dataclasses import replace

import pytest

from icsie import _gf2pure as pure
from icsie import kernels
from icsie.codeset import is_valid_generator
from icsie.encoder import optimal_length
from icsie.gfield import field_for
from icsie.linalg import Matrix
from icsie.sigraph import ProblemSpec, clique_graph

from conftest import all_unipartite_graphs, random_generator

F2 = field_for(2)
KERNELS = ("BACKEND", "gf2_rank", "gf2_mul_vec", "gf2_first_failing",
           "gf2_span_intersects")


def test_selected_backend_known():
    assert kernels.BACKEND in ("pure", "compiled")


def _random_cases(seed):
    rng = random.Random(seed)
    for _ in range(200):
        n = rng.randrange(1, 12)
        nrows = rng.randrange(1, 8)
        rows = [rng.randrange(1 << n) for _ in range(nrows)]
        yield n, rows, rng


def test_rank_agrees(gf2fast):
    for n, rows, _ in _random_cases(1):
        assert pure.gf2_rank(rows) == gf2fast.gf2_rank(rows)


def test_mul_vec_agrees(gf2fast):
    for n, rows, rng in _random_cases(2):
        ncols = rng.randrange(1, 10)
        cols = [rng.randrange(1 << n) for _ in range(ncols)]
        for z in rows:
            assert pure.gf2_mul_vec(z, cols) == gf2fast.gf2_mul_vec(z, cols)


def test_first_failing_agrees(gf2fast):
    for n, zs, rng in _random_cases(3):
        ncols = rng.randrange(1, 8)
        cols = [rng.randrange(1 << n) for _ in range(ncols)]
        for need in (1, 2, 3):
            assert (pure.gf2_first_failing(zs, cols, need)
                    == gf2fast.gf2_first_failing(zs, cols, need))


def test_span_intersects_agrees(gf2fast):
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randrange(1, 9)
        d = rng.randrange(0, min(n, 5) + 1)
        basis = [rng.randrange(1, 1 << n) for _ in range(d)]
        m = rng.randrange(1, 5)
        fmasks = [1 << rng.randrange(n) for _ in range(m)]
        xmasks = [rng.randrange(1 << n) for _ in range(m)]
        caps = [rng.randrange(0, 4) for _ in range(m)]
        assert (pure.gf2_span_intersects(basis, fmasks, xmasks, caps)
                == gf2fast.gf2_span_intersects(basis, fmasks, xmasks, caps))


def test_pure_rank_small_known():
    assert pure.gf2_rank([0b10, 0b01, 0b11]) == 2
    assert pure.gf2_rank([0]) == 0


def test_pure_mul_vec_known():
    # z selects rows; output bit k (from the high end) is parity of column k
    cols = [0b110, 0b011]
    assert pure.gf2_mul_vec(0b100, cols) == 0b10
    assert pure.gf2_mul_vec(0b111, cols) == 0b00


def test_env_override_forces_pure(monkeypatch):
    import importlib

    monkeypatch.setenv("ICSIE_PURE_KERNELS", "1")
    mod = importlib.reload(kernels)
    try:
        assert mod.BACKEND == "pure"
    finally:
        monkeypatch.delenv("ICSIE_PURE_KERNELS")
        importlib.reload(kernels)


# -- the library on either backend ---------------------------------------------

def _use(monkeypatch, backend) -> None:
    """Point icsie.kernels at the given backend; callers look the kernels
    up there at call time."""
    for name in KERNELS:
        monkeypatch.setattr(kernels, name, getattr(backend, name))


def _family_answers():
    """optimal_length at delta_c = 1 and is_valid_generator at delta_c in
    {0, 1} on every n = 3 unipartite graph, delta_s in {0, 1}."""
    rng = random.Random(33)
    out = []
    for g in all_unipartite_graphs(3):
        for ds in (0, 1):
            spec = ProblemSpec(graph=g, q=2, delta_s=ds, delta_c=1)
            N, G = optimal_length(spec)
            checks = [is_valid_generator(s, H)
                      for H in (G, random_generator(rng, 2, 3, rng.randrange(1, 8)))
                      for s in (spec, replace(spec, delta_c=0))]
            out.append((N, G, checks))
    return out


def test_backends_agree_on_the_n3_family(gf2fast, monkeypatch):
    _use(monkeypatch, pure)
    expected = _family_answers()
    _use(monkeypatch, gf2fast)
    assert kernels.BACKEND == "compiled"
    assert _family_answers() == expected


# ROADMAP item 5: the compiled kernels hold a vector in 64 bits, so past 64
# columns they raise where the pure ones answer.  strict: a fix must drop
# the mark.

WIDE = 70


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="compiled gf2_first_failing takes at most 64 "
                          "columns (ROADMAP item 5)")
def test_backends_agree_on_a_70_column_generator(gf2fast, monkeypatch):
    spec = ProblemSpec(graph=clique_graph(3), q=2, delta_s=1, delta_c=1)
    G = Matrix(F2, [[1] * WIDE, [0, 1] * (WIDE // 2), [1, 1, 0] * 23 + [0]])
    _use(monkeypatch, pure)
    expected = is_valid_generator(spec, G)
    assert expected == (True, None)
    _use(monkeypatch, gf2fast)
    assert is_valid_generator(spec, G) == expected


@pytest.mark.xfail(strict=True, raises=OverflowError,
                   reason="compiled gf2_rank takes rows of at most 64 bits "
                          "(ROADMAP item 5)")
def test_backends_agree_on_the_rank_of_70_bit_rows(gf2fast, monkeypatch):
    M = Matrix(F2, [[1] * WIDE, [0, 1] * (WIDE // 2), [1, 1, 0] * 23 + [0]])
    _use(monkeypatch, pure)
    assert M.rank() == 3
    _use(monkeypatch, gf2fast)
    assert M.rank() == 3
