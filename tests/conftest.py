"""Shared instance families for the exhaustive and sampled sweeps."""

from __future__ import annotations

import itertools
import random

import pytest

from icsie import Matrix, field_for
from icsie.sigraph import SideInfoGraph

FAMILY_SEED = 0xD5C0DE


def all_unipartite_graphs(n: int):
    """Every unipartite graph on n packets: each receiver i caches any
    subset of the other packets."""
    others = [[j for j in range(1, n + 1) if j != i] for i in range(1, n + 1)]
    pools = [list(itertools.chain.from_iterable(
        itertools.combinations(o, k) for k in range(len(o) + 1)))
        for o in others]
    for caches in itertools.product(*pools):
        yield SideInfoGraph.make(n, range(1, n + 1), caches)


def sampled_unipartite_graphs(n: int, count: int, seed: int = FAMILY_SEED):
    """A deterministic sample of unipartite graphs on n packets."""
    rng = random.Random(seed)
    pool = list(all_unipartite_graphs(n))
    return [pool[rng.randrange(len(pool))] for _ in range(count)]


def family_graphs():
    """Criteria 3-5,7-8 family: all n=3 graphs plus 200 sampled n=4 graphs."""
    return list(all_unipartite_graphs(3)) + sampled_unipartite_graphs(4, 200)


def random_generator(rng: random.Random, q: int, n: int, N: int) -> Matrix:
    f = field_for(q)
    return Matrix(f, [[rng.randrange(q) for _ in range(N)] for _ in range(n)],
                  ncols=N)


@pytest.fixture(scope="session")
def small_family():
    return family_graphs()

