"""Shared instance families for the exhaustive and sampled sweeps."""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import random
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

import icsie
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


@pytest.fixture(scope="session")
def gf2fast(tmp_path_factory):
    """The compiled GF(2) kernels, built from the shipped _gf2fast.c with
    the interpreter's C compiler into a temporary directory and loaded
    from there (icsie.kernels is left as it is).  Skips only when there
    is no C compiler or no Python.h."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    include = Path(sysconfig.get_paths()["include"])
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler ({cc[0]})")
    if not (include / "Python.h").is_file():
        pytest.skip(f"no Python.h under {include}")
    source = Path(icsie.__file__).with_name("_gf2fast.c")
    target = (tmp_path_factory.mktemp("gf2fast")
              / ("_gf2fast" + importlib.machinery.EXTENSION_SUFFIXES[0]))
    subprocess.run([*cc, "-shared", "-fPIC", "-O2", f"-I{include}",
                    str(source), "-o", str(target)],
                   check=True, capture_output=True)
    spec = importlib.util.spec_from_file_location("icsie._gf2fast", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.BACKEND == "compiled"
    return module
