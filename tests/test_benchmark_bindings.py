"""The library names and formats the benchmark binds to must hold.

perfbench/spans.py wraps the functions listed in its SPANNED table by
module and attribute, perfbench/worker.py records icsie.KERNEL_BACKEND,
and perfbench/workloads.py writes instance documents for the program to
parse.  Renaming or deleting one of those names, or changing the
instance format under them, breaks the benchmark; these tests make it
break the test suite first.  perfbench is only imported, never changed.
"""

import functools
import importlib
from pathlib import Path

import icsie
from icsie.sigraph import ProblemSpec, clique_graph, parse_instance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    assert spans.SPANNED
    for modname, attr, metric in spans.SPANNED:
        owner = importlib.import_module(modname)
        fn = functools.reduce(getattr, attr.split("."), owner)
        assert callable(fn), (modname, attr, metric)


def test_l_q_keeps_its_cache_counters(monkeypatch):
    # the tracer reports encoder.l_q.hit_ratio from the traced function's
    # cache_info(): dropping l_q's lru_cache would break a traced pass
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    (modname, attr), = [(m, a) for m, a, metric in spans.SPANNED
                        if metric == "encoder.l_q"]
    l_q = getattr(importlib.import_module(modname), attr)
    l_q(2, 2, 3)
    before = l_q.cache_info()
    assert l_q(2, 2, 3) == 5
    after = l_q.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_kernel_backend_is_recorded():
    assert isinstance(icsie.KERNEL_BACKEND, str)


def test_benchmark_instances_parse(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    path = workloads.Plan(tmp_path).instance(
        "clique3", workloads.clique_caches(3), q=3, delta_s=1, delta_c=1)
    assert parse_instance(Path(path).read_text()) == ProblemSpec(
        graph=clique_graph(3), q=3, delta_s=1, delta_c=1)
