"""The library names and formats the benchmark binds to must hold.

perfbench/spans.py wraps the functions listed in its SPANNED table by
module and attribute, perfbench/worker.py records icsie.KERNEL_BACKEND,
perfbench/workloads.py writes instance documents for the program to
parse, and perfbench/check.py reads the documents the program answers
with.  Renaming or deleting one of those names, or changing the
instance format or a report's shape under them, breaks the benchmark;
these tests make it break the test suite first.  perfbench is only
imported, never changed.
"""

import functools
import importlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import icsie
from icsie import encoder
from icsie.cli import main
from icsie.sigraph import (ProblemSpec, clique_graph, parse_instance,
                           serialize_instance)

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


@pytest.mark.parametrize("method, delta_c, calls", [
    ("brute", 0, 1), ("brute", 1, 1), ("both", 0, 1), ("both", 1, 1),
    ("minrank", 0, 0)])
def test_search_calls_optimal_length_once(monkeypatch, tmp_path, method,
                                          delta_c, calls):
    # the traced benchmark counts one top-level encoder.optimal_length
    # call per search operation that runs the direct search, through the
    # module attribute its tracer rebinds; calling _core_search or
    # _optimal_length_gecic directly would make that count 0
    real, seen = encoder.optimal_length, []

    def counted(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(encoder, "optimal_length", counted)
    inst = tmp_path / "inst.json"
    inst.write_text(serialize_instance(ProblemSpec(
        graph=clique_graph(4), q=2, delta_s=1, delta_c=delta_c)))
    res = CliRunner().invoke(main, ["search", "--method", method, str(inst)])
    assert res.exit_code == 0, res.output
    assert len(seen) == calls


def test_kernel_backend_is_recorded():
    assert isinstance(icsie.KERNEL_BACKEND, str)


def test_benchmark_instances_parse(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    path = workloads.Plan(tmp_path).instance(
        "clique3", workloads.clique_caches(3), q=3, delta_s=1, delta_c=1)
    assert parse_instance(Path(path).read_text()) == ProblemSpec(
        graph=clique_graph(3), q=3, delta_s=1, delta_c=1)


def _perfbench(monkeypatch, *names):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return [importlib.import_module(name) for name in names]


def test_the_checker_accepts_an_analyze_document(monkeypatch, tmp_path):
    # the cli workload's analyze operation: clique-6 at delta_s = 1, whose
    # edge-deletion bound is past its budget and noted, not entered
    check, workloads = _perfbench(monkeypatch, "check", "workloads")
    plan = workloads.build("cli", 1, tmp_path)
    op, = [op for op in plan.ops if op["label"] == "analyze-F2-clique6"]
    res = CliRunner().invoke(main, op["argv"])
    doc = json.loads(res.stdout)
    assert doc["bounds"]["notes"] == [
        "edge_deletion_lower skipped: 1000000 edge-deletion choices "
        "exceed the budget"]
    assert all(set(e) == {"kind", "value", "target", "provenance"}
               for e in doc["bounds"]["entries"].values())
    verdict = check.Checker(icsie, plan).verdict(
        op, {"exit": res.exit_code, "stdout": res.stdout,
             "stderr": res.stderr, "error": None})
    assert verdict == ("ok", "n_opt = 4")


def test_the_checker_accepts_a_family_result(monkeypatch, tmp_path):
    check, worker, workloads = _perfbench(monkeypatch, "check", "worker",
                                          "workloads")
    plan = workloads.build("family", 1, tmp_path)
    op = plan.ops[-1]              # an n = 4 instance at delta_s = 1
    spec = parse_instance(Path(op["args"]["inst"]).read_text())
    res = {"value": worker.family(icsie, spec), "error": None}
    assert check.Checker(icsie, plan).verdict(op, res) \
        == ("ok", "valid by both routes")
