import json

import pytest

from icsie.errors import ParseError
from icsie.sigraph import (ProblemSpec, SideInfoGraph, clique_graph,
                           parse_instance, serialize_instance)


def test_make_and_y_set():
    g = SideInfoGraph.make(4, [1, 2, 3, 4], [{2, 3}, {1}, {4}, set()])
    assert g.y_set(1) == {4}
    assert g.y_set(2) == {3, 4}
    assert g.y_set(4) == {1, 2, 3}
    with pytest.raises(IndexError):
        g.y_set(5)


def test_constructor_checks():
    with pytest.raises(ValueError):
        SideInfoGraph.make(0, [], [])
    with pytest.raises(IndexError):
        SideInfoGraph.make(2, [1, 3], [set(), set()])
    with pytest.raises(IndexError):
        SideInfoGraph.make(2, [1, 2], [{5}, set()])
    with pytest.raises(ValueError):
        SideInfoGraph(n=2, m=2, f=(1,), X=(frozenset(),))


def test_validate_flags():
    g = SideInfoGraph.make(3, [1, 1], [{1, 2}, {3}])
    msgs = g.validate()
    assert any("demand-in-side-info" in s and "receiver 1" in s for s in msgs)
    assert any("undemanded-packet" in s and "packet 2" in s for s in msgs)
    assert clique_graph(3).validate() == []


def test_is_unipartite():
    assert clique_graph(4).is_unipartite()
    assert not SideInfoGraph.make(2, [2, 1], [{2}, {1}]).is_unipartite()
    assert not SideInfoGraph.make(2, [1, 2, 1], [{2}, {1}, set()]).is_unipartite()


def test_clique_graph():
    g = clique_graph(5)
    assert g.n == g.m == 5
    for i in range(1, 6):
        assert g.f[i - 1] == i
        assert g.X[i - 1] == frozenset(range(1, 6)) - {i}
        assert g.y_set(i) == frozenset()


def test_partition_property():
    g = SideInfoGraph.make(4, [1, 2, 3, 4], [{2, 3}, {1}, {4}, set()])
    for i in range(1, g.m + 1):
        parts = [{g.f[i - 1]}, set(g.X[i - 1]), set(g.y_set(i))]
        assert set().union(*parts) == set(range(1, g.n + 1))
        assert sum(len(p) for p in parts) == g.n


def test_problem_spec_checks():
    with pytest.raises(ValueError):
        ProblemSpec(graph=clique_graph(2), q=2, delta_s=-1)
    with pytest.raises(Exception):
        ProblemSpec(graph=clique_graph(2), q=6, delta_s=0)
    # receiver 2 caches the packet it demands
    g = SideInfoGraph.make(3, [1, 2], [{2}, {1, 2}])
    with pytest.raises(ValueError) as exc:
        ProblemSpec(graph=g, q=2, delta_s=0)
    assert str(exc.value) == g.validate()[0]
    assert str(exc.value).startswith("demand-in-side-info: receiver 2")
    doc = {"n": 1, "m": 1, "q": 2, "delta_s": 0, "delta_c": 0,
           "f": [1], "X": [[1]]}
    with pytest.raises(ParseError, match="demand-in-side-info"):
        parse_instance(json.dumps(doc))


def test_side_weight_cap():
    g = clique_graph(4)
    assert ProblemSpec(graph=g, q=2, delta_s=1).side_weight_cap() == 2


def test_round_trip():
    spec = ProblemSpec(graph=clique_graph(4), q=4, delta_s=1, delta_c=1)
    assert parse_instance(serialize_instance(spec)) == spec


def test_parse_instance_known_document():
    doc = {"n": 2, "m": 2, "q": 2, "delta_s": 0, "delta_c": 0,
           "f": [1, 2], "X": [[2], [1]]}
    spec = parse_instance(json.dumps(doc))
    assert spec.graph.X == (frozenset({2}), frozenset({1}))
    # older documents name the one cache-error model
    assert parse_instance(json.dumps(dict(doc, side_error_model="error"))) == spec


@pytest.mark.parametrize("mangle,needle", [
    (lambda d: d.pop("n"), "missing"),
    (lambda d: d.update(n="2"), "integer"),
    (lambda d: d.update(f=[1]), "entries"),
    (lambda d: d.update(X=[[2], [1], []]), "entries"),
    (lambda d: d.update(X=[[2, 2], [1]]), "ascending"),
    (lambda d: d.update(X=[[2], 7]), "array"),
    (lambda d: d.update(side_error_model="nope"), "side_error_model"),
    (lambda d: d.update(side_error_model="erasure"), "when given"),
    (lambda d: d.update(q=6), ""),
    (lambda d: d.update(f=[1, 5]), ""),
])
def test_parse_errors(mangle, needle):
    doc = {"n": 2, "m": 2, "q": 2, "delta_s": 0, "delta_c": 0,
           "f": [1, 2], "X": [[2], [1]]}
    mangle(doc)
    with pytest.raises(ParseError) as exc:
        parse_instance(json.dumps(doc))
    assert needle in str(exc.value)


def test_parse_rejects_non_json():
    with pytest.raises(ParseError):
        parse_instance("not json {")
    with pytest.raises(ParseError):
        parse_instance("[1, 2]")
