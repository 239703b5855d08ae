"""The bound census: every unipartite instance with n <= 4, up to
isomorphism, over F_2 at delta_s in {0, 1, 2} and delta_c in {0, 1}.

A unipartite instance is a loopless digraph, receiver i caching packet
j along the arc i -> j; relabelling the packets relabels the receivers
with them, so isomorphic digraphs give the same optimum and bounds.
"""

import itertools

from icsie.codeset import oracle_decodable
from icsie.encoder import optimum
from icsie.sigraph import ProblemSpec, SideInfoGraph
from icsie.structure import bounds_report, is_acyclic

# loopless digraphs on 1, 2, 3 and 4 nodes up to isomorphism (OEIS A000273)
CLASSES = {1: 1, 2: 3, 3: 16, 4: 218}


def digraph_classes(n: int) -> list[SideInfoGraph]:
    """One unipartite graph per isomorphism class on n packets: the
    least arc mask of each class, found by marking every relabelling
    of each new mask as seen."""
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    bit = {arc: k for k, arc in enumerate(arcs)}
    perms = list(itertools.permutations(range(n)))
    seen: set[int] = set()
    graphs = []
    for mask in range(1 << len(arcs)):
        if mask in seen:
            continue
        present = [arc for k, arc in enumerate(arcs) if mask >> k & 1]
        seen.update(sum(1 << bit[p[i], p[j]] for i, j in present)
                    for p in perms)
        graphs.append(SideInfoGraph.make(
            n, range(1, n + 1),
            [{j + 1 for i, j in present if i == r} for r in range(n)]))
    return graphs


def sandwiches(report, target: str, opt: int) -> bool:
    for e in report.entries.values():
        if e.target == target and not (
                (e.kind == "upper" or e.value <= opt)
                and (e.kind == "lower" or e.value >= opt)):
            return False
    return True


def test_every_small_unipartite_instance():
    graphs = {n: digraph_classes(n) for n in CLASSES}
    assert {n: len(gs) for n, gs in graphs.items()} == CLASSES
    for n, gs in graphs.items():
        for graph, delta_s in itertools.product(gs, (0, 1, 2)):
            opt = {}
            for delta_c in (0, 1):
                spec = ProblemSpec(graph=graph, q=2, delta_s=delta_s,
                                   delta_c=delta_c)
                N, G = optimum(spec, "both")
                assert oracle_decodable(spec, G), spec
                opt["gecic" if delta_c else "icsie"] = N
                report = bounds_report(spec)
                assert report.consistent(), spec
                assert report.n_opt == opt["icsie"], spec
                assert report.entries["kwise"].value <= opt["icsie"], spec
                for target, value in opt.items():
                    assert sandwiches(report, target, value), spec
                if delta_c == 0:
                    assert is_acyclic(spec) == (N == n), spec
