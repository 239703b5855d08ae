import contextlib
import json
from unittest import mock

import pytest
from click.testing import CliRunner
from conftest import _reference_decode, _reference_shortest_length, dot
from hypothesis import given, settings
from hypothesis import strategies as st

from icsie import cli, codeset, encoder, simulation, structure
from icsie.cli import EXIT_DOMAIN, EXIT_OK, main
from icsie.codeset import oracle_decodable
from icsie.errors import BudgetExceededError
from icsie.encoder import (optimal_length, parse_generator,
                           serialize_generator)
from icsie.gfield import field_for
from icsie.linalg import Matrix
from icsie.sigraph import (ProblemSpec, SideInfoGraph, clique_graph,
                           parse_instance, serialize_instance)
from icsie.simulation import SimulationConfig, run_simulation

F2 = field_for(2)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def clique4_files(tmp_path):
    spec = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)
    inst = tmp_path / "c4.json"
    inst.write_text(serialize_instance(spec))
    _, G = optimal_length(spec)
    gen = tmp_path / "c4G.json"
    gen.write_text(serialize_generator(G))
    return str(inst), str(gen), spec, G


def test_validate_ok(runner, clique4_files):
    inst, _, _, _ = clique4_files
    res = runner.invoke(main, ["validate", inst])
    assert res.exit_code == 0
    assert "ok" in res.output


def test_validate_domain_failure(runner, tmp_path):
    bad = ProblemSpec(graph=SideInfoGraph.make(2, [1, 1], [{2}, set()]),
                      q=2, delta_s=0)
    p = tmp_path / "bad.json"
    p.write_text(serialize_instance(bad))
    res = runner.invoke(main, ["validate", str(p)])
    assert res.exit_code == 1
    assert "undemanded-packet" in res.output


def test_validate_parse_error(runner, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    res = runner.invoke(main, ["validate", str(p)])
    assert res.exit_code == 2


def test_validate_missing_file(runner):
    res = runner.invoke(main, ["validate", "/nonexistent/x.json"])
    assert res.exit_code == 2


def test_search_both_agree(runner, clique4_files):
    inst, _, _, _ = clique4_files
    res = runner.invoke(main, ["search", inst, "--method", "both"])
    assert res.exit_code == 0
    assert "N = 3" in res.output


def test_search_json(runner, clique4_files):
    inst, _, spec, _ = clique4_files
    res = runner.invoke(main, ["search", inst, "--method", "brute", "--json"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["N"] == 3
    assert len(doc["G"]["rows"]) == 4


def test_search_budget_exit_code(runner, tmp_path):
    big = ProblemSpec(graph=clique_graph(10), q=2, delta_s=1, delta_c=1)
    p = tmp_path / "big.json"
    p.write_text(serialize_instance(big))
    res = runner.invoke(main, ["search", str(p), "--method", "minrank"])
    assert res.exit_code == 3


@pytest.fixture()
def clique4_dc1_file(tmp_path):
    spec = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1, delta_c=1)
    p = tmp_path / "c4dc1.json"
    p.write_text(serialize_instance(spec))
    return str(p), spec


def test_search_both_channel_errors_checks_core(runner, clique4_dc1_file):
    # minrank is compared on the delta_c = 0 core; brute's answer is shown
    inst, spec = clique4_dc1_file
    res = runner.invoke(main, ["search", inst, "--json"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["N"] == 6
    G = Matrix(F2, doc["G"]["rows"], ncols=6)
    assert oracle_decodable(spec, G)


@pytest.mark.parametrize("delta_c", [0, 1])
def test_search_mismatch_is_one_stderr_line(runner, tmp_path, monkeypatch,
                                            delta_c):
    # minrank made to report one more than the core optimum 3
    real = encoder.minrank
    monkeypatch.setattr(encoder, "minrank",
                        lambda spec: (real(spec)[0] + 1, real(spec)[1]))
    spec = ProblemSpec(graph=clique_graph(4), q=2, delta_s=1, delta_c=delta_c)
    inst = tmp_path / "inst.json"
    inst.write_text(serialize_instance(spec))
    res = runner.invoke(main, ["search", str(inst)])
    assert res.exit_code == EXIT_DOMAIN
    assert res.stdout == ""
    assert res.stderr == "MISMATCH: minrank 4 != brute 3\n"


def test_search_minrank_rejects_channel_errors(runner, clique4_dc1_file):
    inst, _ = clique4_dc1_file
    res = runner.invoke(main, ["search", inst, "--method", "minrank"])
    assert res.exit_code == 1
    assert "delta_c = 0" in res.output
    assert "N =" not in res.output


def test_search_brute_channel_errors(runner, clique4_dc1_file):
    inst, spec = clique4_dc1_file
    res = runner.invoke(main, ["search", inst, "--method", "brute", "--json"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["N"] == 6
    assert oracle_decodable(spec, Matrix(F2, doc["G"]["rows"], ncols=6))


def test_search_deterministic(runner, clique4_files):
    inst, _, _, _ = clique4_files
    outs = {runner.invoke(main, ["search", inst, "--json"]).output
            for _ in range(3)}
    assert len(outs) == 1


def test_encode(runner, clique4_files):
    inst, gen, spec, G = clique4_files
    res = runner.invoke(main, ["encode", inst, gen, "--x", "1,0,1,1"])
    assert res.exit_code == 0
    want = ",".join(str(v) for v in G.vec_mul((1, 0, 1, 1)))
    assert f"y = {want}" in res.output


def test_encode_bad_vector(runner, clique4_files):
    inst, gen, _, _ = clique4_files
    res = runner.invoke(main, ["encode", inst, gen, "--x", "1,0,1"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["encode", inst, gen, "--x", "1,0,2,0"])
    assert res.exit_code == 2


def test_decode_with_truth(runner, clique4_files):
    inst, gen, spec, G = clique4_files
    x = (1, 0, 1, 1)
    y = ",".join(str(v) for v in G.vec_mul(x))
    # receiver 2 caches packets 1, 3, 4; corrupt the middle entry
    res = runner.invoke(main, ["decode", inst, gen, "--y", y,
                               "--xhat", "2=1,0,1", "--truth", "1,0,1,1"])
    assert res.exit_code == 0
    assert "x_2 = 0" in res.output


def test_decode_json_trace(runner, clique4_files):
    inst, gen, spec, G = clique4_files
    x = (0, 1, 1, 0)
    y = ",".join(str(v) for v in G.vec_mul(x))
    res = runner.invoke(main, ["decode", inst, gen, "--y", y,
                               "--xhat", "1=1,1,0", "--json"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["receivers"]["1"]["value"] == 0


def test_decode_wrong_truth_flags_failure(runner, clique4_files):
    inst, gen, spec, G = clique4_files
    x = (1, 0, 1, 1)
    y = ",".join(str(v) for v in G.vec_mul(x))
    res = runner.invoke(main, ["decode", inst, gen, "--y", y,
                               "--xhat", "2=1,1,1", "--truth", "1,1,1,1"])
    # two cache errors at one receiver: beyond contract, must be reported
    assert res.exit_code in (0, 1)
    assert "receiver 2" in res.output


def test_decode_rejects_a_receiver_given_twice(runner, clique4_files):
    # one snapshot per receiver: a second is refused, never decoded in
    # place of the first
    inst, gen, spec, G = clique4_files
    y = ",".join(str(v) for v in G.vec_mul((1, 0, 1, 1)))
    res = runner.invoke(main, ["decode", inst, gen, "--y", y,
                               "--xhat", "1=0,1,1", "--xhat", "1=1,1,1"])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("parse error: receiver 1 given twice")
    assert "x_1" not in res.output


@pytest.mark.parametrize("as_json", [False, True])
def test_decode_reports_a_degenerate_receiver_beside_the_others(
        runner, tmp_path, as_json):
    # receiver 1's demand row (1,0) is the row of packet 3, which it does
    # not cache: it fails alone, and receiver 2 still decodes
    g = SideInfoGraph.make(3, [1, 2, 3], [{2}, {1}, set()])
    inst, gen = tmp_path / "deg.json", tmp_path / "degG.json"
    inst.write_text(serialize_instance(ProblemSpec(graph=g, q=2, delta_s=0)))
    gen.write_text(serialize_generator(Matrix(F2, [(1, 0), (0, 1), (1, 0)])))
    argv = ["decode", str(inst), str(gen), "--y", "1,0",
            "--xhat", "1=0", "--xhat", "2=1"]
    res = runner.invoke(main, argv + (["--json"] if as_json else []))
    assert res.exit_code == EXIT_DOMAIN, res.output
    assert _no_traceback(res)
    degenerate = ("demand row of receiver 1 lies in the interference row "
                  "span; G is not a valid generator for this instance")
    if as_json:
        doc = json.loads(res.output)["receivers"]
        assert doc["1"] == {"error": degenerate}
        assert doc["2"]["value"] == 0
    else:
        assert res.output.splitlines() == [
            f"receiver 1: FAILED ({degenerate})",
            "receiver 2: x_2 = 0  syndrome=  suspected=[]"]


def _no_traceback(res):
    return res.exception is None or isinstance(res.exception, SystemExit)


def _empty_cache_files(tmp_path):
    # receiver 1 caches nothing, receiver 2 caches packet 1; G = I
    g = SideInfoGraph.make(2, [1, 2], [set(), {1}])
    inst, gen = tmp_path / "empty.json", tmp_path / "I2.json"
    inst.write_text(serialize_instance(ProblemSpec(graph=g, q=2, delta_s=1)))
    gen.write_text(serialize_generator(Matrix.identity(field_for(2), 2)))
    return str(inst), str(gen)


def test_decode_receiver_with_an_empty_cache(runner, tmp_path):
    inst, gen = _empty_cache_files(tmp_path)
    res = runner.invoke(main, ["decode", inst, gen, "--y", "1,0",
                               "--xhat", "1=", "--truth", "1,0", "--json"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["receivers"]["1"] == {
        "value": 1, "syndrome": [], "correction": [0, 0], "suspected": [],
        "correct": True}


def test_empty_xhat_on_a_nonempty_cache_exits_2(runner, tmp_path):
    inst, gen = _empty_cache_files(tmp_path)
    res = runner.invoke(main, ["decode", inst, gen, "--y", "1,0",
                               "--xhat", "2="])
    assert res.exit_code == 2, res.output
    assert _no_traceback(res)
    assert "receiver 2 caches 1 packets, --xhat gave 0" in res.output


@pytest.mark.parametrize("truth", ["1,0", "1,0,1,1,0"])
def test_decode_truth_must_have_n_entries(runner, clique4_files, truth):
    inst, gen, spec, G = clique4_files
    y = ",".join(str(v) for v in G.vec_mul((1, 0, 1, 1)))
    res = runner.invoke(main, ["decode", inst, gen, "--y", y,
                               "--xhat", "4=1,0,1", "--truth", truth])
    assert res.exit_code == 2, res.output
    assert _no_traceback(res)
    assert "--truth must have n = 4 entries" in res.output


def test_decode_past_the_coset_table_budget_exits_3(runner, tmp_path):
    spec = ProblemSpec(graph=clique_graph(5), q=256, delta_s=2)
    inst, gen = tmp_path / "c5.json", tmp_path / "c5G.json"
    inst.write_text(serialize_instance(spec))
    gen.write_text(serialize_generator(Matrix.identity(field_for(256), 5)))
    res = runner.invoke(main, ["decode", str(inst), str(gen), "--y",
                               "1,2,3,4,5", "--xhat", "1=2,3,4,5"])
    assert res.exit_code == 3, res.output
    assert _no_traceback(res)
    assert ("budget exceeded: receiver 1: 391171 candidate corrections "
            "exceed the coset-table budget") in res.output


@pytest.mark.parametrize("command,extra", [
    ("encode", ["--x", "1,0,1,1"]),
    ("decode", ["--y", "0,0,0", "--xhat", "1=0,0,0"]),
    ("simulate", []),
])
@pytest.mark.parametrize("kind", ["three rows", "over F_3"])
def test_generator_must_fit_the_instance(runner, clique4_files, tmp_path,
                                         command, extra, kind):
    inst, _, _, G = clique4_files
    wrong = (Matrix(F2, G.rows[:3], ncols=G.ncols) if kind == "three rows"
             else Matrix(field_for(3), G.rows, ncols=G.ncols))
    p = tmp_path / "wrong.json"
    p.write_text(serialize_generator(wrong))
    res = runner.invoke(main, [command, inst, str(p), *extra])
    assert res.exit_code == 2, res.output
    assert _no_traceback(res)
    assert "instance needs 4 rows over F_2" in res.output
    assert "PASS" not in res.output


@pytest.mark.parametrize("command", ["analyze", "search", "validate"])
def test_demand_in_side_info_is_a_parse_error(runner, tmp_path, command):
    # the one receiver caches the packet it demands
    inst = tmp_path / "own.json"
    inst.write_text(json.dumps({"n": 1, "m": 1, "q": 2, "delta_s": 0,
                                "delta_c": 0, "f": [1], "X": [[1]]}))
    res = runner.invoke(main, [command, str(inst)])
    assert res.exit_code == 2, res.output
    assert _no_traceback(res)
    assert "demand-in-side-info: receiver 1 demands packet 1" in res.output
    assert "MISMATCH" not in res.output


@pytest.mark.parametrize("command", ["search", "analyze", "simulate"])
def test_erasure_document_is_a_parse_error(runner, tmp_path, command):
    # the 3-packet clique at delta_s = 1 under the withdrawn erasure model
    spec = ProblemSpec(graph=clique_graph(3), q=2, delta_s=1)
    doc = json.loads(serialize_instance(spec))
    doc["side_error_model"] = "erasure"
    inst = tmp_path / "c3.json"
    inst.write_text(json.dumps(doc))
    gen = tmp_path / "id3.json"
    gen.write_text(serialize_generator(Matrix.identity(F2, 3)))
    args = [command, str(inst)] + ([str(gen)] if command == "simulate" else [])
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert _no_traceback(res)
    assert res.output.startswith("parse error: side_error_model")


# instance documents whose f or X entries are not all integers
BAD_ENTRIES = [({"f": ["1", 2, 3]}, "entries of f must be integers"),
               ({"f": [1.0, 2, 3]}, "entries of f must be integers"),
               ({"f": [True, 2, 3]}, "entries of f must be integers"),
               ({"f": [None, 2, 3]}, "entries of f must be integers"),
               ({"X": [["2"], [1], [1]]}, "entries of X[1] must be integers"),
               ({"X": [[2.0, 3], [1], [1]]}, "entries of X[1] must be integers"),
               ({"X": [[2], [True], [1]]}, "entries of X[2] must be integers"),
               ({"X": [[2], [1], [[1]]]}, "entries of X[3] must be integers")]


@pytest.mark.parametrize("command", ["validate", "analyze", "search"])
@pytest.mark.parametrize("change,message", BAD_ENTRIES)
def test_instance_entries_must_be_integers(runner, tmp_path, command,
                                           change, message):
    doc = {"n": 3, "m": 3, "q": 2, "delta_s": 0, "delta_c": 0,
           "f": [1, 2, 3], "X": [[2], [1], [1]], **change}
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(doc))
    res = runner.invoke(main, [command, str(inst)])
    assert res.exit_code == 2, res.output
    assert _no_traceback(res)
    assert res.output == f"parse error: {message}\n"


@pytest.mark.parametrize("change,message", [
    ({"q": 2.5}, "fields 'q', 'n' and 'N' must be integers"),
    ({"q": "3"}, "fields 'q', 'n' and 'N' must be integers"),
    ({"N": 4.0}, "fields 'q', 'n' and 'N' must be integers"),
    ({"rows": [[True, 1, 1, 1]] + [[0, 1, 0, 0]] * 3},
     "generator entries must be integers"),
    ({"rows": [[1.0, 1, 1, 1]] + [[0, 1, 0, 0]] * 3},
     "generator entries must be integers"),
])
def test_generator_entries_must_be_integers(runner, clique4_files, tmp_path,
                                            change, message):
    inst, gen, _, _ = clique4_files
    doc = {**json.loads(open(gen).read()), **change}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    res = runner.invoke(main, ["encode", inst, str(p), "--x", "1,0,1,1"])
    assert res.exit_code == 2, res.output
    assert _no_traceback(res)
    assert res.output == f"parse error: {message}\n"


def _analyze_doc(s_plus_1: int, value: int, cycles, witness, packing):
    """A pinned `analyze --json` document over F_q at delta_c = 0 where gamma,
    kwise, edge deletion, n - beta (tight) and N_opt all read value."""
    def entry(kind, val, provenance):
        return {"kind": kind, "provenance": provenance, "target": "icsie",
                "value": val}
    return {
        "beta": len(packing),
        "bounds": {"entries": {
            "S_plus_1": entry("lower", s_plus_1,
                              "receivers with caches within the error "
                              "budget force independent rows"),
            "edge_deletion_lower": entry(
                "lower", value,
                "worst conventional instance after cache-edge deletion"),
            "gamma": entry("lower", value, "independence-number lower bound"),
            "kwise": entry("lower", value,
                           "each packet set's rows are k-wise independent"),
            "n": entry("upper", 4, "uncoded upper bound"),
            "n_minus_beta": entry("exact", value,
                                  "disjoint compressible sets, removal "
                                  "witness leaves no cycle: tight")},
            "n_opt": value, "notes": []},
        "cycles": cycles, "gamma": value, "gamma_witness": witness,
        "packing": packing}


# F_2 clique-4 at delta_s = 1 and the directed 4-cycle at delta_s = 0
# print the same document
ANALYZE_ONE_4_CYCLE = _analyze_doc(1, 3, [[1, 2, 3, 4]], [1, 2, 3],
                                   [[1, 2, 3, 4]])
# packet 4 is demanded by no receiver: it alone is compressible
ANALYZE_UNDEMANDED = _analyze_doc(3, 3, [[4]], [1, 2, 3], [[4]])


@pytest.mark.parametrize("spec,doc", [
    (ProblemSpec(graph=clique_graph(4), q=2, delta_s=1), ANALYZE_ONE_4_CYCLE),
    (ProblemSpec(graph=SideInfoGraph.make(4, [1, 2, 3, 4],
                                          [{2}, {3}, {4}, {1}]),
                 q=2, delta_s=0), ANALYZE_ONE_4_CYCLE),
    (ProblemSpec(graph=SideInfoGraph.make(
        4, [1, 2, 3, 1, 2], [{2, 3}, {1, 3}, {1, 2, 4}, {3, 4}, {1, 3, 4}]),
        q=3, delta_s=1), ANALYZE_UNDEMANDED),
], ids=["F2-clique4-ds1", "directed-4-cycle-ds0", "F3-non-unipartite-ds1"])
def test_analyze_json_pinned(runner, tmp_path, spec, doc):
    inst = tmp_path / "inst.json"
    inst.write_text(serialize_instance(spec))
    res = runner.invoke(main, ["analyze", "--json", str(inst)])
    assert res.exit_code == 0
    assert res.output == json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_analyze_reads_one_bounds_report(runner, clique4_files):
    inst, _, _, _ = clique4_files
    bound = {name for name, obj in vars(cli).items()
             if getattr(obj, "__module__", None) == "icsie.structure"}
    assert bound == {"bounds_report"}
    codeset._instance_table.cache_clear()     # the fixture kept the table
    with mock.patch("icsie.codeset.support_table",
                    wraps=codeset.support_table) as built:
        res = runner.invoke(main, ["analyze", inst, "--json"])
    assert res.exit_code == 0
    assert built.call_count == 1


def test_analyze_notes_the_edge_deletion_bound_past_its_budget(runner,
                                                               tmp_path):
    # clique-6 at delta_s = 1 has C(5, 2)^6 = 10^6 deletion choices
    inst = tmp_path / "c6.json"
    inst.write_text(serialize_instance(
        ProblemSpec(graph=clique_graph(6), q=2, delta_s=1)))
    note = ("edge_deletion_lower skipped: 1000000 edge-deletion choices "
            "exceed the budget")
    res = runner.invoke(main, ["analyze", str(inst)])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert f"note: {note}" in lines and "N_opt = 4" in lines
    assert not any(line.startswith("bound edge_deletion_lower")
                   for line in lines)
    res = runner.invoke(main, ["analyze", "--json", str(inst)])
    assert res.exit_code == 0
    bounds = json.loads(res.output)["bounds"]
    assert bounds["notes"] == [note]
    assert "edge_deletion_lower" not in bounds["entries"]


def test_analyze(runner, clique4_files):
    inst, _, _, _ = clique4_files
    res = runner.invoke(main, ["analyze", inst])
    assert res.exit_code == 0
    assert "gamma = 3" in res.output
    assert "beta = 1" in res.output
    assert "{1,2,3,4}" in res.output


def test_analyze_acyclic(runner, tmp_path):
    spec = ProblemSpec(graph=clique_graph(3), q=2, delta_s=1)
    p = tmp_path / "c3.json"
    p.write_text(serialize_instance(spec))
    res = runner.invoke(main, ["analyze", str(p)])
    assert res.exit_code == 0
    assert "acyclic: N_opt = n = 3" in res.output


def test_analyze_json(runner, clique4_files):
    inst, _, _, _ = clique4_files
    res = runner.invoke(main, ["analyze", inst, "--json"])
    doc = json.loads(res.output)
    assert doc["gamma"] == 3 and doc["beta"] == 1
    assert doc["bounds"]["n_opt"] == 3


def test_simulate_exhaustive_pass(runner, clique4_files):
    inst, gen, _, _ = clique4_files
    res = runner.invoke(main, ["simulate", inst, gen])
    assert res.exit_code == 0
    assert "overall: PASS" in res.output
    assert "16" not in res.output.split("recovered")[-1]


def test_simulate_invalid_generator_fails(runner, clique4_files, tmp_path):
    inst, _, spec, _ = clique4_files
    broken = Matrix(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]])
    p = tmp_path / "broken.json"
    p.write_text(serialize_generator(broken))
    res = runner.invoke(main, ["simulate", inst, str(p)])
    assert res.exit_code == 1
    assert "witness" in res.output


def test_simulate_random_seeded_reproducible(runner, clique4_files):
    inst, gen, _, _ = clique4_files
    args = ["simulate", inst, gen, "--trials", "50", "--mode", "random",
            "--seed", "7", "--json"]
    assert runner.invoke(main, args).output == runner.invoke(main, args).output


@pytest.mark.parametrize("trials", ["0", "-5", "many"])
def test_simulate_rejects_non_positive_trials(runner, clique4_files, trials):
    inst, gen, _, _ = clique4_files
    res = runner.invoke(main, ["simulate", inst, gen, "--mode", "random",
                               "--trials", trials])
    assert res.exit_code == 2
    assert "positive integer" in res.output
    assert "PASS" not in res.output


@pytest.mark.parametrize("seed", ["-1", "-3"])
@pytest.mark.parametrize("mode", [["--mode", "random", "--trials", "50"], []],
                         ids=["random", "exhaustive"])
def test_simulate_rejects_a_negative_seed(runner, clique4_files, seed, mode):
    # random.Random would seed -3 as 3, so --seed -3 would rerun --seed 3
    inst, gen, _, _ = clique4_files
    res = runner.invoke(main, ["simulate", inst, gen, "--seed", seed] + mode)
    assert res.exit_code == 2, res.output
    assert res.output.startswith(
        f"parse error: --seed must be an integer >= 0, got {seed}")
    assert "recovered" not in res.output


def test_simulate_count_needs_random_mode(runner, clique4_files):
    # a count with the default exhaustive mode is refused, never ignored
    inst, gen, _, _ = clique4_files
    for extra in ([], ["--mode", "adversarial-exhaustive"]):
        res = runner.invoke(main, ["simulate", inst, gen, "--trials", "5"] + extra)
        assert res.exit_code == 2
        assert res.output.startswith("parse error: --mode adversarial-exhaustive")
        assert "recovered" not in res.output


def test_simulate_random_runs_the_trial_count(runner, clique4_files):
    inst, gen, _, _ = clique4_files
    res = runner.invoke(main, ["simulate", inst, gen, "--mode", "random",
                               "--trials", "50", "--seed", "3"])
    assert res.exit_code == 0
    totals = [int(line.split("/")[1].split()[0])
              for line in res.output.splitlines() if line.startswith("receiver")]
    assert sum(totals) == 50


def test_run_simulation_api_full_recovery(clique4_files):
    _, _, spec, G = clique4_files
    report = run_simulation(spec, G, SimulationConfig(trials="exhaustive"))
    assert report.ok
    assert all(rate == 1.0 for rate in report.rates().values())


def test_simulate_gecic_sphere_feasibility(runner, tmp_path):
    spec = ProblemSpec(graph=clique_graph(2), q=2, delta_s=0, delta_c=1)
    inst = tmp_path / "g.json"
    inst.write_text(serialize_instance(spec))
    rep = Matrix(F2, [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]])
    gen = tmp_path / "rep.json"
    gen.write_text(serialize_generator(rep))
    res = runner.invoke(main, ["simulate", str(inst), str(gen)])
    assert res.exit_code == 0
    assert "feasibility: ok" in res.output
    res = runner.invoke(main, ["simulate", str(inst), str(gen), "--trials", "0"])
    assert res.exit_code == 2


def test_simulate_sphere_feasibility_over_f3(runner, tmp_path):
    # delta_c = 1 over F_3: simulate answers through oracle_decodable
    g = SideInfoGraph.make(3, [1, 2, 3], [{2}, {3}, {1}])
    spec = ProblemSpec(graph=g, q=3, delta_s=0, delta_c=1)
    inst = tmp_path / "cycle3.json"
    inst.write_text(serialize_instance(spec))
    _, G = optimal_length(spec)
    for name, gen, code, feasible in (
            ("witness", G, EXIT_OK, True),
            ("zero", Matrix.zero(field_for(3), 3, G.ncols), EXIT_DOMAIN, False)):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_generator(gen))
        res = runner.invoke(main, ["simulate", str(inst), str(path), "--json"])
        assert res.exit_code == code
        assert json.loads(res.output) == {"feasible": feasible}


# -- every decode and simulate input ends in an answer or a typed error -------

def _base_cases():
    """(instance, generator) pairs the property mutates: F_2 clique-4 and a
    directed 3-cycle, F_3 clique-3, each with an optimal generator."""
    cycle = SideInfoGraph.make(3, [1, 2, 3], [{2}, {3}, {1}])
    specs = (ProblemSpec(graph=clique_graph(4), q=2, delta_s=1),
             ProblemSpec(graph=cycle, q=2, delta_s=0),
             ProblemSpec(graph=clique_graph(3), q=3, delta_s=1))
    return [(spec, optimal_length(spec)[1]) for spec in specs]


BASE_CASES = _base_cases()
JUNK = (-1, 0, 1, 2, 3, 4, 6, 40, 10 ** 9, 2 ** 70, "1", None, 1.5, True, [],
        [1], {})


def _mutated_doc(draw, doc: dict, nested: str) -> str:
    """doc as JSON text with a key dropped or set to junk, or an entry of
    its nested list (X or rows) replaced, or junk text instead."""
    kind = draw(st.sampled_from(("key", "drop", "entry", "text")))
    if kind == "key":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(st.sampled_from(JUNK))
    elif kind == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "entry":
        outer = doc[nested]
        k = draw(st.integers(0, len(outer) - 1))
        if outer[k] and draw(st.booleans()):
            outer[k][draw(st.integers(0, len(outer[k]) - 1))] = draw(
                st.sampled_from(JUNK))
        else:
            outer[k] = draw(st.sampled_from(JUNK))
    else:
        return draw(st.sampled_from(("{nope", "[]", "null", "")))
    return json.dumps(doc)


def _vector_text(draw, vec, q: int, broken: bool) -> str:
    """vec as --y / --xhat / --truth text; when broken, with an entry out
    of range, dropped or added, or junk instead."""
    vec = [str(v) for v in vec]
    if not broken:
        return ",".join(vec)
    kind = draw(st.sampled_from(("value", "drop", "add", "junk")))
    if kind == "value" and vec:
        vec[draw(st.integers(0, len(vec) - 1))] = str(
            draw(st.sampled_from((-1, q, q + 1, 10 ** 30))))
    elif kind == "drop" and vec:
        vec.pop()
    elif kind == "add":
        vec.append(str(draw(st.integers(0, q - 1))))
    elif kind == "junk":
        return draw(st.sampled_from(("", "a,b", "1,,0", " ", "1.0", "0x1")))
    return ",".join(vec)


@st.composite
def cli_cases(draw):
    """A decode or simulate call on a base case with at most one part
    broken: the instance, the generator, or one option.  Unbroken decodes
    still put up to delta_s + 1 errors in each cache snapshot."""
    spec, G = draw(st.sampled_from(BASE_CASES))
    q, g = spec.q, spec.graph
    decode = draw(st.booleans())
    broken = draw(st.sampled_from(
        (None, None, None, "instance", "generator")
        + (("y", "xhat", "receiver", "truth") if decode else ("trials",))))
    inst = json.loads(serialize_instance(spec))
    inst = (_mutated_doc(draw, inst, "X") if broken == "instance"
            else json.dumps(inst))
    gen = json.loads(serialize_generator(G))
    gen = (_mutated_doc(draw, gen, "rows") if broken == "generator"
           else json.dumps(gen))
    x = draw(st.lists(st.integers(0, q - 1), min_size=g.n, max_size=g.n))
    if decode:
        argv = ["decode", "--y",
                _vector_text(draw, G.vec_mul(x), q, broken == "y")]
        receivers = sorted(draw(st.sets(st.integers(1, g.m), min_size=1)))
        for k, i in enumerate(receivers):
            x_hat = [x[j - 1] for j in sorted(g.X[i - 1])]
            for pos in draw(st.sets(st.integers(0, len(x_hat) - 1),
                                    max_size=spec.delta_s + 1)):
                x_hat[pos] = draw(st.integers(0, q - 1))
            last = k == len(receivers) - 1
            label = (draw(st.sampled_from(("0", str(g.m + 1), "x", "")))
                     if broken == "receiver" and last else str(i))
            text = _vector_text(draw, x_hat, q, broken == "xhat" and last)
            argv += ["--xhat", f"{label}={text}"]
        if broken == "truth" or draw(st.sampled_from((True, True, False))):
            argv += ["--truth", _vector_text(draw, x, q, broken == "truth")]
    else:
        argv = ["simulate"]
        if broken == "trials" or draw(st.booleans()):
            argv += ["--mode", "random", "--seed",
                     str(draw(st.integers(0, 9))), "--trials",
                     draw(st.sampled_from(("0", "-3", "abc", "1e3",
                                           "exhaustive"))
                          if broken == "trials"
                          else st.sampled_from(("5", "40", "1000")))]
    if draw(st.booleans()):
        argv.append("--json")
    return inst, gen, argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cli_cases())
def test_decode_and_simulate_end_in_an_answer_or_a_typed_error(case):
    inst_text, gen_text, argv = case
    runner = CliRunner()
    with runner.isolated_filesystem(), mock.patch.object(
            simulation, "DEFAULT_TRIAL_BITS", 8):
        with open("inst.json", "w") as fh:
            fh.write(inst_text)
        with open("gen.json", "w") as fh:
            fh.write(gen_text)
        res = runner.invoke(main, [argv[0], "inst.json", "gen.json", *argv[1:]])
    assert res.exit_code in (0, 1, 2, 3), res.output
    assert _no_traceback(res), res.exception
    assert "Traceback" not in res.output
    if argv[0] != "decode" or res.exit_code != 0 or "--truth" not in argv:
        return
    # every receiver decoded right, with the uncached route's trace
    spec = parse_instance(inst_text)
    G = parse_generator(gen_text)
    opts = dict(zip(argv[1::2], argv[2::2]))
    y = tuple(int(v) for v in opts["--y"].split(","))
    truth = tuple(int(v) for v in opts["--truth"].split(","))
    receivers = {}
    for flag, pair in zip(argv[1::2], argv[2::2]):
        if flag == "--xhat":
            i, text = pair.split("=")
            receivers[int(i)] = tuple(int(v) for v in text.split(","))
    for i, x_hat in receivers.items():
        value, trace = _reference_decode(G, spec.graph, i, y, x_hat,
                                         spec.delta_s)
        assert value == truth[spec.graph.f[i - 1] - 1]
        want = {"value": value, "syndrome": list(trace.syndrome),
                "correction": list(trace.correction),
                "suspected": list(trace.suspected), "correct": True}
        if "--json" in argv:
            assert json.loads(res.output)["receivers"][str(i)] == want
        else:
            assert (f"receiver {i}: x_{spec.graph.f[i - 1]} = {value}  "
                    f"syndrome={','.join(map(str, trace.syndrome))}  "
                    f"suspected={list(trace.suspected)}") in res.output


# -- every validate, search, analyze and encode input ends in an answer or a
# -- typed error, and each answer is confirmed by a second route

SMALL_BITS = 16       # budgets small enough that every call ends quickly
HUGE = (40, 257, 1 << 16, (1 << 16) + 1, 10 ** 9, 2 ** 70)


@st.composite
def query_cases(draw):
    """A validate, search, analyze or encode call on a base case with at
    most one part broken: the instance (junk, or one of n, q and the
    deltas huge), or for encode the generator or --x."""
    spec, G = draw(st.sampled_from(BASE_CASES))
    command = draw(st.sampled_from(("validate", "search", "analyze", "encode")))
    broken = draw(st.sampled_from(
        (None, None, "instance", "huge")
        + (("generator", "x") if command == "encode" else ())))
    inst = json.loads(serialize_instance(spec))
    if broken == "huge":
        inst[draw(st.sampled_from(("n", "q", "delta_s", "delta_c")))] = draw(
            st.sampled_from(HUGE))
    inst = (_mutated_doc(draw, inst, "X") if broken == "instance"
            else json.dumps(inst))
    gen = json.loads(serialize_generator(G))
    gen = (_mutated_doc(draw, gen, "rows") if broken == "generator"
           else json.dumps(gen))
    argv = [command, "inst.json"]
    if command == "search":
        argv += ["--method", draw(st.sampled_from(("both", "brute", "minrank")))]
    elif command == "encode":
        x = draw(st.lists(st.integers(0, spec.q - 1), min_size=spec.graph.n,
                          max_size=spec.graph.n))
        argv += ["gen.json", "--x", _vector_text(draw, x, spec.q, broken == "x")]
    if draw(st.booleans()):
        argv.append("--json")
    return inst, gen, argv


def _small_budgets():
    """The searches of search and analyze at SMALL_BITS-sized budgets."""
    small = 1 << SMALL_BITS
    return (
        mock.patch.object(encoder, "DEFAULT_SUBSPACE_BUDGET", small),
        mock.patch.object(encoder, "DEFAULT_COMBO_BUDGET", small),
        mock.patch.object(encoder, "DEFAULT_FREE_BITS", SMALL_BITS),
        mock.patch.object(structure, "DEFAULT_SUBSET_BITS", SMALL_BITS))


def _demanded_part(spec: ProblemSpec, G: Matrix):
    """The instance on the demanded packets and G's rows for them, when
    every other packet has a zero row: such a packet neither interferes
    nor helps, so G serves the instance iff those rows serve the part.
    Otherwise the instance and G as they are."""
    g = spec.graph
    keep = sorted(set(g.f))
    if len(keep) == g.n or any(any(G.row(j)) for j in range(1, g.n + 1)
                               if j not in keep):
        return spec, G
    index = {j: k for k, j in enumerate(keep, start=1)}
    part = SideInfoGraph.make(len(keep), [index[f] for f in g.f],
                              [[index[j] for j in X if j in index] for X in g.X])
    return (ProblemSpec(graph=part, q=spec.q, delta_s=spec.delta_s,
                        delta_c=spec.delta_c),
            Matrix(spec.field, [G.row(j) for j in keep], ncols=G.ncols))


def _confirm(argv, output: str, spec: ProblemSpec, gen_text: str) -> None:
    """An exit-0 answer, checked by a route other than the command's."""
    as_json = "--json" in argv
    g = spec.graph
    if argv[0] == "validate":
        # every packet demanded, no receiver caching its own demand
        assert set(g.f) == set(range(1, g.n + 1))
        assert all(f not in X for f, X in zip(g.f, g.X))
        assert (json.loads(output) == {"valid": True, "violations": []}
                if as_json else output == "ok\n")
    elif argv[0] == "encode":
        G = parse_generator(gen_text)
        x = [int(v) for v in argv[argv.index("--x") + 1].split(",")]
        y = [dot(spec.field, x, col) for col in G.columns()]
        assert (json.loads(output) == {"y": y} if as_json
                else output == "y = " + ",".join(map(str, y)) + "\n")
    elif argv[0] == "search":
        if as_json:
            doc = json.loads(output)
            N, G = doc["N"], parse_generator(json.dumps(doc["G"]))
        else:
            lines = output.splitlines()
            N = int(lines[0].removeprefix("N = "))
            G = Matrix(spec.field, [[int(v) for v in line.split()]
                                    for line in lines[2:]], ncols=N)
        assert G.nrows == g.n and G.ncols == N
        part, G_part = _demanded_part(spec, G)
        try:
            assert oracle_decodable(part, G_part)
        except BudgetExceededError:
            # past the oracle's budget only an answer of full row rank is
            # confirmed: every receiver reads x from y alone
            assert spec.delta_c == 0 and G_part.rank() == part.graph.n
        if spec.delta_c == 0 and g.n <= 8:     # the reference builds 2^n
            try:
                assert N == _reference_shortest_length(spec)[0]
            except BudgetExceededError:
                pass        # past the reference walk's budget: validity only
    elif argv[0] == "analyze" and as_json:
        # the optimum, walked from length 1, sits inside every bound; a
        # report whose own search ran out of budget is not checked
        bounds = json.loads(output)["bounds"]
        if bounds["n_opt"] is None:
            return
        n_opt = _reference_shortest_length(spec)[0]
        assert bounds["n_opt"] == n_opt
        for e in bounds["entries"].values():
            if e["target"] == "icsie":
                assert {"lower": e["value"] <= n_opt,
                        "upper": e["value"] >= n_opt,
                        "exact": e["value"] == n_opt}[e["kind"]], e


@pytest.mark.parametrize("command", ["validate", "search", "analyze"])
@pytest.mark.parametrize("n", [(1 << 16) + 1, 10 ** 9, 2 ** 70])
def test_huge_n_is_a_parse_error(runner, tmp_path, command, n):
    # validate listed every undemanded packet and minrank built each
    # receiver's interference set over all n packets: n = 10^9 ran out
    # of memory
    doc = json.loads(serialize_instance(
        ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)))
    doc["n"] = n
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, [command, str(path)])
    assert res.exit_code == 2
    assert f"parse error: n = {n} exceeds the cap 65536" in res.output


def test_many_packets_exceed_the_search_budget_at_once(runner, tmp_path):
    # 20,000 packets, four demanded: counting the hyperplanes of F_2^20000
    # exactly ran for minutes, and the count has more digits than Python
    # turns into a string by default
    doc = json.loads(serialize_instance(
        ProblemSpec(graph=clique_graph(4), q=2, delta_s=1)))
    doc["n"] = 20_000
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["search", "--method", "brute", str(path)])
    assert res.exit_code == 3
    assert ("budget exceeded: at least 2^19999 subspaces of dimension 19999 "
            "exceed the search budget") in res.output


@settings(max_examples=300, deadline=None, derandomize=True)
@given(query_cases())
def test_queries_end_in_a_confirmed_answer_or_a_typed_error(case):
    inst_text, gen_text, argv = case
    runner = CliRunner()
    with runner.isolated_filesystem(), contextlib.ExitStack() as stack:
        for patch in _small_budgets():
            stack.enter_context(patch)
        with open("inst.json", "w") as fh:
            fh.write(inst_text)
        with open("gen.json", "w") as fh:
            fh.write(gen_text)
        res = runner.invoke(main, argv)
    assert res.exit_code in (0, 1, 2, 3), res.output
    assert _no_traceback(res), res.exception
    assert "Traceback" not in res.output
    assert "MISMATCH" not in res.output
    # confirmed at the library's own budgets
    if res.exit_code == 0:
        _confirm(argv, res.output, parse_instance(inst_text), gen_text)
