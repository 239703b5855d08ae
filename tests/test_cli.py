import json

import pytest
from click.testing import CliRunner

from icsie.cli import main, run_simulation, SimulationConfig
from icsie.codeset import oracle_decodable
from icsie.encoder import optimal_length, serialize_generator
from icsie.gfield import field_for
from icsie.linalg import Matrix
from icsie.sigraph import (ProblemSpec, SideInfoGraph, clique_graph,
                           serialize_instance)

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
    bad = ProblemSpec(graph=SideInfoGraph.make(2, [1, 1], [{2}, {1}]),
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
