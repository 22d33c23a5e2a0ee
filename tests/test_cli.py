import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from process_resilience.cli import build_parser, main
from process_resilience.experiments import _MAX_THREADS
from process_resilience.graphs import format_graph_text, parse_graph_text
from process_resilience.process import sample_gnm

from conftest import cycle, cherry_gadget


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.txt"
    path.write_text(format_graph_text(cycle(6)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- help / usage ----------------------------------------------------------

def test_help_enumerates_commands(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    for cmd in ("sample", "hitting-times", "giant", "kcore", "classify",
                "audit", "attack", "threshold", "study", "verify-cut"):
        assert cmd in out


def test_subcommand_help_flags(capsys):
    parser = build_parser()
    assert "--version" in parser.format_help()
    code, out, _ = run(capsys, "attack", "exact", "--help")
    assert code == 0
    assert "--graph" in out and "--alpha" in out


def test_one_parser_serves_every_call_as_a_fresh_process_would(capsys, tmp_path):
    # the parser is built once per process; a call after others prints
    # what the same call prints as the first of a fresh interpreter
    assert build_parser() is build_parser()
    graph = tmp_path / "g.txt"
    graph.write_text(format_graph_text(sample_gnm(60, 240, 3)))
    calls = [("study", "sweep", "--ns", "16", "--ms", "30", "--trials", "2",
              "--format", "csv"),
             ("attack", "greedy", "--graph", str(graph), "--epsilon", "1/10",
              "--seed", "1"),
             ("sample", "gnm", "--n", "8", "--m", "5", "--seed", "2"),
             ("study", "hitting", "--ns", "1"),
             ("attack", "exact", "--graph", str(graph))]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "process_resilience.cli", *argv],
                               env=env, capture_output=True, text=True, timeout=120)
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert build_parser() is build_parser()


def test_cli_import_loads_no_process_pool():
    # only a study with threads > 1 needs the pool, so it is imported there
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("import sys, process_resilience.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    fresh = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, timeout=120)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, "[]\n", "")


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "attack", "exact", "--graph", "x", "--bogus")
    assert code == 2


# -- golden output formats ---------------------------------------------------

def test_attack_exact_finds_cut_golden(capsys, c6_file):
    code, out, _ = run(capsys, "attack", "exact", "--graph", c6_file,
                       "--alpha", "1/2")
    assert code == 0
    assert out == (
        '{\n'
        '  "A": [\n    0,\n    3,\n    4,\n    5\n  ],\n'
        '  "B": [\n    1,\n    2\n  ],\n'
        '  "H": [\n    [\n      0,\n      1\n    ],\n    [\n      2,\n      3\n    ]\n  ],\n'
        '  "S": [],\n'
        '  "max_ratio": "1/2",\n'
        '  "satisfied": true\n'
        '}\n'
    )


def test_attack_exact_resilient_golden(capsys, c6_file):
    code, out, _ = run(capsys, "attack", "exact", "--graph", c6_file,
                       "--alpha", "49/100")
    assert code == 1
    assert out == "resilient\n"


def test_alpha_must_be_rational(capsys, c6_file):
    code, _, err = run(capsys, "attack", "exact", "--graph", c6_file,
                       "--alpha", "0.5x")
    assert code == 2


def test_alpha_outside_unit_interval_is_usage_error(capsys, c6_file):
    code, _, err = run(capsys, "attack", "exact", "--graph", c6_file,
                       "--alpha", "3/2")
    assert code == 2
    assert "alpha must be a real number in [0, 1], got 3/2" in err


# -- samplers ----------------------------------------------------------------

def test_sample_gnp_deterministic_files(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run(capsys, "sample", "gnp", "--n", "100", "--p", "0.1",
               "--seed", "7", "--out", str(a))[0] == 0
    assert run(capsys, "sample", "gnp", "--n", "100", "--p", "0.1",
               "--seed", "7", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_process_descriptor(capsys):
    code, out, _ = run(capsys, "sample", "process", "--n", "12", "--seed", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 12 and payload["seed"] == 4
    assert "generator" in payload


def test_sample_coupled(tmp_path, capsys):
    minus, plus = tmp_path / "m.txt", tmp_path / "p.txt"
    code, out, _ = run(capsys, "sample", "coupled", "--n", "30", "--p0", "0.2",
                       "--p-prime", "0.1", "--seed", "3",
                       "--out-minus", str(minus), "--out-plus", str(plus))
    assert code == 0
    meta = json.loads(out)
    assert meta["p1"] == pytest.approx(0.28)
    gm = parse_graph_text(minus.read_text())
    gp = parse_graph_text(plus.read_text())
    assert set(gm.edges) <= set(gp.edges)


# -- structure commands ------------------------------------------------------

def test_hitting_times_command(capsys):
    code, out, _ = run(capsys, "hitting-times", "--n", "8", "--seed", "1",
                       "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["tau_1"] <= payload["tau_conn"]
    assert payload["tau_2"] <= payload["tau_2conn"]


def test_giant_and_kcore_commands(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text("5 4\n0 1\n1 2\n0 2\n3 4\n")
    out_file = tmp_path / "giant.txt"
    code, out, _ = run(capsys, "giant", "--graph", str(g), "--out", str(out_file))
    assert code == 0
    assert json.loads(out)["labels"] == [0, 1, 2]
    assert parse_graph_text(out_file.read_text()).m == 3

    core_file = tmp_path / "core.txt"
    code, out, _ = run(capsys, "kcore", "--graph", str(g), "--k", "2",
                       "--out", str(core_file))
    assert code == 0
    assert json.loads(out)["labels"] == [0, 1, 2]
    assert parse_graph_text(core_file.read_text()).m == 3


def test_classify_command(tmp_path, capsys):
    g = tmp_path / "star.txt"
    g.write_text("6 5\n0 1\n0 2\n0 3\n0 4\n0 5\n")
    code, out, _ = run(capsys, "classify", "--graph", str(g), "--p", "0.5",
                       "--delta", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["tiny"] == [1, 2, 3, 4, 5]
    assert payload["atyp"] == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("p", ["-0.5", "nan"])
def test_classify_with_p_outside_unit_interval_is_usage_error(capsys, c6_file, p):
    code, out, err = run(capsys, "classify", "--graph", c6_file, f"--p={p}",
                         "--delta", "0.5")
    assert code == 2 and out == ""
    assert "p must be a real number in [0, 1]" in err


def test_audit_command(tmp_path, capsys):
    import math
    from process_resilience.process import sample_coupled
    n = 64
    p0 = 2 * math.log(n) / (3 * n)
    coupled = sample_coupled(n, p0, 0.3 * p0, 5)
    minus, plus = tmp_path / "m.txt", tmp_path / "p.txt"
    minus.write_text(format_graph_text(coupled.g_minus))
    plus.write_text(format_graph_text(coupled.g_plus))
    code, out, _ = run(capsys, "audit", "--minus", str(minus), "--plus",
                       str(plus), "--p0", str(p0), "--delta", "0.9",
                       "--L", "30", "--subset-trials", "50")
    assert code in (0, 1)
    reports = json.loads(out)
    assert [r["property"] for r in reports] == [
        "tiny-3ball", "atyp-neighbourhood", "triangle-tiny", "atyp-size",
        "edge-counts"]


def test_audit_with_a_nan_c_is_usage_error(capsys, c6_file):
    # argparse reads "nan" as a float; the edge-count audit once held at it
    code, out, err = run(capsys, "audit", "--minus", c6_file, "--plus", c6_file,
                         "--p0", "0.2", "--c", "nan")
    assert code == 2 and not out
    assert "c must be a real number in (0, inf], got nan" in err


# -- attacks and verification -------------------------------------------------

def test_cherry_command(tmp_path, capsys):
    path = tmp_path / "cherry.txt"
    path.write_text(format_graph_text(cherry_gadget()))
    code, out, _ = run(capsys, "attack", "cherry", "--graph", str(path))
    assert code == 0
    assert json.loads(out)["edge"] == [2, 3]


def test_cherry_absent_exit_code(capsys, c6_file):
    code, out, _ = run(capsys, "attack", "cherry", "--graph", c6_file)
    assert code == 1
    assert out == "no cherry\n"


def test_greedy_command(tmp_path, capsys):
    from process_resilience.process import sample_gnm
    path = tmp_path / "g.txt"
    path.write_text(format_graph_text(sample_gnm(64, 256, 12)))
    code, out, _ = run(capsys, "attack", "greedy", "--graph", str(path),
                       "--epsilon", "1/10", "--delta", "0.5",
                       "--d-threshold", "6", "--seed", "2")
    payload = json.loads(out)
    assert code == (0 if payload["satisfied"] else 1)
    assert set(payload) >= {"S", "A", "B", "H", "max_ratio", "satisfied"}


def test_greedy_with_a_nan_d_threshold_is_usage_error(capsys, c6_file):
    # argparse reads "nan" as a float; the attack once ran with an empty D
    # set and reported its cut
    code, out, err = run(capsys, "attack", "greedy", "--graph", c6_file,
                         "--epsilon", "1/10", "--d-threshold", "nan")
    assert code == 2 and not out
    assert "d_threshold must be a real number in [-inf, inf], got nan" in err


def test_greedy_collapse_exits_one(tmp_path, capsys):
    # the giant of sample_gnm(6, 6, 0): the partition collapses to one side
    path = tmp_path / "g.txt"
    path.write_text("6 6\n0 1\n0 3\n0 4\n0 5\n1 4\n2 3\n")
    code, out, err = run(capsys, "attack", "greedy", "--graph", str(path),
                         "--epsilon", "1/10")
    assert code == 1 and not out
    assert err.startswith("attack failed: partition collapsed to one side")


def test_verify_cut_round_trip(tmp_path, capsys, c6_file):
    code, out, _ = run(capsys, "attack", "exact", "--graph", c6_file,
                       "--alpha", "1/2")
    cut_path = tmp_path / "cut.json"
    cut_path.write_text(out)
    code, out, _ = run(capsys, "verify-cut", "--graph", c6_file,
                       "--cut", str(cut_path), "--alpha", "1/2")
    assert code == 0
    assert json.loads(out)["valid"] is True
    # tighter budget invalidates the same certificate
    code, out, _ = run(capsys, "verify-cut", "--graph", c6_file,
                       "--cut", str(cut_path), "--alpha", "49/100")
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_keep_degree_zero_is_the_plain_rule(tmp_path, capsys, c6_file):
    _, out, _ = run(capsys, "attack", "exact", "--graph", c6_file, "--alpha", "1/2")
    cut_path = tmp_path / "cut.json"
    cut_path.write_text(out)
    for alpha in ("1/2", "49/100"):
        argv = ("verify-cut", "--graph", c6_file, "--cut", str(cut_path), "--alpha", alpha)
        plain = run(capsys, *argv)
        assert run(capsys, *argv, "--keep-degree", "0") == plain
    # a k-connectivity attack still needs k >= 1
    code, out, err = run(capsys, "attack", "kconn", "--graph", c6_file,
                         "--alpha", "1/2", "--k", "0")
    assert code == 2 and not out
    assert "k must be an integer >= 1, got 0" in err


def test_kconn_attack_command(tmp_path, capsys):
    from conftest import complete
    path = tmp_path / "k5.txt"
    path.write_text(format_graph_text(complete(5)))
    code, out, _ = run(capsys, "attack", "kconn", "--graph", str(path),
                       "--alpha", "9/10", "--k", "2")
    assert code == 0
    assert json.loads(out)["S"]


def test_threshold_command(capsys, c6_file):
    code, out, _ = run(capsys, "threshold", "--graph", c6_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha_star"] == "1/2"
    assert payload["method"] == "exact"


def test_threshold_command_local_search_names_an_upper_bound(capsys, c6_file):
    code, out, _ = run(capsys, "threshold", "--graph", c6_file,
                       "--mode", "local-search", "--restarts", "4", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert (payload["alpha_upper"], payload["alpha_upper_float"]) == ("1/2", 0.5)
    assert "alpha_star" not in payload and "alpha_star_float" not in payload
    assert payload["method"] == "local-search-upper-bound"
    side_a, side_b = payload["witness"]["A"], payload["witness"]["B"]
    assert sorted(side_a + side_b) == list(range(6))


def test_local_search_without_restarts_is_usage_error(capsys, c6_file):
    code, _, err = run(capsys, "threshold", "--graph", c6_file,
                       "--mode", "local-search", "--restarts", "0")
    assert code == 2
    assert "restarts must be an integer >= 1, got 0" in err


def test_exact_threshold_with_no_restarts_is_usage_error(capsys, c6_file):
    # exact mode reads no restarts, and once let 0 through
    code, out, err = run(capsys, "threshold", "--graph", c6_file,
                         "--mode", "exact", "--restarts", "0")
    assert (code, out) == (2, "")
    assert "restarts must be an integer >= 1, got 0" in err


# -- error paths --------------------------------------------------------------

def test_malformed_graph_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n0 1\nzap\n")
    code, _, err = run(capsys, "giant", "--graph", str(bad))
    assert code == 2
    assert "line 3" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "giant", "--graph", "/nonexistent/g.txt")
    assert code == 2


# the last two cover the sizes of C_6 but name a vertex outside it
@pytest.mark.parametrize("payload", [{"B": [2]}, [[0, 1], [2]], {"A": 5, "B": [2]},
                                     {"A": [0, 1, 2], "B": [3, 4, -1]},
                                     {"A": [0, 1, 2], "B": [3, 4, 2 ** 70]}])
def test_malformed_cut_file_is_usage_error(tmp_path, capsys, c6_file, payload):
    cut_path = tmp_path / "cut.json"
    cut_path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "verify-cut", "--graph", c6_file,
                       "--cut", str(cut_path), "--alpha", "1/2")
    assert code == 2
    assert "cut" in err


def test_negative_vertex_count_is_usage_error(capsys):
    code, _, err = run(capsys, "sample", "gnp", "--n", "-3", "--p", "0.5")
    assert code == 2
    assert "n must be an integer >= 0, got -3" in err



@pytest.mark.parametrize("argv, named", [
    (("kcore", "--ns", "256", "8", "--k", "9"),
     "kcore study: k must be an integer in [2, 7], got 9"),
    (("kcore", "--ns", "16", "--k", "1"),
     "kcore study: k must be an integer in [2, 15], got 1"),
    (("hitting", "--ns", "1"), "hitting study: ns must be an integer >= 2, got 1"),
    (("sweep", "--ns", "0"), "sweep study: ns must be an integer >= 2, got 0"),
    (("audit", "--ns", "1"), "audit study: ns must be an integer >= 2, got 1"),
    (("hitting", "--ns", "8", "--threads", "0"),
     f"hitting study: threads must be an integer in [1, {_MAX_THREADS}], got 0"),
])
def test_study_domain_is_usage_error(capsys, argv, named):
    code, _, err = run(capsys, "study", *argv, "--trials", "1")
    assert code == 2
    assert named in err

@pytest.mark.parametrize("argv, named", [
    (("hitting", "--ns", "8", "--trials", "-1"),
     "hitting study: trials must be an integer >= 1, got -1"),
    (("hitting", "--ns", "8", "--trials", "0"),
     "hitting study: trials must be an integer >= 1, got 0"),
    (("kcore", "--ns", "8", "--ms", "100", "--trials", "1"),
     "kcore study: ms asks for m=100 at n=8, outside [0, 28]"),
    (("sweep", "--ns", "8", "--ms", "100", "--trials", "1"),
     "sweep study: ms asks for m=100 at n=8, outside [0, 28]"),
])
def test_study_trials_and_ms_outside_their_range_are_usage_errors(capsys, argv,
                                                                  named):
    code, out, err = run(capsys, "study", *argv)
    assert code == 2
    assert named in err and not out


@pytest.mark.parametrize("value", ["nan", "-3"])
def test_sweep_study_d_threshold_factor_outside_its_range_is_usage_error(
        tmp_path, capsys, value):
    # nan once read every trial as greedy_satisfied, -3 as greedy_moves -1
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"study = sweep\nns = 16\nms = 30\ntrials = 1\n"
                   f"d_threshold_factor = {value}\n")
    code, out, err = run(capsys, "study", "sweep", "--config", str(cfg))
    assert code == 2
    assert (f"sweep study: d_threshold_factor must be a real number in "
            f"[0, inf), got {float(value)}") in err and not out


@pytest.mark.parametrize("field, value", [("subset_trials", -3), ("L", -1)])
def test_audit_study_negative_count_is_usage_error(tmp_path, capsys, field,
                                                   value):
    cfg = tmp_path / "audit.cfg"
    cfg.write_text(f"study = audit\nns = 64\ntrials = 1\n{field} = {value}\n")
    code, _, err = run(capsys, "study", "audit", "--config", str(cfg))
    assert code == 2
    assert f"audit study: {field} must be an integer >= 0, got {value}" in err


@pytest.mark.parametrize("keys, named", [
    ("epsilon = 5\np_prime_factor = 5\np0_factor = 20\n",
     "p_prime=2.166084939249829 for n=64"),
    ("epsilon = 1/0\n",
     "audit study: epsilon must be a real number in [0, inf], got '1/0'"),
])
def test_audit_study_epsilon_and_p_prime_outside_their_range_are_usage_errors(
        tmp_path, capsys, keys, named):
    cfg = tmp_path / "audit.cfg"
    cfg.write_text(f"study = audit\nns = 64\ntrials = 1\n{keys}")
    code, out, err = run(capsys, "study", "audit", "--config", str(cfg))
    assert code == 2
    assert named in err and not out


@pytest.mark.parametrize("study", ["hitting", "sweep"])
def test_study_exact_n_limit_above_exact_scan_is_usage_error(tmp_path, capsys,
                                                            study):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"study = {study}\nns = 28\nms = 150\ntrials = 1\n"
                   f"exact_n_limit = 30\n")
    code, _, err = run(capsys, "study", study, "--config", str(cfg))
    assert code == 2
    assert "exact_n_limit=30" in err and "n=28" in err


@pytest.mark.parametrize("line, named", [
    ("ns = ", "hitting study needs a non-empty ns"),
    ("trials = x", "config line 2: bad value for trials"),
])
def test_study_empty_grid_or_unparsed_value_is_usage_error(tmp_path, capsys,
                                                           line, named):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"study = hitting\n{line}\n")
    code, out, err = run(capsys, "study", "hitting", "--config", str(cfg))
    assert code == 2
    assert named in err and not out


@pytest.mark.parametrize("key", ["out_json", "out_csv"])
def test_study_unread_output_key_is_usage_error(tmp_path, capsys, key):
    target = tmp_path / "never.out"
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"study = hitting\nns = 16\ntrials = 1\n{key} = {target}\n")
    code, out, err = run(capsys, "study", "hitting", "--config", str(cfg))
    assert code == 2
    assert f"config key {key}" in err and "--out" in err and not out
    assert not target.exists()


@pytest.mark.parametrize("flag, named", [("--subset-trials", "subset_trials"),
                                         ("--L", "L must")])
def test_audit_negative_count_is_usage_error(c6_file, capsys, flag, named):
    code, _, err = run(capsys, "audit", "--minus", c6_file, "--plus", c6_file,
                       flag, "-1")
    assert code == 2
    assert named in err


def test_study_command(tmp_path, capsys):
    out_path = tmp_path / "study.json"
    code, out, _ = run(capsys, "study", "hitting", "--ns", "16", "--trials",
                       "3", "--seed", "5", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["schema"] == "process-resilience/summary/v1"
    assert len(payload["records"]) == 3


def test_audit_study_runs_with_defaults(capsys):
    code, out, _ = run(capsys, "study", "audit", "--ns", "64", "--trials", "1")
    assert code == 0
    assert json.loads(out)["config"]["p_prime_factor"] == 0.1


def test_study_config_file(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("study = hitting\nns = 16\ntrials = 2\nseed = 9\n"
                   "measure_resilience = false\n")
    code, out, _ = run(capsys, "study", "hitting", "--config", str(cfg))
    assert code == 0
    assert '"schema": "process-resilience/summary/v1"' in out
