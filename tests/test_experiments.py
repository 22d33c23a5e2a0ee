import json
import math
import re

import jsonschema
import pytest

import process_resilience.experiments as experiments
from process_resilience.process import ProcessTrace
from process_resilience.rng import derive_seed
from process_resilience.experiments import (
    RESULT_JSON_SCHEMA,
    ExperimentConfig,
    SummaryTable,
    comparable_json_bytes,
    emit,
    parse_config_text,
    render_output,
    result_json_bytes,
    run_study,
    summarize_records,
    wilson_interval,
)

from oracles import parse_records_csv


# -- config ----------------------------------------------------------------

def _config_text(head: str, seed: int, threads: int, trials: int,
                 epsilon: str, p_prime: float, tail: str = "") -> str:
    """A config file listing every field, as ExperimentConfig.to_text
    wrote one: the fields in declaration order, None ones left out."""
    return (f"# process-resilience study config\n{head}k = 2\n"
            f"epsilon = {epsilon}\ndelta = 0.5\nL = 30\nc = 2.0\n"
            f"trials = {trials}\nseed = {seed}\nthreads = {threads}\n"
            f"subset_trials = 200\np0_factor = 1.5\n"
            f"p_prime_factor = {p_prime}\nexact_n_limit = 20\nrestarts = 8\n"
            f"measure_resilience = True\n{tail}")


def test_config_text_parses_every_field():
    text = _config_text("study = sweep\nns = 32, 64\nm_factors = 0.5, 1.0, 2.0\n",
                        seed=99, threads=2, trials=7, epsilon="1/5",
                        p_prime=0.3, tail="out_json = x.json\n")
    cfg = ExperimentConfig(study="sweep", ns=(32, 64), m_factors=(0.5, 1.0, 2.0),
                           trials=7, seed=99, threads=2, epsilon="1/5",
                           out_json="x.json")
    assert parse_config_text(text) == cfg


def test_config_text_of_the_defaults_parses_to_the_defaults():
    text = _config_text("study = hitting\nns = 256\n", seed=24301, threads=1,
                        trials=100, epsilon="1/10", p_prime=0.3)
    assert parse_config_text(text) == ExperimentConfig()


def test_config_rejects_unknown_keys_and_garbage():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_text("bogus = 3\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config_text("just words\n")
    for text, line, key in [("trials = x\n", 1, "trials"),
                            ("study = sweep\nms = 10, 3.5\n", 2, "ms"),
                            ("# half\n\ndelta = half\n", 3, "delta"),
                            ("measure_resilience = maybe\n", 1,
                             "measure_resilience")]:
        with pytest.raises(ValueError, match=f"^config line {line}: bad value "
                                             f"for {key}: "):
            parse_config_text(text)


def test_config_overrides():
    cfg = parse_config_text("study = hitting\ntrials = 5\n", trials=9, seed=1)
    assert cfg.trials == 9 and cfg.seed == 1


def test_m_grid():
    cfg = ExperimentConfig(ms=(3, 5))
    assert cfg.m_grid(10) == (3, 5)
    cfg = ExperimentConfig(m_factors=(1.0,))
    n = 64
    assert cfg.m_grid(n) == (math.ceil(n * math.log(n) / 6),)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and 0 < hi < 0.35
    lo, hi = wilson_interval(10, 10)
    assert 0.65 < lo < 1 and hi == pytest.approx(1.0)
    lo, hi = wilson_interval(5, 10)
    assert lo < 0.5 < hi


@pytest.mark.parametrize("successes, trials, named", [
    (5, 3, "successes must be an integer in [0, 3], got 5"),
    (-1, 3, "successes must be an integer in [0, 3], got -1"),
    (0, -1, "trials must be an integer >= 0, got -1")])
def test_wilson_interval_rejects_successes_outside_the_trials(successes, trials, named):
    # each once raised "math domain error", or returned a made-up interval
    with pytest.raises(ValueError, match=re.escape(named)):
        wilson_interval(successes, trials)


# -- reproducibility -------------------------------------------------------

def hitting_cfg(**kw):
    base = dict(study="hitting", ns=(24, 32), trials=6, seed=4242,
                exact_n_limit=8, measure_resilience=False)
    base.update(kw)
    return ExperimentConfig(**base)


def test_rerun_is_byte_identical_modulo_timestamp():
    a = result_json_bytes(run_study(hitting_cfg()))
    b = result_json_bytes(run_study(hitting_cfg()))
    assert comparable_json_bytes(a) == comparable_json_bytes(b)


def test_threads_do_not_change_results():
    serial = result_json_bytes(run_study(hitting_cfg(threads=1)))
    parallel = result_json_bytes(run_study(hitting_cfg(threads=3)))
    assert comparable_json_bytes(serial) == comparable_json_bytes(parallel)


def test_environment_does_not_set_the_seed(monkeypatch):
    # the master seed comes from the config alone, not from RESILIENCE_SEED
    direct = run_study(hitting_cfg())
    monkeypatch.setenv("RESILIENCE_SEED", "777")
    assert ([r.to_json_dict() for r in run_study(hitting_cfg()).records]
            == [r.to_json_dict() for r in direct.records])


def test_summary_recomputable_from_records():
    result = run_study(hitting_cfg())
    assert summarize_records(result.records) == result.summary


def test_single_trial_summary_is_identity():
    result = run_study(hitting_cfg(ns=(16,), trials=1))
    (record,) = result.records
    row = result.summary.rows[0]
    assert row["trials"] == 1
    assert row["tau1_mean"] == record.metrics["tau1"]
    assert row["tau_equal_rate"] == float(record.metrics["tau_equal"])


# -- studies ---------------------------------------------------------------

def test_sweep_on_complete_graphs():
    n = 8
    cfg = ExperimentConfig(study="sweep", ns=(n,), ms=(n * (n - 1) // 2,),
                           trials=4, seed=11, exact_n_limit=10)
    result = run_study(cfg)
    row = result.summary.rows[0]
    assert row["cherry_present_rate"] == 0.0
    assert row["alpha_star_float_mean"] == pytest.approx(4 / 7)
    crossing_rows = [r for r in result.summary.rows
                     if "cherry_rate_crossing_m" in r]
    assert crossing_rows and crossing_rows[0]["cherry_rate_crossing_m"] == n * (n - 1) // 2


def test_kcore_study_complete_graph():
    n = 8
    cfg = ExperimentConfig(study="kcore", ns=(n,), ms=(28,), k=2, trials=3,
                           seed=5, epsilon="1/6")
    result = run_study(cfg)
    row = result.summary.rows[0]
    assert row["core_frac_mean"] == 1.0
    assert row["core_k_connected_rate"] == 1.0
    assert row["kconn_attack_absent_rate"] == 1.0  # alpha = 1/3 on K_8 core
    assert row["tau_equal_k_rate"] == 1.0


def test_audit_study_runs_and_respects_regime():
    cfg = ExperimentConfig(study="audit", ns=(64,), trials=3, seed=9,
                           epsilon="1/2", p0_factor=1.5, p_prime_factor=0.4,
                           subset_trials=40, delta=0.5, L=10)
    result = run_study(cfg)
    assert len(result.records) == 3
    metrics = result.records[0].metrics
    assert {"c1_holds", "c2_holds", "c3_holds", "c4_holds",
            "max_nbrs_in_D"} <= set(metrics)
    bad = ExperimentConfig(study="audit", ns=(64,), trials=1, seed=9,
                           epsilon="1/5", p_prime_factor=0.4)
    with pytest.raises(ValueError, match="regime"):
        run_study(bad)


@pytest.mark.parametrize("field, value", [("subset_trials", -3), ("L", -1)])
def test_audit_study_rejects_negative_counts_before_any_trial(monkeypatch,
                                                              field, value):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "_run_one", no_trial)
    bad = ExperimentConfig(study="audit", ns=(64,), trials=1, **{field: value})
    with pytest.raises(ValueError, match=f"{field} >= 0, got {field}={value}"):
        run_study(bad)


def test_p_prime_factor_default_depends_on_study():
    # the audit default fits the default epsilon 1/10; the other studies
    # never read it and keep the value their JSON has always echoed
    assert ExperimentConfig(study="audit").p_prime_factor == 0.1
    for study in ("hitting", "sweep", "kcore"):
        assert ExperimentConfig(study=study).p_prime_factor == 0.3
    assert ExperimentConfig(study="audit", p_prime_factor=0.4).p_prime_factor == 0.4
    text = _config_text("study = audit\nns = 256\n", seed=24301, threads=1,
                        trials=100, epsilon="1/10", p_prime=0.1)
    assert parse_config_text(text) == ExperimentConfig(study="audit")


@pytest.mark.parametrize("epsilon", ["-1/10", "3/5"])
def test_kcore_study_rejects_epsilon_outside_budget_range(epsilon):
    # alpha = 1/2 - epsilon must lie in [0, 1]; rejected before any trial
    bad = ExperimentConfig(study="kcore", ns=(8,), ms=(28,), k=2, trials=1,
                           epsilon=epsilon)
    with pytest.raises(ValueError, match="epsilon"):
        run_study(bad)



@pytest.mark.parametrize("k, ns, named", [
    (9, (8,), "k=9 for n=8"), (9, (256, 8), "k=9 for n=8"),
    (1, (16,), "k=1 for n=16"), (3, (3,), "k=3 for n=3"),
])
def test_kcore_study_rejects_k_outside_domain_before_any_trial(
        monkeypatch, k, ns, named):
    # k must lie in [2, n-1] for every n; no trial may start first
    def no_trial(*args):
        raise AssertionError("a trial ran before the domain check")

    monkeypatch.setattr(experiments, "_run_one", no_trial)
    bad = ExperimentConfig(study="kcore", ns=ns, m_factors=(1.0,), k=k,
                           trials=2)
    with pytest.raises(ValueError, match=named):
        run_study(bad)


def _no_trial(*args):
    raise AssertionError("a trial ran before the config check")


@pytest.mark.parametrize("study", ["hitting", "sweep", "kcore", "audit"])
@pytest.mark.parametrize("trials", [0, -1])
def test_study_rejects_trials_below_one_before_any_trial(monkeypatch, study,
                                                         trials):
    # no trial would run, and the study would report no records at all
    monkeypatch.setattr(experiments, "_run_one", _no_trial)
    bad = ExperimentConfig(study=study, ns=(8,), ms=(10,), trials=trials)
    with pytest.raises(ValueError, match=f"{study} study needs trials >= 1, "
                                         f"got trials={trials}"):
        run_study(bad)


@pytest.mark.parametrize("study, key, value, domain", [
    *[(study, "threads", v, ">= 1") for study in ("hitting", "sweep", "kcore", "audit")
      for v in (0, -3)],
    ("sweep", "delta", 1.5, "in (0, 1)"),
    ("sweep", "epsilon", "1/2", "in (0, 1/2)"),
    ("hitting", "epsilon", "0", "in (0, 1/2)"),
    ("hitting", "restarts", 0, ">= 1"),
    ("hitting", "delta", 0.0, "in (0, 1)"),
    ("audit", "c", 0.0, "> 0"),
    ("audit", "delta", 1.0, "in (0, 1)"),
    ("audit", "p_prime_factor", -0.1, ">= 0"),
    ("kcore", "epsilon", "3/5", "in [0, 1/2]"),
    ("audit", "epsilon", "-1/10", "a rational >= 0"),
    # an epsilon that is no rational once raised from inside the check
    ("hitting", "epsilon", "abc", "in (0, 1/2)"),
    ("kcore", "epsilon", "1/0", "in [0, 1/2]"),
    ("audit", "epsilon", "abc", "a rational >= 0"),
    *[(study, "d_threshold_factor", v, "None or a finite number >= 0")
      for study in ("hitting", "sweep") for v in (math.nan, math.inf, -3.0)],
])
def test_study_rejects_key_outside_its_domain_before_any_trial(
        monkeypatch, study, key, value, domain):
    # each of these once failed, or ran on, inside a trial
    monkeypatch.setattr(experiments, "_run_one", _no_trial)
    bad = ExperimentConfig(study=study, ns=(8, 64), ms=(10,), k=2, trials=3,
                           **{key: value})
    with pytest.raises(ValueError, match=re.escape(
            f"{study} study needs {key} {domain}, got {key}={value}")):
        run_study(bad)


def test_audit_study_rejects_p0_above_one_before_any_trial(monkeypatch):
    monkeypatch.setattr(experiments, "_run_one", _no_trial)
    bad = ExperimentConfig(study="audit", ns=(4096, 64), trials=1, p0_factor=100.0)
    p0 = 100.0 * math.log(64) / (3 * 64)
    with pytest.raises(ValueError, match=re.escape(
            f"audit study needs p0 = p0_factor ln n / (3n) in [0, 1], "
            f"got p0={p0} for n=64")):
        run_study(bad)


def test_audit_study_rejects_p_prime_above_one_before_any_trial(monkeypatch):
    # p_prime = 5 p0 <= epsilon p0 passes the regime check, but at n = 64
    # p0 = 0.43 and p_prime = 2.17 once failed inside the first trial
    monkeypatch.setattr(experiments, "_run_one", _no_trial)
    bad = ExperimentConfig(study="audit", ns=(4096, 64), trials=1, epsilon="5",
                           p_prime_factor=5.0, p0_factor=20.0)
    p_prime = 5.0 * (20.0 * math.log(64) / (3 * 64))
    with pytest.raises(ValueError, match=re.escape(
            f"audit study needs p_prime = p_prime_factor * p0 in [0, 1], "
            f"got p_prime={p_prime} for n=64")):
        run_study(bad)


@pytest.mark.parametrize("study, text, key", [
    ("hitting", "ns = \n", "ns"),
    ("sweep", "ns = 16\nms = \n", "ms"),
    ("kcore", "ns = 16\nm_factors = \n", "m_factors"),
])
def test_study_rejects_an_empty_grid_before_any_trial(monkeypatch, study,
                                                      text, key):
    # an empty list parses to (), which would run no trial and report none
    monkeypatch.setattr(experiments, "_run_one", _no_trial)
    bad = parse_config_text(f"study = {study}\ntrials = 1\n{text}")
    with pytest.raises(ValueError, match=f"{study} study needs a non-empty {key}$"):
        run_study(bad)


@pytest.mark.parametrize("study, text, key, n, m", [
    ("hitting", "ns = 16, 24, 16\n", "ns", 16, None),
    ("sweep", "ns = 16, 16\nms = 30, 40\n", "ns", 16, 30),
    ("sweep", "ns = 16\nms = 30, 30\n", "ms", 16, 30),
    ("kcore", "ns = 16\nm_factors = 1.0, 1.0\n", "m_factors", 16, 8),
    # distinct factors that clamp to the same m = C(6, 2)
    ("sweep", "ns = 6\nm_factors = 50, 60\n", "m_factors", 6, 15),
])
def test_study_rejects_a_repeated_grid_value_before_any_trial(
        monkeypatch, study, text, key, n, m):
    # a repeated value would run the same seeded trials again and count
    # them as new samples in the summary
    monkeypatch.setattr(experiments, "_run_one", _no_trial)
    bad = parse_config_text(f"study = {study}\ntrials = 2\n{text}")
    with pytest.raises(ValueError, match=re.escape(
            f"{study} study: {key} repeats a value, so the trials at n={n}, "
            f"m={m} would run twice")):
        run_study(bad)


@pytest.mark.parametrize("grid, named", [
    # the dataclass path takes what it is given; the text parser casts
    (dict(ns=(6.5,), m_factors=(6.0,)), "ns must be an integer, got 6.5"),
    (dict(ns=(16, True), ms=(10,)), "ns must be an integer, got True"),
    (dict(ns=(16,), ms=(10.0,)), "ms must be an integer, got 10.0"),
    (dict(ns=(16,), m_factors=(1.0, math.nan)),
     "sweep study needs finite m_factors, got m_factors=nan"),
    (dict(ns=(16,), m_factors=(math.inf,)),
     "sweep study needs finite m_factors, got m_factors=inf"),
])
def test_study_rejects_a_grid_value_of_the_wrong_kind_before_any_trial(
        monkeypatch, grid, named):
    # each once failed inside a trial, with a TypeError from derive_seed or
    # "cannot convert float NaN to integer", naming neither key nor value
    monkeypatch.setattr(experiments, "_run_one", _no_trial)
    with pytest.raises(ValueError, match=re.escape(named)):
        run_study(ExperimentConfig(study="sweep", trials=1, **grid))


def test_config_rejects_a_key_given_twice():
    text = "study = sweep\ntrials = 3\n# again\ntrials = 5\n"
    with pytest.raises(ValueError, match="^config line 4: key trials set twice$"):
        parse_config_text(text)
    # an override is not a second line
    assert parse_config_text("trials = 3\n", trials=5).trials == 5


def test_each_study_seeds_and_records_its_trials_by_one_layout():
    # trial t at (n, m) uses derive_seed(master, code, n, m or 0, t), with
    # the codes written out; only kcore records carry k
    codes = {"hitting": 1, "sweep": 2, "kcore": 3, "audit": 4}
    master = 23
    for study, code in codes.items():
        cfg = ExperimentConfig(study=study, ns=(8, 12), ms=(10, 14), k=2,
                               trials=2, seed=master, restarts=1)
        records = run_study(cfg).records
        grid = (10, 14) if study in ("sweep", "kcore") else (None,)
        assert [(r.n, r.m, r.trial) for r in records] == [
            (n, m, t) for n in (8, 12) for m in grid for t in (0, 1)]
        for rec in records:
            assert rec.study == study
            assert rec.seed == derive_seed(master, code, rec.n, rec.m or 0,
                                           rec.trial)
            assert rec.k == (2 if study == "kcore" else None)


def test_unknown_study_rejected_before_any_trial(monkeypatch):
    monkeypatch.setattr(experiments, "_run_one", _no_trial)
    with pytest.raises(ValueError, match="unknown study 'cherry'"):
        run_study(ExperimentConfig(study="cherry", ns=(8,), trials=1))


@pytest.mark.parametrize("study", ["sweep", "kcore"])
@pytest.mark.parametrize("ms, named", [
    ((100,), "m=100 at n=8, outside \\[0, 28\\]"),
    ((10, -1), "m=-1 at n=16, outside \\[0, 120\\]"),
])
def test_study_rejects_m_outside_the_pair_count_before_any_trial(
        monkeypatch, study, ms, named):
    # n=16 has 120 pairs, n=8 only 28; the n=16 trials must not run first
    monkeypatch.setattr(experiments, "_run_one", _no_trial)
    bad = ExperimentConfig(study=study, ns=(16, 8), ms=ms, trials=1)
    with pytest.raises(ValueError, match=f"{study} study: ms asks for {named}"):
        run_study(bad)


def test_hitting_trial_draws_each_pair_once(monkeypatch):
    """tau_1, tau_conn and G_tau_1 all read the trace's one prefix, so a
    hitting trial at n = 1024 draws at most 1.3 tau_1 pairs."""
    traces = {}

    def recorded(n, seed):
        trace = traces[seed] = ProcessTrace(n, seed)
        return trace

    monkeypatch.setattr(experiments, "ProcessTrace", recorded)
    records = run_study(ExperimentConfig(study="hitting", ns=(1024,),
                                         trials=8)).records
    drawn = [len(traces[derive_seed(rec.seed, 0)]._prefix[2]) for rec in records]
    taus = [rec.metrics["tau1"] for rec in records]
    assert len(traces) == 8
    for d, tau in zip(drawn, taus):
        assert tau <= d <= 1.3 * tau, (d, tau)


@pytest.mark.parametrize("study", ["hitting", "sweep"])
def test_exact_n_limit_above_exact_scan_rejected_before_any_trial(
        monkeypatch, study):
    # n=28 would reach the exact threshold, whose search stops at n=24
    def no_trial(*args):
        raise AssertionError("a trial ran before the limit check")

    monkeypatch.setattr(experiments, "_run_one", no_trial)
    bad = ExperimentConfig(study=study, ns=(16, 28), ms=(100,), trials=1,
                           exact_n_limit=30)
    with pytest.raises(ValueError,
                       match=f"{study} study: exact_n_limit=30 .* n=28, "
                             f"above its limit 24"):
        run_study(bad)


def test_exact_n_limit_may_exceed_exact_scan_when_no_n_falls_between():
    cfg = ExperimentConfig(study="hitting", ns=(16, 40), trials=1,
                           exact_n_limit=30, measure_resilience=False)
    assert [rec.n for rec in run_study(cfg).records] == [16, 40]


@pytest.mark.parametrize("key", ["out_json", "out_csv"])
def test_unread_output_keys_rejected_before_any_trial(monkeypatch, key):
    def no_trial(*args):
        raise AssertionError("a trial ran before the key check")

    monkeypatch.setattr(experiments, "_run_one", no_trial)
    bad = ExperimentConfig(study="hitting", ns=(16,), trials=1,
                           **{key: "results.out"})
    with pytest.raises(ValueError, match=f"config key {key} is not read.*--out"):
        run_study(bad)


@pytest.mark.parametrize("study", ["hitting", "kcore", "sweep", "audit"])
@pytest.mark.parametrize("n", [0, 1])
def test_process_studies_reject_n_below_two(study, n):
    bad = ExperimentConfig(study=study, ns=(16, n), trials=1)
    with pytest.raises(ValueError, match=f"n >= 2, got n={n}"):
        run_study(bad)

# -- emit / parse ----------------------------------------------------------

def test_records_csv_round_trip(tmp_path):
    result = run_study(hitting_cfg(ns=(16,), trials=3))
    path = tmp_path / "records.csv"
    emit(result, "csv", str(path))
    text = path.read_text()
    assert text.startswith("# schema=process-resilience/records/v1")
    parsed = parse_records_csv(text)
    assert parsed == list(result.records)


def test_empty_records_csv_has_header_only():
    out = render_output([], "csv").decode()
    lines = out.strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("#")


def test_json_output_validates_against_schema(tmp_path):
    result = run_study(hitting_cfg(ns=(16,), trials=2))
    path = tmp_path / "out.json"
    emit(result, "json", str(path))
    payload = json.loads(path.read_text())
    jsonschema.validate(payload, RESULT_JSON_SCHEMA)
    assert payload["config"]["seed"] == 4242


def test_summary_table_emit(tmp_path):
    table = SummaryTable(({"study": "hitting", "n": 4, "m": None, "k": None,
                           "trials": 2, "tau1_mean": 3.5},))
    path = tmp_path / "summary.csv"
    emit(table, "csv", str(path))
    assert "tau1_mean" in path.read_text()


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="format"):
        emit([], "xml", str(tmp_path / "x"))
