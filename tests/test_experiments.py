import json
import math

import jsonschema
import pytest

import process_resilience.experiments as experiments
from process_resilience.experiments import (
    RESULT_JSON_SCHEMA,
    ExperimentConfig,
    SummaryTable,
    comparable_json_bytes,
    emit,
    parse_config_text,
    parse_records_csv,
    render_output,
    result_json_bytes,
    run_study,
    summarize_records,
    wilson_interval,
)


# -- config ----------------------------------------------------------------

def test_config_text_round_trip():
    cfg = ExperimentConfig(study="sweep", ns=(32, 64), m_factors=(0.5, 1.0, 2.0),
                           trials=7, seed=99, threads=2, epsilon="1/5",
                           out_json="x.json")
    again = parse_config_text(cfg.to_text())
    assert again == cfg


def test_config_defaults_round_trip():
    cfg = ExperimentConfig()
    assert parse_config_text(cfg.to_text()) == cfg


def test_config_rejects_unknown_keys_and_garbage():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_text("bogus = 3\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config_text("just words\n")


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


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("RESILIENCE_SEED", "777")
    overridden = run_study(hitting_cfg())
    monkeypatch.delenv("RESILIENCE_SEED")
    direct = run_study(hitting_cfg(seed=777))
    assert ([r.to_json_dict() for r in overridden.records]
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

    monkeypatch.setattr(experiments, "_audit_trial", no_trial)
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
    cfg = ExperimentConfig(study="audit")
    assert parse_config_text(cfg.to_text()) == cfg


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


@pytest.mark.parametrize("study", ["hitting", "sweep"])
def test_exact_n_limit_above_exact_scan_rejected_before_any_trial(
        monkeypatch, study):
    # n=28 would reach the exact threshold, whose scan stops at n=24
    def no_trial(*args):
        raise AssertionError("a trial ran before the limit check")

    monkeypatch.setattr(experiments, "_run_one", no_trial)
    bad = ExperimentConfig(study=study, ns=(16, 28), ms=(150,), trials=1,
                           exact_n_limit=30)
    with pytest.raises(ValueError,
                       match=f"{study} study: exact_n_limit=30 .* n=28, "
                             f"above its limit 24"):
        run_study(bad)


def test_exact_n_limit_may_exceed_exact_scan_when_no_n_falls_between():
    cfg = ExperimentConfig(study="hitting", ns=(16, 40), trials=1,
                           exact_n_limit=30, measure_resilience=False)
    assert [rec.n for rec in run_study(cfg).records] == [16, 40]


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
