"""Seeded, parallel Monte Carlo studies over the random graph process, and
their machine-readable outputs.

Reproducibility contract: trial t of a study uses the derived seed
mix(master, study_code, n, m, t), never the OS RNG, so results are identical
across reruns and across ``threads`` settings; records are canonically
ordered by (n, m, k, trial) before aggregation. JSON output is byte-stable
except for the ``generated_at`` timestamp, which comparison helpers drop.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__ as _code_version
from .classify import (audit_atyp_size, audit_edge_counts,
                       audit_neighbourhoods, classify_vertices)
from .graphs import Graph, giant_component, is_k_connected, k_core, neighbours_in
from .process import (ProcessTrace, graph_at, hitting_time_k_connectivity,
                      hitting_time_min_degree, pair_count, sample_coupled,
                      sample_gnm)
from .resilience import (EXACT_BIPARTITION_LIMIT, EXACT_SEPARATOR_LIMIT,
                         AttackError, BudgetRule,
                         connectivity_resilience_threshold,
                         cherry_attack, crossing_degrees, find_k_conn_attack,
                         greedy_partition_attack, random_equipartition)
from .rng import derive_seed, generator

RECORDS_SCHEMA = "process-resilience/records/v1"
SUMMARY_SCHEMA = "process-resilience/summary/v1"

STUDY_CODES = {"hitting": 1, "sweep": 2, "kcore": 3, "audit": 4}

SEED_ENV_VAR = "RESILIENCE_SEED"

# Minimal published schema for the JSON study output.
RESULT_JSON_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["schema", "code_version", "config", "records", "summary"],
    "properties": {
        "schema": {"const": SUMMARY_SCHEMA},
        "code_version": {"type": "string"},
        "generated_at": {"type": "string"},
        "config": {"type": "object"},
        "records": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["study", "n", "trial", "seed", "metrics"],
                "properties": {
                    "study": {"type": "string"},
                    "n": {"type": "integer"},
                    "m": {"type": ["integer", "null"]},
                    "k": {"type": ["integer", "null"]},
                    "trial": {"type": "integer"},
                    "seed": {"type": "integer"},
                    "metrics": {"type": "object"},
                },
            },
        },
        "summary": {"type": "array", "items": {"type": "object"}},
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One study's full parameterization; round-trips through `key = value`
    text losslessly. Rationals (epsilon, alpha-like values) are kept as
    "p/q" strings so exact decisions stay exact.
    """

    study: str = "hitting"
    ns: tuple = (256,)
    ms: Optional[tuple] = None          # absolute edge counts
    m_factors: Optional[tuple] = None   # multiples of n*log(n)/6
    k: int = 2
    epsilon: str = "1/10"
    delta: float = 0.5
    L: int = 30
    c: float = 2.0
    trials: int = 100
    seed: int = 0x5EED
    threads: int = 1
    subset_trials: int = 200
    p0_factor: float = 1.5              # times log(n)/(3n)
    p_prime_factor: Optional[float] = None  # times p0; see __post_init__
    d_threshold_factor: Optional[float] = None  # times n*p1; default (1/2+delta)
    exact_n_limit: int = 20
    restarts: int = 8
    measure_resilience: bool = True
    out_json: Optional[str] = None
    out_csv: Optional[str] = None

    def __post_init__(self):
        # The audit study needs p' <= epsilon * p0, so its default is 0.1,
        # within the default epsilon 1/10. The other studies never read p'
        # and keep echoing 0.3, the value their JSON has always carried.
        if self.p_prime_factor is None:
            default = 0.1 if self.study == "audit" else 0.3
            object.__setattr__(self, "p_prime_factor", default)

    def m_grid(self, n: int) -> tuple:
        if self.ms is not None:
            return tuple(self.ms)
        if self.m_factors is not None:
            return tuple(max(0, min(pair_count(n),
                                    math.ceil(f * n * math.log(n) / 6)))
                         for f in self.m_factors)
        return (math.ceil(n * math.log(n) / 6),)

    def epsilon_fraction(self) -> Fraction:
        return Fraction(self.epsilon)

    def to_text(self) -> str:
        lines = ["# process-resilience study config"]
        for f in fields(self):
            val = getattr(self, f.name)
            if val is None:
                continue
            if isinstance(val, tuple):
                val = ", ".join(repr(x) for x in val)
            lines.append(f"{f.name} = {val}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {f.name: (list(v) if isinstance(v := getattr(self, f.name), tuple) else v)
                for f in fields(self)}


_TUPLE_FIELDS = {"ns": int, "ms": int, "m_factors": float}
_FIELD_TYPES = {"study": str, "epsilon": str, "out_json": str, "out_csv": str,
                "delta": float, "c": float, "p0_factor": float,
                "p_prime_factor": float, "d_threshold_factor": float,
                "measure_resilience": bool}


def _parse_value(name: str, raw: str):
    raw = raw.strip()
    if name in _TUPLE_FIELDS:
        cast = _TUPLE_FIELDS[name]
        return tuple(cast(part.strip()) for part in raw.split(",") if part.strip())
    target = _FIELD_TYPES.get(name, int)
    if target is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"bad boolean for {name}: {raw!r}")
    return target(raw)


def parse_config_text(text: str, **overrides) -> ExperimentConfig:
    """Parse the `key = value` config grammar (see README); kwargs override."""
    names = {f.name for f in fields(ExperimentConfig)}
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"config line {lineno}: expected 'key = value', "
                             f"got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in names:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw)
    values.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**values)


def load_config(path: str, **overrides) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), **overrides)


@dataclass(frozen=True)
class TrialRecord:
    """One trial's measurements; reproducible from (config, indices) alone."""

    study: str
    n: int
    trial: int
    seed: int
    m: Optional[int] = None
    k: Optional[int] = None
    metrics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"study": self.study, "n": self.n, "m": self.m, "k": self.k,
                "trial": self.trial, "seed": self.seed,
                "metrics": dict(sorted(self.metrics.items()))}

    def sort_key(self):
        return (self.study, self.n, -1 if self.m is None else self.m,
                -1 if self.k is None else self.k, self.trial)


@dataclass(frozen=True)
class SummaryTable:
    """Aggregate rows keyed by (study, n, m, k); recomputable from records."""

    rows: tuple

    def to_json_list(self) -> list:
        return [dict(row) for row in self.rows]


@dataclass(frozen=True)
class StudyResult:
    config: ExperimentConfig
    records: tuple
    summary: SummaryTable

    def to_json_dict(self, timestamp: Optional[str] = None) -> dict:
        return {
            "schema": SUMMARY_SCHEMA,
            "code_version": _code_version,
            "generated_at": timestamp if timestamp is not None
            else datetime.now(timezone.utc).isoformat(),
            "config": self.config.to_json_dict(),
            "records": [r.to_json_dict() for r in self.records],
            "summary": self.summary.to_json_list(),
        }


_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int, z: float = _Z95):
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = phat + z2 / (2 * trials)
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4 * trials * trials))
    return (max(0.0, (centre - half) / denom), min(1.0, (centre + half) / denom))


# -- trial bodies ---------------------------------------------------------

def _hitting_trial(cfg: ExperimentConfig, n: int, trial: int) -> TrialRecord:
    trial_seed = derive_seed(cfg.seed, STUDY_CODES["hitting"], n, 0, trial)
    trace = ProcessTrace(n, derive_seed(trial_seed, 0))
    tau1 = hitting_time_min_degree(trace, 1)
    tau_conn = hitting_time_k_connectivity(trace, 1)

    metrics = {
        "tau1": tau1,
        "tau_conn": tau_conn,
        "tau_equal": tau1 == tau_conn,
        "tau1_norm": tau1 / (0.5 * n * math.log(n)),
    }
    if n <= cfg.exact_n_limit or cfg.measure_resilience:
        giant = giant_component(graph_at(trace, tau1))
    if n <= cfg.exact_n_limit:
        rep = connectivity_resilience_threshold(giant)
        metrics["alpha_star"] = str(rep.threshold)
        metrics["alpha_star_float"] = float(rep.threshold)
    elif cfg.measure_resilience:
        p1 = tau1 / pair_count(n)
        metrics.update(_greedy_metrics(cfg, giant, p1, trial_seed))
        rep = connectivity_resilience_threshold(
            giant, mode="local_search", restarts=cfg.restarts,
            seed=derive_seed(trial_seed, 2))
        metrics["alpha_upper"] = str(rep.threshold)
        metrics["alpha_upper_float"] = float(rep.threshold)
    return TrialRecord("hitting", n, trial, trial_seed, metrics=metrics)


def _greedy_metrics(cfg: ExperimentConfig, giant: Graph, p1: float,
                    trial_seed: int) -> dict:
    delta = cfg.delta
    factor = (0.5 + delta) if cfg.d_threshold_factor is None else cfg.d_threshold_factor
    d_threshold = factor * giant.n * p1
    cls = classify_vertices(giant, p1, delta)
    try:
        outcome = greedy_partition_attack(giant, cls, d_threshold,
                                          cfg.epsilon_fraction(),
                                          derive_seed(trial_seed, 1))
        return {"greedy_satisfied": outcome.satisfied,
                "greedy_moves": outcome.diagnostics["moves"]}
    except AttackError:
        return {"greedy_satisfied": False, "greedy_moves": -1}


def _sweep_trial(cfg: ExperimentConfig, n: int, m: int, trial: int) -> TrialRecord:
    trial_seed = derive_seed(cfg.seed, STUDY_CODES["sweep"], n, m, trial)
    g = sample_gnm(n, m, derive_seed(trial_seed, 0))
    metrics = {}
    if g.m == 0:
        metrics.update({"cherry_present": False, "greedy_satisfied": False,
                        "giant_frac": 1.0 / n})
    else:
        giant = giant_component(g)
        metrics["giant_frac"] = giant.n / n
        metrics["cherry_present"] = cherry_attack(giant) is not None
        p1 = m / pair_count(n)
        metrics.update(_greedy_metrics(cfg, giant, p1, trial_seed))
        if n <= cfg.exact_n_limit:
            rep = connectivity_resilience_threshold(giant)
            metrics["alpha_star"] = str(rep.threshold)
            metrics["alpha_star_float"] = float(rep.threshold)
    return TrialRecord("sweep", n, trial, trial_seed, m=m, metrics=metrics)


def _kcore_trial(cfg: ExperimentConfig, n: int, m: int, trial: int) -> TrialRecord:
    trial_seed = derive_seed(cfg.seed, STUDY_CODES["kcore"], n, m, trial)
    k = cfg.k
    trace = ProcessTrace(n, derive_seed(trial_seed, 0))
    g = graph_at(trace, m)
    core = k_core(g, k)
    metrics = {"core_frac": core.n / n, "core_nonempty": core.n > 0}
    if core.n:
        metrics["core_k_connected"] = is_k_connected(core, k)
        alpha = Fraction(1, 2) - cfg.epsilon_fraction()
        if core.n <= EXACT_SEPARATOR_LIMIT and metrics["core_k_connected"]:
            attack = find_k_conn_attack(
                core, BudgetRule.fraction_keep_degree(alpha, k), k)
            metrics["kconn_attack_absent"] = attack is None
    tau_k = hitting_time_min_degree(trace, k)
    metrics["tau_k"] = tau_k
    metrics["tau_equal_k"] = is_k_connected(graph_at(trace, tau_k), k)
    return TrialRecord("kcore", n, trial, trial_seed, m=m, k=k, metrics=metrics)


def _audit_trial(cfg: ExperimentConfig, n: int, trial: int) -> TrialRecord:
    trial_seed = derive_seed(cfg.seed, STUDY_CODES["audit"], n, 0, trial)
    p0 = cfg.p0_factor * math.log(n) / (3 * n)
    p_prime = cfg.p_prime_factor * p0
    coupled = sample_coupled(n, p0, p_prime, derive_seed(trial_seed, 0))
    cls = classify_vertices(coupled.g_minus, p0, cfg.delta)
    ball_rep, nbr_rep, tri_rep = audit_neighbourhoods(coupled.g_plus, cls, cfg.L)
    c4 = audit_atyp_size(cls)
    c1 = audit_edge_counts(coupled.g_plus, coupled.p1, cfg.c,
                           cfg.subset_trials, derive_seed(trial_seed, 1))

    # empirical D-set (equipartition crossing degrees above (1/2+delta)*n*p1)
    side = random_equipartition(n, generator(derive_seed(trial_seed, 2)))
    cross = crossing_degrees(coupled.g_plus, side)
    d_cut = (0.5 + cfg.delta) * n * coupled.p1
    d_set = [v for v in range(n) if cross[v] > d_cut]
    max_d_nbrs = max(neighbours_in(coupled.g_plus, d_set), default=0)

    metrics = {
        "c1_holds": c1.holds,
        "c2_holds": ball_rep.holds and nbr_rep.holds,
        "c2_tiny3ball_holds": ball_rep.holds,
        "c2_atypnbr_holds": nbr_rep.holds,
        "c3_holds": tri_rep.holds,
        "c4_holds": c4.holds,
        "max_tiny_in_3ball": ball_rep.max_observed,
        "min_feasible_L": nbr_rep.max_observed,
        "min_feasible_c": c1.max_observed,
        "atyp_size": len(cls.atyp),
        "tiny_size": len(cls.tiny),
        "max_nbrs_in_D": float(max_d_nbrs),
        "p1": coupled.p1,
    }
    return TrialRecord("audit", n, trial, trial_seed, metrics=metrics)


# -- study drivers --------------------------------------------------------

def _run_one(task) -> TrialRecord:
    cfg, study, n, m, trial = task
    if study == "hitting":
        return _hitting_trial(cfg, n, trial)
    if study == "sweep":
        return _sweep_trial(cfg, n, m, trial)
    if study == "kcore":
        return _kcore_trial(cfg, n, m, trial)
    if study == "audit":
        return _audit_trial(cfg, n, trial)
    raise ValueError(f"unknown study {study!r}")


def _tasks(cfg: ExperimentConfig):
    out = []
    for n in cfg.ns:
        if cfg.study in ("sweep", "kcore"):
            for m in cfg.m_grid(n):
                out.extend((cfg, cfg.study, n, m, t) for t in range(cfg.trials))
        else:
            out.extend((cfg, cfg.study, n, None, t) for t in range(cfg.trials))
    return out


def run_study(cfg: ExperimentConfig) -> StudyResult:
    """Run the configured study; trials run in parallel when threads > 1,
    with results independent of the thread count. RESILIENCE_SEED in the
    environment overrides the master seed.
    """
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        cfg = replace(cfg, seed=int(env_seed))
    if cfg.study == "audit":
        eps = float(cfg.epsilon_fraction())
        if cfg.p_prime_factor > eps:
            raise ValueError(
                f"audit regime violated: p_prime = {cfg.p_prime_factor} * p0 "
                f"exceeds epsilon = {eps} * p0")
        for name in ("subset_trials", "L"):
            if getattr(cfg, name) < 0:
                raise ValueError(f"audit study needs {name} >= 0, "
                                 f"got {name}={getattr(cfg, name)}")
    if cfg.study == "kcore" and not (0 <= cfg.epsilon_fraction() <= Fraction(1, 2)):
        raise ValueError(f"kcore budget alpha = 1/2 - epsilon needs epsilon "
                         f"in [0, 1/2], got {cfg.epsilon}")
    for n in cfg.ns:
        if n < 2:
            raise ValueError(f"{cfg.study} study needs n >= 2, got n={n}")
        if cfg.study == "kcore" and not 2 <= cfg.k <= n - 1:
            raise ValueError(f"kcore study needs k in [2, n-1], "
                             f"got k={cfg.k} for n={n}")
        if (cfg.study in ("hitting", "sweep")
                and EXACT_BIPARTITION_LIMIT < n <= cfg.exact_n_limit):
            raise ValueError(
                f"{cfg.study} study: exact_n_limit={cfg.exact_n_limit} asks "
                f"for the exact threshold at n={n}, above its limit "
                f"{EXACT_BIPARTITION_LIMIT}")
    tasks = _tasks(cfg)
    if cfg.threads > 1:
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            records = list(pool.map(_run_one, tasks, chunksize=8))
    else:
        records = [_run_one(t) for t in tasks]
    records.sort(key=TrialRecord.sort_key)
    records = tuple(records)
    return StudyResult(cfg, records, summarize_records(records))


def summarize_records(records: Sequence) -> SummaryTable:
    """Aggregate records into per-(study, n, m, k) rows: rates with Wilson
    intervals for boolean metrics, mean/min/max for numeric ones.
    """
    groups = {}
    for rec in records:
        groups.setdefault((rec.study, rec.n, rec.m, rec.k), []).append(rec)
    rows = []
    for (study, n, m, k), recs in sorted(
            groups.items(),
            key=lambda kv: (kv[0][0], kv[0][1],
                            -1 if kv[0][2] is None else kv[0][2],
                            -1 if kv[0][3] is None else kv[0][3])):
        row = {"study": study, "n": n, "m": m, "k": k, "trials": len(recs)}
        names = sorted({name for rec in recs for name in rec.metrics})
        for name in names:
            values = [rec.metrics[name] for rec in recs if name in rec.metrics]
            if all(isinstance(v, bool) for v in values):
                successes = sum(values)
                lo, hi = wilson_interval(successes, len(values))
                row[f"{name}_rate"] = successes / len(values)
                row[f"{name}_lo"] = lo
                row[f"{name}_hi"] = hi
                row[f"{name}_count"] = len(values)
            elif all(isinstance(v, (int, float)) and not isinstance(v, bool)
                     for v in values):
                row[f"{name}_mean"] = sum(values) / len(values)
                row[f"{name}_min"] = min(values)
                row[f"{name}_max"] = max(values)
        rows.append(row)
    # sweep extra: per n, smallest m whose cherry rate drops below one half
    by_n = {}
    for row in rows:
        if row["study"] == "sweep" and "cherry_present_rate" in row:
            by_n.setdefault(row["n"], []).append((row["m"], row["cherry_present_rate"]))
    for n, pairs in sorted(by_n.items()):
        crossing = next((m for m, rate in sorted(pairs) if rate < 0.5), None)
        rows.append({"study": "sweep", "n": n, "m": None, "k": None,
                     "trials": 0, "cherry_rate_crossing_m": crossing})
    return SummaryTable(tuple(rows))


# -- output ---------------------------------------------------------------

def result_json_bytes(result: StudyResult, timestamp: Optional[str] = None) -> bytes:
    payload = result.to_json_dict(timestamp=timestamp)
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def comparable_json_bytes(raw: bytes) -> bytes:
    """Re-serialize JSON for byte comparison, dropping execution metadata:
    the timestamp and the echoed thread count (neither affects results).
    """
    payload = json.loads(raw.decode())
    payload.pop("generated_at", None)
    if isinstance(payload.get("config"), dict):
        payload["config"].pop("threads", None)
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _records_csv_text(records: Sequence) -> str:
    metric_names = sorted({name for rec in records for name in rec.metrics})
    columns = ["study", "n", "m", "k", "trial", "seed"] + \
              [f"metric:{name}" for name in metric_names]
    buf = io.StringIO()
    buf.write(f"# schema={RECORDS_SCHEMA} code_version={_code_version} "
              f"columns={','.join(columns)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for rec in records:
        row = [rec.study, rec.n, rec.m, rec.k, rec.trial, rec.seed]
        for name in metric_names:
            val = rec.metrics.get(name)
            row.append("" if val is None else json.dumps(val))
        writer.writerow(row)
    return buf.getvalue()


def _summary_csv_text(table: SummaryTable) -> str:
    columns = sorted({key for row in table.rows for key in row},
                     key=lambda s: (s not in ("study", "n", "m", "k", "trials"), s))
    buf = io.StringIO()
    buf.write(f"# schema={SUMMARY_SCHEMA} code_version={_code_version} "
              f"columns={','.join(columns)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in table.rows:
        writer.writerow(["" if (v := row.get(col)) is None else json.dumps(v)
                         for col in columns])
    return buf.getvalue()


def parse_records_csv(text: str):
    """Inverse of the records CSV writer (for round-trip checks)."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    out = []
    for row in reader:
        base = dict(zip(header, row))
        metrics = {}
        for col, val in base.items():
            if col.startswith("metric:") and val != "":
                metrics[col[len("metric:"):]] = json.loads(val)
        out.append(TrialRecord(
            study=base["study"], n=int(base["n"]),
            m=None if base["m"] == "" else int(base["m"]),
            k=None if base["k"] == "" else int(base["k"]),
            trial=int(base["trial"]), seed=int(base["seed"]),
            metrics=metrics))
    return out


def render_output(obj, fmt: str, timestamp: Optional[str] = None) -> bytes:
    """Serialize a StudyResult, SummaryTable, or record list as csv or json."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    if isinstance(obj, StudyResult):
        if fmt == "json":
            return result_json_bytes(obj, timestamp=timestamp)
        return _records_csv_text(obj.records).encode()
    if isinstance(obj, SummaryTable):
        if fmt == "json":
            return (json.dumps({"schema": SUMMARY_SCHEMA,
                                "code_version": _code_version,
                                "rows": obj.to_json_list()},
                               indent=2, sort_keys=True) + "\n").encode()
        return _summary_csv_text(obj).encode()
    records = list(obj)
    if fmt == "json":
        return (json.dumps({"schema": RECORDS_SCHEMA,
                            "code_version": _code_version,
                            "records": [r.to_json_dict() for r in records]},
                           indent=2, sort_keys=True) + "\n").encode()
    return _records_csv_text(records).encode()


def emit(obj, fmt: str, path: str, timestamp: Optional[str] = None) -> None:
    """Write a StudyResult, SummaryTable, or record list as csv or json."""
    data = render_output(obj, fmt, timestamp=timestamp)
    with open(path, "wb") as fh:
        fh.write(data)
