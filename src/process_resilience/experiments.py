"""Seeded, parallel Monte Carlo studies over the random graph process, and
their machine-readable outputs.

Reproducibility contract: trial t of a study uses the seed mix(master,
code, n, m, t), never the OS RNG, with the codes of ``STUDIES`` (hitting 1,
sweep 2, kcore 3, audit 4) and m = 0 for hitting and audit, so results are
identical across reruns and ``threads`` settings. Records are ordered by
(n, m, k, trial) before aggregation. JSON output is byte-stable except for
the ``generated_at`` timestamp, which comparison helpers drop.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__ as _code_version
from .classify import (audit_atyp_size, audit_edge_counts,
                       audit_neighbourhoods, classify_vertices)
from .graphs import (Graph, _integer, _k_connected, giant_component,
                     is_k_connected, k_core, neighbours_in)
from .process import (ProcessTrace, graph_at, hitting_time_k_connectivity,
                      hitting_time_min_degree, pair_count, sample_coupled,
                      sample_gnm)
from .resilience import (EXACT_BIPARTITION_LIMIT, EXACT_SEPARATOR_LIMIT,
                         AttackError, BudgetRule, _equipartition_d_set,
                         connectivity_resilience_threshold, cherry_attack,
                         find_k_conn_attack, greedy_partition_attack)
from .rng import derive_seed

RECORDS_SCHEMA = "process-resilience/records/v1"
SUMMARY_SCHEMA = "process-resilience/summary/v1"

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
    """One study's full parameterization, read from `key = value` text by
    parse_config_text. Rationals (epsilon, alpha-like values) are kept as
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
        if raw.lower() not in ("true", "1", "yes", "false", "0", "no"):
            raise ValueError(f"expected true or false, got {raw!r}")
        return raw.lower() in ("true", "1", "yes")
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
        if key in values:
            raise ValueError(f"config line {lineno}: key {key} set twice")
        try:
            values[key] = _parse_value(key, raw)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad value for {key}: "
                             f"{exc}") from None
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


def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval for a binomial proportion; ValueError
    unless trials and successes are integers, 0 <= successes <= trials."""
    trials = _integer("trials", trials, 0)
    successes = _integer("successes", successes, 0, trials)
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    centre = phat + z2 / (2 * trials)
    half = _Z95 * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4 * trials * trials))
    return (max(0.0, (centre - half) / denom), min(1.0, (centre + half) / denom))


# -- trial bodies ---------------------------------------------------------

def _hitting_trial(cfg: ExperimentConfig, n: int, m: None, trial_seed: int) -> dict:
    trace = ProcessTrace(n, derive_seed(trial_seed, 0))
    tau1 = hitting_time_min_degree(trace, 1)
    # connectivity needs min degree 1, so tau_conn >= tau1; G_tau1 has an
    # edge, so it has a giant, which spans it iff G_tau1 is connected
    giant = giant_component(graph_at(trace, tau1))
    tau_conn = tau1 if giant.n == n else hitting_time_k_connectivity(trace, 1)

    metrics = {
        "tau1": tau1,
        "tau_conn": tau_conn,
        "tau_equal": tau1 == tau_conn,
        "tau1_norm": tau1 / (0.5 * n * math.log(n)),
    }
    if n <= cfg.exact_n_limit:
        metrics.update(_exact_metrics(giant))
    elif cfg.measure_resilience:
        p1 = tau1 / pair_count(n)
        metrics.update(_greedy_metrics(cfg, giant, p1, trial_seed))
        rep = connectivity_resilience_threshold(
            giant, mode="local_search", restarts=cfg.restarts,
            seed=derive_seed(trial_seed, 2))
        metrics["alpha_upper"] = str(rep.threshold)
        metrics["alpha_upper_float"] = float(rep.threshold)
    return metrics


def _exact_metrics(giant: Graph) -> dict:
    rep = connectivity_resilience_threshold(giant)
    return {"alpha_star": str(rep.threshold), "alpha_star_float": float(rep.threshold)}


def _greedy_metrics(cfg: ExperimentConfig, giant: Graph, p1: float,
                    trial_seed: int) -> dict:
    factor = cfg.d_threshold_factor
    d_threshold = (0.5 + cfg.delta if factor is None else factor) * giant.n * p1
    cls = classify_vertices(giant, p1, cfg.delta)
    try:
        outcome = greedy_partition_attack(giant, cls, d_threshold,
                                          Fraction(cfg.epsilon),
                                          derive_seed(trial_seed, 1))
        return {"greedy_satisfied": outcome.satisfied,
                "greedy_moves": outcome.diagnostics["moves"]}
    except AttackError:
        return {"greedy_satisfied": False, "greedy_moves": -1}


def _sweep_trial(cfg: ExperimentConfig, n: int, m: int, trial_seed: int) -> dict:
    g = sample_gnm(n, m, derive_seed(trial_seed, 0))
    if g.m == 0:
        return {"cherry_present": False, "greedy_satisfied": False,
                "giant_frac": 1.0 / n}
    giant = giant_component(g)
    metrics = {"giant_frac": giant.n / n,
               "cherry_present": cherry_attack(giant) is not None}
    metrics.update(_greedy_metrics(cfg, giant, m / pair_count(n), trial_seed))
    if n <= cfg.exact_n_limit:
        metrics.update(_exact_metrics(giant))
    return metrics


def _kcore_trial(cfg: ExperimentConfig, n: int, m: int, trial_seed: int) -> dict:
    k = cfg.k
    trace = ProcessTrace(n, derive_seed(trial_seed, 0))
    g = graph_at(trace, m)
    core = k_core(g, k)
    metrics = {"core_frac": core.n / n, "core_nonempty": core.n > 0}
    if core.n:
        metrics["core_k_connected"] = is_k_connected(core, k)
        alpha = Fraction(1, 2) - Fraction(cfg.epsilon)
        if core.n <= EXACT_SEPARATOR_LIMIT and metrics["core_k_connected"]:
            attack = find_k_conn_attack(core, BudgetRule(alpha, k), k)
            metrics["kconn_attack_absent"] = attack is None
    tau_k = hitting_time_min_degree(trace, k)
    metrics["tau_k"] = tau_k
    # G_m is a subgraph of G_tau_k, so a k-connected core of G_m seeds the test
    g_tau = graph_at(trace, tau_k)
    linked = core.labels if metrics.get("core_k_connected") and tau_k >= m else ()
    metrics["tau_equal_k"] = (_k_connected(g_tau, k, linked) if linked
                              else is_k_connected(g_tau, k))
    return metrics


def _audit_trial(cfg: ExperimentConfig, n: int, m: None, trial_seed: int) -> dict:
    p0 = cfg.p0_factor * math.log(n) / (3 * n)
    p_prime = cfg.p_prime_factor * p0
    coupled = sample_coupled(n, p0, p_prime, derive_seed(trial_seed, 0))
    cls = classify_vertices(coupled.g_minus, p0, cfg.delta)
    ball_rep, nbr_rep, tri_rep = audit_neighbourhoods(coupled.g_plus, cls, cfg.L)
    c4 = audit_atyp_size(cls)
    c1 = audit_edge_counts(coupled.g_plus, coupled.p1, cfg.c,
                           cfg.subset_trials, derive_seed(trial_seed, 1))

    # empirical D-set (equipartition crossing degrees above (1/2+delta)*n*p1)
    _, d_set = _equipartition_d_set(coupled.g_plus, (0.5 + cfg.delta) * n * coupled.p1,
                                    derive_seed(trial_seed, 2))
    max_d_nbrs = max(neighbours_in(coupled.g_plus, d_set), default=0)

    return {
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


# -- study drivers --------------------------------------------------------

# study -> (seed code, trial body, runs an m grid); a body maps (cfg, n, m,
# trial seed), with m None off the grid, to the trial's metrics.
STUDIES = {
    "hitting": (1, _hitting_trial, False),
    "sweep": (2, _sweep_trial, True),
    "kcore": (3, _kcore_trial, True),
    "audit": (4, _audit_trial, False),
}


def _run_one(task) -> TrialRecord:
    cfg, n, m, trial = task
    code, body, _ = STUDIES[cfg.study]
    trial_seed = derive_seed(cfg.seed, code, n, 0 if m is None else m, trial)
    return TrialRecord(cfg.study, n, trial, trial_seed, m=m,
                       k=cfg.k if cfg.study == "kcore" else None,
                       metrics=body(cfg, n, m, trial_seed))


# (key, studies that read it, test, domain): run_study checks each before
# any trial, and a test that raises counts as a value outside the domain.
# Hitting and sweep pass epsilon to the greedy attack, kcore uses
# alpha = 1/2 - epsilon, and audit only bounds p_prime_factor by it.
_KEY_CHECKS = (
    ("trials", STUDIES, lambda v: v >= 1, ">= 1"),
    ("threads", STUDIES, lambda v: v >= 1, ">= 1"),
    ("delta", ("hitting", "sweep", "audit"), lambda v: 0 < v < 1, "in (0, 1)"),
    ("epsilon", ("hitting", "sweep"), lambda v: 0 < Fraction(v) < 0.5, "in (0, 1/2)"),
    ("epsilon", ("kcore",), lambda v: 0 <= Fraction(v) <= 0.5, "in [0, 1/2]"),
    ("epsilon", ("audit",), lambda v: Fraction(v) >= 0, "a rational >= 0"),
    ("restarts", ("hitting",), lambda v: v >= 1, ">= 1"),
    ("L", ("audit",), lambda v: v >= 0, ">= 0"),
    ("subset_trials", ("audit",), lambda v: v >= 0, ">= 0"),
    ("c", ("audit",), lambda v: v > 0, "> 0"),
    ("p_prime_factor", ("audit",), lambda v: v >= 0, ">= 0"),
    ("d_threshold_factor", ("hitting", "sweep"),
     lambda v: v is None or math.isfinite(v) and v >= 0,
     "None or a finite number >= 0"),
)


def _holds(test, value) -> bool:
    try:
        return test(value)
    except (ValueError, ZeroDivisionError, TypeError):
        return False


def run_study(cfg: ExperimentConfig) -> StudyResult:
    """Run the configured study; trials run in parallel when threads > 1,
    with results independent of the thread count.
    """
    for key in ("out_json", "out_csv"):
        if getattr(cfg, key) is not None:
            raise ValueError(f"config key {key} is not read; use resil study --out")
    if cfg.study not in STUDIES:
        raise ValueError(f"unknown study {cfg.study!r}")
    for key, studies, test, domain in _KEY_CHECKS:
        if cfg.study in studies and not _holds(test, getattr(cfg, key)):
            raise ValueError(f"{cfg.study} study needs {key} {domain}, "
                             f"got {key}={getattr(cfg, key)}")
    eps = float(Fraction(cfg.epsilon))
    if cfg.study == "audit" and cfg.p_prime_factor > eps:
        raise ValueError(
            f"audit regime violated: p_prime = {cfg.p_prime_factor} * p0 "
            f"exceeds epsilon = {eps} * p0")
    for f in cfg.m_factors or ():
        if not math.isfinite(f):
            raise ValueError(f"{cfg.study} study needs finite m_factors, "
                             f"got m_factors={f}")
    for n in cfg.ns:
        if _integer("ns", n) < 2:
            raise ValueError(f"{cfg.study} study needs n >= 2, got n={n}")
        if cfg.study == "kcore" and not 2 <= cfg.k <= n - 1:
            raise ValueError(f"kcore study needs k in [2, n-1], "
                             f"got k={cfg.k} for n={n}")
        p0 = cfg.p0_factor * math.log(n) / (3 * n)
        if cfg.study == "audit" and not 0 <= p0 <= 1:
            raise ValueError(f"audit study needs p0 = p0_factor ln n / (3n) in "
                             f"[0, 1], got p0={p0} for n={n}")
        if cfg.study == "audit" and not 0 <= (p_prime := cfg.p_prime_factor * p0) <= 1:
            raise ValueError(f"audit study needs p_prime = p_prime_factor * p0 "
                             f"in [0, 1], got p_prime={p_prime} for n={n}")
        if (cfg.study in ("hitting", "sweep")
                and EXACT_BIPARTITION_LIMIT < n <= cfg.exact_n_limit):
            raise ValueError(
                f"{cfg.study} study: exact_n_limit={cfg.exact_n_limit} asks "
                f"for the exact threshold at n={n}, above its limit "
                f"{EXACT_BIPARTITION_LIMIT}")
    grid = STUDIES[cfg.study][2]
    groups = [(n, m) for n in cfg.ns for m in (cfg.m_grid(n) if grid else (None,))]
    if not groups:
        key = "ns" if not cfg.ns else "ms" if cfg.ms is not None else "m_factors"
        raise ValueError(f"{cfg.study} study needs a non-empty {key}")
    for i, (n, m) in enumerate(groups):
        if (n, m) in groups[:i]:
            key = ("ns" if cfg.ns.count(n) > 1 else
                   "ms" if cfg.ms is not None else "m_factors")
            raise ValueError(f"{cfg.study} study: {key} repeats a value, so "
                             f"the trials at n={n}, m={m} would run twice")
        if m is not None and not 0 <= _integer("ms", m) <= pair_count(n):
            raise ValueError(f"{cfg.study} study: ms asks for m={m} at "
                             f"n={n}, outside [0, {pair_count(n)}]")
    tasks = [(cfg, n, m, t) for n, m in groups for t in range(cfg.trials)]
    if cfg.threads > 1:
        # imported here: a CLI launch that runs no pool need not load it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            records = list(pool.map(_run_one, tasks, chunksize=8))
    else:
        records = [_run_one(t) for t in tasks]
    records.sort(key=TrialRecord.sort_key)
    records = tuple(records)
    return StudyResult(cfg, records, summarize_records(records))


def summarize_records(records: Sequence) -> SummaryTable:
    """Aggregate records into per-(study, n, m, k) rows: rates with Wilson
    intervals for boolean metrics, mean/min/max for numeric ones. Records
    are read, and rows made, in ``TrialRecord.sort_key`` order.
    """
    groups = {}
    for rec in sorted(records, key=TrialRecord.sort_key):
        groups.setdefault((rec.study, rec.n, rec.m, rec.k), []).append(rec)
    rows = []
    for (study, n, m, k), recs in groups.items():
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

def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def result_json_bytes(result: StudyResult, timestamp: Optional[str] = None) -> bytes:
    return _json_bytes(result.to_json_dict(timestamp=timestamp))


def comparable_json_bytes(raw: bytes) -> bytes:
    """Re-serialize JSON for byte comparison, dropping execution metadata:
    the timestamp and the echoed thread count (neither affects results).
    """
    payload = json.loads(raw.decode())
    payload.pop("generated_at", None)
    if isinstance(payload.get("config"), dict):
        payload["config"].pop("threads", None)
    return _json_bytes(payload)


def _cell(value) -> str:
    return "" if value is None else json.dumps(value)


def _csv_text(schema: str, columns: list, rows) -> str:
    """A schema comment naming the columns, the header, then the rows."""
    buf = io.StringIO()
    buf.write(f"# schema={schema} code_version={_code_version} "
              f"columns={','.join(columns)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _records_csv_text(records: Sequence) -> str:
    names = sorted({name for rec in records for name in rec.metrics})
    columns = ["study", "n", "m", "k", "trial", "seed"] + \
              [f"metric:{name}" for name in names]
    return _csv_text(RECORDS_SCHEMA, columns, (
        [rec.study, rec.n, rec.m, rec.k, rec.trial, rec.seed]
        + [_cell(rec.metrics.get(name)) for name in names] for rec in records))


def _summary_csv_text(table: SummaryTable) -> str:
    columns = sorted({key for row in table.rows for key in row},
                     key=lambda s: (s not in ("study", "n", "m", "k", "trials"), s))
    return _csv_text(SUMMARY_SCHEMA, columns,
                     ([_cell(row.get(col)) for col in columns] for row in table.rows))


def render_output(obj, fmt: str, timestamp: Optional[str] = None) -> bytes:
    """Serialize a StudyResult, SummaryTable, or record list as csv or json."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    if isinstance(obj, StudyResult):
        if fmt == "json":
            return result_json_bytes(obj, timestamp=timestamp)
        obj = obj.records  # a study's csv is its records'
    if isinstance(obj, SummaryTable):
        if fmt == "json":
            return _json_bytes({"schema": SUMMARY_SCHEMA, "code_version": _code_version,
                                "rows": obj.to_json_list()})
        return _summary_csv_text(obj).encode()
    records = list(obj)
    if fmt == "json":
        return _json_bytes({"schema": RECORDS_SCHEMA, "code_version": _code_version,
                            "records": [r.to_json_dict() for r in records]})
    return _records_csv_text(records).encode()


def emit(obj, fmt: str, path: str, timestamp: Optional[str] = None) -> None:
    """Write a StudyResult, SummaryTable, or record list as csv or json."""
    data = render_output(obj, fmt, timestamp=timestamp)
    with open(path, "wb") as fh:
        fh.write(data)
