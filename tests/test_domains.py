"""The domain tables.

The export table: for each export of the package, and for
``experiments.wilson_interval``, every numeric parameter with the values
its domain refuses and one value it accepts. Each refused value must raise
a ValueError that opens with the parameter's name; the accepted values,
passed together, must return. An export missing from the table fails
``test_every_export_has_a_row``. An export with no numeric parameter has
an empty row, and so has a result record (a graph, a classification, a
report, a cut), which the package fills from inputs that its entry points
have already checked.

The config-key table: for each ``ExperimentConfig`` key, per set of
studies that read it, the values ``run_study`` refuses before any trial
and one value that, written as config text, parses and runs. A key missing
from the table fails ``test_every_config_key_has_a_row``.
"""

import math
import re
from dataclasses import fields
from fractions import Fraction
from functools import partial

import pytest

from process_resilience import (
    BudgetRule,
    ProcessTrace,
    audit_edge_counts,
    audit_neighbourhoods,
    ball,
    build_graph,
    classify_vertices,
    connectivity_resilience_threshold,
    derive_seed,
    find_k_conn_attack,
    generator,
    graph_at,
    greedy_partition_attack,
    hitting_time_k_connectivity,
    hitting_time_min_degree,
    is_k_connected,
    k_core,
    pair_count,
    sample_coupled,
    sample_gnm,
    sample_gnp,
    sample_process,
    splitmix64,
)
from process_resilience import experiments
from process_resilience.experiments import (ExperimentConfig, parse_config_text,
                                            run_study, wilson_interval)

from conftest import complete, cycle, manual_cls, path
from test_public_surface import _exports

NAN, INF = math.nan, math.inf


def integers(good, low=None, high=None):
    """(good, refused) for an integer parameter within [low, high]: NaN,
    inf, a non-integer, a whole float, a bool, and each side's first value
    outside the bounds."""
    bad = [NAN, INF, good + 1.5, float(good), True]
    bad += [] if low is None else [low - 1]
    bad += [] if high is None else [high + 1]
    return good, bad


def reals(good, low=-INF, high=INF, bounds="[]"):
    """(good, refused) for a real parameter between low and high, each end
    closed or open as ``bounds`` writes it: NaN, a bool, and below or above
    each finite bound, the bound itself where it is open."""
    bad = [NAN, True]
    if low > -INF:
        bad += [-INF, low - 1] + ([low] if bounds[0] == "(" else [])
    if high < INF:
        bad += [INF, high + 1] + ([high] if bounds[1] == ")" else [])
    return good, bad


K5, K10, C6, P4 = complete(5), complete(10), cycle(6), path(4)
TRACE = ProcessTrace(5, 0)  # N = 10 vertex pairs
SEED = integers(0)


def _streamed(make):
    return lambda seed, stream: make(seed, stream)


# export -> (call, {parameter: (good, refused)}); call takes every listed
# parameter by keyword, so a case swaps one for a refused value. A comment
# names a value that once passed without a word.
TABLE = {
    # classify
    "AuditReport": (None, {}),
    "VertexClassification": (None, {}),
    "audit_atyp_size": (None, {}),
    "audit_edge_counts": (partial(audit_edge_counts, K5), {
        "p": reals(0.5, 0, 1),
        "c": reals(1.0, 0, INF, "(]"),  # nan reported holds
        "subset_trials": integers(2, 0),
        "seed": SEED,
    }),
    "audit_neighbourhoods": (partial(audit_neighbourhoods, K5, manual_cls(K5)), {
        "L": integers(1, 0),  # nan passed the atypical-neighbourhood audit
    }),
    "classify_vertices": (partial(classify_vertices, K5), {
        "p": reals(0.5, 0, 1),
        "delta": reals(0.5, 0, 1, "()"),
    }),
    # graphs
    "Graph": (None, {}),
    "GraphFormatError": (None, {}),
    "ball": (partial(ball, P4), {
        "v": integers(0, 0, 3),  # True raised a numpy IndexError
        "radius": integers(1, 1),
    }),
    "build_graph": (partial(build_graph, edge_list=[(0, 1)]), {
        "n": integers(2, 0),  # 3.5 raised a numpy TypeError
    }),
    "connected_components": (None, {}),
    "format_graph_text": (None, {}),
    "giant_component": (None, {}),
    "induced_subgraph": (None, {}),
    "is_connected": (None, {}),
    "is_k_connected": (partial(is_k_connected, K5), {"k": integers(2, 1)}),
    "k_core": (partial(k_core, K5), {"k": integers(2, 2)}),
    "parse_graph_text": (None, {}),
    # process
    "CoupledSample": (None, {}),
    "ProcessTrace": (ProcessTrace, {"n": integers(5, 0), "seed": SEED}),
    "graph_at": (partial(graph_at, TRACE), {"m": integers(3, 0, 10)}),
    "hitting_time_k_connectivity": (partial(hitting_time_k_connectivity, TRACE),
                                    {"k": integers(2, 1, 4)}),
    "hitting_time_min_degree": (partial(hitting_time_min_degree, TRACE),
                                {"k": integers(2, 1, 4)}),
    "pair_count": (pair_count, {"n": integers(5, 0)}),
    "sample_coupled": (sample_coupled, {
        "n": integers(5, 0),
        "p0": reals(0.3, 0, 1),
        "p_prime": reals(0.2, 0, 1),
        "seed": SEED,
    }),
    "sample_gnm": (sample_gnm, {
        "n": integers(5, 0),
        "m": integers(3, 0, 10),
        "seed": SEED,
    }),
    "sample_gnp": (sample_gnp, {
        "n": integers(2, 0),  # 3.5 raised a numpy TypeError
        "p": reals(0.5, 0, 1),
        "seed": SEED,  # 1.5 raised a numpy TypeError
    }),
    "sample_process": (sample_process, {"n": integers(5, 2), "seed": SEED}),
    # resilience
    "AttackError": (None, {}),
    "AttackOutcome": (None, {}),
    "BudgetRule": (BudgetRule, {
        "alpha": reals(Fraction(1, 2), 0, 1),
        "k": integers(0, 0),
    }),
    "Cut": (None, {}),
    "PartitionCollapsedError": (None, {}),
    "RearrangementOverflowError": (None, {}),
    "ResilienceReport": (None, {}),
    "attack_ratios": (None, {}),
    "budget_allows": (None, {}),
    "cherry_attack": (None, {}),
    "connectivity_resilience_threshold": (
        partial(connectivity_resilience_threshold, C6, mode="local_search"), {
            "restarts": integers(2, 1),  # True ran one restart
            "seed": SEED,
        }),
    "crossing_edges": (None, {}),
    "cut_from_json_dict": (None, {}),
    "cut_to_json_dict": (None, {}),
    "find_disconnecting_attack": (None, {}),
    "find_k_conn_attack": (partial(find_k_conn_attack, K5, BudgetRule(Fraction(1, 2))),
                           {"k": integers(2, 1)}),
    "greedy_partition_attack": (partial(greedy_partition_attack, K10, manual_cls(K10)), {
        "d_threshold": reals(1e9),  # nan reported satisfied, with an empty D
        "epsilon": reals(Fraction(1, 10), 0, Fraction(1, 2), "()"),
        "seed": SEED,
    }),
    "replay_cut": (None, {}),
    # rng
    "GENERATOR_ID": (None, {}),
    "derive_seed": (_streamed(derive_seed), {"seed": SEED, "stream": integers(1)}),
    "generator": (_streamed(generator), {"seed": SEED, "stream": integers(1)}),
    "splitmix64": (splitmix64, {"x": integers(0)}),
    # experiments
    "wilson_interval": (wilson_interval, {
        "successes": integers(1, 0, 3),  # 2.5 of 3 gave an interval
        "trials": integers(3, 0),
    }),
}

# a second call form of an export, held to the same rules
VARIANTS = {
    "connectivity_resilience_threshold[exact]": (
        partial(connectivity_resilience_threshold, C6, mode="exact"), {
            "restarts": integers(2, 1),  # 1.5 returned 1/2: exact mode never read it
            "seed": SEED,
        }),
}
ROWS = {**TABLE, **VARIANTS}

REFUSALS = [pytest.param(export, name, bad, id=f"{export}-{name}-{bad!r}")
            for export, (_, params) in ROWS.items()
            for name, (_, refused) in params.items() for bad in refused]


def _goods(export) -> dict:
    return {name: good for name, (good, _) in ROWS[export][1].items()}


def test_every_export_has_a_row():
    missing = sorted(set(_exports()) - set(TABLE))
    assert not missing, f"exports missing from the domain table: {missing}"
    assert set(TABLE) - set(_exports()) == {"wilson_interval"}


@pytest.mark.parametrize("export, name, bad", REFUSALS)
def test_a_value_outside_the_domain_is_refused(export, name, bad):
    call = ROWS[export][0]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call(**{**_goods(export), name: bad})


@pytest.mark.parametrize("export", [export for export, (_, params) in ROWS.items()
                                    if params])
def test_the_good_values_return(export):
    ROWS[export][0](**_goods(export))


# -- config keys -------------------------------------------------------------

def more(row, *bad):
    """A (good, refused) row with more refused values."""
    good, refused = row
    return good, refused + list(bad)


def rationals(good, low, high=INF, bounds="[]"):
    """reals() for a key that takes an exact rational: a float is refused
    too, and so is text that Fraction cannot read."""
    return more(reals(good, low, high, bounds), 0.1, "abc", "1/0")


class Whole:
    """A list key's whole value, where the table holds items: a bare number
    once failed inside the check with "'int' object is not iterable"."""

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"Whole({self.value!r})"

    def __str__(self):
        return str(self.value)


HALF = Fraction(1, 2)
ALL, GREEDY, GRID = ("hitting", "sweep", "kcore", "audit"), ("hitting", "sweep"), \
    ("sweep", "kcore")

# config key -> {studies that read it: (good, refused)}, each case run at
# ns = (8,), so k lies in [2, 7]; a list key's values are its items, or a
# Whole value. The study sets are those of experiments._CONFIG_KEYS. A
# comment names a value that once ran, or failed inside the first trial,
# without naming the key.
CONFIG_TABLE = {
    "study": {},  # one of STUDIES: test_experiments
    "ns": {ALL: more(integers(8, 2), Whole(16), Whole(None))},  # Whole(16)
    "ms": {GRID: more(integers(10), Whole(40))},  # Whole(40)
    "m_factors": {GRID: (1.0, [NAN, INF, -INF, True, Whole(1.0)])},  # Whole(1.0)
    "k": {("kcore",): more(integers(3, 2, 7), 2.5)},  # 2.5
    "epsilon": {GREEDY: rationals("1/10", 0, HALF, "()"),
                ("kcore",): rationals("1/10", 0, HALF),  # 0.1 moved alpha
                ("audit",): rationals("1/10", 0)},
    "delta": {("hitting", "sweep", "audit"): reals(0.5, 0, 1, "()")},
    "L": {("audit",): more(integers(10, 0), 2.5)},  # 2.5
    "c": {("audit",): reals(2.0, 0, INF, "(]")},
    "trials": {ALL: more(integers(1, 1), 1.5)},  # True ran one trial; 1.5
    "seed": {ALL: more(integers(7), 1.5)},  # 1.5
    # 1.5; 4 * cpu_count + 1 would start that many workers
    "threads": {ALL: more(integers(1, 1, experiments._MAX_THREADS), 1.5)},
    "subset_trials": {("audit",): more(integers(2, 0), 1.5)},  # 1.5
    "p0_factor": {("audit",): reals(1.5)},
    "p_prime_factor": {("audit",): reals(0.1, 0)},
    "d_threshold_factor": {GREEDY: reals(1.0, 0, INF, "[)")},
    "exact_n_limit": {GREEDY: integers(1)},  # True, 2.5
    "restarts": {("hitting",): integers(1, 1)},  # True
    "measure_resilience": {("hitting",): (False, [1, 0, "no", "false", None])},  # "no"
    "out_json": {},  # unset: test_experiments
    "out_csv": {},
}

LIST_KEYS = ("ns", "ms", "m_factors")

CONFIG_CASES = [(key, study, good, refused) for key, rows in CONFIG_TABLE.items()
                for studies, (good, refused) in rows.items() for study in studies]


def _config(study, key, value) -> ExperimentConfig:
    if isinstance(value, Whole):
        value = value.value
    elif key in LIST_KEYS:
        value = (value,)
    return ExperimentConfig(**{"study": study, "ns": (8,), "trials": 1, key: value})


def test_every_config_key_has_a_row():
    keys = [f.name for f in fields(ExperimentConfig)]
    missing = sorted(set(keys) - set(CONFIG_TABLE))
    assert not missing, f"config keys missing from the domain table: {missing}"
    assert list(experiments._CONFIG_KEYS) == keys
    for key, rows in CONFIG_TABLE.items():
        assert set(rows) == set(experiments._CONFIG_KEYS[key][1]), key


@pytest.mark.parametrize("key, study, bad", [
    pytest.param(key, study, bad, id=f"{study}-{key}-{bad!r}")
    for key, study, _, refused in CONFIG_CASES for bad in refused])
def test_a_config_value_outside_the_domain_is_refused_before_any_trial(
        monkeypatch, key, study, bad):
    def no_trial(*args):
        raise AssertionError("a trial ran before the config check")

    monkeypatch.setattr(experiments, "_run_one", no_trial)
    with pytest.raises(ValueError, match=f"^{study} study: {re.escape(key)} "
                                         f"must be ") as refused:
        run_study(_config(study, key, bad))
    assert str(bad) in str(refused.value).rpartition(", got ")[2]


@pytest.mark.parametrize("key, study, good", [
    pytest.param(key, study, good, id=f"{study}-{key}")
    for key, study, good, _ in CONFIG_CASES])
def test_a_good_config_value_parses_and_runs(key, study, good):
    lines = {"study": study, "ns": 8, "trials": 1, key: str(good).lower()}
    cfg = parse_config_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    assert cfg == _config(study, key, good)
    assert len(run_study(cfg).records) == 1
