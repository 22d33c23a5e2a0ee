"""Golden front end: the CLI's options and the study output bytes.

``golden_cli_flags.json`` records, for every subcommand and sub-subcommand
of ``build_parser()``, each option's strings, dest, default, required,
type name, choices and nargs. ``golden_study_output.json`` records, for one
small hitting, sweep, kcore and audit study each, the records and summary CSV
bytes of ``render_output(..., "csv")`` and the JSON envelopes of the
``SummaryTable`` and of the records list. The bench digests pin only the
study JSON, so these pin the rest of what a user reads.

Regenerate (only when a change of options or output is intended) with
``PYTHONPATH=src python tests/test_frontend_golden.py``.
"""

import argparse
import json
from pathlib import Path

import pytest

from process_resilience.cli import build_parser
from process_resilience.experiments import (ExperimentConfig, render_output,
                                            run_study)

FLAGS_PATH = Path(__file__).parent / "golden_cli_flags.json"
OUTPUT_PATH = Path(__file__).parent / "golden_study_output.json"

STUDIES = {
    # exact alpha* at n = 12; greedy and local search at n = 32
    "hitting": ExperimentConfig(study="hitting", ns=(12, 32), trials=2,
                                seed=11, restarts=2),
    "sweep": ExperimentConfig(study="sweep", ns=(12, 40), ms=(10, 30),
                              trials=2, seed=7),
    # n = 96 at m = 90 has empty 3-cores; n = 48 at m = 90 seeds the tau_3
    # test with the core (tau_3 >= m), and m = 400 runs it unseeded
    # (tau_3 < m)
    "kcore": ExperimentConfig(study="kcore", ns=(48, 96), ms=(90, 400), k=3,
                              trials=3, seed=13),
    # n = 32 runs the exhaustive small-subset stage of the edge-count audit
    "audit": ExperimentConfig(study="audit", ns=(32, 128), trials=2, seed=17),
}


def _type_name(action) -> object:
    return None if action.type is None else action.type.__name__


def parser_options(parser, path=()) -> dict:
    """{"resil sample gnm": {option: attributes}, ...} for every parser."""
    out = {}
    opts = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(parser_options(sub, path + (name,)))
            key = action.dest
            choices = sorted(action.choices)
        else:
            key = "/".join(action.option_strings) or action.dest
            choices = None if action.choices is None else list(action.choices)
        opts[key] = {"option_strings": list(action.option_strings),
                     "dest": action.dest, "default": action.default,
                     "required": action.required, "type": _type_name(action),
                     "choices": choices, "nargs": action.nargs}
    out[" ".join(("resil",) + path)] = opts
    return out


def study_outputs(cfg) -> dict:
    result = run_study(cfg)
    return {
        "records_csv": render_output(result, "csv").decode(),
        "summary_csv": render_output(result.summary, "csv").decode(),
        "summary_json": render_output(result.summary, "json").decode(),
        "records_json": render_output(result.records, "json").decode(),
    }


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_cli_options_match_golden():
    assert parser_options(build_parser()) == _load(FLAGS_PATH)


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_study_output_bytes_match_golden(study):
    assert study_outputs(STUDIES[study]) == _load(OUTPUT_PATH)[study]


if __name__ == "__main__":
    for path, payload in (
            (FLAGS_PATH, parser_options(build_parser())),
            (OUTPUT_PATH, {name: study_outputs(cfg)
                           for name, cfg in STUDIES.items()})):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
