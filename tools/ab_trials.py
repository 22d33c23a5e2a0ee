"""Compare the per-trial CPU time of benchmark workloads in two checkouts,
run side by side in one interpreter.

    python3 tools/ab_trials.py PARENT CHANGE WORKLOAD|all [ROUNDS] [--out PATH]

PARENT and CHANGE are checkout directories, each with
src/process_resilience. WORKLOAD names a workload of bench/workloads.json
next to this script's directory (read only), e.g. sweep-n4096; ``all``
runs every workload there in turn. Both packages are imported under their
own names, so one process runs both.
After one unmeasured study in each checkout (imports, caches), each round
runs the workload's study once in each checkout, with the workload's
trials and one thread, at the seed default_seed + round; the order of the
two alternates from round to round. A round's time is the
CPU time of ``experiments.run_study`` divided by the trials it completed.

Prints each round's per-trial times, then one line per workload: the
median per-trial CPU time of each checkout over the rounds, the median and
range of the per-round ratios CHANGE / PARENT (below 1: CHANGE is faster),
and whether both wrote the same records in every round. Exits 1 if any
workload's records differ. ROUNDS defaults to 5. With ``--out PATH`` it
also writes PATH, a JSON record of the comparison: the machine, the Python
and numpy versions, each checkout's git commit and src/ tree (null outside
git, with a flag for uncommitted changes), and per workload each round's
CPU seconds per trial in both checkouts, the medians, the paired ratios and
whether the records matched. Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.json"


def load_package(checkout: Path, name: str):
    """The checkout's process_resilience, imported as the package ``name``."""
    root = checkout / "src" / "process_resilience"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.experiments")


def config_text(workload: dict) -> str:
    lines = [f"study = {workload['study']}"]
    lines += [f"{key} = {value}" for key, value in workload["config"].items()]
    return "\n".join(lines) + "\n"


def run_once(experiments, text: str, trials: int, seed: int) -> tuple:
    """(CPU seconds per trial, the records as JSON dicts) of one study."""
    cfg = experiments.parse_config_text(text, trials=trials, seed=seed, threads=1)
    gc.collect()
    c0 = time.process_time()
    result = experiments.run_study(cfg)
    cpu = time.process_time() - c0
    return cpu / len(result.records), [r.to_json_dict() for r in result.records]


def compare(sides: dict, spec: dict, name: str, rounds: int) -> dict:
    """One workload over ``rounds``: each round's CPU seconds per trial in
    each checkout, the medians, the paired ratios CHANGE / PARENT and
    whether every round's records matched."""
    workload = spec["workloads"][name]
    text = config_text(workload)
    for experiments in sides.values():
        run_once(experiments, text, workload["trials"], spec["default_seed"])
    times = {side: [] for side in sides}
    same = True
    for r in range(rounds):
        seed = spec["default_seed"] + r
        order = list(sides) if r % 2 == 0 else list(reversed(sides))
        records = {}
        for side in order:
            per_trial, records[side] = run_once(sides[side], text,
                                                workload["trials"], seed)
            times[side].append(per_trial)
        same = same and records["parent"] == records["change"]
        print(f"{name} round {r}: parent {1e3 * times['parent'][-1]:.2f} ms, "
              f"change {1e3 * times['change'][-1]:.2f} ms per trial", flush=True)
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    return {"rounds": rounds, "cpu_s_per_trial": times,
            "median_cpu_s_per_trial": {side: statistics.median(t)
                                       for side, t in times.items()},
            "paired_ratios": ratios, "median_ratio": statistics.median(ratios),
            "same_records": same}


def summary(name: str, result: dict) -> str:
    medians, ratios = result["median_cpu_s_per_trial"], result["paired_ratios"]
    return (f"{name}, {result['rounds']} rounds, median CPU ms per trial: "
            f"parent {1e3 * medians['parent']:.2f}, "
            f"change {1e3 * medians['change']:.2f}; "
            f"paired ratio change/parent: median {result['median_ratio']:.3f}, "
            f"range {min(ratios):.3f}-{max(ratios):.3f}; "
            f"same records: {'yes' if result['same_records'] else 'NO'}")


def revision(checkout: Path) -> dict:
    """The checkout's git commit and src/ tree, and whether its work tree
    differs from the commit; each null when git cannot tell."""
    def git(*args):
        done = subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {"commit": git("rev-parse", "HEAD"), "src_tree": git("rev-parse", "HEAD:src"),
            "uncommitted_changes": None if status is None else bool(status)}


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"cpu": model or platform.processor() or platform.machine(),
            "cpu_count": os.cpu_count(), "system": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__}


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="python3 tools/ab_trials.py")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("workload", help="a workload of bench/workloads.json, or all")
    parser.add_argument("rounds", type=int, nargs="?", default=5)
    parser.add_argument("--out", type=Path, help="also write the comparison as JSON")
    args = parser.parse_args(argv)
    with WORKLOADS.open(encoding="utf-8") as fh:
        spec = json.load(fh)
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    sides = {"parent": load_package(args.parent, "ab_parent"),
             "change": load_package(args.change, "ab_change")}
    results = {each: compare(sides, spec, each, args.rounds) for each in names}
    for each, result in results.items():
        print(summary(each, result))
    if args.out is not None:
        report = {"tool": "tools/ab_trials.py", "machine": machine(),
                  "checkouts": {"parent": revision(args.parent),
                                "change": revision(args.change)},
                  "workloads": results}
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0 if all(r["same_records"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
