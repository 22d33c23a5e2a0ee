"""Compare the per-trial CPU time of one benchmark workload in two checkouts,
run side by side in one interpreter.

    python3 tools/ab_trials.py PARENT CHANGE WORKLOAD [ROUNDS]

PARENT and CHANGE are checkout directories, each with
src/process_resilience. WORKLOAD names a workload of bench/workloads.json
next to this script's directory (read only), e.g. sweep-n4096. Both
packages are imported under their own names, so one process runs both.
After one unmeasured study in each checkout (imports, caches), each round
runs the workload's study once in each checkout, with the workload's
trials and one thread, at the seed default_seed + round; the order of the
two alternates from round to round. A round's time is the
CPU time of ``experiments.run_study`` divided by the trials it completed.

Prints, per checkout, the median per-trial CPU time over the rounds, then
the median and range of the per-round ratios CHANGE / PARENT (below 1:
CHANGE is faster), and whether both wrote the same records in every
round. ROUNDS defaults to 5. Standard library and numpy only.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

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


def main(argv: list) -> int:
    if len(argv) not in (3, 4):
        print("usage: python3 tools/ab_trials.py PARENT CHANGE WORKLOAD [ROUNDS]",
              file=sys.stderr)
        return 2
    parent, change, name = Path(argv[0]), Path(argv[1]), argv[2]
    rounds = int(argv[3]) if len(argv) == 4 else 5
    with WORKLOADS.open(encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = spec["workloads"][name]
    text = config_text(workload)
    sides = {"parent": load_package(parent, "ab_parent"),
             "change": load_package(change, "ab_change")}
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
        print(f"round {r}: parent {1e3 * times['parent'][-1]:.2f} ms, "
              f"change {1e3 * times['change'][-1]:.2f} ms per trial", flush=True)
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    print(f"{name}, {rounds} rounds, median CPU ms per trial: "
          f"parent {1e3 * statistics.median(times['parent']):.2f}, "
          f"change {1e3 * statistics.median(times['change']):.2f}")
    print(f"paired ratio change/parent: median {statistics.median(ratios):.3f}, "
          f"range {min(ratios):.3f}-{max(ratios):.3f}; "
          f"same records: {'yes' if same else 'NO'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
