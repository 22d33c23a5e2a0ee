"""Record reference digests of study outputs for bench/run.py's output check.

    python3 bench/make_digests.py --seeds 20260810 1 2 3 [--workload NAME ...]

For each workload and seed, runs the workload's study once through
``process_resilience.cli.main`` and stores the sha256 of
``comparable_json_bytes`` of its JSON in bench/digests.json, keyed by the
workload's trials per study. Run it only on a commit whose study outputs
are known to be right: the digests are what later commits are checked
against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import BENCH, SRC, WORK, config_text, load_digests, load_workloads, study_argv


def main(argv=None) -> int:
    workloads = load_workloads()["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workload", nargs="+", choices=sorted(workloads),
                        default=sorted(workloads))
    args = parser.parse_args(argv)
    os.environ.pop("RESILIENCE_SEED", None)
    sys.path.insert(0, str(SRC))
    from process_resilience import cli
    from process_resilience.experiments import comparable_json_bytes

    digests = load_digests()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="digests-", dir=WORK))
    try:
        config_path = work / "study.cfg"
        out = work / "study.json"
        for name in args.workload:
            workload = workloads[name]
            entry = digests.setdefault(name, {"trials": workload["trials"], "seeds": {}})
            if entry["trials"] != workload["trials"]:
                entry.update(trials=workload["trials"], seeds={})
            config_path.write_text(config_text(workload))
            for seed in args.seeds:
                rc = cli.main(study_argv(workload, config_path, seed,
                                         workload["trials"]) + ["--out", str(out)])
                if rc != 0:
                    print(f"{name} seed {seed}: resil study exited {rc}", file=sys.stderr)
                    return 1
                digest = hashlib.sha256(comparable_json_bytes(out.read_bytes())).hexdigest()
                entry["seeds"][str(seed)] = digest
                print(f"{name} {seed} {digest}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(BENCH / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
