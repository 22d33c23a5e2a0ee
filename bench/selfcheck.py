"""Fast self-check of the benchmark (about a minute on two cores).

    python3 bench/selfcheck.py

Runs every workload at one trial per study, untraced and traced, and
asserts that each run is correct, prints every metric of BENCHMARK.json by
name with its unit, and ends with the result object those metrics belong
in. Also asserts that the tracer's metric list is the one BENCHMARK.json
declares, and that the benchmark exits non-zero without printing a result
when the checkout holds no sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import BENCH, ROOT, WORK, load_workloads
import tracer


def require(condition, message) -> None:
    if not condition:
        raise AssertionError(message)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_run(workload: str, trace: int, declared: list) -> None:
    proc = run_bench(ROOT, "--workload", workload, "--seed", "1",
                     "--seconds", "1", "--trials", "1", "--trace", str(trace))
    label = f"{workload} --trace {trace}"
    require(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, label)
    require(result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1, f"{label}: {proc.stdout}")
    names = [m["name"] for m in declared]
    require(sorted(result["metrics"]) == sorted(names),
            f"{label}: metrics {sorted(set(names) ^ set(result['metrics']))} differ")
    printed = {line.split()[0]: line.split() for line in lines[:-1] if line.strip()}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        require(got["unit"] == metric["unit"], f"{label}: unit of {metric['name']}")
        words = printed.get(metric["name"])
        require(words is not None and words[-1] == metric["unit"],
                f"{label}: {metric['name']} not printed with its unit")
    require("failed_frac" in printed, f"{label}: failed_frac not printed")
    if trace:
        # every instant inside cli.main is self time of exactly one span
        shares = [float(line.split()[3]) for line in lines
                  if line.startswith("layer ")]
        require(abs(sum(shares) - 1.0) < 0.01,
                f"{label}: layer shares sum to {sum(shares)}")
    print(f"ok {label}: {len(declared)} metrics", flush=True)


def check_no_sources(bench_json: Path) -> None:
    WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=WORK))
    try:
        shutil.copy(bench_json, bare / "BENCHMARK.json")
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "--workload", "sweep-n4096", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    require(proc.returncode != 0, "ran without sources")
    require('"metrics"' not in proc.stdout, "printed a result without sources")
    print("ok no sources: exit", proc.returncode, flush=True)


def main() -> int:
    bench_json = ROOT / "BENCHMARK.json"
    spec = json.loads(bench_json.read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    require(declared == tracer.per_layer_metrics(),
            "BENCHMARK.json per_layer differs from tracer.per_layer_metrics()")
    workloads = load_workloads()["workloads"]
    require(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads),
            "BENCHMARK.json workloads differ from bench/workloads.json")
    check_no_sources(bench_json)
    for name in sorted(workloads):
        check_run(name, 0, spec["end_to_end"])
        check_run(name, 1, spec["per_layer"])
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
