"""Study-throughput benchmark for `resil study`.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all  [--seed N] [--seconds S] [--trace 0|1]

Each run launches fresh single-threaded interpreters (bench/child.py) from
the root of a source checkout. Workloads are closed loops: one caller runs
the study of bench/workloads.json to completion, then the next, until the
time budget is spent.

--trace 0 reports the end-to-end metrics:
  trials_per_ref_s  completed trials per reference second of CPU time (user
                    + system) of the study process, from the end of set-up
                    to the study JSON being written; median over the studies
                    of the run
  setup_s           reference seconds of CPU time of a fresh interpreter
                    from launch until process_resilience.cli is imported and
                    the config is parsed; median over several launches
  peak_rss_mb       peak resident set (VmHWM) of the process that ran the
                    studies
A reference second (bench/child.py) is the CPU time that 300 runs of a
fixed breadth-first search take, sampled many times a second inside the
work it measures: on a shared host the CPU time of identical studies drifts
by a fifth or more within a minute, and the search drifts with it. On the
2-core 2.0 GHz Xeon VM the benchmark was written on, a reference second was
usually close to one CPU second, and up to two while other guests loaded
the host.
The wall clock also counts time the hypervisor gives to other guests (steal).
trials_per_cpu_s, trials_per_s (wall clock), setup_cpu_s and setup_wall_s
are printed alongside, unbounded.
--trace 1 alternates untraced and traced studies (bench/tracer.py) in one
process and reports the per-layer metrics of the traced ones, plus
trace.overhead_frac = traced CPU time / untraced CPU time - 1 (medians).

Every study output is checked: it must validate against
experiments.RESULT_JSON_SCHEMA, hold the configured records, and its
comparable_json_bytes digest must match bench/digests.json where that file
has the (workload, seed), and otherwise match every other study run on the
same sources (recorded in .bench_work/tree_digests.json).
A failed check counts every trial of the run as failed. failed_frac =
failed / attempted is printed with the metrics, and carried by the
``attempted`` and ``failed`` fields of the last output line, which is one
JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import jsonschema

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SECONDS = 20
SETUP_PROBES = 5            # counted set-up launches besides the study process
CHILD_TIMEOUT_S = 150

END_TO_END = (("trials_per_ref_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402  (bench-local module)


class CheckFailed(Exception):
    pass


def _fraction(x) -> bool:
    return 0.0 <= x <= 1.0


# invariants every record of a study must satisfy, for seeds with no
# reference digest as well
RECORD_CHECKS = {
    "sweep": lambda n, m: 0.0 < m["giant_frac"] <= 1.0 and m["greedy_moves"] >= -1,
    "hitting": lambda n, m: (0 < m["tau1"] <= m["tau_conn"]
                             and m["tau_equal"] == (m["tau1"] == m["tau_conn"])
                             and _fraction(m.get("alpha_star_float", 0.0))
                             and _fraction(m.get("alpha_upper_float", 0.0))),
    "kcore": lambda n, m: _fraction(m["core_frac"]) and m["tau_k"] >= 1,
    "audit": lambda n, m: (0 <= m["tiny_size"] <= n and 0 <= m["atyp_size"] <= n
                           and m["c2_holds"] == (m["c2_tiny3ball_holds"]
                                                 and m["c2_atypnbr_holds"])),
}


def load_workloads() -> dict:
    with open(BENCH / "workloads.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_digests() -> dict:
    with open(BENCH / "digests.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def config_text(workload: dict) -> str:
    lines = [f"study = {workload['study']}"]
    lines += [f"{key} = {value}" for key, value in workload["config"].items()]
    return "\n".join(lines) + "\n"


def study_argv(workload: dict, config_path: Path, seed: int, trials: int) -> list:
    return ["study", workload["study"], "--config", str(config_path),
            "--trials", str(trials), "--seed", str(seed), "--threads", "1",
            "--format", "json"]


def trials_per_study(workload: dict, trials: int) -> int:
    """Records one study writes: trials at each n (one m per n here)."""
    return trials * len(workload["config"]["ns"].split(","))


# -- environment ------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "git_sha": _git_sha()}


# -- child processes ----------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("RESILIENCE_SEED", None)   # it would override the study seed
    env.pop("PYTHONPATH", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def launch(spec: dict, spec_path: Path, capture: bool) -> tuple:
    """Run bench/child.py on ``spec``; return (launch instant, stdout)."""
    spec_path.write_text(json.dumps(spec))
    argv = [sys.executable, str(BENCH / "child.py"), str(spec_path)]
    launched = _monotonic()
    proc = subprocess.run(argv, env=_child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
                          text=True)
    if proc.returncode != 0:
        raise CheckFailed(f"child exited {proc.returncode}: {proc.stderr.strip()}")
    return launched, proc.stdout


def _setup_sample(ready: dict, launched: float) -> tuple:
    return ready["ready_ref_s"], ready["ready_cpu"], ready["ready"] - launched


def measure_setup(work: Path, config_path: Path) -> list:
    """(ref_s, cpu_s, wall_s) of set-up in each of SETUP_PROBES launches."""
    spec = {"src": str(SRC), "config": str(config_path), "mode": "setup"}
    samples = []
    for i in range(SETUP_PROBES + 1):
        launched, out = launch(spec, work / "spec.json", capture=True)
        ready = json.loads(out)
        if i:  # the first launch warms the bytecode and file caches
            samples.append(_setup_sample(ready, launched))
    return samples


def run_studies(work: Path, argv: list, config_path: Path, seconds: float,
                trace: bool) -> dict:
    spec = {"src": str(SRC), "config": str(config_path), "mode": "study",
            "argv": argv, "seconds": seconds, "trace": trace,
            "out_prefix": str(work / "study"), "result": str(work / "result.json")}
    launched, _ = launch(spec, work / "spec.json", capture=False)
    with open(spec["result"], "r", encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup"] = _setup_sample(result, launched)
    return result


# -- output check ---------------------------------------------------------------

def check_study_output(path: str, workload: dict, seed: int, trials: int,
                       schema: dict, comparable) -> str:
    """Validate one study JSON; return the sha256 of its comparable bytes."""
    raw = Path(path).read_bytes()
    payload = json.loads(raw)
    try:
        jsonschema.validate(payload, schema)
    except jsonschema.ValidationError as exc:
        raise CheckFailed(f"{path}: schema: {exc.message}") from None
    cfg = payload["config"]
    expected_ns = [int(n) for n in workload["config"]["ns"].split(",")]
    if (cfg["study"], cfg["seed"], cfg["trials"], cfg["ns"], cfg["threads"]) != \
            (workload["study"], seed, trials, expected_ns, 1):
        raise CheckFailed(f"{path}: config echo does not match the workload")
    records = payload["records"]
    keys = sorted((rec["n"], rec["trial"]) for rec in records)
    if keys != [(n, t) for n in sorted(expected_ns) for t in range(trials)]:
        raise CheckFailed(f"{path}: records do not cover trials 0..{trials - 1} "
                          f"at each n in {expected_ns}")
    for rec in records:
        if rec["study"] != workload["study"] or \
                not RECORD_CHECKS[rec["study"]](rec["n"], rec["metrics"]):
            raise CheckFailed(f"{path}: implausible record {rec}")
    if not payload["summary"]:
        raise CheckFailed(f"{path}: empty summary")
    return hashlib.sha256(comparable(raw)).hexdigest()


def tree_digest(key: str, digest: str) -> str:
    """The first digest recorded for ``key`` on the current sources.

    Keyed by a hash of the src/ tree, so outputs with no stored reference
    must agree across every run on the same sources, not only within one."""
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        tree.update(path.read_bytes())
    seen_path = WORK / "tree_digests.json"
    seen = json.loads(seen_path.read_text()) if seen_path.exists() else {}
    first = seen.setdefault(f"{tree.hexdigest()} {key}", digest)
    seen_path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return first


def check_study(study: dict, name: str, workload: dict, seed: int, trials: int,
                digests: dict) -> str:
    """Check every output of the run; return how its digest was confirmed."""
    sys.path.insert(0, str(SRC))
    from process_resilience.experiments import (RESULT_JSON_SCHEMA,
                                                 comparable_json_bytes)

    seen = set()
    for rep in study["reps"]:
        if rep["rc"] != 0:
            raise CheckFailed(f"resil study exited {rep['rc']}")
        seen.add(check_study_output(rep["out"], workload, seed, trials,
                                    RESULT_JSON_SCHEMA, comparable_json_bytes))
    if len(seen) != 1:  # traced and untraced outputs included
        raise CheckFailed(f"studies of one run disagree: {sorted(seen)}")
    digest = seen.pop()
    stored = digests.get(name, {})
    reference = stored.get("seeds", {}).get(str(seed))
    if stored.get("trials") != trials or reference is None:
        earlier = tree_digest(f"{name} {seed} {trials}", digest)
        if digest != earlier:
            raise CheckFailed(f"digest {digest} differs from {earlier} of an "
                              f"earlier run on the same sources")
        return f"{digest[:12]} (no reference; agrees with runs on these sources)"
    if digest != reference:
        raise CheckFailed(f"digest {digest} differs from reference {reference}")
    return f"{digest[:12]} (matches reference)"


# -- metrics ------------------------------------------------------------------

def end_to_end_metrics(study: dict, setup: list, per_study: int) -> dict:
    """The bounded metrics, plus the wall-clock ones printed beside them."""
    setup = setup + [study["setup"]]
    reps = study["reps"]
    return {
        "trials_per_ref_s": statistics.median(per_study / r["ref_s"] for r in reps),
        "trials_per_cpu_s": statistics.median(per_study / r["cpu_s"] for r in reps),
        "setup_s": statistics.median(ref for ref, _, _ in setup),
        "setup_cpu_s": statistics.median(cpu for _, cpu, _ in setup),
        "peak_rss_mb": study["peak_rss_kb"] / 1024.0,
        "trials_per_s": statistics.median(per_study / r["wall_s"] for r in reps),
        "setup_wall_s": statistics.median(wall for _, _, wall in setup),
    }


def per_layer_values(reps: list, untraced: list) -> dict:
    """Per-layer metrics of one study: medians over the traced studies."""
    values = {}
    for name in tracer.span_names():
        values[f"{name}.calls"] = statistics.median(
            rep["trace"]["spans"][name]["calls"] for rep in reps)
        values[f"{name}.self_ms"] = statistics.median(
            1000.0 * rep["trace"]["spans"][name]["self_s"] for rep in reps)
    for name in tracer.COUNTERS:
        values[name] = statistics.median(rep["trace"]["counts"][name] for rep in reps)
    values["resilience.greedy_useful_ratio"] = statistics.median(
        rep["trace"]["greedy_satisfied"] / rep["trace"]["greedy_attempts"]
        if rep["trace"]["greedy_attempts"] else 0.0 for rep in reps)
    values["trace.overhead_frac"] = (
        statistics.median(rep["cpu_s"] for rep in reps)
        / statistics.median(rep["cpu_s"] for rep in untraced) - 1.0)
    return values


def layer_report(traced: list, workload: dict) -> list:
    """Human-readable lines: self-time share per layer, and the per-call
    totals of the ROADMAP baseline rows this workload reaches."""
    spans = [rep["trace"]["spans"] for rep in traced]
    whole = statistics.median(s["cli.main"]["total_s"] for s in spans)
    lines = []
    for layer, fns in tracer.TIMED.items():
        share = statistics.median(
            sum(s[f"{layer}.{fn}"]["self_s"] for fn in fns) for s in spans) / whole
        lines.append(f"layer {layer} self_share {share:.4f}")
    for row in workload["baseline_rows"]:
        med = statistics.median(s[row["span"]]["median_call_s"] for s in spans)
        lines.append(f"baseline {row['row']}: traced median per call "
                     f"{1000 * med:.1f} ms (total time) vs ROADMAP "
                     f"{row['baseline_ms']} ms, ratio "
                     f"{1000 * med / row['baseline_ms']:.2f}")
    lines.append("note resilience.bipartitions_scanned is computed as "
                 "2^(n-1) - 1 per exact threshold call, not measured")
    return lines


# -- one workload -----------------------------------------------------------------

def run_workload(name: str, workload: dict, seed: int, seconds: float,
                 trace: bool, trials: int, digests: dict) -> tuple:
    """Return (human-readable lines, result object)."""
    per_study = trials_per_study(workload, trials)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    study = setup = None
    try:
        config_path = work / "study.cfg"
        config_path.write_text(config_text(workload))
        argv = study_argv(workload, config_path, seed, trials)
        study = run_studies(work, argv, config_path, seconds, trace)
        if not trace:
            setup = measure_setup(work, config_path)
        how = check_study(study, name, workload, seed, trials, digests)
        correct = True
    except (CheckFailed, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as exc:
        how = f"check failed: {exc}"
        correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = study["reps"] if study else []
    attempted = max(1, len(reps) * per_study)
    failed = 0 if correct else attempted
    lines = [f"workload {name} seed {seed} trials/study {per_study} "
             f"studies {len(reps)} output {how}",
             "study_wall_s " + " ".join(f"{rep['wall_s']:.3f}" for rep in reps),
             "study_cpu_s " + " ".join(f"{rep['cpu_s']:.3f}" for rep in reps)]
    values, units = {}, ()
    if trace and reps:
        traced = [rep for rep in reps if rep["traced"]]
        values = per_layer_values(traced, [rep for rep in reps if not rep["traced"]])
        units = [(metric, unit) for metric, unit, _ in tracer.per_layer_metrics()]
        lines += layer_report(traced, workload)
    elif reps and setup:
        values = end_to_end_metrics(study, setup, per_study)
        units = END_TO_END
        lines.append("study_ref_s " + " ".join(f"{rep['ref_s']:.3f}" for rep in reps))
        lines += [f"trials_per_cpu_s {values['trials_per_cpu_s']!r} 1/s (not bounded)",
                  f"trials_per_s {values['trials_per_s']!r} 1/s (wall clock, not bounded)",
                  f"setup_cpu_s {values['setup_cpu_s']!r} s (not bounded)",
                  f"setup_wall_s {values['setup_wall_s']!r} s (wall clock, not bounded)"]
    metrics = {metric: {"value": values[metric], "unit": unit}
               for metric, unit in units}
    lines += [f"{metric} {m['value']!r} {m['unit']}" for metric, m in metrics.items()]
    lines.append(f"failed_frac {failed / attempted!r} ({failed}/{attempted} trials)")
    return lines, {"correct": correct, "attempted": attempted, "failed": failed,
                   "metrics": metrics}


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads["workloads"]) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads["default_seed"])
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int,
                        help="override the workload's trials per study "
                             "(self-check only; no reference digest applies)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.trials is not None and args.trials < 1):
        parser.error("--seconds and --trials must be positive")
    if not (SRC / "process_resilience" / "cli.py").is_file():
        print(f"error: no process_resilience sources under {SRC}", file=sys.stderr)
        return 2

    digests = load_digests()
    names = (sorted(workloads["workloads"]) if args.workload == "all"
             else [args.workload])
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    if args.trace:
        for row in workloads["baseline_not_covered"]:
            print(f"baseline {row['row']}: not covered ({row['reason']})")
    results = {}
    for name in names:
        workload = workloads["workloads"][name]
        trials = args.trials or workload["trials"]
        lines, results[name] = run_workload(name, workload, args.seed,
                                            args.seconds, bool(args.trace),
                                            trials, digests)
        print("\n".join(lines), flush=True)
    if args.workload == "all":
        print(json.dumps({"env": env, "workloads": results}, sort_keys=True))
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(results[args.workload], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
