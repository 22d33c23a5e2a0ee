"""The benchmark's tracer (bench/tracer.py) wraps library functions by their
names, so a rename under src/ has to fail here instead of breaking a traced
benchmark run. The tracer file is only loaded, never changed."""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, dotted):
    target = module
    for part in dotted.split("."):
        target = getattr(target, part)
    return target


def test_tracer_patch_targets_resolve():
    tracer = _load_tracer()
    per_mode = set(tracer.THRESHOLD_MODES.values())
    for layer, names in tracer.TIMED.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
        for name in names:
            if name in per_mode:
                continue  # spans of connectivity_resilience_threshold
            assert callable(_resolve(module, name)), (layer, name)
    resilience = importlib.import_module(f"{tracer.PACKAGE}.resilience")
    for name in ("connectivity_resilience_threshold",
                 "greedy_partition_attack", "AttackError"):
        assert hasattr(resilience, name), name
    rng = importlib.import_module(f"{tracer.PACKAGE}.rng")
    assert callable(rng.generator) and callable(rng.derive_seed)
    process = importlib.import_module(f"{tracer.PACKAGE}.process")
    assert callable(getattr(process.ProcessTrace, "iter_pairs", None)), (
        "bench/tracer.py patches ProcessTrace.iter_pairs; it must resolve "
        "until the tracer stops patching it")


def test_tracer_installs_and_restores():
    tracer = _load_tracer()
    experiments = importlib.import_module(f"{tracer.PACKAGE}.experiments")
    before = dict(vars(experiments))
    t = tracer.Tracer()
    try:
        t.install()
        assert (experiments.connectivity_resilience_threshold
                is not before["connectivity_resilience_threshold"])
    finally:
        t.uninstall()
    assert dict(vars(experiments)) == before
