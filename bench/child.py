"""One benchmark process: a fresh interpreter that imports the CLI, parses
the study config, and then runs ``resil study`` through
``process_resilience.cli.main`` until its time budget is spent.

Usage: python3 bench/child.py SPEC.json

SPEC keys: src, config, mode ("setup" or "study"), and for "study": argv,
seconds, trace, out_prefix, result. With trace set, every second study
runs under bench/tracer.py; without it, every study runs under the speed
probe (SpeedProbe). At the set-up instant the child records its CPU time
so far (user + system, interpreter start-up included) and a
CLOCK_MONOTONIC reading, which the parent compares with its own reading
taken just before the launch. Only the standard library and the package
under test are imported before that instant. Each study records its wall
time and the CPU time of this process, less the probe's.

Reference seconds. On a shared host the same work takes more or less CPU
time from one minute to the next, as other guests load the core, its
sibling thread and the caches. The child therefore also times a fixed
reference search (ReferenceSearch) next to the work it measures: one
reference second is the CPU time REF_SEARCHES_PER_S of those searches take
at that moment, and CPU times divided by it drift far less than CPU times
in seconds. The search is the kind of work the package does, a
breadth-first search over tuple adjacency with a visited set; it tracked
the drift of the studies better than an arithmetic loop, a dictionary
walk or an allocation loop did. The speed probe samples the set-up and
every untraced study.
"""

import json
import random
import resource
import signal
import sys
import time
from collections import deque

REF_SEARCHES_PER_S = 300
PROBE_EVERY_S = 0.1          # one search per interval: about 3% of the CPU
SETUP_PROBE_EVERY_S = 0.02   # set-up takes a few tenths of a second


class ReferenceSearch:
    """Breadth-first search from a fixed vertex of a fixed random graph
    (4096 vertices, about 16000 edges), stopped after 1500 visits: a few
    milliseconds of CPU. It leaves no state behind."""

    N = 4096
    VISITS = 1500

    def __init__(self):
        rnd = random.Random(20260810)
        adj = [set() for _ in range(self.N)]
        for _ in range(4 * self.N):
            u, v = rnd.randrange(self.N), rnd.randrange(self.N)
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        self.adj = tuple(tuple(sorted(a)) for a in adj)

    def cpu_s(self, searches: int) -> float:
        """CPU time of ``searches`` searches."""
        adj = self.adj
        c0 = time.process_time()
        for _ in range(searches):
            seen = {0}
            queue = deque([0])
            for _ in range(self.VISITS):
                for w in adj[queue.popleft()]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
        return time.process_time() - c0


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SpeedProbe:
    """Samples how fast the core runs while the work inside ``with`` runs.

    Every ``every_s`` of wall time, SIGALRM interrupts the work between
    two bytecodes and runs one reference search; the work's output is
    unchanged. The timer is not ITIMER_PROF: CPU-time timers fire on the
    scheduler tick, at the instant the CPU clock steps, so each search
    would read a whole number of ticks. The searches' mean CPU time gives
    the length of a reference second while the work ran (cpu_per_ref_s);
    their own CPU time (cpu_s) is taken out of the work's."""

    def __init__(self, search: ReferenceSearch, every_s: float):
        self.search = search
        self.every_s = every_s
        self.cpu_s = 0.0
        self.bursts = 0

    def _burst(self, signum, frame):
        self.cpu_s += self.search.cpu_s(1)
        self.bursts += 1

    def __enter__(self):
        self.cpu_s, self.bursts = 0.0, 0
        signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.bursts:  # a study shorter than one interval
            self._burst(None, None)

    def cpu_per_ref_s(self) -> float:
        return REF_SEARCHES_PER_S * self.cpu_s / self.bursts


def _peak_rss_kb() -> int:
    """High-water RSS of this process image, in KiB. On Linux ru_maxrss
    also counts the RSS the parent had when it forked this process, which
    exec carries over; VmHWM belongs to the new image alone."""
    try:
        with open("/proc/self/status", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    w0, c0 = _monotonic(), time.process_time()
    search = ReferenceSearch()
    search.cpu_s(1)  # warms the interpreter's specialised instructions
    build_wall, build_cpu = _monotonic() - w0, time.process_time() - c0
    with SpeedProbe(search, SETUP_PROBE_EVERY_S) as probe:
        sys.path.insert(0, spec["src"])
        import process_resilience.cli as cli
        from process_resilience.experiments import load_config

        load_config(spec["config"])
        ready = _monotonic() - build_wall - probe.cpu_s
        ready_cpu = time.process_time() - build_cpu - probe.cpu_s
    cpu_per_ref_s = probe.cpu_per_ref_s()
    setup = {"ready": ready, "ready_cpu": ready_cpu,
             "ready_ref_s": ready_cpu / cpu_per_ref_s}
    if spec["mode"] == "setup":
        print(json.dumps(setup))
        return 0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
    reps = []
    seconds = spec["seconds"]
    probe = SpeedProbe(search, PROBE_EVERY_S)
    start = time.perf_counter()
    while True:
        # with tracing, studies alternate untraced and traced, so that the
        # overhead compares neighbouring studies of one process
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        out = f"{spec['out_prefix']}-{len(reps)}.json"
        argv = spec["argv"] + ["--out", out]
        t0, c0 = time.perf_counter(), time.process_time()
        if tracer is None:
            with probe:
                rc = cli.main(argv)
        else:
            rc = cli.main(argv)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        rep = {"rc": rc, "out": out, "traced": traced}
        if tracer is None:
            rep.update(wall_s=wall - probe.cpu_s, cpu_s=cpu - probe.cpu_s,
                       probe_bursts=probe.bursts,
                       ref_s=(cpu - probe.cpu_s) / probe.cpu_per_ref_s())
        else:
            rep.update(wall_s=wall, cpu_s=cpu)
        if traced:
            tracer.uninstall()
            rep["trace"] = tracer.snapshot()
        reps.append(rep)
        elapsed = time.perf_counter() - start
        pair_done = tracer is None or traced
        # closed loop: start another study only if it should end in budget
        if rc != 0 or pair_done and elapsed + wall > seconds:
            break
    result = dict(setup, reps=reps, peak_rss_kb=_peak_rss_kb())
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
