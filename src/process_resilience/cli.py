"""Command-line front end.

Exit codes: 0 success; 1 negative result (no attack found, certificate
invalid, star condition failed); 2 usage error (bad flags or malformed
input files, reported with line numbers); 3 unexpected runtime error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from .classify import (audit_atyp_size, audit_edge_counts,
                       audit_neighbourhoods, classify_vertices)
from .experiments import (STUDIES, _json_bytes, emit, load_config,
                          parse_config_text, render_output, run_study)
from .graphs import (Graph, GraphFormatError, format_graph_text,
                     giant_component, k_core, parse_graph_text)
from .process import (hitting_time_k_connectivity, hitting_time_min_degree,
                      pair_count, sample_coupled, sample_gnm, sample_gnp,
                      sample_process)
from .resilience import (AttackError, BudgetRule, cherry_attack,
                         connectivity_resilience_threshold, cut_from_json_dict,
                         cut_to_json_dict, find_disconnecting_attack,
                         find_k_conn_attack, greedy_partition_attack,
                         replay_cut)


def _print_json(payload) -> None:
    sys.stdout.write(_json_bytes(payload).decode())


def _load_graph(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_graph_text(fh.read())
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}", line=exc.line) from None


def _write_graph(g: Graph, path) -> None:
    text = format_graph_text(g)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _alpha(value: str) -> Fraction:
    """Exact commands only accept rationals like 1/2 (boundary semantics)."""
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"alpha must be a rational like 2/3, got {value!r}") from None


def _density(g: Graph) -> float:
    return g.m / pair_count(g.n) if g.n >= 2 else 0.0


# -- subcommand handlers ---------------------------------------------------

def _cmd_sample(args) -> int:
    if args.model == "process":
        payload = sample_process(args.n, args.seed).descriptor()
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(_json_bytes(payload))
        _print_json(payload)
    elif args.model == "coupled":
        coupled = sample_coupled(args.n, args.p0, args.p_prime, args.seed)
        _write_graph(coupled.g_minus, args.out_minus)
        _write_graph(coupled.g_plus, args.out_plus)
        _print_json({"n": args.n, "p0": coupled.p0, "p_prime": coupled.p_prime,
                     "p1": coupled.p1, "edges_minus": coupled.g_minus.m,
                     "edges_plus": coupled.g_plus.m})
    elif args.model == "gnm":
        _write_graph(sample_gnm(args.n, args.m, args.seed), args.out)
    else:
        _write_graph(sample_gnp(args.n, args.p, args.seed), args.out)
    return 0


def _cmd_hitting_times(args) -> int:
    trace = sample_process(args.n, args.seed)
    payload = {"n": args.n, "seed": args.seed,
               "tau_1": hitting_time_min_degree(trace, 1),
               "tau_conn": hitting_time_k_connectivity(trace, 1)}
    for k in args.k or ():
        payload[f"tau_{k}"] = hitting_time_min_degree(trace, k)
        payload[f"tau_{k}conn"] = hitting_time_k_connectivity(trace, k)
    _print_json(payload)
    return 0


def _cmd_giant(args) -> int:
    giant = giant_component(_load_graph(args.graph))
    _write_graph(giant, args.out)
    if args.out:
        _print_json({"n": giant.n, "labels": list(giant.labels)})
    return 0


def _cmd_kcore(args) -> int:
    core = k_core(_load_graph(args.graph), args.k)
    _write_graph(core, args.out)
    if args.out:
        _print_json({"n": core.n, "k": args.k,
                     "labels": list(core.labels) if core.labels else []})
    return 0


def _cmd_classify(args) -> int:
    g = _load_graph(args.graph)
    p = args.p if args.p is not None else _density(g)
    restrict = None
    if args.restrict:
        restrict = [int(tok) for tok in args.restrict.split(",") if tok.strip()]
    cls = classify_vertices(g, p, args.delta, restrict_to=restrict)
    _print_json({"n": g.n, "p": p, "delta": args.delta,
                 "tiny": sorted(cls.tiny), "atyp": sorted(cls.atyp)})
    return 0


def _cmd_audit(args) -> int:
    g_minus = _load_graph(args.minus)
    g_plus = _load_graph(args.plus)
    p0 = args.p0 if args.p0 is not None else _density(g_minus)
    p1 = args.p1 if args.p1 is not None else _density(g_plus)
    cls = classify_vertices(g_minus, p0, args.delta)
    reports = list(audit_neighbourhoods(g_plus, cls, args.L))
    reports.append(audit_atyp_size(cls))
    reports.append(audit_edge_counts(g_plus, p1, args.c, args.subset_trials,
                                     args.seed))
    _print_json([rep.to_json_dict() for rep in reports])
    return 0 if all(rep.holds for rep in reports) else 1


def _report_cut(g: Graph, cut) -> int:
    """Print the cut's certificate, or "resilient" (exit 1) if there is none."""
    if cut is None:
        print("resilient")
        return 1
    _print_json(cut_to_json_dict(g, cut))
    return 0


def _cmd_attack(args) -> int:
    g = _load_graph(args.graph)
    if args.kind == "cherry":
        edge = cherry_attack(g)
        if edge is None:
            print("no cherry")
            return 1
        _print_json({"edge": list(edge)})
        return 0
    if args.kind == "exact":
        return _report_cut(g, find_disconnecting_attack(g, BudgetRule(args.alpha)))
    if args.kind == "kconn":
        rule = BudgetRule(args.alpha, 0 if args.no_keep_degree else args.k)
        return _report_cut(g, find_k_conn_attack(g, rule, args.k))
    # greedy
    p = args.p if args.p is not None else _density(g)
    d_threshold = (args.d_threshold if args.d_threshold is not None
                   else (0.5 + args.delta) * g.n * p)
    cls = classify_vertices(g, p, args.delta)
    # an AttackError goes to main, which reports it and exits 1
    outcome = greedy_partition_attack(g, cls, d_threshold,
                                      Fraction(args.epsilon), args.seed)
    _print_json(outcome.to_json_dict(g))
    return 0 if outcome.satisfied else 1


def _cmd_threshold(args) -> int:
    g = _load_graph(args.graph)
    mode = "exact" if args.mode == "exact" else "local_search"
    rep = connectivity_resilience_threshold(g, mode=mode,
                                            restarts=args.restarts,
                                            seed=args.seed)
    # local search gives an upper bound, named as the hitting study names it
    name = "alpha_star" if mode == "exact" else "alpha_upper"
    payload = {name: str(rep.threshold), f"{name}_float": float(rep.threshold),
               "method": rep.method}
    if rep.witness is not None:
        payload["witness"] = cut_to_json_dict(g, rep.witness)
    _print_json(payload)
    return 0


def _cmd_study(args) -> int:
    overrides = {
        "study": args.kind,
        "ns": tuple(args.ns) if args.ns else None,
        "ms": tuple(args.ms) if args.ms else None,
        "trials": args.trials,
        "seed": args.seed,
        "threads": args.threads,
        "k": args.k,
    }
    if args.config:
        cfg = load_config(args.config, **overrides)
    else:
        cfg = parse_config_text("", **overrides)
    result = run_study(cfg)
    if args.out:
        emit(result, args.format, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(render_output(result, args.format).decode())
    return 0


def _cmd_verify_cut(args) -> int:
    g = _load_graph(args.graph)
    with open(args.cut, "r", encoding="utf-8") as fh:
        cut = cut_from_json_dict(json.load(fh))
    verdict = replay_cut(g, cut, BudgetRule(args.alpha, args.keep_degree or 0))
    _print_json(verdict)
    return 0 if verdict["valid"] else 1


# -- parser ----------------------------------------------------------------

def _flags(*args, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one flag, for subcommands that share it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*args, **kwargs)
    return parent


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``resil`` parser, built on the first call and shared by every
    later one: parsing leaves it unchanged, and each parse returns a fresh
    namespace. Callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="resil",
        description="Connectivity resilience in the random graph process: "
                    "samplers, hitting times, attacks, audits, and studies.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, parents=(), **kwargs):
        p = sub.add_parser(name, parents=list(parents), **kwargs)
        p.set_defaults(func=func)
        return p

    seed = _flags("--seed", type=int, default=0)
    n_seed = [_flags("--n", type=int, required=True), seed]
    graph = _flags("--graph", required=True)
    out = _flags("--out")

    p = command("sample", _cmd_sample, help="sample graphs and process traces")
    ps = p.add_subparsers(dest="model", required=True)
    ps.add_parser("process", parents=n_seed + [out],
                  help="emit a process trace descriptor")
    q = ps.add_parser("gnm", parents=n_seed + [out],
                      help="uniform graph with n vertices, m edges")
    q.add_argument("--m", type=int, required=True)
    q = ps.add_parser("gnp", parents=n_seed + [out], help="binomial random graph")
    q.add_argument("--p", type=float, required=True)
    q = ps.add_parser("coupled", parents=n_seed, help="coupled pair G- subset G+")
    q.add_argument("--p0", type=float, required=True)
    q.add_argument("--p-prime", type=float, required=True)
    q.add_argument("--out-minus", required=True)
    q.add_argument("--out-plus", required=True)

    p = command("hitting-times", _cmd_hitting_times, parents=n_seed,
                help="hitting times along a seeded trace")
    p.add_argument("--k", type=int, action="append",
                   help="also report tau_k and tau_k-conn (repeatable)")

    command("giant", _cmd_giant, parents=[graph, out],
            help="extract the largest component")

    p = command("kcore", _cmd_kcore, parents=[graph, out], help="extract the k-core")
    p.add_argument("--k", type=int, required=True)

    p = command("classify", _cmd_classify, parents=[graph],
                help="tiny/atypical vertex classes")
    p.add_argument("--p", type=float, help="reference density (default: m/C(n,2))")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--restrict", help="comma-separated vertex subset")

    p = command("audit", _cmd_audit, parents=[seed],
                help="structural audits on a coupled pair")
    p.add_argument("--minus", required=True, help="reference graph file")
    p.add_argument("--plus", required=True, help="audited graph file")
    p.add_argument("--p0", type=float)
    p.add_argument("--p1", type=float)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--L", type=int, default=30)
    p.add_argument("--c", type=float, default=2.0)
    p.add_argument("--subset-trials", type=int, default=200)

    p = command("attack", _cmd_attack, help="mount an attack")
    ps = p.add_subparsers(dest="kind", required=True)
    ps.add_parser("cherry", parents=[graph],
                  help="find a cherry and its detaching edge")
    q = ps.add_parser("exact", parents=[graph],
                      help="exact disconnecting cut search")
    q.add_argument("--alpha", type=_alpha, required=True,
                   help="budget fraction as a rational, e.g. 1/2")
    q = ps.add_parser("kconn", parents=[graph],
                      help="exact k-connectivity attack search")
    q.add_argument("--alpha", type=_alpha, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--no-keep-degree", action="store_true",
                   help="drop the keep-degree constraint (plain fraction rule)")
    q = ps.add_parser("greedy", parents=[graph, seed],
                      help="greedy partition attack")
    q.add_argument("--epsilon", required=True, help="rational, e.g. 1/10")
    q.add_argument("--delta", type=float, default=0.5)
    q.add_argument("--p", type=float, help="density scale (default: m/C(n,2))")
    q.add_argument("--d-threshold", type=float)

    p = command("threshold", _cmd_threshold, parents=[graph, seed],
                help="connectivity resilience threshold")
    p.add_argument("--mode", choices=("exact", "local-search"), default="exact")
    p.add_argument("--restarts", type=int, default=32)

    # no parent --seed: a study's seed defaults to its config's
    p = command("study", _cmd_study, parents=[out], help="run a Monte Carlo study")
    p.add_argument("kind", choices=tuple(STUDIES))
    p.add_argument("--config", help="config file (key = value grammar)")
    p.add_argument("--ns", type=int, nargs="+")
    p.add_argument("--ms", type=int, nargs="+")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = command("verify-cut", _cmd_verify_cut, parents=[graph],
                help="replay a serialized cut against a graph and budget")
    p.add_argument("--cut", required=True, help="cut JSON file")
    p.add_argument("--alpha", type=_alpha, required=True)
    p.add_argument("--keep-degree", type=int,
                   help="verify under the (alpha, k) rule with this k")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AttackError as exc:
        print(f"attack failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - last resort
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
