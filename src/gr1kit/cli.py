"""Command-line entry point.

Subcommands: ``emit`` (write the work-delivery spec), ``synth`` (solve a
spec and extract a controller), ``simulate`` (drive a controller against an
adversary), ``check`` (verify traces or strategies), ``oracle``
(cross-validate the solver against the brute-force game solver).

Exit codes: 0 success, 2 parse/validation errors, 3 runtime strategy hole,
4 check failure or oracle mismatch, 5 capacity exceeded, 10 unrealizable.
A command returns only the codes of its outcome (0, 4 or 10); anything
that stops it is raised as a toolkit error, and `main` prints that error
and maps it to its code through `_EXIT_CODE`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

import numpy as np

from . import arena as ar
from . import check as ck
from . import gr1
from . import sim
from . import speclang as sl
from . import workdelivery as wd
from .errors import (CapacityExceeded, Gr1kitError, InvalidParams,
                     MissingBinding, SpecError, StrategyHole)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_HOLE = 3
EXIT_CHECK = 4
EXIT_CAPACITY = 5
EXIT_UNREALIZABLE = 10

# exit code of each error class; every other toolkit error exits EXIT_PARSE
_EXIT_CODE = {CapacityExceeded: EXIT_CAPACITY, StrategyHole: EXIT_HOLE}

# `simulate` keeps the whole trace in memory: 10**6 steps of the reduced
# controller peak near 360 MB and write a 33 MB CSV
MAX_STEPS = 1_000_000


class _UsageError(Gr1kitError):
    """A bad option, or an input or output file that cannot be used."""


@contextlib.contextmanager
def _file(verb, what, path, errors=(OSError,)):
    """Reraise `errors` from the block as 'cannot <verb> <what> <path>'."""
    try:
        yield
    except errors as exc:
        raise _UsageError(f"cannot {verb} {what} {path}: {exc!r}") from exc


# what opening a file, or parsing malformed contents, raises
_LOAD_ERRORS = (OSError, ValueError, LookupError, TypeError, AttributeError,
                OverflowError)


def _load(what, path, parse, mode="r"):
    """`parse` of an open input file; a SpecError passes through."""
    with _file("load", what, path, _LOAD_ERRORS), open(path, mode) as fp:
        return parse(fp)


def _load_spec(path):
    return _load("spec", path, lambda fp: sl.parse_spec(fp.read()), "rb")


def _load_strategy(path):
    return _load("strategy", path,
                 lambda fp: gr1.Strategy.from_obj(json.load(fp)))


def _params_from_args(args):
    items = []
    for raw in _load("config", args.config, list) if args.config else ():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParams(f"bad config line: {raw.rstrip()}")
        key, val = line.split("=", 1)
        items.append((key.strip(), val.strip()))
    for kv in args.param or []:
        if "=" not in kv:
            raise InvalidParams(f"--param needs key=value, got {kv!r}")
        key, val = kv.split("=", 1)
        items.append((key.strip(), val.strip()))
    return wd.params_from_items(items)


def cmd_emit(args):
    text = wd.emit_text(_params_from_args(args))
    sl.parse_spec(text)      # emit nothing that synth would refuse
    if args.out:
        with _file("write", "spec", args.out), open(args.out, "w") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _escape_count(arena, escapes):
    return (f"{len(escapes)} of {int(arena.env_init.sum())} initial "
            f"environment assignments")


def _unrealizable(arena, escapes, shown=5):
    """List the first escaping initial env assignments, decoded, and
    return the unrealizable exit code."""
    for e in escapes[:shown].tolist():
        print("  " + ", ".join(f"{name}={val}" for name, val
                               in arena.env_values(e).items()))
    if len(escapes) > shown:
        print(f"  ... and {len(escapes) - shown} more")
    return EXIT_UNREALIZABLE


def cmd_synth(args):
    if args.cap < 1:
        raise _UsageError("--cap must be at least 1")
    doc = _load_spec(args.spec)
    t0 = time.perf_counter()
    arena = ar.build_arena(doc, cap=args.cap)
    escapes = gr1._init_escapes(arena)
    if len(escapes):
        print(f"unrealizable: {_escape_count(arena, escapes)} admit no initial "
              f"system assignment ({time.perf_counter() - t0:.2f}s)")
        return _unrealizable(arena, escapes)
    result = gr1.solve(arena, doc.env_liveness, doc.sys_liveness)
    elapsed = time.perf_counter() - t0
    if not result.realizable:
        escapes = gr1._init_escapes(arena, result.winning)
        print(f"unrealizable: {int(result.winning.sum())} of "
              f"{arena.n_states} states winning, but "
              f"{_escape_count(arena, escapes)} escape ({elapsed:.2f}s)")
        return _unrealizable(arena, escapes)
    strategy = gr1.extract_strategy(result, arena)
    print(f"realizable: {int(result.winning.sum())} of {arena.n_states} "
          f"states winning; controller has {strategy.n_nodes} nodes "
          f"({elapsed:.2f}s)")
    if args.out:
        with _file("write", "strategy", args.out):
            strategy.save(args.out)
        print(f"strategy written to {args.out}")
    return EXIT_OK


def cmd_simulate(args):
    strategy = _load_strategy(args.strategy)
    events = []
    if args.events:
        events = _load("events", args.events,
                       lambda fp: sim.parse_events(fp.read()))
    if not 1 <= args.steps <= MAX_STEPS:
        raise _UsageError(f"--steps must be in 1..{MAX_STEPS}")
    if args.runs < 1:
        raise _UsageError("--runs must be at least 1")
    if args.runs > 1 and not args.out:
        raise _UsageError("--runs needs --out")
    for k in range(args.runs):
        adversary = sim.make_adversary(args.adversary, seed=args.seed + k,
                                       events=events)
        try:
            trace = sim.run(strategy, adversary, args.steps, events=events,
                            td=args.td, pace=args.pace)
        except ValueError as exc:
            # a `set` on a non-env variable, or a bad step length: `--td`
            # not positive, or a time column past float range
            raise _UsageError(exc) from exc
        if args.out:
            path = args.out if args.runs == 1 else f"{args.out}.{k:03d}"
            with _file("write", "trace", path), open(path, "w") as fp:
                sim.write_csv(trace, fp)
        else:
            sim.write_csv(trace, sys.stdout)
    return EXIT_OK


def cmd_check(args):
    doc = _load_spec(args.spec)
    if args.mode in ("safety", "recurrence"):
        if not args.trace:
            raise _UsageError("--trace required")
        if args.mode == "recurrence":
            if args.window is None or args.window < 1:
                raise _UsageError("recurrence needs --window of at least 1")
            if not 0 <= args.goal < len(doc.sys_liveness):
                raise _UsageError(
                    f"--goal must be in 0..{len(doc.sys_liveness) - 1}")
        trace = _load("trace", args.trace, sim.read_csv)
        try:
            if args.mode == "safety":
                verdict = ck.check_safety(trace, doc)
            else:
                verdict = ck.check_recurrence(
                    trace, doc.sys_liveness[args.goal], args.window)
        except (MissingBinding, OverflowError) as exc:
            raise _UsageError(
                f"cannot check trace {args.trace}: {exc}") from exc
    else:
        if not args.strategy:
            raise _UsageError("--strategy required")
        strategy = _load_strategy(args.strategy)
        if args.mode == "lasso":
            adversary = sim.make_adversary(args.adversary)
            verdict = ck.lasso_check(strategy, adversary, doc)
        else:
            arena = ar.build_arena(doc)
            result = gr1.solve(arena, doc.env_liveness, doc.sys_liveness)
            verdict = ck.verify_strategy_closure(strategy, arena, result)
    if args.json:
        print(json.dumps(verdict.summary()))
    else:
        print(verdict.render())
    return EXIT_OK if verdict.passed else EXIT_CHECK


def cmd_oracle(args):
    if args.max_states < 1:
        raise _UsageError("--max-states must be at least 1")
    if args.spec:
        doc = _load_spec(args.spec)
        arena = ar.build_arena(doc)
        oracle = gr1.brute_force_oracle(arena, doc.env_liveness,
                                        doc.sys_liveness, cap=args.max_states)
        result = gr1.solve(arena, doc.env_liveness, doc.sys_liveness)
        if np.array_equal(result.winning, oracle):
            print(f"agreement on all {arena.n_states} states")
            return EXIT_OK
        diff = int(np.sum(result.winning != oracle))
        print(f"MISMATCH on {diff} of {arena.n_states} states")
        return EXIT_CHECK
    if args.random < 0:
        raise _UsageError("--random must not be negative")
    mismatches = 0
    for k in range(args.random):
        seed = args.seed + k
        arena, env_live, sys_live = ar.random_arena(seed)
        result = gr1.solve(arena, env_live, sys_live)
        try:
            oracle = gr1.brute_force_oracle(arena, env_live, sys_live,
                                            cap=args.max_states)
        except CapacityExceeded as exc:
            raise CapacityExceeded(f"seed {seed}: {exc}") from exc
        if not np.array_equal(result.winning, oracle):
            mismatches += 1
            print(f"MISMATCH at seed {seed}")
    print(f"{args.random} random arenas checked, {mismatches} mismatches")
    return EXIT_OK if mismatches == 0 else EXIT_CHECK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gr1kit",
        description="Reactive synthesis for two-player games, with the "
                    "work-delivery scenario generator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("emit", help="write the work-delivery spec")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--config", help="flat key=value parameter file")
    p.add_argument("--param", action="append", metavar="K=V",
                   help="parameter override (wins over --config)")
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser("synth", help="solve a spec, extract a controller")
    p.add_argument("spec")
    p.add_argument("--out", help="strategy output path (JSON)")
    p.add_argument("--cap", type=int, default=1 << 24,
                   help="state-space cap")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="run a controller in closed loop")
    p.add_argument("strategy")
    p.add_argument("--adversary", default="random",
                   choices=["random", "min-bl", "max-bl", "scripted",
                            "interactive"])
    p.add_argument("--steps", type=int, default=180,
                   help=f"transitions per run, at most {MAX_STEPS}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=1,
                   help="batch of runs with seeds seed, seed+1, ...")
    p.add_argument("--events", help="scripted events file")
    p.add_argument("--td", type=float, default=10.0,
                   help="step length in seconds (trace time column)")
    p.add_argument("--pace", action="store_true",
                   help="sleep td seconds per step")
    p.add_argument("--out", help="trace CSV path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="verify a trace or a strategy")
    p.add_argument("--spec", required=True)
    p.add_argument("--mode", required=True,
                   choices=["safety", "recurrence", "lasso", "closure"])
    p.add_argument("--trace", help="trace CSV (safety / recurrence)")
    p.add_argument("--strategy", help="strategy JSON (lasso / closure)")
    p.add_argument("--window", type=int, help="recurrence window")
    p.add_argument("--goal", type=int, default=0,
                   help="system liveness goal index")
    p.add_argument("--adversary", default="min-bl",
                   choices=["min-bl", "max-bl"])
    p.add_argument("--json", action="store_true",
                   help="machine-readable verdict")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="cross-validate solver vs brute force")
    p.add_argument("--spec", help="check one spec instance")
    p.add_argument("--random", type=int, default=100,
                   help="number of random arenas when no spec is given")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-states", type=int, default=10_000)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Gr1kitError as exc:
        messages = (map(repr, exc.diagnostics) if isinstance(exc, SpecError)
                    else [exc])
        for message in messages:
            print(f"error: {message}", file=sys.stderr)
        return _EXIT_CODE.get(type(exc), EXIT_PARSE)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
