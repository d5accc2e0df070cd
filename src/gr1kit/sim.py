"""Closed-loop execution of synthesized strategies against adversaries.

The strategy is the single source of truth during a run: the edges of the
current node (a slice of its flat edge arrays) enumerate the environment
assignments legal there (closure guarantees they are total), the adversary
picks one, and that edge's recorded response advances the controller.
Scripted events can pin environment variables at given steps and take the
human away for a span of steps; during such a span the world is frozen in
place and only the step counter and wall-clock column advance.

A run is a columnar ``Trace``: an int64 matrix gathered once from
``Strategy.node_vals``, plus step, time and human-away columns.  The CSV
codec is the only code that knows the scenario's column names.
"""

from __future__ import annotations

import random
import time as _time
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import AdversaryIllegalMove, StrategyHole
from . import workdelivery as wd


@dataclass(frozen=True)
class ScriptedEvent:
    step: int
    overrides: tuple = ()        # ((name, value), ...)
    human_away: int | None = None
    duration: int = 0


def parse_events(text):
    """Parse an events file: ``step=<n> set <var>=<val>`` or
    ``step=<n> human_away=<0|1> duration=<steps>`` per line."""
    events = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        try:
            if not toks[0].startswith("step="):
                raise ValueError("line must start with step=<n>")
            step = int(toks[0][5:])
            if toks[1] == "set":
                pairs = []
                for assign in toks[2:]:
                    name, val = assign.split("=", 1)
                    pairs.append((name, int(val)))
                if not pairs:
                    raise ValueError("set needs var=val")
                events.append(ScriptedEvent(step, overrides=tuple(pairs)))
            elif toks[1].startswith("human_away="):
                away = int(toks[1].split("=", 1)[1])
                duration = 0
                if len(toks) > 2 and toks[2].startswith("duration="):
                    duration = int(toks[2].split("=", 1)[1])
                events.append(ScriptedEvent(step, human_away=away,
                                            duration=duration))
            else:
                raise ValueError(f"unknown event {toks[1]!r}")
        except (ValueError, IndexError) as exc:
            raise ValueError(f"bad event line {line_no}: {raw!r} ({exc})")
    return sorted(events, key=lambda ev: ev.step)


# --------------------------------------------------------------------------
# adversary policies


class UniformRandomPolicy:
    kind = "random"
    deterministic_finite = False

    def __init__(self, seed=0):
        self.seed = seed
        self.rng = random.Random(seed)

    def choose(self, step, state, legal, env_names):
        return legal[self.rng.randrange(len(legal))]


class GreedyBLPolicy:
    """Deterministic: pick the move minimizing (or maximizing) the next
    backlog value, breaking ties toward the lowest assignment index."""

    deterministic_finite = True

    def __init__(self, maximize=False):
        self.maximize = maximize
        self.kind = "max-bl" if maximize else "min-bl"

    def choose(self, step, state, legal, env_names):
        if "bl" in env_names:
            pos = env_names.index("bl")
            key = (lambda m: -m[pos]) if self.maximize else (lambda m: m[pos])
            best = min(range(len(legal)), key=lambda k: (key(legal[k]), k))
            return legal[best]
        return legal[0]


class ScriptedPolicy:
    """Uniform random with per-step variable overrides applied when legal."""

    kind = "scripted"
    deterministic_finite = False

    def __init__(self, events=(), seed=0):
        self.rng = random.Random(seed)
        self.overrides = {}
        for ev in events:
            if ev.overrides:
                self.overrides.setdefault(ev.step, []).extend(ev.overrides)

    def choose(self, step, state, legal, env_names):
        want = self.overrides.get(step)
        pool = legal
        if want:
            match = [m for m in legal
                     if all(m[env_names.index(n)] == v for n, v in want)]
            if match:
                pool = match
        return pool[self.rng.randrange(len(pool))]


class InteractivePolicy:
    kind = "interactive"
    deterministic_finite = False

    def __init__(self, out=None, inp=None):
        import sys
        self.out = out or sys.stdout
        self.inp = inp or sys.stdin

    def choose(self, step, state, legal, env_names):
        self.out.write(f"\nstep {step} | state: {state}\n")
        for k, m in enumerate(legal):
            vals = ", ".join(f"{n}={v}" for n, v in zip(env_names, m))
            self.out.write(f"  [{k}] {vals}\n")
        while True:
            self.out.write(f"environment move 0..{len(legal) - 1}> ")
            self.out.flush()
            line = self.inp.readline()
            if not line:
                return legal[0]
            try:
                k = int(line.strip())
                if 0 <= k < len(legal):
                    return legal[k]
            except ValueError:
                pass


def make_adversary(kind, seed=0, events=()):
    if kind == "random":
        return UniformRandomPolicy(seed)
    if kind == "min-bl":
        return GreedyBLPolicy(maximize=False)
    if kind == "max-bl":
        return GreedyBLPolicy(maximize=True)
    if kind == "scripted":
        return ScriptedPolicy(events, seed)
    if kind == "interactive":
        return InteractivePolicy()
    raise ValueError(f"unknown adversary kind {kind!r}")


def adversary_choice(policy, state, legal_moves, env_names, step=0):
    """Resolve one environment choice; the result must come from
    `legal_moves` or the caller aborts with AdversaryIllegalMove."""
    if not legal_moves:
        raise ValueError("no legal moves to choose from")
    pick = policy.choose(step, state, list(legal_moves), list(env_names))
    pick = tuple(pick)
    if pick not in set(map(tuple, legal_moves)):
        raise AdversaryIllegalMove(
            f"policy {getattr(policy, 'kind', '?')} returned {pick}")
    return pick


# --------------------------------------------------------------------------
# traces


Row = namedtuple("Row", "index time_s state human_away")


@dataclass
class Trace:
    """A run as columns: one int64 row of `vals` per snapshot, in `names`
    order, with its step number, time and human-away flag alongside."""

    names: tuple                 # variables, in column order
    td: float
    vals: np.ndarray             # int64 [rows × vars]
    step: np.ndarray             # int64 [rows]
    time_s: np.ndarray           # float64 [rows]
    human_away: np.ndarray       # bool [rows]

    def n_steps(self):
        return len(self.step) - 1

    @property
    def rows(self):
        """Read-only view, one Row per snapshot with the state as a dict."""
        return tuple(map(Row, self.step.tolist(), self.time_s.tolist(),
                         [dict(zip(self.names, v)) for v in self.vals.tolist()],
                         self.human_away.tolist()))


def run(strategy, adversary, max_steps, events=(), td=10.0,
        arena=None, pace=False):
    """Execute up to max_steps transitions; returns the Trace.

    Rows hold the initial snapshot at index 0 followed by one row per
    transition.  `events` freeze the world for human-away spans (the row
    repeats the current node) and pin environment variables at given steps
    (where legal).  When `arena` is given, node responses are cross-checked
    against it and a missing edge raises StrategyHole.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    env_names = list(strategy.env_names)
    away_events = {ev.step: ev for ev in events if ev.human_away is not None}
    set_events = {}
    for ev in events:
        if ev.overrides:
            set_events.setdefault(ev.step, []).extend(ev.overrides)

    init_env = list(map(tuple, strategy.init_env.tolist()))
    inits = list(dict.fromkeys(init_env))
    if not inits:
        raise StrategyHole("strategy has no initial nodes")
    if len(inits) == 1:
        ev0 = inits[0]
    else:
        ev0 = adversary_choice(adversary, None, inits, env_names, step=0)
    nid = int(strategy.init_node[init_env.index(ev0)])

    path, away = [nid], [False]
    frozen = 0
    for k in range(1, max_steps + 1):
        if pace:
            _time.sleep(td)
        ev = away_events.get(k)
        if ev is not None:
            frozen = ev.duration if ev.human_away else 0
        away.append(frozen > 0)
        if frozen > 0:
            frozen -= 1
            path.append(nid)
            continue
        legal = have = strategy.legal_env_moves(nid)
        if arena is not None:
            s_idx = arena.encode_state(strategy.node_vals[nid])
            truth = list(map(tuple, arena.env_codec.values(
                arena.env_moves(s_idx)).tolist()))
            missing = [m for m in truth if m not in set(have)]
            if missing:
                raise StrategyHole(
                    f"node {nid} lacks an edge for legal env move {missing[0]}")
            legal = truth
        if not legal:
            raise StrategyHole(f"node {nid} has no outgoing edges")
        pool = legal
        want = set_events.get(k)
        if want:
            match = [m for m in legal
                     if all(m[env_names.index(n)] == v for n, v in want)]
            if match:
                pool = match
        choice = adversary_choice(adversary, strategy.node_state(nid), pool,
                                  env_names, step=k)
        nid = strategy.respond(nid, have.index(choice))[1]
        path.append(nid)
    step = np.arange(max_steps + 1)
    return Trace(strategy.names, td, strategy.node_vals[path], step,
                 step * float(td), np.array(away))


# --------------------------------------------------------------------------
# CSV rendering


def _scenario_shape(names):
    need = {"bl", "s", "rs", "act", "hf", "tries"}
    if not need.issubset(names):
        return None
    n_obstacles = 0
    while f"o{n_obstacles + 1}" in names:
        n_obstacles += 1
    return n_obstacles + 1     # workstation cell index


def write_csv(trace, fp):
    """Render a trace as CSV; work-delivery traces get the scenario header
    with derived mode and action columns."""
    n = _scenario_shape(set(trace.names))
    if n is None:
        head, cols = list(trace.names), list(range(len(trace.names)))
    else:
        obstacles = [f"O{j}" for j in range(1, n)]
        head = ["RS", "BL", "HF", "tries", "S", *obstacles, "mode", "ACT"]
        cols = [trace.names.index(k) for k in ("rs", "bl", "hf", "tries", "s",
                                               *map(str.lower, obstacles),
                                               "act")]
    fp.write(",".join(["step", "time_s", *head, "human_away"]) + "\n")
    for step, t, row, away in zip(trace.step.tolist(), trace.time_s.tolist(),
                                  trace.vals[:, cols].tolist(),
                                  trace.human_away.astype(int).tolist()):
        if n is not None:
            rs, bl, hf, tries, s, *_, act = row
            row[-1:] = [wd.human_mode(wd.WorldState(
                n=n, bl=bl, rs=rs, act=act, hf=bool(hf), tries=tries,
                s=bool(s))), f"Go_S{act}"]
        fp.write(",".join(map(str, [step, _fmt_time(t), *row, away])) + "\n")


def _fmt_time(x):
    return str(int(x)) if float(x).is_integer() else f"{x:g}"


def read_csv(fp):
    """Parse a trace CSV back into a Trace (inverse of write_csv)."""
    header = fp.readline().strip().split(",")
    if header[:2] != ["step", "time_s"]:
        raise ValueError("not a trace CSV")
    table = [line.split(",") for line in map(str.strip, fp) if line]
    if any(len(fields) != len(header) for fields in table):
        raise ValueError("every row needs one field per header column")
    col = dict(zip(header, zip(*table) if table else [()] * len(header)))
    away = np.array(col["human_away"], dtype=np.int64) != 0
    scenario = "mode" in header and "ACT" in header
    if scenario:
        obstacles = [h for h in header if h.startswith("O") and h[1:].isdigit()]
        names = ("bl", "s", *map(str.lower, obstacles), "stalled", "rs", "act",
                 "hf", "tries")
        # the stalled bit is not a CSV column: BL stands in for it here
        columns = ["BL", "S", *obstacles, "BL", "RS", "ACT", "HF", "tries"]
        col["ACT"] = [act.replace("Go_S", "") for act in col["ACT"]]
    else:
        names = columns = tuple(h for h in header[2:] if h != "human_away")
    vals = np.array([col[h] for h in columns], dtype=np.int64).reshape(
        len(columns), len(table)).T
    if scenario:
        vals[:, names.index("stalled")] = _stalled(vals[:, 0], away)
    time_s = np.array(col["time_s"], dtype=np.float64)
    td = float(time_s[1] - time_s[0]) if len(time_s) > 1 else 1.0
    return Trace(names, td, vals, np.array(col["step"], dtype=np.int64),
                 time_s, away)


def _stalled(bl, away):
    """The scenario's deterministic stalled update: 0 on the first row,
    backlog unchanged across a non-frozen row, held through frozen rows."""
    same = np.r_[False, bl[1:] == bl[:-1]]
    last = np.maximum.accumulate(np.where(away, 0, np.arange(len(bl))))
    return same[last]
