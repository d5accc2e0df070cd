"""Closed-loop execution of synthesized strategies against adversaries.

The strategy is the single source of truth during a run: the edges of the
current node (a slice of its flat edge arrays) enumerate the environment
assignments legal there (closure guarantees they are total), the adversary
picks one by its row index in that slice, and the edge's successor node
advances the controller.  Values are decoded only for printing and I/O.
Events pin environment variables at given steps, from step 0 on and under
every adversary, and take the human away for a span of steps; during such
a span the world is frozen in place and only the step counter and
wall-clock column advance.

A run is a columnar ``Trace``: an int64 matrix gathered once from
``Strategy.node_vals``, plus step, time and human-away columns.  The CSV
codec is the only code that knows the scenario's column names.
"""

from __future__ import annotations

import random
import sys
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
            if step < 0:
                raise ValueError("step must be at least 0")
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
                if away not in (0, 1):
                    raise ValueError("human_away must be 0 or 1")
                duration = 0
                if len(toks) > 2 and toks[2].startswith("duration="):
                    duration = int(toks[2].split("=", 1)[1])
                if duration < 0:
                    raise ValueError("duration must be at least 0")
                events.append(ScriptedEvent(step, human_away=away,
                                            duration=duration))
            else:
                raise ValueError(f"unknown event {toks[1]!r}")
        except (ValueError, IndexError) as exc:
            raise ValueError(f"bad event line {line_no}: {raw!r} ({exc})")
    return sorted(events, key=lambda ev: ev.step)


# --------------------------------------------------------------------------
# adversary policies
#
# An adversary is any object with ``choose(step, state, moves, names)``
# returning the index of one row of ``moves``, an int64 [k × env vars]
# array of the environment assignments it may pick from.  ``state`` is the
# current node's value row (None for the initial choice) and ``names`` the
# strategy's variables, env variables first, so column j of both is
# ``names[j]``.  ``deterministic_finite`` marks a policy whose pick depends
# on nothing but these arguments, which ``check.lasso_check`` requires.


class UniformRandomPolicy:
    kind = "random"
    deterministic_finite = False

    def __init__(self, seed=0):
        self.rng = random.Random(seed)

    def choose(self, step, state, moves, names):
        return self.rng.randrange(len(moves))


class GreedyBLPolicy:
    """Deterministic: pick the move minimizing (or maximizing) the next
    backlog value, breaking ties toward the lowest row."""

    deterministic_finite = True

    def __init__(self, maximize=False):
        self.maximize = maximize
        self.kind = "max-bl" if maximize else "min-bl"

    def choose(self, step, state, moves, names):
        if "bl" not in names[:moves.shape[1]]:
            return 0
        bl = moves[:, names.index("bl")]
        return int(bl.argmax() if self.maximize else bl.argmin())


class InteractivePolicy:
    kind = "interactive"
    deterministic_finite = False

    def __init__(self, out=None, inp=None):
        self.out = out or sys.stdout
        self.inp = inp or sys.stdin

    def choose(self, step, state, moves, names):
        if state is not None:
            state = dict(zip(names, state.tolist()))
        self.out.write(f"\nstep {step} | state: {state}\n")
        for k, m in enumerate(moves.tolist()):
            vals = ", ".join(f"{n}={v}" for n, v in zip(names, m))
            self.out.write(f"  [{k}] {vals}\n")
        while True:
            self.out.write(f"environment move 0..{len(moves) - 1}> ")
            self.out.flush()
            line = self.inp.readline()
            if not line:
                return 0
            try:
                k = int(line.strip())
                if 0 <= k < len(moves):
                    return k
            except ValueError:
                pass


def make_adversary(kind, seed=0, events=()):
    """Policy of the given kind.  ``scripted`` is the uniform random policy:
    ``run`` applies the `set` pins of `events` under every adversary."""
    if kind in ("random", "scripted"):
        return UniformRandomPolicy(seed)
    if kind == "min-bl":
        return GreedyBLPolicy(maximize=False)
    if kind == "max-bl":
        return GreedyBLPolicy(maximize=True)
    if kind == "interactive":
        return InteractivePolicy()
    raise ValueError(f"unknown adversary kind {kind!r}")


def _pick(adversary, step, state, moves, names, pin=None):
    """Row of `moves` the adversary picks.  A pin, (env columns, values),
    first narrows the choice to the rows that match it, when any do."""
    if pin is not None:
        rows = np.flatnonzero((moves[:, pin[0]] == pin[1]).all(axis=1))
        if len(rows):
            return int(rows[_pick(adversary, step, state, moves[rows], names)])
    k = adversary.choose(step, state, moves, names)
    if not isinstance(k, int) or not 0 <= k < len(moves):
        raise AdversaryIllegalMove(
            f"policy {getattr(adversary, 'kind', '?')} returned {k!r} "
            f"for {len(moves)} moves")
    return k


def _advance(strategy, nid, adversary, step=0, pin=None):
    """Node reached from node `nid` along the edge the adversary picks; the
    one closed-loop step of `run` and `check.lasso_check`."""
    lo, hi = strategy.edge_indptr[nid], strategy.edge_indptr[nid + 1]
    if lo == hi:
        raise StrategyHole(f"node {nid} has no outgoing edges")
    k = _pick(adversary, step, strategy.node_vals[nid],
              strategy.edge_env[lo:hi], strategy.names, pin)
    return int(strategy.edge_next[lo + k])


def _pins(events, env_names):
    """{step: (env columns, values)} of the `set` events; ValueError on a
    variable that is not an environment variable."""
    pins = {}
    for ev in events:
        for name, val in ev.overrides:
            if name not in env_names:
                raise ValueError(
                    f"event at step {ev.step} sets {name!r}, which is not "
                    f"an environment variable ({', '.join(env_names)})")
            pins.setdefault(ev.step, []).append((env_names.index(name), val))
    return {step: tuple(map(list, zip(*pairs))) for step, pairs in pins.items()}


# --------------------------------------------------------------------------
# traces


Row = namedtuple("Row", "index time_s state human_away")


@dataclass
class Trace:
    """A run as columns: one int64 row of `vals` per snapshot, in `names`
    order, with its step number, time and human-away flag alongside."""

    names: tuple                 # variables, in column order
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


def run(strategy, adversary, max_steps, events=(), td=10.0, pace=False):
    """Execute up to max_steps transitions; returns the Trace.

    Rows hold the initial snapshot at index 0 followed by one row per
    transition.  `events` freeze the world for human-away spans (the row
    repeats the current node) and pin environment variables at given
    steps, from step 0 on and under every adversary: the adversary then
    picks among the matching moves, or among all of them when none match.
    `td` is the step length in seconds, which fills the time column and
    paces the run.  ValueError when `max_steps` is below 1, `td` is not
    positive, or `max_steps * td` is not finite, since the time column
    would then hold `inf` or `nan`.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    if td <= 0:
        raise ValueError(f"td = {td} must be a positive number of seconds")
    if not (max_steps <= sys.float_info.max
            and np.isfinite(max_steps * float(td))):
        raise ValueError(f"max_steps * td = {max_steps} * {td} is not finite")
    pins = _pins(events, strategy.env_names)
    away_events = {ev.step: ev for ev in events if ev.human_away is not None}

    first = np.sort(np.unique(strategy.init_env, axis=0, return_index=True)[1])
    if not len(first):
        raise StrategyHole("strategy has no initial nodes")
    k = 0
    if len(first) > 1:
        k = _pick(adversary, 0, None, strategy.init_env[first],
                  strategy.names, pins.get(0))
    nid = int(strategy.init_node[first[k]])

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
        else:
            nid = _advance(strategy, nid, adversary, k, pins.get(k))
        path.append(nid)
    step = np.arange(max_steps + 1)
    return Trace(strategy.names, strategy.node_vals[path], step,
                 step * float(td), np.array(away))


# --------------------------------------------------------------------------
# CSV rendering


def _scenario_shape(names):
    """Workstation cell index n when `names` are exactly the scenario's
    variables bl, s, o1..o(n-1), stalled, rs, act, hf and tries, else None:
    the scenario layout has no column for any other variable."""
    n = 1
    while f"o{n}" in names:
        n += 1
    scenario = {"bl", "s", "stalled", "rs", "act", "hf", "tries",
                *(f"o{j}" for j in range(1, n))}
    return n if set(names) == scenario else None


def _scenario_head(n):
    """The scenario layout's variable columns for workstation cell n."""
    return ["RS", "BL", "HF", "tries", "S", *(f"O{j}" for j in range(1, n)),
            "mode", "ACT"]


def write_csv(trace, fp):
    """Render a trace as CSV; a trace of exactly the work-delivery
    variables gets the scenario header with derived mode and action columns
    (`read_csv` rebuilds `stalled` from BL), any other one column per
    variable.  One row template formats every row, and the whole text goes
    out in one write."""
    n = _scenario_shape(trace.names)
    if n is None:
        head, cols = list(trace.names), list(range(len(trace.names)))
        cells = ["%d"] * len(cols)
    else:
        head = _scenario_head(n)
        cols = [trace.names.index(k.lower()) for k in head if k != "mode"]
        cells = ["%d"] * (len(cols) - 1) + ["%s", "Go_S%d"]
    columns = trace.vals[:, cols].T.tolist()
    if n is not None:
        columns.insert(-1, wd.human_mode(trace.vals[:, cols[0]],
                                         trace.vals[:, cols[1]], n))
    row = ",".join(["%d", "%s", *cells, "%d"]) + "\n"
    fp.write(",".join(["step", "time_s", *head, "human_away"]) + "\n" + "".join(
        map(row.__mod__, zip(trace.step.tolist(),
                             map(_fmt_time, trace.time_s.tolist()), *columns,
                             trace.human_away.astype(int).tolist()))))


def _fmt_time(x):
    return str(int(x)) if float(x).is_integer() else f"{x:g}"


def read_csv(fp):
    """Parse a trace CSV back into a Trace (inverse of write_csv).  The
    scenario layout is read only from a header of exactly its columns, the
    rule `write_csv` applies to variables."""
    header = fp.readline().strip().split(",")
    if header[:2] != ["step", "time_s"]:
        raise ValueError("not a trace CSV")
    table = [line.split(",") for line in map(str.strip, fp) if line]
    if any(len(fields) != len(header) for fields in table):
        raise ValueError("every row needs one field per header column")
    col = dict(zip(header, zip(*table) if table else [()] * len(header)))
    away = np.array(col["human_away"], dtype=np.int64) != 0
    fields = [h for h in header[2:] if h != "human_away"]
    n = 1
    while f"O{n}" in fields:
        n += 1
    scenario = set(fields) == set(_scenario_head(n))
    if scenario:
        obstacles = [f"O{j}" for j in range(1, n)]
        names = ("bl", "s", *map(str.lower, obstacles), "stalled", "rs", "act",
                 "hf", "tries")
        # the stalled bit is not a CSV column: BL stands in for it here
        columns = ["BL", "S", *obstacles, "BL", "RS", "ACT", "HF", "tries"]
        col["ACT"] = [act.replace("Go_S", "") for act in col["ACT"]]
    else:
        names = columns = tuple(fields)
    vals = np.array([col[h] for h in columns], dtype=np.int64).reshape(
        len(columns), len(table)).T
    if scenario:
        vals[:, names.index("stalled")] = _stalled(vals[:, 0], away)
    return Trace(names, vals, np.array(col["step"], dtype=np.int64),
                 np.array(col["time_s"], dtype=np.float64), away)


def _stalled(bl, away):
    """The scenario's deterministic stalled update: 0 on the first row,
    backlog unchanged across a non-frozen row, held through frozen rows."""
    same = np.r_[False, bl[1:] == bl[:-1]]
    last = np.maximum.accumulate(np.where(away, 0, np.arange(len(bl))))
    return same[last]
