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
``Strategy.node_vals``, plus step, time and human-away columns.  Its CSV
form is ``step,time_s``, one column per variable in trace order, then
``human_away``; every trace's variables, steps and away flags read back
as written.
"""

from __future__ import annotations

import random
import sys
import threading
import time as _time
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import AdversaryIllegalMove, StrategyHole


@dataclass(frozen=True)
class ScriptedEvent:
    step: int
    overrides: tuple = ()        # ((name, value), ...)
    human_away: int | None = None
    duration: int = 0


def parse_events(text):
    """Parse an events file: ``step=<n> set <var>=<val> ...`` or
    ``step=<n> human_away=<0|1> [duration=<steps>]`` per line; ValueError
    on any token it does not read, on a ``human_away=1`` line without a
    positive duration, on a positive duration of a ``human_away=0`` line,
    and on two away events at one step: each would be dropped."""
    events, away_steps = [], set()
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
                duration, rest = 0, toks[2:]
                if rest and rest[0].startswith("duration="):
                    duration, rest = int(rest[0][9:]), rest[1:]
                if rest:
                    raise ValueError(f"unknown token {rest[0]!r}")
                if duration < 0:
                    raise ValueError("duration must be at least 0")
                if bool(duration) != bool(away):
                    raise ValueError("human_away=1 takes a positive "
                                     "duration, human_away=0 none")
                if step in away_steps:
                    raise ValueError(f"a second away event at step {step}")
                away_steps.add(step)
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
    """Policy of the given kind.  ``scripted`` is the uniform random policy;
    `events` is ignored, as ``run`` applies the pins under every adversary."""
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
    variable that is not an environment variable or is set twice at one
    step, as no move could match such a pin."""
    pins = {}
    for ev in events:
        for name, val in ev.overrides:
            if name not in env_names:
                raise ValueError(
                    f"event at step {ev.step} sets {name!r}, which is not "
                    f"an environment variable ({', '.join(env_names)})")
            if name in pins.setdefault(ev.step, {}):
                raise ValueError(f"step {ev.step} sets {name!r} twice")
            pins[ev.step][name] = val
    return {step: (list(map(env_names.index, vals)), list(vals.values()))
            for step, vals in pins.items()}


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
    transition.  `events` freeze the world for human-away spans and pin
    environment variables at given steps, both from step 0 on.  A span of
    d steps from step k marks rows k to k + d - 1 away, each repeating
    the current node.  Pins hold under every adversary: the adversary
    picks among the matching moves, or among all of them when none match.
    `td` is the step length in seconds, which fills the time column and
    paces the run.  ValueError when `max_steps` is below 1, `td` is not
    positive, or `max_steps * td` is not finite, since the time column
    would then hold `inf` or `nan`, and when a paced `td` is longer than
    the longest sleep (`threading.TIMEOUT_MAX`).
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    if td <= 0:
        raise ValueError(f"td = {td} must be a positive number of seconds")
    if not (max_steps <= sys.float_info.max
            and np.isfinite(max_steps * float(td))):
        raise ValueError(f"max_steps * td = {max_steps} * {td} is not finite")
    if pace and td > threading.TIMEOUT_MAX:
        raise ValueError(f"td = {td} is longer than the longest sleep, "
                         f"{threading.TIMEOUT_MAX:.0f} s")
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

    # row 0 is the initial snapshot: an away span may start there too
    path, away, frozen = [], [], 0
    for k in range(max_steps + 1):
        if pace and k:
            _time.sleep(td)
        ev = away_events.get(k)
        if ev is not None:
            frozen = ev.duration if ev.human_away else 0
        away.append(frozen > 0)
        if frozen > 0:
            frozen -= 1
        elif k:
            nid = _advance(strategy, nid, adversary, k, pins.get(k))
        path.append(nid)
    step = np.arange(max_steps + 1)
    return Trace(strategy.names, strategy.node_vals[path], step,
                 step * float(td), np.array(away))


# --------------------------------------------------------------------------
# CSV rendering


def write_csv(trace, fp):
    """Render a trace as CSV.  One row template formats every row, and the
    whole text goes out in one write."""
    row = ",".join(["%d", "%s", *["%d"] * len(trace.names), "%d"]) + "\n"
    fp.write(",".join(["step", "time_s", *trace.names, "human_away"]) + "\n" +
             "".join(map(row.__mod__, zip(
                 trace.step.tolist(), map(_fmt_time, trace.time_s.tolist()),
                 *trace.vals.T.tolist(),
                 trace.human_away.astype(int).tolist()))))


def _fmt_time(x):
    # repr is the shortest text that reads back as the same float
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def read_csv(fp):
    """Parse a trace CSV back into a Trace (inverse of write_csv).  The
    header is read by position, so a variable may be named like a fixed
    column; ValueError on any other header shape, on a variable named in
    two columns, or on a row whose field count differs from the header's."""
    header = fp.readline().strip().split(",")
    if header[:2] != ["step", "time_s"] or header[-1] != "human_away":
        raise ValueError("not a trace CSV: the header must be "
                         "step,time_s,<variables>,human_away")
    names = tuple(header[2:-1])
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"variables in two columns: {', '.join(repeated)}")
    table = [line.split(",") for line in map(str.strip, fp) if line]
    if any(len(fields) != len(header) for fields in table):
        raise ValueError("every row needs one field per header column")
    cols = list(zip(*table)) if table else [()] * len(header)
    vals = np.array(cols[2:-1], dtype=np.int64).reshape(
        len(names), len(table)).T
    return Trace(names, vals, np.array(cols[0], dtype=np.int64),
                 np.array(cols[1], dtype=np.float64),
                 np.array(cols[-1], dtype=np.int64) != 0)
