"""Work delivery and pickup scenario: generator and reference dynamics.

A robot shuttles along a 1-D line of N+1 cells between an inventory station
(cell 0) and a human workstation (cell N), delivering fresh work and
returning completed work.  The environment owns the human-side quantities:
the work backlog ``bl`` (0..bl_max units), dropoff success ``s``, passing
obstacles ``o1..o{N-1}`` in the interior cells, and a one-bit ``stalled``
history flag recording that the backlog just stayed constant.  The system
owns the robot: position ``rs``, committed motion ``act`` (the cell being
moved to; position catches up one step later), hand-full flag ``hf`` and
the dropoff attempt counter ``tries``.

Timing convention: the system commits ``act`` one step before arrival, so
the environment can read the motion in progress when resolving the next
backlog value.  That is what lets the backlog refill land exactly on the
arrival step without any extra history variables.

Backlog dynamics per step, all resolved by the environment:

* arriving at cell N refills by ``delta`` (clamped to bl_max);
* holding position at cell N freezes the backlog;
* with no work left (bl = 0) the human waits and the backlog stays 0;
* during a dropoff attempt the backlog drops by 0..k_drop units;
* otherwise it drops by 0..k_move units;
* a constant backlog two steps in a row forces a strict drop next step.

The system must keep ``1 <= bl <= bl_upper`` forever and return to the
inventory station with completed work infinitely often.

The scenario is written once, as spec text: ``emit_text`` writes it in the
canonical form that ``speclang.print_spec`` gives, and ``emit_spec`` parses
that text, so the parser's validator checks it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidParams
from . import speclang as sl


@dataclass(frozen=True)
class WorkDeliveryParams:
    n: int = 3                    # workstation cell index; grid is 0..n
    bl_max: int = 30              # backlog units for 100%
    gamma_units: int = 1          # work completed per step, in units
    delta_units: int = 15         # refill amount, in units
    bl_upper: int = 26            # hard ceiling the controller must keep
    k_move: int = 2               # max gamma multiplier while moving
    k_drop: int = 5               # max gamma multiplier during dropoff
    bl_init: object = 15          # int, or (lo, hi) for a range
    hf_init: bool = False

    def bl_init_range(self):
        if isinstance(self.bl_init, tuple):
            return self.bl_init
        return (int(self.bl_init), int(self.bl_init))

    def validate(self):
        lo, hi = self.bl_init_range()
        if self.n < 1:
            raise InvalidParams("need at least one cell besides the station")
        if self.gamma_units <= 0:
            raise InvalidParams("gamma must be positive")
        if not (0 < self.delta_units <= self.bl_max):
            raise InvalidParams("delta must be in 1..bl_max")
        if not (0 < self.bl_upper <= self.bl_max):
            raise InvalidParams("bl_upper must be in 1..bl_max")
        if self.k_move > self.k_drop:
            raise InvalidParams("k_move must not exceed k_drop")
        if self.k_move < 1:
            raise InvalidParams("k_move must be at least 1")
        if not (0 <= lo <= hi <= self.bl_max):
            raise InvalidParams("bl_init outside 0..bl_max")
        return self

    def interior(self):
        return range(1, self.n)

    def obstacle_names(self):
        return [f"o{j}" for j in self.interior()]


PARAM_KEYS = tuple(f.name for f in fields(WorkDeliveryParams))
_FLAGS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}


def params_from_items(items):
    """Build params from string key=value pairs (config file / CLI)."""
    kwargs = {}
    for key, raw in items:
        if key not in PARAM_KEYS:
            raise InvalidParams(f"unknown parameter {key!r}")
        try:
            if key == "bl_init":
                if ".." in raw:
                    lo, hi = raw.split("..", 1)
                    kwargs[key] = (int(lo), int(hi))
                else:
                    kwargs[key] = int(raw)
            elif key == "hf_init":
                kwargs[key] = _FLAGS[raw.strip().lower()]
            else:
                kwargs[key] = int(raw)
        except (KeyError, ValueError):
            raise InvalidParams(
                f"parameter {key} has a bad value {raw!r}") from None
    return WorkDeliveryParams(**kwargs).validate()


def _drop_options(k_max, gamma, bl_max):
    """bl' ranges over { max(bl - k*gamma, 0) : 0 <= k <= k_max }."""
    opts = ["bl' = bl"]
    opts += [f"bl >= {k * gamma} & bl' = bl - {k * gamma}"
             for k in range(1, k_max + 1) if k * gamma <= bl_max]
    return " | ".join(opts + [f"bl <= {k_max * gamma} & bl' = 0"])


def emit_text(p: WorkDeliveryParams) -> str:
    """The full scenario as canonical spec text: the bytes ``print_spec``
    writes for it, nested conjunctions in parentheses included."""
    p.validate()
    n, bl_max, delta = p.n, p.bl_max, p.delta_units
    lo, hi = p.bl_init_range()
    obstacles = p.obstacle_names()
    arriving = f"act = {n} & rs != {n}"
    attempt_first = "act = 0 & rs != 0 & hf"
    attempt_retry = "rs = 0 & hf & tries = 1 & !s"
    attempting = "hf & (act = 0 & rs != 0 | tries = 1 & !s)"
    pickup = f"rs = {n} & act = {n - 1}"
    release = "rs = 0 & hf & s"

    env_trans = []
    for j in p.interior():
        far = [f"rs <= {j - 2}"] * (j >= 2) + [f"rs >= {j + 2}"] * (j + 2 <= n)
        env_trans += [
            # an obstructing person leaves by the next step
            f"o{j} -> !o{j}'",
            # nobody steps into the cell the robot is entering
            f"act = {j} -> !o{j}'",
            # new obstructions only appear away from the robot
            f"!o{j} & o{j}' -> {' | '.join(far)}" if far else f"!o{j}'"]
    env_trans += [
        # a second dropoff try always succeeds
        f"{attempt_retry} -> s'",
        # the success flag is only raised during an attempt
        f"s' -> {attempt_first} | {attempt_retry}",
        f"({arriving}) & bl <= {bl_max - delta} -> bl' = bl + {delta}",
        f"({arriving}) & bl >= {bl_max - delta + 1} -> bl' = {bl_max}",
        f"act = {n} & rs = {n} -> bl' = bl",
        f"act != {n} & bl = 0 -> bl' = bl",
        f"act != {n} & bl >= 1 & {attempting} -> "
        + _drop_options(p.k_drop, p.gamma_units, bl_max),
        f"act != {n} & bl >= 1 & !({attempting}) -> "
        + _drop_options(p.k_move, p.gamma_units, bl_max),
        # a backlog frozen outside station visits must move next step
        f"stalled & act != {n} & bl >= 1 -> bl' <= bl - 1",
        "stalled' <-> bl' = bl"]

    sections = (                    # in the order of speclang.SECTIONS
        [f"bl : 0..{bl_max}", "s : bool",
         *(f"{o} : bool" for o in obstacles), "stalled : bool"],
        [f"rs : 0..{n}", f"act : 0..{n}", "hf : bool", "tries : 0..2"],
        ([f"bl = {lo}"] if lo == hi else [f"bl >= {lo}", f"bl <= {hi}"])
        + ["!s", *(f"!{o}" for o in obstacles), "!stalled"],
        ["rs = 0", "act = 0", "hf" if p.hf_init else "!hf", "tries = 0",
         "bl >= 1", f"bl <= {p.bl_upper}"],
        env_trans,
        ["rs' = act", "act' <= rs' + 1", "act' >= rs' - 1",
         *(f"act' = {j} -> !o{j}'" for j in p.interior()),
         "bl' >= 1", f"bl' <= {p.bl_upper}",
         f"{pickup} -> hf'", f"{release} -> !hf'",
         f"!({pickup}) & !({release}) -> (hf' <-> hf)",
         f"{attempt_first} -> tries' = 1", f"{attempt_retry} -> tries' = 2",
         f"!({attempt_first}) & !({attempt_retry}) -> tries' = 0",
         # finish the retry in place
         f"{attempt_retry} -> act' = 0"],
        [],
        ["rs = 0 & hf"],
    )
    return "\n".join(line for header, body in zip(sl.SECTIONS, sections)
                     for line in (header, *body, ""))


def emit_spec(p: WorkDeliveryParams) -> sl.SpecDocument:
    """The full scenario as a SpecDocument, parsed from ``emit_text``."""
    return sl.parse_spec(emit_text(p))


# --------------------------------------------------------------------------
# reference dynamics: demo 04 prints `human_mode` beside trace rows; the rest
# is a test oracle


WORK, WAIT, REFILL = "work", "wait", "refill"


@dataclass(frozen=True)
class WorldState:
    n: int
    bl: int
    rs: int
    act: int
    hf: bool
    tries: int
    s: bool
    obstacles: tuple = ()
    stalled: bool = False


def human_mode(rs, bl, n):
    """Derived human mode, from robot position `rs` and backlog `bl` (ints,
    or int arrays giving a list): refill at the workstation `n`, wait on
    empty backlog, work otherwise."""
    return np.where(rs == n, REFILL, np.where(bl == 0, WAIT, WORK)).tolist()


def dropoff_attempt(state: WorldState) -> bool:
    """True on steps where the robot is attempting the inventory dropoff:
    carrying work while arriving at cell 0, or with a failed first try
    still pending."""
    arriving = state.act == 0 and state.rs != 0
    retrying = state.tries == 1 and not state.s
    return state.hf and (arriving or retrying)


def backlog_successors(state: WorldState, p: WorkDeliveryParams) -> set:
    """Next backlog values the environment may legally pick."""
    bl, gamma = state.bl, p.gamma_units
    if state.act == p.n and state.rs != p.n:
        return {min(bl + p.delta_units, p.bl_max)}
    if state.act == p.n and state.rs == p.n:
        return {bl}
    if bl == 0:
        return {0}
    k_max = p.k_drop if dropoff_attempt(state) else p.k_move
    out = {max(bl - k * gamma, 0) for k in range(k_max + 1)}
    if state.stalled:
        out.discard(bl)
    return out
