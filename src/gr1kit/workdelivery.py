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
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidParams
from . import speclang as sl
from .speclang import (Cmp, Iff, Implies, Not, SpecDocument, VarDecl,
                       conj, const, disj, t, tp, v, vp)


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
    td_seconds: float = 10.0      # wall-clock seconds per step
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
        if self.td_seconds <= 0:
            raise InvalidParams("td_seconds must be positive")
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
            elif key == "td_seconds":
                kwargs[key] = float(raw)
            elif key == "hf_init":
                kwargs[key] = _FLAGS[raw.strip().lower()]
            else:
                kwargs[key] = int(raw)
        except (KeyError, ValueError):
            raise InvalidParams(
                f"parameter {key} has a bad value {raw!r}") from None
    return WorkDeliveryParams(**kwargs).validate()


def _eq(term_a, term_b):
    return Cmp("=", term_a, term_b)


def _drop_options(bl_name, k_max, gamma, bl_max):
    """bl' ranges over { max(bl - k*gamma, 0) : 0 <= k <= k_max }."""
    opts = []
    for k in range(k_max + 1):
        red = k * gamma
        if red == 0:
            opts.append(_eq(tp(bl_name), t(bl_name)))
        elif red <= bl_max:
            opts.append(conj(Cmp(">=", t(bl_name), const(red)),
                             _eq(tp(bl_name), t(bl_name, -red))))
    if k_max * gamma >= 1:
        opts.append(conj(Cmp("<=", t(bl_name), const(k_max * gamma)),
                         _eq(tp(bl_name), const(0))))
    return disj(*opts)


def emit_spec(p: WorkDeliveryParams) -> SpecDocument:
    """Emit the full scenario as a validated SpecDocument."""
    p.validate()
    n, gamma, delta = p.n, p.gamma_units, p.delta_units
    doc = SpecDocument()

    doc.vars.append(VarDecl("bl", sl.ENV, 0, p.bl_max, False))
    doc.vars.append(VarDecl("s", sl.ENV, 0, 1, True))
    for name in p.obstacle_names():
        doc.vars.append(VarDecl(name, sl.ENV, 0, 1, True))
    doc.vars.append(VarDecl("stalled", sl.ENV, 0, 1, True))
    doc.vars.append(VarDecl("rs", sl.SYS, 0, n, False))
    doc.vars.append(VarDecl("act", sl.SYS, 0, n, False))
    doc.vars.append(VarDecl("hf", sl.SYS, 0, 1, True))
    doc.vars.append(VarDecl("tries", sl.SYS, 0, 2, False))

    # ---- initial conditions -------------------------------------------
    lo, hi = p.bl_init_range()
    if lo == hi:
        doc.env_init.append(_eq(t("bl"), const(lo)))
    else:
        doc.env_init.append(Cmp(">=", t("bl"), const(lo)))
        doc.env_init.append(Cmp("<=", t("bl"), const(hi)))
    doc.env_init.append(Not(v("s")))
    for name in p.obstacle_names():
        doc.env_init.append(Not(v(name)))
    doc.env_init.append(Not(v("stalled")))

    doc.sys_init.append(_eq(t("rs"), const(0)))
    doc.sys_init.append(_eq(t("act"), const(0)))
    doc.sys_init.append(v("hf") if p.hf_init else Not(v("hf")))
    doc.sys_init.append(_eq(t("tries"), const(0)))
    doc.sys_init.append(Cmp(">=", t("bl"), const(1)))
    doc.sys_init.append(Cmp("<=", t("bl"), const(p.bl_upper)))

    # ---- environment safety -------------------------------------------
    env = doc.env_safety
    for j in p.interior():
        name = f"o{j}"
        # an obstructing person leaves by the next step
        env.append(Implies(v(name), Not(vp(name))))
        # nobody steps into the cell the robot is entering
        env.append(Implies(_eq(t("act"), const(j)), Not(vp(name))))
        # new obstructions only appear away from the robot
        far = []
        if j - 2 >= 0:
            far.append(Cmp("<=", t("rs"), const(j - 2)))
        if j + 2 <= n:
            far.append(Cmp(">=", t("rs"), const(j + 2)))
        if far:
            env.append(Implies(conj(Not(v(name)), vp(name)), disj(*far)))
        else:
            env.append(Not(vp(name)))

    arriving = conj(_eq(t("act"), const(n)),
                    Cmp("!=", t("rs"), const(n)))
    holding = conj(_eq(t("act"), const(n)), _eq(t("rs"), const(n)))
    attempt_first = conj(_eq(t("act"), const(0)),
                         Cmp("!=", t("rs"), const(0)), v("hf"))
    attempt_retry = conj(_eq(t("rs"), const(0)), v("hf"),
                         _eq(t("tries"), const(1)), Not(v("s")))
    dropping = conj(Cmp("!=", t("act"), const(n)),
                    Cmp(">=", t("bl"), const(1)),
                    v("hf"),
                    disj(conj(_eq(t("act"), const(0)),
                              Cmp("!=", t("rs"), const(0))),
                         conj(_eq(t("tries"), const(1)), Not(v("s")))))
    moving = conj(Cmp("!=", t("act"), const(n)),
                  Cmp(">=", t("bl"), const(1)),
                  Not(conj(v("hf"),
                           disj(conj(_eq(t("act"), const(0)),
                                     Cmp("!=", t("rs"), const(0))),
                               conj(_eq(t("tries"), const(1)), Not(v("s")))))))
    waiting = conj(Cmp("!=", t("act"), const(n)), _eq(t("bl"), const(0)))

    # a second dropoff try always succeeds
    env.append(Implies(attempt_retry, vp("s")))
    # the success flag is only raised during an attempt
    env.append(Implies(vp("s"), disj(attempt_first, attempt_retry)))

    if p.bl_max - delta >= 0:
        env.append(Implies(conj(arriving,
                                Cmp("<=", t("bl"), const(p.bl_max - delta))),
                           _eq(tp("bl"), t("bl", delta))))
    if p.bl_max - delta + 1 <= p.bl_max:
        env.append(Implies(conj(arriving,
                                Cmp(">=", t("bl"), const(p.bl_max - delta + 1))),
                           _eq(tp("bl"), const(p.bl_max))))
    env.append(Implies(holding, _eq(tp("bl"), t("bl"))))
    env.append(Implies(waiting, _eq(tp("bl"), t("bl"))))
    env.append(Implies(dropping,
                       _drop_options("bl", p.k_drop, gamma, p.bl_max)))
    env.append(Implies(moving,
                       _drop_options("bl", p.k_move, gamma, p.bl_max)))
    # a backlog frozen outside station visits must move next step
    env.append(Implies(conj(v("stalled"),
                            Cmp("!=", t("act"), const(n)),
                            Cmp(">=", t("bl"), const(1))),
                       Cmp("<=", tp("bl"), t("bl", -1))))
    env.append(Iff(vp("stalled"), _eq(tp("bl"), t("bl"))))

    # ---- system safety --------------------------------------------------
    sys_ = doc.sys_safety
    sys_.append(_eq(tp("rs"), t("act")))
    sys_.append(Cmp("<=", tp("act"), tp("rs", 1)))
    sys_.append(Cmp(">=", tp("act"), tp("rs", -1)))
    for j in p.interior():
        sys_.append(Implies(_eq(tp("act"), const(j)), Not(vp(f"o{j}"))))
    sys_.append(Cmp(">=", tp("bl"), const(1)))
    sys_.append(Cmp("<=", tp("bl"), const(p.bl_upper)))

    pickup = conj(_eq(t("rs"), const(n)), _eq(t("act"), const(n - 1)))
    release = conj(_eq(t("rs"), const(0)), v("hf"), v("s"))
    sys_.append(Implies(pickup, vp("hf")))
    sys_.append(Implies(release, Not(vp("hf"))))
    sys_.append(Implies(conj(Not(pickup), Not(release)),
                        Iff(vp("hf"), v("hf"))))

    sys_.append(Implies(attempt_first, _eq(tp("tries"), const(1))))
    sys_.append(Implies(attempt_retry, _eq(tp("tries"), const(2))))
    sys_.append(Implies(conj(Not(attempt_first), Not(attempt_retry)),
                        _eq(tp("tries"), const(0))))
    # finish the retry in place
    sys_.append(Implies(attempt_retry, _eq(tp("act"), const(0))))

    # ---- liveness --------------------------------------------------------
    doc.sys_liveness.append(conj(_eq(t("rs"), const(0)), v("hf")))

    return sl.validate_document(doc)


def emit_text(p: WorkDeliveryParams) -> str:
    return sl.print_spec(emit_spec(p))


# --------------------------------------------------------------------------
# reference dynamics (used by the simulator and the cross-checks)


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
