"""Inputs, timed jobs and correctness gates of the four workloads.

Every job is closed loop: one caller, the next job starts only after the
previous one returned.  Jobs are grouped into five stages; ``Round.stage``
times a stage's calls into gr1kit and nothing else, so the checks of the
correctness gate run outside the timed regions.

Each gate check compares against a reference that does not come from the
code under test: verdicts and exit codes fixed by the scenario, winning
region digests recorded at the seed commit (``reference.json``), the
brute-force oracle, and closure / safety / lasso verdicts.  Controller
digests are compared too, but a difference is only reported.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import random
import statistics
import time
from collections import defaultdict

import numpy as np

from gr1kit import arena as ar
from gr1kit import check as ck
from gr1kit import cli
from gr1kit import gr1
from gr1kit import sim
from gr1kit import speclang as sl
from gr1kit import workdelivery as wd

STAGES = ("synth", "assume", "simulate", "check", "corpus")
STEPS = 180                     # 30 minutes at 10 s per step
GREEDY = ("min-bl", "max-bl")
REDUCED = dict(n=2, bl_max=10, gamma_units=1, delta_units=5, bl_upper=9,
               k_move=1, k_drop=2)
LADDER = (("n3", dict(), 0),
          ("n4_k1k3", dict(n=4, k_move=1, k_drop=3), 0),
          ("n4", dict(n=4), 10))
ASSUMPTIONS = (("o1", ("!o1",)),
               ("o1_o2", ("!o1", "!o2")),
               ("o1_o2_stalled", ("!o1", "!o2", "!stalled")))
REDUCED_ASSUMPTIONS = (("o1", ("!o1",)),
                       ("o1_stalled", ("!o1", "!stalled")))
VERIFY_BL_INIT = (9, 12, 26)
VERIFY_RANDOM_RUNS = 8          # random-adversary runs per controller
CORPUS_ARENAS = 1200            # ar.random_arena games (up to 200 states)
CORPUS_SPECS = 400              # random spec texts (up to 81 states)


def band_bl_init(seed):
    """An initial backlog inside the realizable band 9..26."""
    return 9 + seed % 18


def region_digest(mask):
    mask = np.asarray(mask, dtype=bool)
    h = hashlib.sha256(np.packbits(mask).tobytes())
    h.update(str(mask.size).encode())
    return h.hexdigest()[:16]


def controller_digest(strategy):
    """Digest of the strategy JSON exactly as ``Strategy.save`` writes it."""
    text = json.dumps(strategy.to_obj()) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def file_digest(path):
    with open(path, "rb") as fp:
        return hashlib.sha256(fp.read()).hexdigest()[:16]


CALIBRATION_S = 0.05     # calibrate() on the reference machine, unloaded
CALIBRATION_EVERY_S = 0.5
CALIBRATION_WINDOW_S = 0.5


def _tiny_eval(expr, env):
    op = expr[0]
    if op == "var":
        return bool(env[expr[1]])
    if op == "lt":
        return env[expr[1]] < expr[2]
    if op == "not":
        return not _tiny_eval(expr[1], env)
    if op == "and":
        return all(_tiny_eval(e, env) for e in expr[1:])
    return any(_tiny_eval(e, env) for e in expr[1:])


def calibrate():
    """Seconds for a fixed piece of work that does not use gr1kit: about
    half Python (dict updates, a recursive evaluator over tuples) and half
    numpy (sorts, gathers, counts), like gr1kit's own mix."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(20_000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + i * 7 % 11
    expr = ("and", ("not", ("var", "a")),
            ("or", ("lt", "b", 3), ("var", "c")), ("lt", "b", 4))
    env = {"a": 0, "b": 0, "c": 1}
    for i in range(8_000):
        env["b"] = i % 5
        _tiny_eval(expr, env)
    a = np.arange(200_000, dtype=np.int64)
    for _ in range(2):
        np.bincount(a % 1013)
        np.unique(a % 4099)
        a = a[np.argsort(a % 17, kind="stable")]
    return time.perf_counter() - t0


class Calibrator:
    """Calibration samples of one run, with the time each was taken."""

    def __init__(self):
        self.samples = []        # (perf_counter at the end, seconds)
        self.sample()

    def sample(self):
        took = calibrate()
        self.samples.append((time.perf_counter(), took))

    def due(self):
        if time.perf_counter() - self.samples[-1][0] >= CALIBRATION_EVERY_S:
            self.sample()

    def speed(self, t0, t1):
        """Median sample within CALIBRATION_WINDOW_S of [t0, t1] (else the
        nearest one), over CALIBRATION_S: 1 on the unloaded reference
        machine, above 1 when the machine runs slower."""
        lo, hi = t0 - CALIBRATION_WINDOW_S, t1 + CALIBRATION_WINDOW_S
        near = [took for at, took in self.samples if lo <= at <= hi]
        if not near:
            near = [min(self.samples,
                        key=lambda s: min(abs(s[0] - t0), abs(s[0] - t1)))[1]]
        return statistics.median(near) / CALIBRATION_S


class Round:
    """Stage times and bench-side counts of one pass over a workload.

    With a `calibrator`, speed samples are taken between stages when one
    is due, outside the timed regions."""

    def __init__(self, tracer=None, calibrator=None):
        self.stage_s = defaultdict(float)
        self.games = 0
        self.notes = defaultdict(int)
        self.tracer = tracer
        self.calibrator = calibrator
        self.span = (time.perf_counter(), None)
        self.speed = 1.0

    @contextlib.contextmanager
    def stage(self, name, job):
        tracer = self.tracer
        if tracer is not None:
            tracer.job = job
            tracer.active = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stage_s[name] += time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            if self.calibrator is not None:
                self.calibrator.due()

    def close(self):
        self.span = (self.span[0], time.perf_counter())

    @property
    def wall(self):
        return sum(self.stage_s.values())


class Gate:
    """Attempted and failed operations, plus digests that changed."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.changed = set()

    def record(self, job, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{job}: {'; '.join(problems)}")

    @contextlib.contextmanager
    def guard(self, job):
        # a job that raises counts as one failed operation; the run goes on
        try:
            yield
        except Exception as exc:
            self.record(job, [f"{type(exc).__name__}: {exc}"])

    def region(self, key, mask, problems):
        want = self.reference["region"][key]
        got = None if mask is None else region_digest(mask)
        if got != want:
            problems.append(f"winning region digest {got} != {want}")

    def controller(self, key, digest):
        want = self.reference["controller"].get(key)
        if want is not None and digest != want:
            self.changed.add(key)


@contextlib.contextmanager
def capture(owner, attr):
    """Keep the return values of owner.attr while the block runs."""
    fn = getattr(owner, attr)
    seen = []

    @functools.wraps(fn)
    def keep(*args, **kwargs):
        out = fn(*args, **kwargs)
        seen.append(out)
        return out

    setattr(owner, attr, keep)
    try:
        yield seen
    finally:
        setattr(owner, attr, fn)


# --------------------------------------------------------------------------
# inputs


@dataclasses.dataclass
class Rung:
    key: str
    spec: str
    out: str
    expect: int
    bl_init: int | None


@dataclasses.dataclass
class Variant:
    key: str
    env_live: list


@dataclasses.dataclass
class Controller:
    key: str
    doc: object
    arena: object
    result: object
    path: str
    bl_upper: int
    runs: list                  # (tag, adversary kind, seed, events)


def write_spec(workdir, name, params):
    path = os.path.join(workdir, f"{name}.spec")
    with open(path, "w") as fp:
        fp.write(wd.emit_text(wd.WorkDeliveryParams(**params)))
    return path


def scenario_runs(strategy, seed, n_random):
    """Random runs, both greedy adversaries and one scripted run with a
    human-away span and a forced dropoff miss, all derived from `seed`."""
    rng = random.Random(seed)
    runs = [(f"random{k}", "random", seed * 1000 + k, ())
            for k in range(n_random)]
    runs += [(kind, kind, 0, ()) for kind in GREEDY]
    away = sim.parse_events(f"step={rng.randint(20, 80)} human_away=1 "
                            f"duration={rng.randint(5, 20)}")
    script_seed = seed * 1000 + 999
    probe = sim.run(strategy, sim.make_adversary("scripted", script_seed,
                                                 away), STEPS, events=away)
    miss = next((r.index for r in probe.rows[1:]
                 if r.state["tries"] == 1 and not r.human_away), None)
    events = away
    if miss is not None:
        events = sorted(away + sim.parse_events(f"step={miss} set s=0"),
                        key=lambda ev: ev.step)
    runs.append(("scripted", "scripted", script_seed, events))
    return runs


def controllers(workdir, seed, params, bl_inits, n_random, prefix):
    """Synthesize, save and describe one controller per initial backlog,
    over one compiled arena and one solve."""
    base = wd.emit_spec(wd.WorkDeliveryParams(bl_init=bl_inits[0], **params))
    arena = ar.build_arena(base)
    result = gr1.solve(arena, base.env_liveness, base.sys_liveness)
    out = []
    for b in bl_inits:
        doc = wd.emit_spec(wd.WorkDeliveryParams(bl_init=b, **params))
        arena_b = ar.with_inits(arena, doc)
        result_b = dataclasses.replace(
            result, realizable=gr1.is_realizable(result, arena_b))
        strategy = gr1.extract_strategy(result_b, arena_b)
        path = os.path.join(workdir, f"{prefix}bl{b}.json")
        strategy.save(path)
        out.append(Controller(
            key=f"{prefix}bl{b}", doc=doc, arena=arena_b, result=result_b,
            path=path, bl_upper=wd.WorkDeliveryParams(**params).bl_upper,
            runs=scenario_runs(strategy, seed + b, n_random)))
    return out


def variants(specs):
    return [Variant(key, [sl.parse_expr(text) for text in exprs])
            for key, exprs in specs]


def _decl(rng, name):
    if rng.random() < 0.5:
        return name, None
    return name, rng.randint(1, 2)


def _atom(rng, decls, primed):
    name, hi = rng.choice(decls)
    mark = "'" if name in primed and rng.random() < 0.5 else ""
    if hi is None:
        return f"{'!' if rng.random() < 0.4 else ''}{name}{mark}"
    op = rng.choice(("=", "!=", "<", "<=", ">", ">="))
    if rng.random() < 0.3:
        other, other_hi = rng.choice(decls)
        if other_hi is not None:
            offset = rng.randint(-1, 1)
            sign = "-" if offset < 0 else "+"
            return f"{name}{mark} {op} {other} {sign} {abs(offset)}"
    return f"{name}{mark} {op} {rng.randint(0, hi)}"


def _clause(rng, decls, primed=()):
    text = _atom(rng, decls, primed)
    for _ in range(rng.randint(0, 2)):
        op = rng.choice(("&", "|", "->", "<->"))
        text = f"({text}) {op} {_atom(rng, decls, primed)}"
    return text


def random_spec_text(rng):
    """A small well-formed spec: 1-2 variables a side, domains up to 3."""
    env = [_decl(rng, f"u{i}") for i in range(rng.randint(1, 2))]
    sys_ = [_decl(rng, f"x{i}") for i in range(rng.randint(1, 2))]
    both = env + sys_
    env_names = [name for name, _ in env]
    lines = []
    for header, decls in (("[ENV_VARS]", env), ("[SYS_VARS]", sys_)):
        lines.append(header)
        lines += [f"{n} : {'bool' if hi is None else f'0..{hi}'}"
                  for n, hi in decls]
    sections = (("[ENV_INIT]", env, (), 0, 1),
                ("[SYS_INIT]", both, (), 0, 1),
                ("[ENV_TRANS]", both, env_names, 0, 2),
                ("[SYS_TRANS]", both, [n for n, _ in both], 1, 3),
                ("[ENV_LIVENESS]", both, (), 0, 1),
                ("[SYS_LIVENESS]", both, (), 1, 2))
    for header, decls, primed, lo, hi in sections:
        lines.append(header)
        lines += [_clause(rng, decls, primed)
                  for _ in range(rng.randint(lo, hi))]
    return "\n".join(lines) + "\n"


def corpus_games(seed, n_arenas, n_specs, max_states=200):
    rng = random.Random(seed)
    games = [(f"arena{i}", ar.random_arena(seed * 100_003 + i, max_states))
             for i in range(n_arenas)]
    games += [(f"spec{i}", random_spec_text(rng)) for i in range(n_specs)]
    return games


# --------------------------------------------------------------------------
# stages


def synth_stage(rnd, gate, rungs, prefix):
    """``gr1kit synth`` through cli.main; each job writes its strategy."""
    for rung in rungs:
        job = f"{prefix}{rung.key}"
        with gate.guard(job):
            buf = io.StringIO()
            with capture(ar, "build_arena") as arenas, \
                    capture(gr1, "solve") as results, \
                    contextlib.redirect_stdout(buf):
                with rnd.stage("synth", job):
                    code = cli.main(["synth", rung.spec, "--out", rung.out])
            problems = []
            if code != rung.expect:
                problems.append(f"exit code {code}, expected {rung.expect}")
            gate.region(job, results[-1].winning if results else None,
                        problems)
            if code == 0:
                strategy = gr1.Strategy.load(rung.out)
                verdict = ck.verify_strategy_closure(strategy, arenas[-1],
                                                     results[-1])
                if not verdict.passed:
                    problems.append("closure FAIL")
                suffix = "" if rung.bl_init is None else f".b{rung.bl_init}"
                gate.controller(job + suffix, file_digest(rung.out))
            gate.record(job, problems)


def assume_stage(rnd, gate, arena, sys_live, specs, bl_init, prefix):
    """solve, extract_strategy and closure per liveness-assumption set."""
    for variant in specs:
        job = f"{prefix}{variant.key}"
        with gate.guard(job):
            with rnd.stage("assume", job):
                result = gr1.solve(arena, variant.env_live, sys_live)
                strategy = gr1.extract_strategy(result, arena)
                verdict = ck.verify_strategy_closure(strategy, arena, result)
            problems = [] if verdict.passed else ["closure FAIL"]
            gate.region(job, result.winning, problems)
            gate.controller(f"{job}.b{bl_init}", controller_digest(strategy))
            gate.record(job, problems)


def simulate_stage(rnd, gate, ctrls, workdir):
    """Load each controller, run every adversary, write each trace CSV.

    Returns (controller, strategy, [(tag, trace, csv path)]) per loaded
    controller for the check stage."""
    loaded = []
    for c in ctrls:
        with gate.guard(f"{c.key}.load"):
            with rnd.stage("simulate", f"{c.key}.load"):
                strategy = gr1.Strategy.load(c.path)
            gate.record(f"{c.key}.load", [])
            traces = []
            for tag, kind, seed, events in c.runs:
                path = os.path.join(workdir, f"{c.key}.{tag}.csv")
                with rnd.stage("simulate", f"{c.key}.{tag}"):
                    adversary = sim.make_adversary(kind, seed=seed,
                                                   events=events)
                    trace = sim.run(strategy, adversary, STEPS, events=events)
                    with open(path, "w") as fp:
                        sim.write_csv(trace, fp)
                traces.append((tag, trace, path))
            loaded.append((c, strategy, traces))
    return loaded


def goal_gap(trace, goal):
    """Longest stretch between goal visits on the non-frozen rows, counted
    like the lasso gap: steps from one goal visit to the next."""
    hits = [i for i, row in enumerate(r for r in trace.rows
                                      if not r.human_away)
            if sl.eval_expr(goal, row.state)]
    n = sum(1 for r in trace.rows if not r.human_away)
    if not hits:
        return n
    gaps = [hits[0] + 1, n - hits[-1]]
    gaps += [b - a for a, b in zip(hits, hits[1:])]
    return max(gaps)


def check_stage(rnd, gate, loaded):
    """Lasso for both greedy adversaries, then per trace CSV read, safety
    and recurrence under the lasso window, then closure."""
    for c, strategy, traces in loaded:
        goal = c.doc.sys_liveness[0]
        lassos = []
        with gate.guard(f"{c.key}.lasso"):
            with rnd.stage("check", f"{c.key}.lasso"):
                lassos = [ck.lasso_check(strategy, sim.make_adversary(kind),
                                         c.doc) for kind in GREEDY]
            for kind, verdict in zip(GREEDY, lassos):
                gate.record(f"{c.key}.lasso.{kind}",
                            [] if verdict.passed else ["lasso FAIL"])
        gaps = [v.max_goal_gap for v in lassos if v.max_goal_gap is not None]
        window = max(gaps) if gaps else None
        if window is not None:
            rnd.notes["max_goal_gap_lasso"] = max(
                rnd.notes["max_goal_gap_lasso"], window)
        for tag, trace, path in traces:
            job = f"{c.key}.{tag}"
            with gate.guard(job):
                with rnd.stage("check", job):
                    with open(path) as fp:
                        back = sim.read_csv(fp)
                    safety = ck.check_safety(back, c.doc)
                    recur = (ck.check_recurrence(back, goal, window)
                             if window else None)
                problems = [] if safety.passed else ["safety FAIL"]
                bls = [row.state["bl"] for row in back.rows]
                if not 1 <= min(bls) <= max(bls) <= c.bl_upper:
                    problems.append(f"bl outside 1..{c.bl_upper}")
                gate.record(job, problems)
                if [r.state for r in back.rows] != [r.state
                                                    for r in trace.rows]:
                    rnd.notes["csv_roundtrip_changed"] += 1
                # the lasso window is known to be unsound for random
                # adversaries: a violation is a finding, not a failure
                if tag.startswith("random"):
                    rnd.notes["max_goal_gap_observed"] = max(
                        rnd.notes["max_goal_gap_observed"],
                        goal_gap(trace, goal))
                    if recur is not None and not recur.passed:
                        rnd.notes["recurrence_findings"] += 1
        with gate.guard(f"{c.key}.closure"):
            with rnd.stage("check", f"{c.key}.closure"):
                verdict = ck.verify_strategy_closure(strategy, c.arena,
                                                     c.result)
            gate.record(f"{c.key}.closure",
                        [] if verdict.passed else ["closure FAIL"])
            gate.controller(c.key, controller_digest(strategy))


def corpus_stage(rnd, gate, games):
    """Decide every game and compare it with the brute-force oracle;
    realizable games also get a controller and its closure check."""
    for key, game in games:
        with gate.guard(key):
            with rnd.stage("corpus", key):
                if isinstance(game, str):
                    doc = sl.parse_spec(game)
                    arena = ar.build_arena(doc)
                    env_live, sys_live = doc.env_liveness, doc.sys_liveness
                else:
                    arena, env_live, sys_live = game
                result = gr1.solve(arena, env_live, sys_live)
                oracle = gr1.brute_force_oracle(arena, env_live, sys_live)
                verdict = None
                if result.realizable:
                    strategy = gr1.extract_strategy(result, arena)
                    verdict = ck.verify_strategy_closure(strategy, arena,
                                                         result)
            problems = []
            if not np.array_equal(result.winning, oracle):
                problems.append("solver and oracle disagree")
            if verdict is not None and not verdict.passed:
                problems.append("closure FAIL")
            gate.record(key, problems)
            rnd.games += 1


# --------------------------------------------------------------------------
# workloads


class SynthLadder:
    """Three CLI synths; arena build is most of the time."""

    name = "synth-ladder"
    own = ("synth",)

    def setup(self, seed, workdir):
        b = band_bl_init(seed)
        rungs = []
        for key, params, expect in LADDER:
            params = dict(params, bl_init=b) if key == "n3" else params
            rungs.append(Rung(key, write_spec(workdir, key, params),
                              os.path.join(workdir, f"{key}.strategy.json"),
                              expect, b if key == "n3" else None))
        return rungs

    def run(self, rnd, gate, rungs):
        synth_stage(rnd, gate, rungs, "ladder.")


class AssumeSolve:
    """Assumption games on a pre-compiled n=3 arena: the general mu-Y."""

    name = "assume-solve"
    own = ("assume",)

    def setup(self, seed, workdir):
        b = band_bl_init(seed)
        doc = wd.emit_spec(wd.WorkDeliveryParams(bl_init=b))
        return doc, ar.build_arena(doc), variants(ASSUMPTIONS), b

    def run(self, rnd, gate, inputs):
        doc, arena, specs, b = inputs
        assume_stage(rnd, gate, arena, doc.sys_liveness, specs, b, "assume.")


class VerifyLoop:
    """Simulate and check three saved controllers; no build, no solve."""

    name = "verify-loop"
    own = ("simulate", "check")

    def setup(self, seed, workdir):
        return workdir, controllers(workdir, seed, {}, VERIFY_BL_INIT,
                                    VERIFY_RANDOM_RUNS, "verify.")

    def run(self, rnd, gate, inputs):
        workdir, ctrls = inputs
        check_stage(rnd, gate, simulate_stage(rnd, gate, ctrls, workdir))


class SmallCorpus:
    """Thousands of tiny games, each checked against the oracle."""

    name = "small-corpus"
    own = ("corpus",)

    def setup(self, seed, workdir):
        games = corpus_games(seed, CORPUS_ARENAS, CORPUS_SPECS)
        params = wd.WorkDeliveryParams(bl_init=5, **REDUCED)
        games.append(("reduced", wd.emit_text(params)))
        return games

    def run(self, rnd, gate, games):
        corpus_stage(rnd, gate, games)


class ReducedPass:
    """The reduced scenario through all five stages.

    Every workload reports every end-to-end metric; a stage that the
    workload's own jobs do not run is measured on this pass instead.  Its
    inputs do not depend on the seed."""

    name = "reduced"

    def setup(self, seed, workdir):
        # fixed inputs: the pass is a yardstick, its work must not vary
        seed = 0
        params = dict(REDUCED, bl_init=5)
        rung = Rung("synth", write_spec(workdir, "reduced", params),
                    os.path.join(workdir, "reduced.strategy.json"), 0, None)
        doc = wd.emit_spec(wd.WorkDeliveryParams(**params))
        arena = ar.build_arena(doc)
        ctrls = controllers(workdir, seed, REDUCED, (5,), 3, "reduced.")
        games = corpus_games(seed, 24, 8, max_states=60)
        return (workdir, rung, doc, arena, variants(REDUCED_ASSUMPTIONS),
                ctrls, games)

    def run(self, rnd, gate, inputs):
        workdir, rung, doc, arena, specs, ctrls, games = inputs
        synth_stage(rnd, gate, [rung], "reduced.")
        assume_stage(rnd, gate, arena, doc.sys_liveness, specs, 5, "reduced.")
        check_stage(rnd, gate, simulate_stage(rnd, gate, ctrls, workdir))
        corpus_stage(rnd, gate, games)


WORKLOADS = {w.name: w for w in (SynthLadder(), AssumeSolve(), VerifyLoop(),
                                 SmallCorpus())}
REDUCED_PASS = ReducedPass()
