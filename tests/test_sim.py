import dataclasses
import hashlib
import io

import numpy as np
import pytest

from gr1kit import arena as ar
from gr1kit import check
from gr1kit import gr1
from gr1kit import sim
from gr1kit import workdelivery as wd
from gr1kit.errors import AdversaryIllegalMove, StrategyHole
from gr1kit.speclang import parse_spec

from conftest import (FIXED_NAMES_SPEC, REDUCED, STALLED_SPEC,
                      reference_write_csv)


def tiny_strategy():
    """One env bool, one sys bool; controller echoes the env value."""
    a, _, _ = ar.random_arena(0)
    decls = a.decls
    # hand-build instead: full moves, sys copies env
    doc = parse_spec("[ENV_VARS]\nu : bool\n[SYS_VARS]\nx : bool\n"
                     "[SYS_TRANS]\nx' <-> u'\n"
                     "[ENV_INIT]\n!u\n[SYS_INIT]\n!x\n")
    arena = ar.build_arena(doc)
    res = gr1.solve(arena, [], doc.sys_liveness)
    return gr1.extract_strategy(res, arena), arena, doc


def test_single_step_trace():
    st, arena, doc = tiny_strategy()
    tr = sim.run(st, sim.make_adversary("random", seed=1), 1)
    assert tr.n_steps() == 1
    # row 1 is a transition, not a frozen copy: the controller echoed u'
    assert tr.step.tolist() == [0, 1] and not tr.human_away[1]
    assert tr.rows[1].state["x"] == tr.rows[1].state["u"]


def test_replay_determinism():
    st, arena, doc = tiny_strategy()
    out = []
    for _ in range(2):
        tr = sim.run(st, sim.make_adversary("random", seed=42), 50)
        buf = io.StringIO()
        sim.write_csv(tr, buf)
        out.append(buf.getvalue())
    assert out[0] == out[1]


NAMES = ("bl", "s", "x")       # env vars bl and s, then one sys var


def test_singleton_moves_taken_by_all_policies():
    for kind in ("random", "min-bl", "max-bl", "scripted"):
        policy = sim.make_adversary(kind, seed=3)
        assert sim._pick(policy, 1, None, np.array([[4, 1]]), NAMES) == 0


def test_greedy_bl_policies():
    moves = np.array([[10, 0], [8, 0], [9, 1], [8, 1], [10, 1]])
    lo = sim.make_adversary("min-bl").choose(0, None, moves, NAMES)
    hi = sim.make_adversary("max-bl").choose(0, None, moves, NAMES)
    assert (lo, hi) == (1, 0)      # lowest (highest) bl, then lowest row
    assert type(lo) is int and type(hi) is int
    # no env column named bl: the first row
    assert sim.make_adversary("max-bl").choose(
        0, None, moves, ("u", "v", "bl")) == 0


def test_greedy_deterministic_twice():
    moves = np.array([[3, 0], [2, 1]])
    p = sim.make_adversary("min-bl")
    assert p.choose(0, None, moves, NAMES) == \
        p.choose(0, None, moves, NAMES) == 1


def test_scripted_override_and_fallback():
    # a `set` pin narrows the choice of every adversary, scripted included
    moves = np.array([[5, 0], [5, 1], [6, 1]])
    pin = (np.array([1]), np.array([1]))         # s = 1
    for seed in range(8):
        policy = sim.make_adversary("scripted", seed=seed)
        assert sim._pick(policy, 2, None, moves, NAMES, pin) in (1, 2)
    assert sim._pick(sim.make_adversary("min-bl"), 2, None, moves, NAMES,
                     pin) == 1
    # pin impossible -> falls back to any legal move
    none = (np.array([0]), np.array([7]))
    picks = {sim._pick(sim.make_adversary("scripted", seed=seed), 2, None,
                       moves, NAMES, none) for seed in range(20)}
    assert picks == {0, 1, 2}


def test_adversary_illegal_move_detected():
    class Evil:
        kind = "evil"

        def choose(self, step, state, moves, names):
            return self.pick

    evil = Evil()
    st, arena, doc = tiny_strategy()
    for evil.pick in (3, -1, 1.0, None, (5, 1)):
        with pytest.raises(AdversaryIllegalMove):
            sim._pick(evil, 1, None, np.array([[0, 0], [5, 1], [6, 1]]),
                      NAMES)
        with pytest.raises(AdversaryIllegalMove):
            sim.run(st, evil, 3)


def test_parse_events():
    evs = sim.parse_events(
        "# comment\nstep=3 set s=0\nstep=10 human_away=1 duration=4\n")
    assert evs[0].step == 3 and evs[0].overrides == (("s", 0),)
    assert evs[1].human_away == 1 and evs[1].duration == 4
    with pytest.raises(ValueError):
        sim.parse_events("step=x set s=0")
    with pytest.raises(ValueError):
        sim.parse_events("at=3 set s=0")
    for bad in ("step=3 human_away=5", "step=3 human_away=1 duration=-3",
                "step=-1 set s=0", "step=3 set", "step=3 jump"):
        with pytest.raises(ValueError):
            sim.parse_events(bad)
    assert sim.parse_events("step=0 human_away=0 duration=0")[0].step == 0


@pytest.mark.parametrize("text", [
    "step=20 human_away=1 duraton=6",
    "step=20 human_away=1 duration=6 junk",
    "step=3 set s=1 s=0",
    "step=3 set s=1\nstep=3 set s=0",
    "step=3 human_away=1 duration=5\nstep=4 human_away=0 duration=9",
    "step=3 human_away=1 duration=5\nstep=3 human_away=1 duration=2",
    "step=3 human_away=1 duration=5\nstep=3 human_away=0",
    "step=3 human_away=1",
    "step=3 human_away=1 duration=0",
], ids=["misspelt-duration", "trailing-token", "set-twice-one-line",
        "set-twice-two-lines", "duration-without-away", "away-twice",
        "away-and-back-at-one-step", "away-without-duration",
        "away-for-0-steps"])
def test_events_that_would_run_another_scenario_raise(reduced_strategy, text):
    # each ran silently as another scenario: a zero-length away span, an
    # ignored token, a pin that no move matches and `_pick` drops, a
    # duration that is ignored, or an away event that another at its step
    # overrides
    with pytest.raises(ValueError):
        events = sim.parse_events(text)
        sim.run(reduced_strategy, sim.make_adversary("scripted"), 30,
                events=events)


def test_make_adversary_rejects_unknown_kind():
    with pytest.raises(ValueError, match="bogus"):
        sim.make_adversary("bogus")


def test_set_event_names_env_variable(strategy_for):
    st = strategy_for(12)
    # unknown, and owned by the system; rejected before the run starts
    for var in ("foo", "rs"):
        events = sim.parse_events(f"step=50 set {var}=1")
        for kind in ("scripted", "min-bl"):
            with pytest.raises(ValueError, match=repr(var)):
                sim.run(st, sim.make_adversary(kind, events=events), 5,
                        events=events)


def test_step0_pin_under_every_adversary(reduced_arena, reduced_result):
    # bl_init 3..7 gives five initial env assignments; a step-0 pin picks one
    doc = wd.emit_spec(wd.WorkDeliveryParams(bl_init=(3, 7), **REDUCED))
    arena = ar.with_inits(reduced_arena, doc)
    st = gr1.extract_strategy(reduced_result, arena)
    assert len(st.init_env) == 5
    for bl in range(3, 8):
        events = sim.parse_events(f"step=0 set bl={bl}")
        for kind, seed in [("random", s) for s in range(4)] + [
                ("scripted", 0), ("min-bl", 0), ("max-bl", 0)]:
            tr = sim.run(st, sim.make_adversary(kind, seed, events), 3,
                         events=events)
            assert tr.rows[0].state["bl"] == bl, (kind, seed)
    # unpinned, the greedy policies take the extremes, and `random` picks a
    # row of the distinct initial assignments in first-occurrence order
    firsts = {kind: sim.run(st, sim.make_adversary(kind), 1).rows[0]
              for kind in ("min-bl", "max-bl")}
    assert {k: r.state["bl"] for k, r in firsts.items()} == \
        {"min-bl": 3, "max-bl": 7}
    flipped = dataclasses.replace(st, init_env=st.init_env[::-1],
                                  init_node=st.init_node[::-1])
    for strat, want in ((st, [6, 4, 3, 4, 4, 7, 7, 5]),
                        (flipped, [4, 6, 7, 6, 6, 3, 3, 5])):
        assert [sim.run(strat, sim.make_adversary("random", seed), 1)
                .rows[0].state["bl"] for seed in range(8)] == want


def test_freeze_semantics(strategy_for):
    st = strategy_for(12)
    events = sim.parse_events("step=10 human_away=1 duration=5")
    tr = sim.run(st, sim.make_adversary("random", seed=8), 40, events=events)
    frozen = [r for r in tr.rows if r.human_away]
    assert [r.index for r in frozen] == [10, 11, 12, 13, 14]
    pre = tr.rows[9].state
    assert all(r.state == pre for r in frozen)
    assert all(r.state["bl"] == pre["bl"] and r.state["rs"] == pre["rs"]
               for r in frozen)
    assert tr.rows[-1].index == 40
    assert tr.rows[-1].time_s == 400


def test_away_span_from_step_0(reduced_strategy):
    # row 0, the initial snapshot, is away, and the span covers rows 0 to
    # duration - 1 as it does from any other step
    events = sim.parse_events("step=0 human_away=1 duration=5")
    tr = sim.run(reduced_strategy, sim.make_adversary("random", seed=3), 12,
                 events=events)
    assert tr.human_away.tolist() == [k < 5 for k in range(13)]
    assert all(r.state == tr.rows[0].state for r in tr.rows[:5])
    # the same run with the span from step 1 leaves row 0 as it was
    late = sim.run(reduced_strategy, sim.make_adversary("random", seed=3),
                   12, events=sim.parse_events(
                       "step=1 human_away=1 duration=4"))
    assert late.human_away.tolist() == [0 < k < 5 for k in range(13)]
    assert np.array_equal(late.vals, tr.vals)


def test_trace_rows_contract(strategy_for):
    # the row view read by perfbench and by tests/test_acceptance.py
    st = strategy_for(12)
    events = sim.parse_events("step=6 human_away=1 duration=3")
    tr = sim.run(st, sim.make_adversary("random", seed=2), 12, events=events)
    buf = io.StringIO()
    sim.write_csv(tr, buf)
    back = sim.read_csv(io.StringIO(buf.getvalue()))
    for t in (tr, back):
        rows = t.rows
        assert t.n_steps() == 12 and len(rows) == 13
        assert sim.Row._fields == ("index", "time_s", "state", "human_away")
        assert [r.index for r in rows] == list(range(13))
        assert [r.time_s for r in rows] == [10.0 * k for k in range(13)]
        assert [r.human_away for r in rows] == [k in (6, 7, 8)
                                               for k in range(13)]
        for r, vals in zip(rows, t.vals.tolist()):
            assert list(r.state) == list(t.names)
            assert r.state == dict(zip(t.names, vals))
        assert all(r.state == rows[5].state for r in rows[6:9])
        first = rows[0]
        assert (type(first.index), type(first.time_s),
                type(first.human_away)) == (int, float, bool)
        assert {type(v) for r in rows for v in r.state.values()} == {int}
    assert back.rows == tr.rows


def test_strategy_hole_on_emptied_node(keep_edges):
    st, arena, doc = tiny_strategy()
    noinit = dataclasses.replace(st, init_env=st.init_env[:0],
                                 init_node=st.init_node[:0])
    with pytest.raises(StrategyHole, match="no initial nodes"):
        sim.run(noinit, sim.make_adversary("random", seed=0), 5)
    st = keep_edges(st, [])
    with pytest.raises(StrategyHole):
        sim.run(st, sim.make_adversary("random", seed=0), 5)
    verdict = check.lasso_check(st, sim.make_adversary("min-bl"), doc)
    assert [v[1] for v in verdict.violations] == ["deadlock"]


REDUCED_TRACE_SHA256 = {
    ("random", 0): "75382a711ffb8fd5a315dadc77c9f5ebda7646a9551105b09edec9b05aec1efc",
    ("random", 1): "87b11c426405c0c8254df1ff51cce994ed918afb8685061b20d2dd673a3d9761",
    ("random", 2): "df665306890535b21ec86c3c7db16f11c766a13fce13c47ef7573ad4f41c24cc",
    ("random", 3): "763ad16cbd906d08270cd871d009487729a7f08af8ac4d93e4f0979f4cdaba9a",
    ("min-bl", 0): "58f036ef71053bc2bb9a86cb82a7088a4072e41166efad39feb4ac5baedc53bf",
    ("max-bl", 0): "2300f197becb9154cd76161a2f93c078beacbd8b7f9cd00add0a602e966952d2",
    ("scripted", 7): "760c154f1cecc414e925fa8cb63e79e0e1644d0f80c147cdc8c30ddd493eb00c",
}


def test_reduced_trace_bytes(reduced_strategy, reduced_doc):
    # CSV bytes of the reduced controller's closed loop; the scripted run
    # pins s at step 5, which changes its course, and has an away span
    events = sim.parse_events("step=5 set s=1\nstep=9 human_away=1 duration=4")
    for (kind, seed), want in REDUCED_TRACE_SHA256.items():
        ev = events if kind == "scripted" else ()
        tr = sim.run(reduced_strategy,
                     sim.make_adversary(kind, seed=seed, events=ev), 40,
                     events=ev)
        buf = io.StringIO()
        sim.write_csv(tr, buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == want, \
            (kind, seed)
    gaps = {kind: check.lasso_check(reduced_strategy, sim.make_adversary(kind),
                                    reduced_doc).max_goal_gap
            for kind in ("min-bl", "max-bl")}
    assert gaps == {"min-bl": 9, "max-bl": 10}


def test_write_csv_matches_reference_writer(reduced_strategy, strategy_for):
    # generic and scenario traces, with frozen rows and pins, at integer and
    # non-integer steps (0.5 and 1/3 print through %g), and read back
    events = sim.parse_events("step=2 human_away=1 duration=3\n"
                              "step=9 human_away=1 duration=1")
    pinned = events + sim.parse_events("step=4 set s=1")
    cases = [(tiny_strategy()[0], events)]
    for seed in range(40):
        a, env_live, sys_live = ar.random_arena(seed)
        res = gr1.solve(a, env_live, sys_live)
        if res.realizable:
            cases.append((gr1.extract_strategy(res, a), events))
        if len(cases) == 8:
            break
    cases += [(reduced_strategy, pinned), (strategy_for(12), pinned)]
    written = 0
    for st, ev in cases:
        for kind, td in (("random", 10.0), ("min-bl", 0.5), ("max-bl", 1 / 3),
                         ("scripted", 7)):
            try:
                tr = sim.run(st, sim.make_adversary(kind, seed=written), 30,
                             events=ev, td=td)
            except StrategyHole:
                continue
            assert tr.human_away.any()
            for t in (tr, sim.read_csv(io.StringIO(csv_text(tr)))):
                want = io.StringIO()
                reference_write_csv(t, want)
                assert csv_text(t).splitlines(keepends=True) == \
                    want.getvalue().splitlines(keepends=True), (kind, td)
            written += 1
    assert written >= 20


def csv_text(trace):
    buf = io.StringIO()
    sim.write_csv(trace, buf)
    return buf.getvalue()


def test_csv_header_and_roundtrip(strategy_for):
    st = strategy_for(12)
    tr = sim.run(st, sim.make_adversary("random", seed=4), 60)
    buf = io.StringIO()
    sim.write_csv(tr, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ("step,time_s,bl,s,o1,o2,stalled,rs,act,hf,tries,"
                        "human_away")
    assert len(lines) == 62
    back = sim.read_csv(io.StringIO(buf.getvalue()))
    assert back.rows == tr.rows


def test_generic_csv_roundtrip_keeps_column_order():
    text = ("step,time_s,x,ok,human_away\n"
            "0,0,3,1,0\n"
            "1,10,2,0,0\n"
            "2,20,2,0,1\n")
    back = sim.read_csv(io.StringIO(text))
    assert back.names == ("x", "ok")
    buf = io.StringIO()
    sim.write_csv(back, buf)
    assert buf.getvalue() == text


# the scenario's variables but `stalled` and the obstacles, plus `foo`
FOO_SPEC = ("[ENV_VARS]\nbl : 0..3\ns : bool\nfoo : 0..2\n"
            "[SYS_VARS]\nrs : 0..1\nact : 0..1\nhf : bool\ntries : 0..2\n")
# variables named like columns of the trace CSV's scenario layout before
# it had one layout for every trace
MODE_ACT_SPEC = "[ENV_VARS]\nmode : 0..1\n[SYS_VARS]\nACT : 0..1\n"


@pytest.mark.parametrize("spec", [FOO_SPEC, MODE_ACT_SPEC, STALLED_SPEC,
                                  FIXED_NAMES_SPEC],
                         ids=["foo", "mode-act", "stalled", "fixed-names"])
def test_csv_roundtrip(spec):
    # every trace reads back as itself: names, values, step, time and away
    # columns, with away spans at an integer and a half-second step length
    doc = parse_spec(spec)
    arena = ar.build_arena(doc)
    res = gr1.solve(arena, doc.env_liveness, doc.sys_liveness)
    st = gr1.extract_strategy(res, arena)
    events = sim.parse_events("step=3 human_away=1 duration=2")
    for seed, td in ((1, 10.0), (2, 0.5)):
        tr = sim.run(st, sim.make_adversary("random", seed=seed), 12,
                     events=events, td=td)
        text = csv_text(tr)
        assert text.splitlines()[0] == ",".join(
            ["step", "time_s", *tr.names, "human_away"])
        back = sim.read_csv(io.StringIO(text))
        assert back.names == tr.names
        for col in ("vals", "step", "time_s", "human_away"):
            assert np.array_equal(getattr(back, col), getattr(tr, col)), col
        assert check.check_safety(back, doc).passed


def test_csv_time_column_roundtrips():
    # non-integer times that six significant digits would round read back
    # as the same floats; integer times keep their integer text
    time_s = np.array([0.0, 0.30000000000000004, 100000.5, 250000.5, 10.0])
    tr = sim.Trace(("x",), np.zeros((5, 1), np.int64), np.arange(5), time_s,
                   np.zeros(5, bool))
    text = csv_text(tr)
    assert [line.split(",")[1] for line in text.splitlines()[1:]] == [
        "0", "0.30000000000000004", "100000.5", "250000.5", "10"]
    assert sim.read_csv(io.StringIO(text)).time_s.tolist() == time_s.tolist()


@pytest.mark.parametrize("text", [
    "step,time_s,x,ok,human_away\n0,0,3,1,0\n1,10,2,0,0,7\n",
    "step,time_s,x,ok,human_away\n0,0,3,1,0\n1,10,2,0\n",
    "step,time_s,u,x,u,human_away\n0,0,0,1,1,0\n",
    "step,time_s,x,human_away,ok\n0,0,3,0,1\n",
], ids=["extra-field", "missing-field", "duplicate-column",
        "human-away-not-last"])
def test_read_csv_rejects_ragged_rows(text):
    with pytest.raises(ValueError):
        sim.read_csv(io.StringIO(text))


def test_interactive_policy_prompts():
    out, inp = io.StringIO(), io.StringIO("1\n")
    p = sim.InteractivePolicy(out=out, inp=inp)
    pick = p.choose(3, np.array([5, 0]), np.array([[0], [1]]), ("u", "x"))
    assert pick == 1
    text = out.getvalue()
    assert "environment move" in text
    assert "step 3 | state: {'u': 5, 'x': 0}" in text
    assert "[0] u=0" in text and "[1] u=1" in text
    # end of input: the first move
    p = sim.InteractivePolicy(out=io.StringIO(), inp=io.StringIO(""))
    assert p.choose(0, None, np.array([[0], [1]]), ("u", "x")) == 0


def test_max_steps_validation(strategy_for):
    with pytest.raises(ValueError):
        sim.run(strategy_for(12), sim.make_adversary("random"), 0)
    # a step count past float range is not finite either, not an overflow
    with pytest.raises(ValueError, match="not finite"):
        sim.run(strategy_for(12), sim.make_adversary("random"), 10 ** 400)
    # a time column past float range would read inf, or nan for td=nan
    for td in (1e308, float("nan")):
        with pytest.raises(ValueError, match="not finite"):
            sim.run(strategy_for(12), sim.make_adversary("random"), 5, td=td)
    # a step length of 0 or below would stall or reverse the time column
    for td in (0, -5.0):
        with pytest.raises(ValueError, match="positive"):
            sim.run(strategy_for(12), sim.make_adversary("random"), 3, td=td)


def test_pacing_sleeps_per_step(strategy_for):
    import time
    st = strategy_for(12)
    t0 = time.perf_counter()
    sim.run(st, sim.make_adversary("random", seed=0), 3, td=0.02, pace=True)
    assert time.perf_counter() - t0 >= 0.06
