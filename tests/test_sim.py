import io
import random

import numpy as np
import pytest

from gr1kit import arena as ar
from gr1kit import gr1
from gr1kit import sim
from gr1kit.errors import AdversaryIllegalMove, StrategyHole


def tiny_strategy():
    """One env bool, one sys bool; controller echoes the env value."""
    a, _, _ = ar.random_arena(0)
    decls = a.decls
    # hand-build instead: full moves, sys copies env
    from gr1kit.speclang import parse_spec
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


def test_singleton_moves_taken_by_all_policies():
    for kind in ("random", "min-bl", "max-bl", "scripted"):
        policy = sim.make_adversary(kind, seed=3)
        pick = sim.adversary_choice(policy, {}, [(4, 1)], ["bl", "s"])
        assert pick == (4, 1)


def test_greedy_bl_policies():
    legal = [(10, 0), (8, 0), (9, 1), (8, 1)]
    lo = sim.make_adversary("min-bl").choose(0, {}, legal, ["bl", "s"])
    hi = sim.make_adversary("max-bl").choose(0, {}, legal, ["bl", "s"])
    assert lo == (8, 0)        # lowest bl, then lowest index
    assert hi == (10, 0)


def test_greedy_deterministic_twice():
    legal = [(3, 0), (2, 1)]
    p = sim.make_adversary("min-bl")
    assert p.choose(0, {}, legal, ["bl", "x"]) == \
        p.choose(0, {}, legal, ["bl", "x"])


def test_scripted_override_and_fallback():
    events = sim.parse_events("step=2 set s=1")
    p = sim.make_adversary("scripted", seed=0, events=events)
    legal = [(5, 0), (5, 1)]
    assert p.choose(2, {}, legal, ["bl", "s"]) == (5, 1)
    # override impossible -> falls back to a legal move
    assert p.choose(2, {}, [(5, 0)], ["bl", "s"]) == (5, 0)


def test_adversary_illegal_move_detected():
    class Evil:
        kind = "evil"

        def choose(self, step, state, legal, env_names):
            return (99, 99)

    with pytest.raises(AdversaryIllegalMove):
        sim.adversary_choice(Evil(), {}, [(0, 0)], ["a", "b"])


def test_parse_events():
    evs = sim.parse_events(
        "# comment\nstep=3 set s=0\nstep=10 human_away=1 duration=4\n")
    assert evs[0].step == 3 and evs[0].overrides == (("s", 0),)
    assert evs[1].human_away == 1 and evs[1].duration == 4
    with pytest.raises(ValueError):
        sim.parse_events("step=x set s=0")
    with pytest.raises(ValueError):
        sim.parse_events("at=3 set s=0")


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
    st = keep_edges(st, [])
    with pytest.raises(StrategyHole):
        sim.run(st, sim.make_adversary("random", seed=0), 5)


def test_strategy_hole_against_arena(keep_edges):
    st, arena, doc = tiny_strategy()
    nid = int(st.init_node[0])
    drop = np.arange(st.edge_indptr[nid] + 1, st.edge_indptr[nid + 1])
    st = keep_edges(st, np.setdiff1d(np.arange(len(st.edge_next)), drop))
    with pytest.raises(StrategyHole):
        sim.run(st, sim.make_adversary("random", seed=0), 5, arena=arena)


def test_csv_header_and_roundtrip(strategy_for):
    st = strategy_for(12)
    tr = sim.run(st, sim.make_adversary("random", seed=4), 60)
    buf = io.StringIO()
    sim.write_csv(tr, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "step,time_s,RS,BL,HF,tries,S,O1,O2,mode,ACT,human_away"
    assert len(lines) == 62
    back = sim.read_csv(io.StringIO(buf.getvalue()))
    assert len(back.rows) == len(tr.rows)
    for r1, r2 in zip(tr.rows, back.rows):
        assert r1.index == r2.index and r1.human_away == r2.human_away
        assert {k: int(v) for k, v in r1.state.items()} == r2.state


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


@pytest.mark.parametrize("row", ["1,10,2,0,0,7", "1,10,2,0"],
                         ids=["extra-field", "missing-field"])
def test_read_csv_rejects_ragged_rows(row):
    text = f"step,time_s,x,ok,human_away\n0,0,3,1,0\n{row}\n"
    with pytest.raises(ValueError):
        sim.read_csv(io.StringIO(text))


def test_read_csv_stalled_matches_row_loop():
    # reference: the row-by-row rule for the stalled bit, which read_csv
    # rebuilds with array operations
    rng = random.Random(5)
    for _ in range(300):
        bl = [rng.randint(0, 2) for _ in range(rng.randint(1, 30))]
        away = [rng.random() < 0.3 for _ in bl]
        expect = [0]
        for k in range(1, len(bl)):
            expect.append(expect[-1] if away[k] else int(bl[k] == bl[k - 1]))
        text = "step,time_s,RS,BL,HF,tries,S,mode,ACT,human_away\n" + "".join(
            f"{k},{10 * k},0,{b},0,0,0,work,Go_S0,{int(a)}\n"
            for k, (b, a) in enumerate(zip(bl, away)))
        tr = sim.read_csv(io.StringIO(text))
        assert [r.state["stalled"] for r in tr.rows] == expect


def test_csv_mode_column(strategy_for):
    st = strategy_for(12)
    tr = sim.run(st, sim.make_adversary("min-bl"), 40)
    buf = io.StringIO()
    sim.write_csv(tr, buf)
    for line in buf.getvalue().splitlines()[1:]:
        parts = line.split(",")
        rs, bl, mode, act = int(parts[2]), int(parts[3]), parts[9], parts[10]
        if rs == 3:
            assert mode == "refill"
        elif bl == 0:
            assert mode == "wait"
        else:
            assert mode == "work"
        assert act.startswith("Go_S")


def test_interactive_policy_prompts():
    out, inp = io.StringIO(), io.StringIO("1\n")
    p = sim.InteractivePolicy(out=out, inp=inp)
    pick = p.choose(0, {"bl": 5}, [(0,), (1,)], ["u"])
    assert pick == (1,)
    assert "environment move" in out.getvalue()


def test_max_steps_validation(strategy_for):
    with pytest.raises(ValueError):
        sim.run(strategy_for(12), sim.make_adversary("random"), 0)


def test_pacing_sleeps_per_step(strategy_for):
    import time
    st = strategy_for(12)
    t0 = time.perf_counter()
    sim.run(st, sim.make_adversary("random", seed=0), 3, td=0.02, pace=True)
    assert time.perf_counter() - t0 >= 0.06
