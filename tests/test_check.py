import numpy as np
import pytest

from gr1kit import arena as ar
from gr1kit import check
from gr1kit import gr1
from gr1kit import sim
from gr1kit.errors import AdversaryNotFinite
from gr1kit.speclang import parse_spec


def make_trace(doc_names, rows_states, frozen=()):
    env_names = tuple(n for n in doc_names if n in ("bl", "s", "stalled")
                      or n.startswith("o") or n.startswith("u"))
    sys_names = tuple(n for n in doc_names if n not in env_names)
    tr = sim.Trace(env_names, sys_names, 10.0)
    for i, st in enumerate(rows_states):
        tr.rows.append(sim.TraceRow(i, i * 10.0, st, None if i == 0 else (),
                                    None if i == 0 else (),
                                    human_away=i in frozen))
    return tr


def test_single_step_legal_trace_passes(strategy_for, scenario):
    doc, arena, result = scenario(12)
    tr = sim.run(strategy_for(12), sim.make_adversary("random", seed=0), 1)
    assert check.check_safety(tr, doc).passed


def test_backlog_zero_violation_cites_clause(scenario):
    doc, arena, result = scenario(12)
    base = {"bl": 12, "s": 0, "o1": 0, "o2": 0, "stalled": 0,
            "rs": 0, "act": 0, "hf": 0, "tries": 0}
    step1 = dict(base, bl=11, stalled=0)
    step2 = dict(step1, bl=0)
    tr = make_trace(tuple(base), [base, step1, step2])
    verdict = check.check_safety(tr, doc)
    assert not verdict.passed
    hits = [v for v in verdict.violations if "bl' >= 1" in v[2]]
    assert hits and hits[0][0] == 2


def test_init_violation_reported(scenario):
    doc, arena, result = scenario(12)
    bad = {"bl": 7, "s": 0, "o1": 0, "o2": 0, "stalled": 0,
           "rs": 1, "act": 0, "hf": 0, "tries": 0}
    tr = make_trace(tuple(bad), [bad])
    verdict = check.check_safety(tr, doc)
    assert not verdict.passed
    assert any(w == 0 for w, _, _ in verdict.violations)


def test_recurrence_trivial_and_violation():
    states = [{"g": 1} for _ in range(10)]
    tr = make_trace(("g",), states)
    goal = lambda st: st["g"] == 1
    assert check.check_recurrence(tr, goal, 1).passed
    states = [{"g": 1 if i == 0 else 0} for i in range(10)]
    tr = make_trace(("g",), states)
    verdict = check.check_recurrence(tr, goal, 4)
    assert not verdict.passed
    # trace shorter than the window passes vacuously
    tr = make_trace(("g",), states[:3])
    assert check.check_recurrence(tr, goal, 5).passed


def test_recurrence_window_extends_over_freeze():
    states = []
    for i in range(12):
        states.append({"g": 1 if i in (0, 11) else 0})
    frozen = {3, 4, 5, 6}
    tr = make_trace(("g",), states, frozen=frozen)
    goal = lambda st: st["g"] == 1
    # 8 effective rows, goal at effective positions 0 and 7
    assert check.check_recurrence(tr, goal, 7).passed
    assert not check.check_recurrence(tr, goal, 6).passed


def tiny_doc():
    return parse_spec("[ENV_VARS]\nu : bool\n[SYS_VARS]\nx : bool\n"
                      "[SYS_LIVENESS]\nx\n")


def one_node_strategy(goal_true=True):
    st = gr1.Strategy(
        env_names=("u",), sys_names=("x",), n_goals=1,
        node_vals=[(0, 1 if goal_true else 0)], node_goal=[0],
        edge_env=[np.array([[0], [1]])],
        edge_sys=[np.array([[1 if goal_true else 0]] * 2)],
        edge_next=[np.array([0, 0])],
        init_env=[(0,)], init_node=[0])
    return st


def test_lasso_single_self_loop_gap_one():
    verdict = check.lasso_check(one_node_strategy(True),
                                sim.make_adversary("min-bl"), tiny_doc())
    assert verdict.passed and verdict.max_goal_gap == 1


def test_lasso_goal_free_cycle_fails():
    verdict = check.lasso_check(one_node_strategy(False),
                                sim.make_adversary("min-bl"), tiny_doc())
    assert not verdict.passed
    assert any("never satisfies" in v[2] for v in verdict.violations)


def test_lasso_rejects_random_adversary():
    with pytest.raises(AdversaryNotFinite):
        check.lasso_check(one_node_strategy(), sim.make_adversary("random"),
                          tiny_doc())


def test_lasso_vacuous_when_assumption_falsified():
    doc = parse_spec("[ENV_VARS]\nu : bool\n[SYS_VARS]\nx : bool\n"
                     "[ENV_LIVENESS]\nu\n[SYS_LIVENESS]\nx\n")
    # cycle never satisfies the goal, but also never satisfies u
    st = gr1.Strategy(
        env_names=("u",), sys_names=("x",), n_goals=1,
        node_vals=[(0, 0)], node_goal=[0],
        edge_env=[np.array([[0]])], edge_sys=[np.array([[0]])],
        edge_next=[np.array([0])], init_env=[(0,)], init_node=[0])
    verdict = check.lasso_check(st, sim.make_adversary("min-bl"), doc)
    assert verdict.passed


def test_lasso_assumption_must_fail_on_whole_cycle():
    doc = parse_spec("[ENV_VARS]\nu : bool\n[SYS_VARS]\nx : bool\n"
                     "[ENV_LIVENESS]\nu\n[SYS_LIVENESS]\nx\n")
    # u alternates 0/1 along a two-node cycle, so GF u holds while the
    # goal x never does: a genuine liveness violation
    st = gr1.Strategy(
        env_names=("u",), sys_names=("x",), n_goals=1,
        node_vals=[(0, 0), (1, 0)], node_goal=[0, 0],
        edge_env=[np.array([[1]]), np.array([[0]])],
        edge_sys=[np.array([[0]]), np.array([[0]])],
        edge_next=[np.array([1]), np.array([0])],
        init_env=[(0,)], init_node=[0])
    verdict = check.lasso_check(st, sim.make_adversary("min-bl"), doc)
    assert not verdict.passed
    assert any("never satisfies" in v[2] for v in verdict.violations)


def test_lasso_mutated_workdelivery_strategy(strategy_for, scenario):
    doc, arena, result = scenario(12)
    st = strategy_for(12)
    verdict = check.lasso_check(st, sim.make_adversary("min-bl"), doc)
    assert verdict.passed and verdict.max_goal_gap >= 1
    # rewire every edge that would reach a goal node back to the initial
    # node, creating a goal-free loop
    import copy
    bad = copy.deepcopy(st)
    goal_nodes = {nid for nid in range(bad.n_nodes)
                  if bad.node_vals[nid][bad.names.index("rs")] == 0
                  and bad.node_vals[nid][bad.names.index("hf")] == 1}
    for nid in range(bad.n_nodes):
        nxt = bad.edge_next[nid]
        for k in range(len(nxt)):
            if int(nxt[k]) in goal_nodes:
                nxt[k] = bad.init_node[0]
    verdict = check.lasso_check(bad, sim.make_adversary("min-bl"), doc)
    assert not verdict.passed
    assert any("cycle" in v[2] for v in verdict.violations)


def test_soundness_link_gap_covers_traces(strategy_for, scenario):
    doc, arena, result = scenario(12)
    st = strategy_for(12)
    goal = doc.sys_liveness[0]
    for kind in ("min-bl", "max-bl"):
        lv = check.lasso_check(st, sim.make_adversary(kind), doc)
        assert lv.passed
        tr = sim.run(st, sim.make_adversary(kind), 180)
        assert check.check_recurrence(tr, goal, lv.max_goal_gap).passed


def test_closure_fresh_strategy(strategy_for, scenario):
    doc, arena, result = scenario(12)
    verdict = check.verify_strategy_closure(strategy_for(12), arena, result)
    assert verdict.passed


def test_closure_missing_edge_named():
    from gr1kit.speclang import parse_spec as ps
    doc = ps("[ENV_VARS]\nu : bool\n[SYS_VARS]\nx : bool\n")
    arena = ar.build_arena(doc)
    res = gr1.solve(arena, [], [np.ones(4, bool)])
    st = gr1.extract_strategy(res, arena)
    nid = st.init_node[0]
    st.edge_env[nid] = st.edge_env[nid][:1]
    st.edge_sys[nid] = st.edge_sys[nid][:1]
    st.edge_next[nid] = st.edge_next[nid][:1]
    verdict = check.verify_strategy_closure(st, arena)
    assert not verdict.passed
    assert any("no edge for legal env move" in v[2]
               for v in verdict.violations if v[0] == nid)


def test_closure_wrong_arena_vars(strategy_for):
    doc = parse_spec("[ENV_VARS]\nz : bool\n[SYS_VARS]\nw : bool\n")
    arena = ar.build_arena(doc)
    verdict = check.verify_strategy_closure(strategy_for(12), arena)
    assert not verdict.passed
    assert verdict.violations[0][1] == "order"


def test_verdict_render_and_summary():
    v = check.Verdict(False, [(3, "clause", "broken")], max_goal_gap=7)
    text = v.render()
    assert "FAIL" in text and "broken" in text and "7" in text
    assert v.summary()["violations"][0]["where"] == 3
