import dataclasses
import hashlib
import json

import numpy as np
import pytest

from gr1kit import arena as ar
from gr1kit import check
from gr1kit import gr1
from gr1kit import sim
from gr1kit.errors import AdversaryNotFinite, MissingBinding
from gr1kit.speclang import parse_expr, parse_spec

from conftest import reference_check_safety, reference_closure


def make_trace(doc_names, rows_states, frozen=()):
    names, step = tuple(doc_names), np.arange(len(rows_states))
    vals = np.array([[st[k] for k in names] for st in rows_states],
                    dtype=np.int64).reshape(len(step), len(names))
    return sim.Trace(names, vals, step, step * 10.0,
                     np.isin(step, list(frozen)))


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


def test_domain_violations_reported():
    doc = parse_spec("[ENV_VARS]\nu : 0..3\n[SYS_VARS]\nx : 0..3\n"
                     "[ENV_TRANS]\nu' <= u + 1\n[SYS_TRANS]\nx' = u'\n")
    tr = make_trace(("u", "x"), [{"u": k, "x": k} for k in range(6)])
    assert check.check_safety(tr, doc).violations == [
        (4, "domain", "u = 4 outside 0..3"), (4, "domain", "x = 4 outside 0..3"),
        (5, "domain", "u = 5 outside 0..3"), (5, "domain", "x = 5 outside 0..3")]
    # within a row, domain findings come before clause findings
    tr.vals[5] = [5, 1]
    assert check.check_safety(tr, doc).violations[2:] == [
        (5, "domain", "u = 5 outside 0..3"), (5, "sys_trans[0]", "violated: x' = u'")]


def test_safety_on_an_empty_trace_fails():
    doc = parse_spec("[ENV_VARS]\nu : 0..3\n[SYS_VARS]\nx : 0..3\n")
    verdict = check.check_safety(make_trace(("u", "x"), []), doc)
    assert not verdict.passed
    assert verdict.violations == [("trace", "empty", "no rows to check")]


def test_safety_needs_every_declared_variable():
    # no clause reads `u`, so only the domain check would look at it
    doc = parse_spec("[ENV_VARS]\nu : 0..3\n[SYS_VARS]\nx : 0..3\n"
                     "[SYS_TRANS]\nx' <= 2\n")
    tr = make_trace(("x",), [{"x": k} for k in range(3)])
    with pytest.raises(MissingBinding, match="^u missing from trace$"):
        check.check_safety(tr, doc)
    tr = make_trace(("x", "u"), [{"x": k, "u": 9} for k in range(3)])
    assert check.check_safety(tr, doc).violations == [
        (k, "domain", "u = 9 outside 0..3") for k in range(3)]


def test_safety_violation_list_pinned(reduced_doc, reduced_strategy):
    # recorded before the checkers evaluated clauses over trace columns
    events = sim.parse_events("step=10 human_away=1 duration=3")
    tr = sim.run(reduced_strategy, sim.make_adversary("random", seed=1), 24,
                 events=events)
    col = {name: tr.vals[:, k] for k, name in enumerate(tr.names)}
    for k, change in ((0, {"bl": 7}), (4, {"rs": 2}), (8, {"bl": 0}),
                      (11, {"hf": 1 - col["hf"][11]}),   # frozen row
                      (16, {"hf": 1 - col["hf"][16], "tries": 2})):
        for name, value in change.items():
            col[name][k] = value
    bl_rule = ("act != 2 & bl >= 1 & !(hf & (act = 0 & rs != 0 | tries = 1 "
               "& !s)) -> bl' = bl | bl >= 1 & bl' = bl - 1 | bl <= 1 & "
               "bl' = 0")
    assert check.check_safety(tr, reduced_doc).violations == [
        (0, "env_init[0]", "init violated: bl = 5"),
        (1, "env_trans[10]", f"violated: {bl_rule}"),
        (4, "sys_trans[0]", "violated: rs' = act"),
        (4, "sys_trans[2]", "violated: act' >= rs' - 1"),
        (8, "env_trans[10]", f"violated: {bl_rule}"),
        (8, "env_trans[12]", "violated: stalled' <-> bl' = bl"),
        (8, "sys_trans[4]", "violated: bl' >= 1"),
        (9, "env_trans[8]", "violated: act != 2 & bl = 0 -> bl' = bl"),
        (16, "sys_trans[8]", "violated: !(rs = 2 & act = 1) & "
                             "!(rs = 0 & hf & s) -> (hf' <-> hf)"),
    ]


def test_recurrence_trivial_and_violation():
    states = [{"g": 1} for _ in range(10)]
    tr = make_trace(("g",), states)
    goal = parse_expr("g = 1")
    assert check.check_recurrence(tr, goal, 1).passed
    states = [{"g": 1 if i == 0 else 0} for i in range(10)]
    tr = make_trace(("g",), states)
    verdict = check.check_recurrence(tr, goal, 4)
    # each goal-free stretch is reported once per full window
    assert verdict.violations == [
        (k, "recurrence", "4 consecutive steps without the goal")
        for k in (4, 8)]
    # findings name the step column, not the row position
    tr.step += 100
    assert [where for where, _, _ in
            check.check_recurrence(tr, goal, 4).violations] == [104, 108]
    # trace shorter than the window passes vacuously
    tr = make_trace(("g",), states[:3])
    assert check.check_recurrence(tr, goal, 5).passed
    with pytest.raises(ValueError, match="at least 1"):
        check.check_recurrence(tr, goal, 0)


def test_recurrence_window_extends_over_freeze():
    states = []
    for i in range(12):
        states.append({"g": 1 if i in (0, 11) else 0})
    frozen = {3, 4, 5, 6}
    tr = make_trace(("g",), states, frozen=frozen)
    goal = parse_expr("g = 1")
    # 8 effective rows, goal at effective positions 0 and 7
    assert check.check_recurrence(tr, goal, 7).passed
    verdict = check.check_recurrence(tr, goal, 6)
    assert [where for where, _, _ in verdict.violations] == [10]


def tiny_doc():
    return parse_spec("[ENV_VARS]\nu : bool\n[SYS_VARS]\nx : bool\n"
                      "[SYS_LIVENESS]\nx\n")


def ux_strategy(states, edges):
    """Controller over ``u`` (env) and ``x`` (sys) in the strategy JSON
    format: `states` holds each node's (u, x), `edges` each node's
    (u', x', next) triples; node 0 is the initial node."""
    return gr1.Strategy.from_obj({
        "vars": ["u", "x"], "goals": 1,
        "nodes": [{"id": nid, "state": {"u": u, "x": x}, "goal": 0,
                   "edges": [{"env": {"u": eu}, "sys": {"x": ex},
                              "next": nxt} for eu, ex, nxt in out]}
                  for nid, ((u, x), out) in enumerate(zip(states, edges))],
        "init": [{"env": {"u": states[0][0]}, "node": 0}]})


def one_node_strategy(goal_true=True):
    x = 1 if goal_true else 0
    return ux_strategy([(0, x)], [[(0, x, 0), (1, x, 0)]])


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
    st = ux_strategy([(0, 0)], [[(0, 0, 0)]])
    verdict = check.lasso_check(st, sim.make_adversary("min-bl"), doc)
    assert verdict.passed


def test_lasso_assumption_must_fail_on_whole_cycle():
    doc = parse_spec("[ENV_VARS]\nu : bool\n[SYS_VARS]\nx : bool\n"
                     "[ENV_LIVENESS]\nu\n[SYS_LIVENESS]\nx\n")
    # u alternates 0/1 along a two-node cycle, so GF u holds while the
    # goal x never does: a genuine liveness violation
    st = ux_strategy([(0, 0), (1, 0)], [[(1, 0, 1)], [(0, 0, 0)]])
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
    col = {name: st.node_vals[:, k] for k, name in enumerate(st.names)}
    goal_nodes = np.flatnonzero((col["rs"] == 0) & (col["hf"] == 1))
    bad = dataclasses.replace(st, edge_next=np.where(
        np.isin(st.edge_next, goal_nodes), st.init_node[0], st.edge_next))
    verdict = check.lasso_check(bad, sim.make_adversary("min-bl"), doc)
    assert not verdict.passed
    assert any("cycle" in v[2] for v in verdict.violations)


def test_soundness_link_gap_covers_traces(strategy_for, scenario):
    doc, arena, result = scenario(12)
    st = strategy_for(12)
    goal = doc.sys_liveness[0]
    # gaps recorded before the checkers evaluated over controller columns
    for kind, gap in (("min-bl", 14), ("max-bl", 30)):
        lv = check.lasso_check(st, sim.make_adversary(kind), doc)
        assert lv.passed and lv.max_goal_gap == gap
        tr = sim.run(st, sim.make_adversary(kind), 180)
        assert check.check_recurrence(tr, goal, lv.max_goal_gap).passed


def test_closure_fresh_strategy(strategy_for, scenario):
    doc, arena, result = scenario(12)
    verdict = check.verify_strategy_closure(strategy_for(12), arena, result)
    assert verdict.passed


def test_closure_missing_edge_named(keep_edges):
    doc = parse_spec("[ENV_VARS]\nu : bool\n[SYS_VARS]\nx : bool\n")
    arena = ar.build_arena(doc)
    res = gr1.solve(arena, [], [np.ones(4, bool)])
    st = gr1.extract_strategy(res, arena)
    nid = int(st.init_node[0])
    drop = np.arange(st.edge_indptr[nid] + 1, st.edge_indptr[nid + 1])
    st = keep_edges(st, np.setdiff1d(np.arange(len(st.edge_next)), drop))
    verdict = check.verify_strategy_closure(st, arena, res)
    assert not verdict.passed
    assert any("no edge for legal env move" in v[2]
               for v in verdict.violations if v[0] == nid)


def _mutate(st, keep_edges, case):
    """The reduced controller with one defect; node 0 has the two edges
    env (4, 0, 0, 0) -> node 1 and env (5, 0, 0, 1) -> node 2."""
    n_edges = len(st.edge_next)
    if case == "dropped edge":
        return keep_edges(st, np.delete(np.arange(n_edges), 1))
    if case == "duplicated edge":
        return keep_edges(st, np.insert(np.arange(n_edges), 1, 0))
    bad = dataclasses.replace(
        st, node_vals=st.node_vals.copy(), node_goal=st.node_goal.copy(),
        edge_env=st.edge_env.copy(), edge_sys=st.edge_sys.copy(),
        edge_next=st.edge_next.copy())
    if case == "illegal env move":
        bad.edge_env[0, 0] = 0          # bl 5 -> 0 drops too far
    elif case == "illegal sys response":
        bad.edge_sys[0, 1] = 2          # act 2 is not adjacent to rs 0
    elif case == "wrong next":
        bad.edge_next[0] = 2
    elif case == "wrong goal index":
        bad.node_goal[1] = 1            # the only goal index is 0
    elif case == "out-of-domain node value":
        bad.node_vals[1, 0] = 99        # bl : 0..10
    # hf = 0, tries = 3 packs to the index of hf = 1, tries = 0
    elif case == "aliased node value":
        bad.node_vals[8, 6:] = (0, 3)   # node 8 has hf = 1, tries = 0
    elif case == "aliased edge value":
        bad.edge_sys[8, 2:] = (0, 3)    # edge 8 belongs to node 6
    elif case == "no init entry":
        bad = dataclasses.replace(st, init_env=st.init_env[:0],
                                  init_node=st.init_node[:0])
    elif case == "init node not initial":
        bad = dataclasses.replace(st, init_node=np.array([1]))
    elif case == "init env not legal":
        bad = dataclasses.replace(st, init_env=np.array([[6, 1, 1, 1]]))
    elif case == "duplicate init entry":
        bad = dataclasses.replace(st, init_env=st.init_env[[0, 0]],
                                  init_node=st.init_node[[0, 0]])
    return bad


INIT_CASES = ("no init entry", "init node not initial", "init env not legal",
              "duplicate init entry")


MUTATIONS = [
    ("dropped edge", (0, "closure", "no edge for legal env move (5, 0, 0, 1)")),
    ("duplicated edge", (0, "closure", "duplicate edges")),
    ("illegal env move",
     (0, "closure", "edge for illegal env move (0, 0, 0, 0)")),
    ("illegal sys response",
     (0, "closure", "illegal sys response to (4, 0, 0, 0)")),
    ("wrong next", (0, "closure", "successor mismatch on (4, 0, 0, 0)")),
    ("wrong goal index",
     (0, "goal", "goal index must advance exactly on goal states")),
    ("out-of-domain node value",
     (1, "closure", "state {'bl': 99, 's': 0, 'o1': 0, 'stalled': 0, "
                    "'rs': 0, 'act': 1, 'hf': 0, 'tries': 0} outside the "
                    "arena's domain")),
    ("aliased node value",
     (8, "closure", "state {'bl': 7, 's': 0, 'o1': 0, 'stalled': 0, "
                    "'rs': 1, 'act': 0, 'hf': 0, 'tries': 3} outside the "
                    "arena's domain")),
    ("aliased edge value",
     (6, "closure", "illegal sys response to (7, 0, 0, 0)")),
    # the one legal initial env assignment is (5, 0, 0, 0), at node 0;
    # node 1 has bl = 4 and act = 1
    ("no init entry", ("init", "init", "no init entry for legal env "
                                       "assignment (5, 0, 0, 0)")),
    ("init node not initial",
     ("init", "init", "init node 1 state is not initial")),
    ("init env not legal",
     ("init", "init", "init entry for illegal env assignment (6, 1, 1, 1)")),
    ("duplicate init entry", ("init", "init", "duplicate init entries for "
                                              "env assignment (5, 0, 0, 0)")),
]


@pytest.mark.parametrize("case, expected", MUTATIONS)
def test_closure_mutations(reduced_strategy, reduced_arena, reduced_result,
                           keep_edges, case, expected):
    st = reduced_strategy
    assert check.verify_strategy_closure(st, reduced_arena,
                                         reduced_result).passed
    bad = _mutate(st, keep_edges, case)
    verdict = check.verify_strategy_closure(bad, reduced_arena,
                                            reduced_result)
    assert not verdict.passed
    assert expected in verdict.violations, verdict.render()


def test_reduced_controller_bytes(reduced_strategy, tmp_path):
    # recorded before strategies moved to the flat CSR layout
    path = tmp_path / "reduced.json"
    reduced_strategy.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "c5011752c35b508d1f32cd5ea64fc6b935f77ca21c194150bcc370e3e0f8416c")
    back = gr1.Strategy.from_obj(json.loads(path.read_text()))
    assert back.to_obj() == reduced_strategy.to_obj()


def test_closure_wrong_arena_vars(strategy_for):
    doc = parse_spec("[ENV_VARS]\nz : bool\n[SYS_VARS]\nw : bool\n")
    arena = ar.build_arena(doc)
    res = gr1.solve(arena, [], [np.ones(4, bool)])
    verdict = check.verify_strategy_closure(strategy_for(12), arena, res)
    assert not verdict.passed
    assert verdict.violations[0][1] == "order"


def test_closure_goal_count_mismatch():
    # a one-goal controller never visits x = 2; checked against the game
    # with that second goal, its goal index never advances to goal 1
    text = "[ENV_VARS]\nu : bool\n[SYS_VARS]\nx : 0..2\n[SYS_LIVENESS]\nx = 0\n"
    one, two = parse_spec(text), parse_spec(text + "x = 2\n")
    arena = ar.build_arena(one)
    st = gr1.extract_strategy(gr1.solve(arena, [], one.sys_liveness), arena)
    assert st.n_goals == 1 and not (st.node_vals[:, 1] == 2).any()
    res = gr1.solve(arena, [], two.sys_liveness)
    assert res.realizable and len(res.goals) == 2
    verdict = check.verify_strategy_closure(st, arena, res)
    want = [("goals", "count", "strategy goals 1 != game goals 2")]
    assert verdict.violations == want
    assert reference_closure(st, arena, res) == want
    # the lasso check of the same pair fails too
    assert not check.lasso_check(st, sim.make_adversary("min-bl"),
                                 two).passed


def test_verdict_render_and_summary():
    v = check.Verdict(False, [(3, "clause", "broken")], max_goal_gap=7)
    text = v.render()
    assert "FAIL" in text and "broken" in text and "7" in text
    assert v.summary()["violations"][0]["where"] == 3


# --------------------------------------------------------------------------
# the checkers against the reference checkers in conftest.py


def node_findings(violations):
    return [v for v in violations if v[0] != "init"]


def scenario_traces(strategy):
    """Random, greedy and scripted runs of 180 steps, two of them with a
    human-away span."""
    away = sim.parse_events("step=20 human_away=1 duration=6")
    runs = [(sim.make_adversary("random", seed=k), ()) for k in range(3)]
    runs += [(sim.make_adversary(kind), ()) for kind in ("min-bl", "max-bl")]
    runs += [(sim.make_adversary("random", seed=7), away),
             (sim.make_adversary("scripted", 3, away), away)]
    return [sim.run(strategy, adv, 180, events=ev) for adv, ev in runs]


def test_safety_matches_reference(strategy_for, scenario, reduced_doc,
                                  reduced_strategy):
    rng = np.random.default_rng(0)
    cases = [(scenario(b)[0], strategy_for(b)) for b in (9, 12, 26)]
    cases.append((reduced_doc, reduced_strategy))
    failing = 0
    for doc, st in cases:
        decl = {d.name: d for d in doc.vars}
        lo = np.array([decl[n].lo for n in st.names])
        hi = np.array([decl[n].hi for n in st.names])
        for tr in scenario_traces(st):
            assert (check.check_safety(tr, doc).violations ==
                    reference_check_safety(tr, doc))
            frozen = np.flatnonzero(tr.human_away)
            for m in range(30):
                kind = ("in domain", "out of domain", "frozen row")[m % 3]
                rows = (frozen if kind == "frozen row" and len(frozen)
                        else np.arange(len(tr.vals)))
                k, j = rng.choice(rows), rng.integers(len(st.names))
                value = (rng.integers(lo[j], hi[j] + 1)
                         if kind != "out of domain" else
                         rng.choice([lo[j] - 1 - rng.integers(3),
                                     hi[j] + 1 + rng.integers(3)]))
                bad = dataclasses.replace(tr, vals=tr.vals.copy())
                bad.vals[k, j] = value
                got = check.check_safety(bad, doc).violations
                assert got == reference_check_safety(bad, doc), (kind, k, j)
                failing += bool(got)
    assert failing > 300


def test_closure_matches_reference_on_mutation_cases(
        reduced_strategy, reduced_arena, reduced_result, keep_edges):
    for case, _ in MUTATIONS:
        bad = _mutate(reduced_strategy, keep_edges, case)
        got = check.verify_strategy_closure(bad, reduced_arena,
                                            reduced_result).violations
        want = reference_closure(bad, reduced_arena, reduced_result)
        assert node_findings(got) == want, case
        assert (got != want) == (case in INIT_CASES), case


def test_closure_matches_reference_on_random_mutations(
        reduced_strategy, reduced_arena, reduced_result):
    st, a = reduced_strategy, reduced_arena
    rng = np.random.default_rng(1)
    lo = np.array([d.lo for d in a.decls])
    hi = np.array([d.hi for d in a.decls])
    n_env = a.n_env_vars
    init_nodes = set(st.init_node.tolist())
    failing = 0
    for m in range(1000):
        bad = dataclasses.replace(
            st, node_vals=st.node_vals.copy(), edge_env=st.edge_env.copy(),
            edge_sys=st.edge_sys.copy(), edge_next=st.edge_next.copy())
        field = ("edge_env", "edge_sys", "edge_next", "node_vals")[m % 4]
        arr = getattr(bad, field)
        k = rng.integers(len(arr))
        if field == "edge_next":
            arr[k] = rng.integers(st.n_nodes)
        else:
            j = rng.integers(arr.shape[1])
            v = j + (n_env if field == "edge_sys" else 0)
            arr[k, j] = rng.integers(lo[v] - 1, hi[v] + 2)
        got = check.verify_strategy_closure(bad, a, reduced_result).violations
        assert node_findings(got) == reference_closure(bad, a,
                                                       reduced_result), m
        if not (field == "node_vals" and k in init_nodes):
            assert got == node_findings(got), m
        failing += bool(got)
    assert failing > 500


def test_closure_matches_reference_on_random_arenas():
    rng = np.random.default_rng(2)
    realizable = failing = 0
    for seed in range(600):
        a, env_live, sys_live = ar.random_arena(seed)
        res = gr1.solve(a, env_live, sys_live)
        if not res.realizable:
            continue
        realizable += 1
        st = gr1.extract_strategy(res, a)
        # and one successor redirected, which the init entries do not see
        bad = dataclasses.replace(st, edge_next=st.edge_next.copy())
        if len(bad.edge_next):
            bad.edge_next[rng.integers(len(bad.edge_next))] = rng.integers(
                st.n_nodes)
        got = check.verify_strategy_closure(st, a, res).violations
        assert got == reference_closure(st, a, res) == [], seed
        got = check.verify_strategy_closure(bad, a, res).violations
        assert got == reference_closure(bad, a, res), seed
        failing += bool(got)
    assert realizable > 300 and failing > 100, (realizable, failing)
