import dataclasses
import hashlib
import json
import random
import re

import numpy as np
import pytest

from gr1kit import arena as ar
from gr1kit import check
from gr1kit import gr1
from gr1kit import sim
from gr1kit import workdelivery as wd
from gr1kit.errors import CapacityExceeded, NotRealizable
from gr1kit.speclang import ENV, SYS, VarDecl, parse_spec

from conftest import (REDUCED, encode_state, grouped_arenas, reference_json,
                      valuation)
from genspec import random_document


def mono_arena(env_fn, sys_fn, env_sizes=(1,), sys_sizes=(2,)):
    decls = tuple(
        [VarDecl(f"u{i}", ENV, 0, s - 1, s == 2)
         for i, s in enumerate(env_sizes)] +
        [VarDecl(f"x{i}", SYS, 0, s - 1, s == 2)
         for i, s in enumerate(sys_sizes)])
    return ar.from_functions(decls, len(env_sizes), env_fn, sys_fn)


def test_single_state_self_loop():
    a = mono_arena(lambda s: [0], lambda s, e: [0], sys_sizes=(1,))
    res = gr1.solve(a, [], [np.array([True])])
    assert res.winning.all() and res.realizable


def test_env_trap_matches_oracle():
    # sys at x=0 may stay or fall to x=1, then stays stuck; goal is x=0
    a = mono_arena(lambda s: [0],
                   lambda s, e: [0, 1] if s == 0 else [1])
    goal = np.array([True, False])
    res = gr1.solve(a, [], [goal])
    oracle = gr1.brute_force_oracle(a, [], [goal])
    assert np.array_equal(res.winning, oracle)
    assert list(res.winning) == [True, False]


def test_env_deadlock_is_winning():
    a = mono_arena(lambda s: [] if s == 1 else [0],
                   lambda s, e: [1])
    goal = np.array([False, False])    # unreachable goal
    res = gr1.solve(a, [], [goal])
    # state 1 deadlocks the environment, so sys wins there despite the goal
    assert bool(res.winning[1])
    oracle = gr1.brute_force_oracle(a, [], [goal])
    assert np.array_equal(res.winning, oracle)


@pytest.mark.parametrize("assumed", [False, True], ids=["none", "u=0"])
def test_env_deadlock_ranks_after_seed(assumed):
    # x = 0 deadlocks the environment; from x = 1 the system picks x' = 0 or
    # 2, from x = 2 it picks x' = 1; the goal is x = 2 and the play starts
    # at u = 0, x = 1.  The deadlock ranks 1 with or without an assumption,
    # so the start moves to the goal and not into the deadlock, a node
    # without edges
    decls = (VarDecl("u", ENV, 0, 1, True), VarDecl("x", SYS, 0, 2, False))
    a = ar.from_functions(decls, 1, lambda s: [] if s % 3 == 0 else [0],
                          lambda s, e: [0, 2] if s % 3 == 1 else [1],
                          env_init=np.array([True, False]),
                          sys_init=np.arange(6) == 1)
    u, x = np.arange(6) // 3, np.arange(6) % 3
    res = gr1.solve(a, [u == 0] if assumed else [], [x == 2])
    assert res.y_rank[0, encode_state(a, [0, 0])] == 1
    st = gr1.extract_strategy(res, a)
    start = st.init_node[0]
    assert st.node_vals[start].tolist() == [0, 1]
    edges = range(st.edge_indptr[start], st.edge_indptr[start + 1])
    assert [st.node_vals[st.edge_next[k]][1] for k in edges] == [2]
    trace = sim.run(st, sim.make_adversary("random", seed=0), 20)
    assert trace.n_steps() == 20


def test_sys_deadlock_is_losing():
    a = mono_arena(lambda s: [0], lambda s, e: [])
    res = gr1.solve(a, [], [np.array([True, True])])
    assert not res.winning.any()


def test_oracle_corpus_small():
    for seed in range(40):
        a, env_live, sys_live = ar.random_arena(seed)
        res = gr1.solve(a, env_live, sys_live)
        oracle = gr1.brute_force_oracle(a, env_live, sys_live)
        assert np.array_equal(res.winning, oracle), f"seed {seed}"


def test_oracle_capacity():
    a = mono_arena(lambda s: [0], lambda s, e: [0], sys_sizes=(4, 4))
    with pytest.raises(CapacityExceeded):
        gr1.brute_force_oracle(a, [], [np.ones(16, bool)], cap=10)


# Max-parity games solved by hand, as (succ, owner, pri, W0): player 0 owns
# the nodes with owner 0 and wins a play whose highest priority seen
# infinitely often is even.
PARITY_GAMES = {
    # 0 reaches the priority-2 loop at 2 only through 1, where player 1
    # turns back by 3, so only the play from 2 sees priority 2 forever
    "priority_2_behind_player_1": (
        [[0, 1], [2, 3], [2], [0]], [0, 1, 0, 1], [1, 0, 2, 1], {2}),
    # the same game with 3 at priority 2: turning back now loses for 1
    "turning_back_loses": (
        [[0, 1], [2, 3], [2], [0]], [0, 1, 0, 1], [1, 0, 2, 2], {0, 1, 2, 3}),
    # player 1 leaves the priority-2 loop at 0 for the priority-1 loop at
    # 1; player 0 stays out of both by looping at 2
    "player_1_escapes": (
        [[0, 1], [1], [0, 2]], [1, 0, 0], [2, 1, 0], {2}),
    # the top attractor is {0} alone; the subgame {1, 2, 3} gives 1 and 2
    # to player 1, whose attractor B then takes 0 as well, although 0 has
    # the top priority; player 0 keeps 3 by looping there
    "second_attractor": (
        [[1], [0, 2], [2], [3, 2]], [0, 1, 1, 0], [2, 0, 1, 0], {3}),
}


@pytest.mark.parametrize("name", sorted(PARITY_GAMES))
def test_zielonka_on_hand_solved_parity_games(name):
    succ, owner, pri, w0 = PARITY_GAMES[name]
    preds = [[] for _ in succ]
    for u, ws in enumerate(succ):
        for w in ws:
            preds[w].append(u)
    nodes = set(range(len(succ)))
    assert gr1._zielonka(succ, preds, owner, pri, nodes) == (w0, nodes - w0)


def test_oracle_reduced_scenario_under_assumptions(reduced_arena, reduced_doc,
                                                   reduced_result):
    from gr1kit.speclang import parse_expr
    regions = []
    # under {GF !o1, GF !stalled} the winning region is the safety region,
    # so an oracle that never advanced its assumption counter would agree
    # there; under {GF stalled, GF !o1} the region is smaller and it would not
    for env_live in (("!o1",), ("stalled", "!o1"), ("!o1", "!stalled")):
        env_live = [parse_expr(e) for e in env_live]
        res = gr1.solve(reduced_arena, env_live, reduced_doc.sys_liveness)
        oracle = gr1.brute_force_oracle(reduced_arena, env_live,
                                        reduced_doc.sys_liveness)
        assert np.array_equal(res.winning, oracle)
        regions.append(oracle)
    # the assumptions change the answer, so the check is not vacuous
    assert not np.array_equal(regions[2], reduced_result.winning)
    assert not np.array_equal(regions[1], regions[2])


def brute_init_states(arena, inside):
    """Lowest state inside `inside` and the initial set for each env
    assignment, or -1, by a loop over valuations in index order."""
    env_names = arena.names[:arena.n_env_vars]
    first = {}
    for s in range(arena.n_states):
        if arena.sys_init[s] and inside[s]:
            val = valuation(arena, s)
            first.setdefault(tuple(val[n] for n in env_names), s)
    return [first.get(tuple(arena.env_values(e).values()), -1)
            for e in range(arena.n_env)]


def test_init_states_match_brute_loop():
    rng = random.Random(5)
    extracted = 0
    for _ in range(60):
        doc = random_document(rng)
        a = ar.build_arena(doc)
        masks = [np.ones(a.n_states, dtype=bool)] + [
            np.array([rng.random() < 0.6 for _ in range(a.n_states)])
            for _ in range(3)]
        for mask in masks:
            lowest = brute_init_states(a, mask)
            assert a.init_states(mask).tolist() == lowest
            assert gr1._init_escapes(a, mask).tolist() == [
                e for e in range(a.n_env) if a.env_init[e] and lowest[e] < 0]
        assert a.init_states(True).tolist() == brute_init_states(a, masks[0])
        res = gr1.solve(a, doc.env_liveness,
                        doc.sys_liveness or [np.ones(a.n_states, bool)])
        if not res.realizable:
            continue
        # each initial env assignment starts at its lowest winning
        # initial state, pursuing goal 0
        st = gr1.extract_strategy(res, a)
        env_init = [e for e in range(a.n_env) if a.env_init[e]]
        lowest = brute_init_states(a, res.winning)
        assert [dict(zip(st.env_names, row)) for row in st.init_env.tolist()
                ] == [a.env_values(e) for e in env_init]
        assert [dict(zip(st.names, st.node_vals[n].tolist()))
                for n in st.init_node] == [valuation(a, lowest[e])
                                           for e in env_init]
        assert not st.node_goal[st.init_node].any()
        extracted += 1
    assert extracted >= 15


def test_solver_determinism():
    a, env_live, sys_live = ar.random_arena(7)
    r1 = gr1.solve(a, env_live, sys_live)
    r2 = gr1.solve(a, env_live, sys_live)
    assert np.array_equal(r1.winning, r2.winning)
    assert np.array_equal(r1.y_rank, r2.y_rank)
    if r1.realizable:
        s1 = gr1.extract_strategy(r1, a)
        s2 = gr1.extract_strategy(r2, a)
        assert s1.to_obj() == s2.to_obj()


def test_extraction_closure_over_random_corpus():
    checked = 0
    for seed in range(200):
        a, env_live, sys_live = ar.random_arena(seed)
        res = gr1.solve(a, env_live, sys_live)
        if not res.realizable:
            continue
        st = gr1.extract_strategy(res, a)
        verdict = check.verify_strategy_closure(st, a, res)
        assert verdict.passed, (seed, verdict.render())
        checked += 1
        if checked >= 30:
            break
    assert checked >= 30


def test_is_realizable_vacuous_env_init():
    a = mono_arena(lambda s: [0], lambda s, e: [0, 1])
    a.env_init[:] = False
    res = gr1.solve(a, [], [np.array([False, False])])
    assert res.realizable          # no env init assignment exists
    assert not res.winning.any()


def test_winning_everywhere_realizable():
    a = mono_arena(lambda s: [0], lambda s, e: [0, 1])
    res = gr1.solve(a, [], [np.ones(2, bool)])
    assert res.winning.all() and res.realizable


def test_extract_requires_realizable():
    a = mono_arena(lambda s: [0], lambda s, e: [])
    res = gr1.solve(a, [], [np.ones(2, bool)])
    assert not res.realizable
    with pytest.raises(NotRealizable):
        gr1.extract_strategy(res, a)


def test_strategy_json_field_order(tmp_path):
    a = mono_arena(lambda s: [0], lambda s, e: [0, 1])
    res = gr1.solve(a, [], [np.ones(2, bool)])
    st = gr1.extract_strategy(res, a)
    path = tmp_path / "s.json"
    st.save(path)
    obj = json.loads(path.read_text())
    assert list(obj.keys()) == ["vars", "goals", "nodes", "init"]
    assert list(obj["nodes"][0].keys()) == ["id", "state", "goal", "edges"]
    if obj["nodes"][0]["edges"]:
        assert list(obj["nodes"][0]["edges"][0].keys()) == \
            ["env", "sys", "next"]
    assert list(obj["init"][0].keys()) == ["env", "node"]
    st2 = gr1.Strategy.load(path)
    assert st2.to_obj() == st.to_obj()


def _break_ids(obj):
    obj["nodes"][1]["id"] = 0


def _break_next(obj):
    obj["nodes"][0]["edges"][0]["next"] = 1_000_000


def _break_init(obj):
    obj["init"][0]["node"] = -1


def _break_goal(obj):
    obj["nodes"][0]["goal"] = obj["goals"]


def _repeat_var(obj):
    # a trace of it would have two `act` columns, which read_csv refuses
    obj["vars"].append("act")


def _set(*path):
    """Corruption writing path[-1] at the key path path[:-1]."""
    def corrupt(obj):
        for key in path[:-2]:
            obj = obj[key]
        obj[path[-2]] = path[-1]
    return corrupt


def _non_int(message, *path):
    return pytest.param(_set(*path), message,
                        id="-".join(map(str, path)).replace(" ", ""))


@pytest.mark.parametrize("corrupt, message", [
    (_break_ids, "node ids"), (_break_next, "next 1000000 outside"),
    (_break_init, "init node -1 outside"), (_break_goal, "goal 1 outside"),
    (_repeat_var, "vars named twice: act"),
    # values that are not JSON integers: int() used to truncate or parse them
    _non_int("node state['bl'] = 3.7 ", "nodes", 0, "state", "bl", 3.7),
    _non_int("node state['bl'] = '3' ", "nodes", 2, "state", "bl", "3"),
    _non_int("node state['rs'] = True ", "nodes", 1, "state", "rs", True),
    _non_int("edge['next'] = 1.9 ", "nodes", 0, "edges", 0, "next", 1.9),
    _non_int("edge['next'] = '1' ", "nodes", 0, "edges", 0, "next", "1"),
    _non_int("edge env['bl'] = '3' ", "nodes", 0, "edges", 1, "env", "bl", "3"),
    _non_int("edge env['o1'] = False ", "nodes", 1, "edges", 0, "env", "o1",
             False),
    _non_int("edge sys['act'] = 2.0 ", "nodes", 0, "edges", 0, "sys", "act",
             2.0),
    _non_int("edge sys['hf'] = None ", "nodes", 0, "edges", 0, "sys", "hf",
             None),
    _non_int("node['goal'] = 0.0 ", "nodes", 0, "goal", 0.0),
    _non_int("node['goal'] = False ", "nodes", 3, "goal", False),
    _non_int("node['id'] = 1.0 ", "nodes", 1, "id", 1.0),
    _non_int("init['node'] = True ", "init", 0, "node", True),
    _non_int("init env['bl'] = 5.0 ", "init", 0, "env", "bl", 5.0),
    _non_int("goals = 1.5 ", "goals", 1.5),
    _non_int("goals = True ", "goals", True),
])
def test_strategy_from_obj_rejects_dangling_refs(reduced_strategy, corrupt,
                                                 message):
    obj = reduced_strategy.to_obj()
    corrupt(obj)
    with pytest.raises(ValueError, match=re.escape(message)):
        gr1.Strategy.from_obj(obj)


def assert_json_codec(st, path):
    """`save` writes the reference writer's bytes, `to_obj` is its object,
    and `load` gives back every array with its int64 dtype and shape."""
    want = reference_json(st)
    st.save(path)
    # compared piece by piece: a diff of two long one-line texts is slow
    assert path.read_text().split(", ") == want.split(", ")
    assert st.to_obj() == json.loads(want)
    back = gr1.Strategy.load(path)
    if not len(st.edge_next) and not len(st.init_node):
        # no edge and no init entry carries an env dict, so the file does
        # not say which variables are the environment's: all load as sys
        assert (back.n_nodes, back.env_names, back.sys_names) == (
            0, (), st.names)
    else:
        for field in dataclasses.fields(gr1.Strategy):
            got, was = getattr(back, field.name), getattr(st, field.name)
            if isinstance(was, np.ndarray):
                assert got.dtype == np.int64 and got.shape == was.shape, field
                assert np.array_equal(got, was), field
            else:
                assert got == was, field
    back.save(path)
    assert path.read_text().split(", ") == want.split(", ")


def test_strategy_json_matches_reference_writer_on_corpora(tmp_path):
    path = tmp_path / "s.json"
    saved = 0
    for seed in range(300):
        a, env_live, sys_live = ar.random_arena(seed)
        res = gr1.solve(a, env_live, sys_live)
        if res.realizable:
            assert_json_codec(gr1.extract_strategy(res, a), path)
            saved += 1
    rng = random.Random(11)
    for _ in range(150):
        doc = random_document(rng)
        a = ar.build_arena(doc)
        res = gr1.solve(a, doc.env_liveness,
                        doc.sys_liveness or [np.ones(a.n_states, bool)])
        if res.realizable:
            assert_json_codec(gr1.extract_strategy(res, a), path)
            saved += 1
    assert saved >= 200


# The assumption sets of the assume-solve benchmark workload on
# scenario(12), each with the sha256 of y_rank, of the nu-X witness layers in
# order and of the saved controller, recorded with the solver whose nu-X
# retreats still started from the previous round and Z sweep.
ASSUME_SOLVE_PINS = {
    ("!o1",): (
        "e4c67806f287e01f9d58869b09dec75f16999b0e65c29e5e2fa040bce4f0f733",
        "b1fda9d7af97d462f00065bb2c3c680e63c0566c899611cff3201e3485606c90",
        "3541f01fa059c095bcc37df911110fa39b1d571f9c717735885ec9a89263ec2d"),
    ("!o1", "!o2"): (
        "1620c3b14767e683bd1d2d76cc14e8f7dcc80e356c2c52a9b7264b1e5975c05e",
        "8c82f1713db968114feb6dd02c5e91a1a15b9b5028500f453382097cd0a90b8c",
        "3541f01fa059c095bcc37df911110fa39b1d571f9c717735885ec9a89263ec2d"),
    ("!o1", "!o2", "!stalled"): (
        "52540b9c0681822e71a0c7ec46d0afad3423e0311bd6e72c06aa4a35aa5d1c42",
        "e19f2158aad81e7c9c52a303fcc13cb6f4949f61e3cd0cb4443477af83e54af7",
        "cde36607c3ad980fb59d937f3178dc610e5f94303c8df021309c6fa9ed3eafac"),
}


def test_strategy_json_matches_reference_writer_on_ladder(
        strategy_for, scenario, tmp_path):
    from gr1kit.speclang import parse_expr
    path = tmp_path / "s.json"
    for bl_init in (9, 12, 26):
        assert_json_codec(strategy_for(bl_init), path)
    doc = wd.emit_spec(wd.WorkDeliveryParams(n=4, k_move=1, k_drop=3))
    a = ar.build_arena(doc)
    assert_json_codec(gr1.extract_strategy(
        gr1.solve(a, doc.env_liveness, doc.sys_liveness), a), path)
    doc, a, _ = scenario(12)
    for env_live, pins in ASSUME_SOLVE_PINS.items():
        res = gr1.solve(a, [parse_expr(e) for e in env_live],
                        doc.sys_liveness)
        assert_json_codec(gr1.extract_strategy(res, a), path)
        witness = hashlib.sha256()
        for j, layers in enumerate(res.x_witness):
            for r, layer in layers.items():
                for i, X in layer:
                    witness.update(b"%d %d %d " % (j, r, i))
                    witness.update(X.tobytes())
        assert (hashlib.sha256(res.y_rank.tobytes()).hexdigest(),
                witness.hexdigest(),
                hashlib.sha256(path.read_bytes()).hexdigest()) == pins, env_live


@pytest.mark.parametrize("text, empty", [
    ("[ENV_VARS]\n[SYS_VARS]\nx : 0..3\n[SYS_TRANS]\nx' != x\n"
     "[SYS_LIVENESS]\nx = 0\n", "env"),
    ("[ENV_VARS]\nu : 0..3\n[SYS_VARS]\n[ENV_TRANS]\nu' != u\n"
     "[SYS_LIVENESS]\nu = 0 | u = 1 | u = 2 | u = 3\n", "sys"),
], ids=["no-env-vars", "no-sys-vars"])
def test_strategy_json_side_without_variables(text, empty, tmp_path):
    doc = parse_spec(text)
    a = ar.build_arena(doc)
    st = gr1.extract_strategy(
        gr1.solve(a, doc.env_liveness, doc.sys_liveness), a)
    table = st.edge_env if empty == "env" else st.edge_sys
    assert table.shape == (len(st.edge_next), 0)
    path = tmp_path / "s.json"
    assert_json_codec(st, path)
    obj = json.loads(path.read_text())
    assert {e[empty] == {} for nd in obj["nodes"] for e in nd["edges"]} == {True}
    assert obj["nodes"][0]["edges"]


def test_plays_never_leave_winning_region(strategy_for, scenario):
    import random as _random
    from gr1kit import sim as _sim
    doc, arena, result = scenario(12)
    st = strategy_for(12)
    rng = _random.Random(5)
    for _ in range(5):
        tr = _sim.run(st, _sim.make_adversary("random",
                                              seed=rng.randrange(10 ** 6)),
                      120)
        for row in tr.rows:
            s = encode_state(arena, tuple(row.state[n] for n in arena.names))
            assert result.winning[s]


def test_document_driven_assumption_game():
    from gr1kit.speclang import parse_spec
    doc = parse_spec("""
        [ENV_VARS]
        target : 0..3
        [SYS_VARS]
        chaser : 0..3
        [ENV_TRANS]
        target' <= target + 1
        target' >= target - 1
        [SYS_TRANS]
        chaser' <= chaser + 1
        chaser' >= chaser - 1
        [ENV_LIVENESS]
        target = 0
        [SYS_LIVENESS]
        chaser = target
    """)
    a = ar.build_arena(doc)
    res = gr1.solve(a, doc.env_liveness, doc.sys_liveness)
    oracle = gr1.brute_force_oracle(a, doc.env_liveness, doc.sys_liveness)
    assert np.array_equal(res.winning, oracle)
    assert res.realizable
    st = gr1.extract_strategy(res, a)
    assert check.verify_strategy_closure(st, a, res).passed


def test_extraction_loiter_under_falsified_assumption():
    # the env can never satisfy its own liveness (u stays 0), so the sys
    # wins vacuously and the controller loiters inside the recorded nu-X
    # region without ever decreasing a rank
    a = mono_arena(lambda s: [0], lambda s, e: [0],
                   env_sizes=(2,), sys_sizes=(1,))
    env_live = [np.array([False, True])]     # u = 1
    sys_live = [np.array([False, False])]    # unreachable goal
    res = gr1.solve(a, env_live, sys_live)
    assert res.winning.all() and res.realizable
    st = gr1.extract_strategy(res, a)
    verdict = check.verify_strategy_closure(st, a, res)
    assert verdict.passed, verdict.render()
    oracle = gr1.brute_force_oracle(a, env_live, sys_live)
    assert np.array_equal(res.winning, oracle)


def test_solve_needs_goals_over_the_arena():
    a, env_live, _ = ar.random_arena(0)
    with pytest.raises(ValueError, match="at least one"):
        gr1.solve(a, env_live, [])
    with pytest.raises(ValueError, match="wrong length"):
        gr1.solve(a, env_live, [np.ones(a.n_states + 1, dtype=bool)])


def test_goal_index_advances_only_on_goal_states():
    # two goals that alternate between the two sys values
    a = mono_arena(lambda s: [0], lambda s, e: [0, 1])
    g0 = np.array([True, False])
    g1 = np.array([False, True])
    res = gr1.solve(a, [], [g0, g1])
    assert res.realizable
    st = gr1.extract_strategy(res, a)
    verdict = check.verify_strategy_closure(st, a, res)
    assert verdict.passed, verdict.render()
    goals = [res.goals[j] for j in range(2)]
    for nid in range(st.n_nodes):
        s = encode_state(a, st.node_vals[nid].tolist())
        j = st.node_goal[nid]
        expect = (j + 1) % 2 if goals[j][s] else j
        edges = range(st.edge_indptr[nid], st.edge_indptr[nid + 1])
        assert all(st.node_goal[st.edge_next[k]] == expect for k in edges)


def dense_cpre(arena, target):
    """States from which sys can force the next state into `target`,
    computed from scratch over every edge; shares no code with the solver."""
    edge_pair = np.repeat(np.arange(arena.n_pairs), np.diff(arena.sys_indptr))
    succ = arena.env_next[edge_pair] * arena.n_sys + arena.sys_next
    good = np.zeros(arena.n_pairs, dtype=bool)
    good[edge_pair[target[succ]]] = True
    bad = np.bincount(arena.pair_state[~good], minlength=arena.n_states)
    return bad == 0


def plain_fixpoint(arena, assumptions, goals):
    """The parent solver's plain iteration, kept as a reference: every mu-Y
    round recomputes cpre(Y), every nu-X restarts from all states and every
    Z sweep recomputes cpre(Z).  Returns (winning, y_rank, x_witness).

    Each mu-Y starts from Y = empty, and round 0 takes the seed alone as its
    base, so cpre of nothing (the env-deadlocked states) joins the base from
    round 1 on.  A round that adds nothing ends the mu-Y once cpre(empty)
    has been offered, that is when the next round's base would be the
    same."""
    n = arena.n_states

    def cpre(target):
        return dense_cpre(arena, target)

    Z = np.ones(n, dtype=bool)
    y_rank = np.full((len(goals), n), gr1.INF_RANK, dtype=np.int32)
    x_witness = [{} for _ in goals]
    while True:
        z_before = Z
        for j, g in enumerate(goals):
            seed = g & cpre(Z)
            Y, base, r = np.zeros(n, dtype=bool), seed, 0
            y_rank[j] = gr1.INF_RANK
            x_witness[j] = {}
            while True:
                y_new, layer = base.copy(), []
                for i, a in enumerate(assumptions):
                    if a.all():
                        continue
                    X = np.ones(n, dtype=bool)
                    while not np.array_equal(X, x_new := base | (~a & cpre(X))):
                        X = x_new
                    layer.append((i, X))
                    y_new |= X
                newly = y_new & ~Y
                base_next = seed | cpre(y_new)
                if not newly.any() and np.array_equal(base_next, base):
                    break
                y_rank[j][newly] = r
                if layer:
                    x_witness[j][r] = layer
                Y, base, r = y_new, base_next, r + 1
            Z = Y
        if np.array_equal(Z, z_before):
            return Z, y_rank, x_witness


def assert_same_fixpoint(arena, env_live, sys_live):
    """solve() agrees with plain_fixpoint on every output."""
    res = gr1.solve(arena, env_live, sys_live)
    winning, y_rank, x_witness = plain_fixpoint(
        arena, res.assumptions, res.goals)
    assert np.array_equal(res.winning, winning)
    assert np.array_equal(res.y_rank, y_rank)
    if res.x_witness is None:
        # every assumption holds everywhere: no nu-X region is recorded
        assert all(a.all() for a in res.assumptions)
        assert x_witness == [{} for _ in res.goals]
        return
    assert len(res.x_witness) == len(x_witness)
    for got, want in zip(res.x_witness, x_witness):
        assert got.keys() == want.keys()
        for r in want:
            assert [i for i, _ in got[r]] == [i for i, _ in want[r]]
            assert all(np.array_equal(gx, wx)
                       for (_, gx), (_, wx) in zip(got[r], want[r]))


def test_incremental_fixpoint_matches_plain_iteration(monkeypatch):
    seen = {(kind, what): 0 for kind in ("trivial", "assumption")
            for what in ("env_deadlock", "sys_deadlock", "two_goals",
                         "mu_y_again")}
    for what in ("retreat_below_bound", "deadlock_assumed",
                 "retreat_builds_tracker", "retreat_skips_tracker"):
        seen["assumption", what] = 0
    nu_x, mu_y = gr1._nu_x, gr1._mu_y
    shrinking, mu_ys = [0], [0]

    class CountingCpre(gr1._Cpre):
        def __init__(self, arena, scope=None, target=None, groups=None,
                     cnt=None):
            shrinking[0] += target is not None
            super().__init__(arena, scope, target, groups, cnt)

    def counting_nu_x(arena, x, lower):
        start, built = x.copy(), shrinking[0]
        out = nu_x(arena, x, lower)
        seen["assumption", "retreat_below_bound"] += bool((start & ~out).any())
        if (start & ~lower).any():
            built = shrinking[0] - built
            seen["assumption", "retreat_builds_tracker"] += built
            seen["assumption", "retreat_skips_tracker"] += not built
        return out

    def counting_mu_y(*args):
        mu_ys[0] += 1
        return mu_y(*args)

    monkeypatch.setattr(gr1, "_Cpre", CountingCpre)
    monkeypatch.setattr(gr1, "_nu_x", counting_nu_x)
    monkeypatch.setattr(gr1, "_mu_y", counting_mu_y)
    for seed in range(600):
        a, env_live, sys_live = ar.random_arena(seed)
        kind = ("trivial" if all(e.all() for e in env_live)
                else "assumption")
        mu_ys[0] = 0
        assert_same_fixpoint(a, env_live, sys_live)
        stuck = np.diff(a.env_indptr) == 0
        seen[kind, "env_deadlock"] += bool(stuck.any())
        # a deadlock where every assumption holds ranks after round 0
        seen["assumption", "deadlock_assumed"] += (
            kind == "assumption"
            and bool((stuck & np.logical_and.reduce(env_live)).any()))
        seen[kind, "sys_deadlock"] += bool((np.diff(a.sys_indptr) == 0).any())
        seen[kind, "two_goals"] += len(sys_live) == 2
        # a goal's seed changed after its first mu-Y, so it ran again
        seen[kind, "mu_y_again"] += mu_ys[0] > len(sys_live)
    # not vacuous: with and without assumptions the corpus has deadlocks on
    # both sides, two goals, and games where a Z handed on cuts the safety
    # core, so that a goal whose seed changed solves its mu-Y again; some
    # nu-X retreats below its one-step bound, so that the retreat itself is
    # compared; retreats with undecided states both skip the shrinking
    # tracker (nothing leaves) and build one; and some assumption game has
    # an env deadlock outside every nu-X disjunct
    assert all(seen.values()), seen


def _scopes(a, rng):
    """Every state, then a random scope, as (kind, state indices)."""
    return (("full", np.arange(a.n_states)),
            ("random", rng.choice(a.n_states, rng.integers(1, a.n_states + 1),
                                  replace=False)))


def cpre_arenas():
    """60 random arenas, one group per pair, then 20 with groups of several
    pairs."""
    return [ar.random_arena(seed)[0] for seed in range(60)] + grouped_arenas(20)


def test_shrinking_cpre_matches_dense():
    steps = {"full": 0, "random": 0}
    moved = dict(steps)
    seen = {"idle": 0, "idle_hit": 0}
    for seed, a in enumerate(cpre_arenas()):
        rng = np.random.default_rng(seed)
        for kind, scope in _scopes(a, rng):
            inside = np.zeros(a.n_states, dtype=bool)
            inside[scope] = True
            # the full scope starts from every state, as cpre(Z) does; the
            # random one from a random target, as a nu-X retreat does
            target = (np.ones(a.n_states, dtype=bool) if kind == "full"
                      else rng.random(a.n_states) < 0.7)
            # the groups of the scope's pairs, with repeats, as a nu-X
            # retreat hands them
            groups = a.pair_group[ar._gather(a.env_indptr, scope)]
            cnt = gr1._into(a, groups, target)
            # with no scope the tracker starts from the counts of every
            # group and is defined on every state
            every = gr1._into(a, np.arange(a.n_groups), target)
            # counted through its group, each pair counts its own edges
            assert np.array_equal(every[a.pair_group], [
                target[a.edge_succ[lo:hi]].sum() for lo, hi in
                zip(a.sys_indptr[:-1], a.sys_indptr[1:])])
            if kind == "full":
                # under a full target they are the group degrees, which the
                # cpre(Z) tracker of solve starts from
                assert np.array_equal(every, np.diff(a.group_indptr))
            trackers = [
                (gr1._Cpre(a, scope, target.copy(), groups, cnt), inside),
                (gr1._Cpre(a, target=target.copy(),
                           groups=np.arange(a.n_groups), cnt=every),
                 np.ones(a.n_states, dtype=bool))]
            # the groups without a pair in the scope: their counts start at
            # 0 and only go down, so they never fan out
            idle = np.ones(a.n_groups, dtype=bool)
            idle[groups] = False
            seen["idle"] += bool(idle.any())
            want = dense_cpre(a, target)
            while True:
                for cpre, on in trackers:
                    assert np.array_equal(cpre.target, target), seed
                    assert np.array_equal((cpre.dead == 0)[on], want[on]), seed
                    # no state outside the scope is ever marked
                    assert not cpre.dead[~on].any(), seed
                assert (trackers[0][0].cnt[idle] <= 0).all(), seed
                seen["idle_hit"] += bool((trackers[0][0].cnt[idle] < 0).any())
                if not target.any():
                    break
                # drop at least one and at most half of the remaining states
                kept = np.flatnonzero(target)
                gone = rng.choice(kept, rng.integers(1, (len(kept) + 3) // 2),
                                  replace=False)
                target = target.copy()
                target[gone] = False
                lefts = [cpre.remove(gone) for cpre, _ in trackers]
                before, want = want, dense_cpre(a, target)
                for left, (_, on) in zip(lefts, trackers):
                    assert np.array_equal(
                        left, np.flatnonzero(before & ~want & on)), seed
                steps[kind] += 1
                moved[kind] += len(lefts[0]) > 0
            for cpre, _ in trackers:
                with pytest.raises(AssertionError, match="must shrink"):
                    cpre.add(np.arange(1))
    # chains of several steps, not just all-then-nothing, and returns that
    # are not all empty; random scopes that leave groups out, and removals
    # that hit them
    assert min(steps.values()) >= 3 * 60 and min(moved.values()), (steps,
                                                                    moved)
    assert all(seen.values()), seen


def test_growing_cpre_matches_dense():
    steps = {"full": 0, "random": 0}
    moved = dict(steps)
    for seed, a in enumerate(cpre_arenas()):
        rng = np.random.default_rng(seed)
        for kind, scope in _scopes(a, rng):
            inside = np.zeros(a.n_states, dtype=bool)
            inside[scope] = True
            cpre = gr1._Cpre(a, scope=None if kind == "full" else scope)
            target = np.zeros(a.n_states, dtype=bool)
            want = dense_cpre(a, target)
            while True:
                assert np.array_equal(cpre.target, target), seed
                assert np.array_equal((cpre.dead == 0)[inside],
                                      want[inside]), seed
                if target.all():
                    break
                # add at least one and at most half of the missing states
                missing = np.flatnonzero(~target)
                added = rng.choice(missing, rng.integers(
                    1, (len(missing) + 3) // 2), replace=False)
                target = target.copy()
                target[added] = True
                entered = cpre.add(added)
                before, want = want, dense_cpre(a, target)
                assert np.array_equal(
                    entered, np.flatnonzero(want & ~before & inside)), seed
                steps[kind] += 1
                moved[kind] += len(entered) > 0
            with pytest.raises(AssertionError, match="must grow"):
                cpre.remove(np.arange(1))
    # chains of several steps, not just nothing-then-all, and returns that
    # are not all empty
    assert min(steps.values()) >= 3 * 60 and min(moved.values()), (steps,
                                                                    moved)


def test_incremental_fixpoint_matches_plain_on_reduced_scenario(
        reduced_arena, reduced_doc):
    from gr1kit.speclang import parse_expr
    for env_live in ((), ("!o1", "!stalled")):
        assert_same_fixpoint(reduced_arena, [parse_expr(e) for e in env_live],
                             reduced_doc.sys_liveness)


def dense_core(arena):
    """nu Z. cpre(Z) by plain iteration from every state."""
    Z = np.ones(arena.n_states, dtype=bool)
    waves = 0
    while not np.array_equal(Z, shrunk := Z & dense_cpre(arena, Z)):
        Z, waves = shrunk, waves + 1
    return Z, waves


def test_goals_read_the_safety_core(monkeypatch, reduced_arena,
                                    reduced_doc):
    # the cpre(Z) tracker of solve is cut to nu Z. cpre(Z) before the first
    # goal reads its seed, and to the core of each later Z before each later
    # goal; record its target at every mu-Y of a solve
    trackers, targets = [], []
    mu_y = gr1._mu_y

    class RecordingCpre(gr1._Cpre):
        def __init__(self, arena, scope=None, target=None, groups=None,
                     cnt=None):
            super().__init__(arena, scope, target, groups, cnt)
            if scope is None and target is not None:
                trackers.append(self)
                targets.append([])

    def recording_mu_y(arena, seed, falsifiable):
        targets[-1].append((trackers[-1].target.copy(), seed))
        return mu_y(arena, seed, falsifiable)

    monkeypatch.setattr(gr1, "_Cpre", RecordingCpre)
    monkeypatch.setattr(gr1, "_mu_y", recording_mu_y)
    games = [ar.random_arena(seed) for seed in range(600)]
    games.append((reduced_arena, reduced_doc.env_liveness,
                  reduced_doc.sys_liveness))
    seen = dict.fromkeys(("proper", "waves2", "env_deadlock_inside",
                          "cut_later"), 0)
    for a, env_live, sys_live in games:
        res = gr1.solve(a, env_live, sys_live)
        assert len(targets) == len(trackers)
        (core, seed), *later = targets[-1]
        want, waves = dense_core(a)
        assert np.array_equal(core, want)
        assert np.array_equal(seed, res.goals[0] & dense_cpre(a, want))
        for target, _ in [(core, seed)] + later:
            # each target lies in its own cpre, and the winning region,
            # which lies in its own cpre too, lies in it
            assert not np.any(target & ~dense_cpre(a, target))
            assert not np.any(res.winning & ~target)
            seen["cut_later"] += not np.array_equal(target, core)
        seen["proper"] += not core.all()
        seen["waves2"] += waves >= 2
        seen["env_deadlock_inside"] += bool(
            (core & (np.diff(a.env_indptr) == 0)).any())
    # not vacuous: cores that cut states, some over several waves, env
    # deadlocks (in cpre of every target) kept inside them, and later goals
    # reading a smaller core than the first
    assert all(seen.values()), seen


@pytest.mark.parametrize("env_live", [(), ("!o1",), ("!o1", "!o2"),
                                      ("!o1", "!o2", "!stalled")],
                         ids=["none", "o1", "o1_o2", "o1_o2_stalled"])
def test_one_mu_y_per_goal_on_the_scenario(monkeypatch, scenario, env_live):
    # on the scenario the first seed, read from the safety core, is
    # already g & cpre(W), so each goal's mu-Y runs once
    from gr1kit.speclang import parse_expr
    doc, a, _ = scenario(12)
    mu_y, runs = gr1._mu_y, [0]

    def counting_mu_y(*args):
        runs[0] += 1
        return mu_y(*args)

    monkeypatch.setattr(gr1, "_mu_y", counting_mu_y)
    res = gr1.solve(a, [parse_expr(e) for e in env_live], doc.sys_liveness)
    assert res.realizable
    assert runs[0] == len(res.goals) == 1


def solve_bytes(arena, env_live, sys_live):
    """Every output of a solve as bytes: region, ranks, each nu-X layer
    and, when realizable, the controller JSON."""
    res = gr1.solve(arena, env_live, sys_live)
    out = [res.winning.tobytes(), res.y_rank.tobytes()]
    for witness in res.x_witness or ():
        out += [(r, i, x.tobytes()) for r in sorted(witness)
                for i, x in witness[r]]
    if res.realizable:
        out.append(gr1.extract_strategy(res, arena)._json_text())
    return out


def test_repeated_solves_match_fresh_arenas(paper_doc, paper_arena,
                                            reduced_doc, reduced_arena):
    # a solve reads the in-edge index its arena caches; solves that come
    # after others on one arena must match solves on freshly built arenas,
    # whose index each solve builds
    from gr1kit.speclang import parse_expr
    games = []
    for seed in range(300):
        a, env_live, sys_live = ar.random_arena(seed)
        if not all(e.all() for e in env_live):
            games.append((a, lambda s=seed: ar.random_arena(s)[0],
                          [env_live], sys_live))
    for doc, arena, sets in (
            (reduced_doc, reduced_arena, (("!o1",), ("!o1", "!stalled"))),
            (paper_doc, paper_arena,
             (("!o1",), ("!o1", "!o2"), ("!o1", "!o2", "!stalled")))):
        games.append((arena, lambda d=doc: ar.build_arena(d),
                      [[parse_expr(e) for e in s] for s in sets],
                      doc.sys_liveness))
    realizable = 0
    for arena, build, sets, sys_live in games:
        # so that every solve compared below follows another on its arena
        solve_bytes(arena, sets[-1], sys_live)
        for env_live in sets:
            want = solve_bytes(build(), env_live, sys_live)
            assert solve_bytes(arena, env_live, sys_live) == want
            realizable += isinstance(want[-1], str)
    # not vacuous: many assumption games, controllers compared too
    assert len(games) >= 100 and realizable >= 50, (len(games), realizable)


def one_group_per_pair(arena):
    """The arena rebuilt through `from_functions`, a group per pair."""
    def sys_fn(s, e):
        lo, hi = arena.env_indptr[s], arena.env_indptr[s + 1]
        g = arena.pair_group[lo + np.searchsorted(arena.env_next[lo:hi], e)]
        succ = arena.group_succ[arena.group_indptr[g]:arena.group_indptr[g + 1]]
        return (succ % arena.n_sys).tolist()

    return ar.from_functions(
        arena.decls, arena.n_env_vars,
        lambda s: arena.env_next[arena.env_indptr[s]:arena.env_indptr[s + 1]
                                 ].tolist(),
        sys_fn, arena.env_init, arena.sys_init)


def test_grouped_and_ungrouped_arenas_solve_alike(reduced_arena, reduced_doc):
    from gr1kit.speclang import parse_expr
    flat = one_group_per_pair(reduced_arena)
    assert flat.n_groups == flat.n_pairs > 3 * reduced_arena.n_groups
    for field in ("env_indptr", "env_next", "pair_state", "sys_indptr",
                  "edge_succ"):
        assert np.array_equal(getattr(flat, field),
                              getattr(reduced_arena, field)), field
    for env_live in ((), ("!o1",)):
        env_live = [parse_expr(e) for e in env_live]
        got = solve_bytes(reduced_arena, env_live, reduced_doc.sys_liveness)
        assert solve_bytes(flat, env_live, reduced_doc.sys_liveness) == got
        # controllers were compared: closure holds on both arenas alike
        assert isinstance(got[-1], str)
        res = gr1.solve(flat, env_live, reduced_doc.sys_liveness)
        st = gr1.extract_strategy(res, flat)
        verdicts = [check.verify_strategy_closure(st, a, res)
                    for a in (flat, reduced_arena)]
        assert verdicts[0].passed
        assert verdicts[0].render() == verdicts[1].render()


def test_grouped_arenas_match_plain_iteration_and_oracle():
    rng, realizable = np.random.default_rng(4), 0
    for a in grouped_arenas(40, seed=1):
        env_live = [rng.random(a.n_states) < 0.5
                    for _ in range(rng.integers(0, 3))]
        sys_live = [rng.random(a.n_states) < 0.5
                    for _ in range(rng.integers(1, 3))]
        assert_same_fixpoint(a, env_live, sys_live)
        res = gr1.solve(a, env_live, sys_live)
        assert np.array_equal(
            res.winning, gr1.brute_force_oracle(a, env_live, sys_live))
        if res.realizable:
            verdict = check.verify_strategy_closure(
                gr1.extract_strategy(res, a), a, res)
            assert verdict.passed, verdict.render()
            realizable += 1
    # not vacuous: controllers of grouped arenas were checked
    assert realizable >= 5, realizable


def test_with_inits_keeps_the_codecs(reduced_arena):
    # the variables are shared, so the codecs carry over; solves on the new
    # arena match ones on a fresh arena
    from gr1kit.speclang import parse_expr
    realizable = set()
    for bl_init in (3, 10):
        doc = wd.emit_spec(wd.WorkDeliveryParams(bl_init=bl_init, **REDUCED))
        b = ar.with_inits(reduced_arena, doc)
        assert b.state_codec is reduced_arena.state_codec
        assert b.env_codec is reduced_arena.env_codec
        fresh = ar.build_arena(doc)
        assert np.array_equal(b.sys_init, fresh.sys_init)
        for env_live in ((), ("!o1",), ("!o1", "!stalled")):
            env_live = [parse_expr(e) for e in env_live]
            got = solve_bytes(b, env_live, doc.sys_liveness)
            assert got == solve_bytes(fresh, env_live, doc.sys_liveness)
            realizable.add(isinstance(got[-1], str))
    # not vacuous: controllers compared, and an unrealizable init
    assert realizable == {True, False}


def test_reduced_assumption_game_bytes(reduced_arena, reduced_doc, tmp_path):
    # recorded with the plain-iteration solver
    from gr1kit.speclang import parse_expr
    res = gr1.solve(reduced_arena, [parse_expr("!o1"), parse_expr("!stalled")],
                    reduced_doc.sys_liveness)
    assert hashlib.sha256(res.y_rank.tobytes()).hexdigest() == (
        "6c91300f51823c223e3b5835c0af9135618e1d677f02422c0ffce51f33f8f024")
    path = tmp_path / "reduced_assume.json"
    gr1.extract_strategy(res, reduced_arena).save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "a3ac97ff8bdcb49e4dbe82e1ebbfe219d28bdb99d68f0e12039d2f92f26454a4")
