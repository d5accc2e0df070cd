import hashlib
from pathlib import Path

import numpy as np
import pytest

from gr1kit import arena as ar
from gr1kit import gr1
from gr1kit import sim
from gr1kit import workdelivery as wd
from gr1kit.errors import InvalidParams
from gr1kit.speclang import parse_spec, print_spec

from conftest import (REDUCED, column, encode_state, env_column, env_moves,
                      sys_moves, sys_values)

DATA = Path(__file__).parent / "data"


def world(p, **kw):
    base = dict(n=p.n, bl=10, rs=0, act=0, hf=False, tries=0, s=False,
                obstacles=(False,) * (p.n - 1), stalled=False)
    base.update(kw)
    return wd.WorldState(**base)


def test_param_validation():
    wd.WorkDeliveryParams().validate()
    with pytest.raises(InvalidParams):
        wd.WorkDeliveryParams(gamma_units=0).validate()
    with pytest.raises(InvalidParams):
        wd.WorkDeliveryParams(delta_units=31).validate()
    with pytest.raises(InvalidParams):
        wd.WorkDeliveryParams(bl_upper=31).validate()
    with pytest.raises(InvalidParams):
        wd.WorkDeliveryParams(k_move=6, k_drop=5).validate()
    with pytest.raises(InvalidParams, match="k_move must be at least 1"):
        wd.WorkDeliveryParams(k_move=0).validate()
    with pytest.raises(InvalidParams):
        wd.WorkDeliveryParams(bl_init=31).validate()
    with pytest.raises(InvalidParams):
        wd.WorkDeliveryParams(n=0).validate()


def test_params_from_items():
    p = wd.params_from_items([("n", "2"), ("bl_init", "3..7"),
                              ("hf_init", "true")])
    assert p.n == 2 and p.bl_init == (3, 7) and p.hf_init
    with pytest.raises(InvalidParams):
        wd.params_from_items([("mystery", "1")])
    for raw, flag in (("1", True), ("TRUE", True), (" yes ", True),
                      ("0", False), ("False", False), ("No", False)):
        assert wd.params_from_items([("hf_init", raw)]).hf_init is flag
    for raw in ("banana", "2", "", "on"):
        with pytest.raises(InvalidParams):
            wd.params_from_items([("hf_init", raw)])


def test_emit_text_matches_golden_file(paper_params):
    golden = (DATA / "work_delivery_n3.spec").read_bytes()
    assert wd.emit_text(paper_params).encode() == golden


# sha256 of the emitted text, pinned from the spec printer's output
EMITTED = {
    "default": (
        {}, "4593857ddd9ffeede69f22591847155465ad5d2784380004a5ca99fb45c49ffc"),
    "n1": (
        dict(n=1, delta_units=10, bl_upper=20, bl_init=12),
        "1f91520b44522fb28b31a138f0a6c78556bcf9765f121a571103df8acb5446d0"),
    "reduced": (
        dict(REDUCED, bl_init=5),
        "842347b63072df90065aaa58db6f4d92275d7a8ed1272b57a3ce352d147befd2"),
    "reduced-bl-range": (
        dict(REDUCED, bl_init=(3, 7)),
        "bf2e9c11576f1f5f2ce0e91c6f00aa3a3969aaaa8af13c450c3f523e2a600c04"),
    "bl-range-hf": (
        dict(bl_init=(9, 26), hf_init=True),
        "487ad315c5264db5d7b905d4b3f613b8c5293f1c57d4d4781ac8a6e47e8a4dd4"),
    # drops of 12 and 15 units exceed bl_max and are left out
    "drops-over-bl-max": (
        dict(REDUCED, gamma_units=3, k_drop=5, bl_init=5),
        "eea5f26c88d12d067ea774111f4460786d64c816757d17b1920cd2578c1dafbc"),
    "n4k1k3": (
        dict(n=4, k_move=1, k_drop=3),
        "b508722356afa3f042b88e0d14e0a2719908105582daf3770e84272450bada11"),
    "n5": (
        dict(n=5),
        "387ef544124f26566a4d4afc6e67f6878e340d51c17d4ac710cf91b8cc3fe396"),
}


@pytest.mark.parametrize("params, digest", EMITTED.values(), ids=EMITTED)
def test_emitted_document_parses_cleanly(params, digest):
    p = wd.WorkDeliveryParams(**params)
    text = wd.emit_text(p)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    doc = parse_spec(text)        # would raise on any diagnostic
    assert print_spec(doc) == text
    assert wd.emit_spec(p) == doc
    assert print_spec(wd.emit_spec(p)) == text


def test_n1_has_no_obstacle_variables():
    doc = wd.emit_spec(wd.WorkDeliveryParams(n=1, delta_units=10,
                                             bl_upper=20, bl_init=12))
    names = [d.name for d in doc.vars]
    assert not any(name.startswith("o") for name in names)
    a = ar.build_arena(doc)
    assert a.n_states == 31 * 2 * 2 * 2 * 2 * 2 * 3


def test_declared_domain_product(paper_arena):
    product = 1
    for d in paper_arena.decls:
        product *= d.size
    assert paper_arena.n_states == product
    assert product == 31 * 2 * 2 * 2 * 2 * 4 * 4 * 2 * 3


def test_backlog_successors_moving(paper_params):
    s = world(paper_params, bl=20, rs=1, act=2)
    assert wd.backlog_successors(s, paper_params) == {18, 19, 20}


def test_backlog_successors_dropoff(paper_params):
    s = world(paper_params, bl=20, rs=1, act=0, hf=True)
    assert wd.backlog_successors(s, paper_params) == {15, 16, 17, 18, 19, 20}
    retry = world(paper_params, bl=20, rs=0, act=0, hf=True, tries=1, s=False)
    assert wd.backlog_successors(retry, paper_params) == \
        {15, 16, 17, 18, 19, 20}


def test_backlog_successors_refill(paper_params):
    s = world(paper_params, bl=10, rs=2, act=3)
    assert wd.backlog_successors(s, paper_params) == {25}
    high = world(paper_params, bl=20, rs=2, act=3)
    assert wd.backlog_successors(high, paper_params) == {30}


def test_backlog_successors_wait(paper_params):
    s = world(paper_params, bl=0, rs=1, act=1)
    assert wd.backlog_successors(s, paper_params) == {0}


def test_backlog_successors_hold_at_station(paper_params):
    s = world(paper_params, bl=16, rs=3, act=3)
    assert wd.backlog_successors(s, paper_params) == {16}


def test_backlog_successors_stalled(paper_params):
    s = world(paper_params, bl=20, rs=1, act=2, stalled=True)
    assert wd.backlog_successors(s, paper_params) == {18, 19}
    low = world(paper_params, bl=1, rs=1, act=2, stalled=True)
    assert wd.backlog_successors(low, paper_params) == {0}


def test_human_mode(paper_params):
    n = paper_params.n
    assert wd.human_mode(3, 10, n) == wd.REFILL
    assert wd.human_mode(1, 0, n) == wd.WAIT
    assert wd.human_mode(0, 12, n) == wd.WORK
    assert wd.human_mode(np.array([3, 1, 0, 3]), np.array([10, 0, 12, 0]),
                         n) == [wd.REFILL, wd.WAIT, wd.WORK, wd.REFILL]


def test_arena_backlog_successors_match_reference(paper_params, paper_arena):
    """Cross-module consistency over the entire valuation space."""
    a = paper_arena
    p = paper_params
    cols = {name: column(a, name) for name in a.names}
    bl_of_env = env_column(a, "bl")
    for s in range(a.n_states):
        state = wd.WorldState(
            n=p.n, bl=int(cols["bl"][s]), rs=int(cols["rs"][s]),
            act=int(cols["act"][s]), hf=bool(cols["hf"][s]),
            tries=int(cols["tries"][s]), s=bool(cols["s"][s]),
            obstacles=(bool(cols["o1"][s]), bool(cols["o2"][s])),
            stalled=bool(cols["stalled"][s]))
        moves = a.env_next[a.env_indptr[s]:a.env_indptr[s + 1]]
        got = set(int(b) for b in bl_of_env[moves])
        assert got == wd.backlog_successors(state, p), (s, state)


def test_obstacle_lifetime_invariant(paper_arena):
    """o_j true forces o_j false in every legal env move, arena-wide."""
    a = paper_arena
    for name in ("o1", "o2"):
        cur = column(a, name, a.pair_state)
        nxt = env_column(a, name, a.env_next)
        assert not np.any((cur == 1) & (nxt == 1))


def test_obstacles_never_appear_near_robot(paper_arena):
    a = paper_arena
    rs = column(a, "rs", a.pair_state)
    for j, name in ((1, "o1"), (2, "o2")):
        cur = column(a, name, a.pair_state)
        nxt = env_column(a, name, a.env_next)
        rising = (cur == 0) & (nxt == 1)
        assert np.all(np.abs(rs[rising] - j) >= 2)


TRIES_OK = {(0, 0), (0, 1), (1, 2), (1, 0), (2, 0)}


def tries_pattern_ok(trace):
    rows = [r for r in trace.rows if not r.human_away]
    for r in rows:
        if r.state["tries"] > 0 and not r.state["hf"]:
            return False
    for prev, cur in zip(rows, rows[1:]):
        a, b = prev.state["tries"], cur.state["tries"]
        if (a, b) not in TRIES_OK:
            return False
        if cur.state["tries"] == 2 and not cur.state["s"]:
            return False
    return True


def test_tries_automaton_on_simulated_traces(strategy_for, scenario):
    doc, arena, result = scenario(12)
    st = strategy_for(12)
    for seed in range(8):
        tr = sim.run(st, sim.make_adversary("random", seed=seed), 180)
        assert tries_pattern_ok(tr)
    tr = sim.run(st, sim.make_adversary("min-bl"), 180)
    assert tries_pattern_ok(tr)


def test_refill_admissibility_on_strategy(strategy_for, paper_params):
    """Across every reachable controller node, moving toward the
    workstation is only committed with backlog at most upper - delta."""
    bound = paper_params.bl_upper - paper_params.delta_units
    st = strategy_for(12)
    names = st.names
    for nid in range(st.n_nodes):
        vals = dict(zip(names, st.node_vals[nid]))
        if vals["act"] == paper_params.n and vals["rs"] != paper_params.n:
            assert vals["bl"] <= bound, vals


def test_sys_moves_adjacency_at_station(paper_arena):
    a = paper_arena
    s = encode_state(a, [15, 0, 0, 0, 0, 0, 0, 0, 0])   # robot idle at cell 0
    e = next(int(e) for e in env_moves(a, s)
             if a.env_values(int(e))["o1"] == 0)
    acts = {sys_values(a, int(y))["act"] for y in sys_moves(a, s, e)}
    assert acts == {0, 1}


def test_sys_moves_obstacle_blocks_launch(paper_arena):
    # departing the workstation: cell 1 placements are legal (the robot is
    # far away) and exclude the matching launch from the next cell
    a = paper_arena
    s = encode_state(a, [15, 0, 0, 0, 0, 3, 2, 1, 0])
    moves = {int(e): a.env_values(int(e)) for e in env_moves(a, s)}
    blocked = [e for e, v in moves.items() if v["o1"] == 1]
    clear = [e for e, v in moves.items() if v["o1"] == 0]
    assert blocked and clear
    for e in blocked:
        acts = {sys_values(a, int(y))["act"] for y in sys_moves(a, s, e)}
        assert acts == {2, 3}
    for e in clear:
        acts = {sys_values(a, int(y))["act"] for y in sys_moves(a, s, e)}
        assert acts == {1, 2, 3}


def test_controller_waits_at_station_on_full_backlog(strategy_for):
    st = strategy_for(26)
    names = st.names
    checked = 0
    for nid in range(st.n_nodes):
        v = dict(zip(names, st.node_vals[nid]))
        if not (v["rs"] == 0 and v["bl"] == 26
                and v["o1"] == 0 and v["o2"] == 0):
            continue
        for edge in range(st.edge_indptr[nid], st.edge_indptr[nid + 1]):
            evd = dict(zip(st.env_names, st.edge_env[edge]))
            if evd["o1"] == 0 and evd["o2"] == 0:
                sy = dict(zip(st.sys_names, st.edge_sys[edge]))
                assert sy["act"] == 0    # hold position, defer delivery
                checked += 1
    assert checked > 0


def test_reduced_instance_band(reduced_doc, reduced_arena):
    res = gr1.solve(reduced_arena, reduced_doc.env_liveness,
                    reduced_doc.sys_liveness)
    band = []
    for b in range(11):
        doc_b = wd.emit_spec(wd.WorkDeliveryParams(bl_init=b, **REDUCED))
        band.append(gr1.is_realizable(res, ar.with_inits(reduced_arena,
                                                         doc_b)))
    assert band == [False] * 3 + [True] * 7 + [False]


def test_range_init_needs_every_value_winnable(paper_arena, paper_result):
    import dataclasses
    doc_ok = wd.emit_spec(wd.WorkDeliveryParams(bl_init=(9, 26)))
    arena_ok = ar.with_inits(paper_arena, doc_ok)
    assert gr1.is_realizable(paper_result, arena_ok)
    doc_bad = wd.emit_spec(wd.WorkDeliveryParams(bl_init=(8, 26)))
    arena_bad = ar.with_inits(paper_arena, doc_bad)
    assert not gr1.is_realizable(paper_result, arena_bad)
    # a range init yields one initial controller node per backlog value,
    # and the environment picks among them at step zero
    result = dataclasses.replace(
        paper_result, realizable=gr1.is_realizable(paper_result, arena_ok))
    st = gr1.extract_strategy(result, arena_ok)
    assert len(st.init_env) == 26 - 9 + 1
    tr = sim.run(st, sim.make_adversary("min-bl"), 30)
    assert tr.rows[0].state["bl"] == 9    # greedy takes the lowest backlog
