import dataclasses
import functools
import json
import random

import numpy as np
import pytest

from gr1kit import arena as ar
from gr1kit import gr1
from gr1kit import speclang as sl
from gr1kit import workdelivery as wd

from genspec import random_document


def encode_state(arena, values):
    """State index of a value tuple; -1 outside the domain."""
    return int(arena.state_codec.index([values])[0])


def sys_values(arena, y):
    """Sys assignment index as a name -> value dict."""
    sys_codec = ar._Codec.of(arena.decls[arena.n_env_vars:])
    return dict(zip(arena.names[arena.n_env_vars:], sys_codec.decode(y)))


def env_column(arena, name, idx=None):
    """Values of an env variable across env assignment indices."""
    return arena.env_codec.column((name, False), idx)


def column(arena, name, idx=None):
    """Values of a variable across all states (or the given indices)."""
    return arena.state_codec.column((name, False), idx)


def decode_state(arena, s):
    """Value tuple of a state index, in declaration order."""
    return arena.state_codec.decode(s)


def valuation(arena, s):
    """State as a name -> value dict."""
    return dict(zip(arena.names, decode_state(arena, s)))


def env_moves(arena, s):
    """Legal next env assignments at state s (ascending indices)."""
    return arena.env_next[arena.env_indptr[s]:arena.env_indptr[s + 1]]


def sys_moves(arena, s, e):
    """Legal sys responses at state s given committed env assignment e."""
    lo, hi = arena.env_indptr[s], arena.env_indptr[s + 1]
    p = lo + np.searchsorted(arena.env_next[lo:hi], e)
    if p >= hi or arena.env_next[p] != e:
        raise ValueError(f"env assignment {e} not legal at state {s}")
    succ = arena.edge_succ[arena.sys_indptr[p]:arena.sys_indptr[p + 1]]
    return succ % arena.n_sys


def grouped_arenas(n, seed=0, max_states=200):
    """`n` arenas of random documents, each with a move group of several
    pairs (a random arena has one group per pair)."""
    rng, out = random.Random(seed), []
    while len(out) < n:
        a = ar.build_arena(random_document(rng))
        if a.n_states <= max_states and a.n_groups < a.n_pairs:
            out.append(a)
    return out


def dump(arena, fp):
    """Adjacency dump: one ``state TAB env TAB sys`` line per edge."""
    for p in range(arena.n_pairs):
        s, e = arena.pair_state[p], arena.env_next[p]
        for t in arena.edge_succ[arena.sys_indptr[p]:arena.sys_indptr[p + 1]]:
            fp.write(f"{s}\t{e}\t{t % arena.n_sys}\n")


# --------------------------------------------------------------------------
# reference codecs: a dict per node, edge and assignment for the strategy
# JSON, and a row loop for the trace CSV, which `Strategy.save` and
# `sim.write_csv` must match byte for byte


def reference_to_obj(st):
    """The strategy's JSON object, built dict by dict."""
    env_names, sys_names = st.env_names, st.sys_names
    edges = [{"env": dict(zip(env_names, ev)),
              "sys": dict(zip(sys_names, sv)),
              "next": nxt}
             for ev, sv, nxt in zip(st.edge_env.tolist(),
                                    st.edge_sys.tolist(),
                                    st.edge_next.tolist())]
    bounds = st.edge_indptr.tolist()
    nodes = [{"id": nid, "state": dict(zip(st.names, vals)),
              "goal": goal, "edges": edges[lo:hi]}
             for nid, (vals, goal, lo, hi) in enumerate(zip(
                 st.node_vals.tolist(), st.node_goal.tolist(),
                 bounds, bounds[1:]))]
    init = [{"env": dict(zip(env_names, ev)), "node": nid}
            for ev, nid in zip(st.init_env.tolist(), st.init_node.tolist())]
    return {"vars": list(st.names), "goals": int(st.n_goals),
            "nodes": nodes, "init": init}


def reference_json(st):
    """The bytes `Strategy.save` must write."""
    return json.dumps(reference_to_obj(st)) + "\n"


def reference_write_csv(trace, fp):
    """The trace CSV, one row at a time."""
    fp.write(",".join(["step", "time_s", *trace.names, "human_away"]) + "\n")
    for step, t, row, away in zip(trace.step.tolist(), trace.time_s.tolist(),
                                  trace.vals.tolist(),
                                  trace.human_away.astype(int).tolist()):
        time_s = str(int(t)) if float(t).is_integer() else repr(float(t))
        fp.write(",".join(map(str, [step, time_s, *row, away])) + "\n")


# specs whose traces the old scenario CSV layout did not read back as
# written: exactly the scenario's variables for n = 1 with `stalled` true at
# the start, which the scenario's backlog rule would not give, and variables
# named like the trace's fixed columns
STALLED_SPEC = ("[ENV_VARS]\nbl : 0..3\ns : bool\nstalled : bool\n"
                "[SYS_VARS]\nrs : 0..1\nact : 0..1\nhf : bool\n"
                "tries : 0..2\n[ENV_INIT]\nstalled\n")
FIXED_NAMES_SPEC = ("[ENV_VARS]\nstep : 0..2\nhuman_away : bool\n"
                    "[SYS_VARS]\ntime_s : 0..2\n[SYS_TRANS]\ntime_s' = step'\n"
                    "[ENV_INIT]\nhuman_away\n")


# --------------------------------------------------------------------------
# reference checkers: a clause-by-clause loop over per-variable columns for
# trace safety, and a closure check that builds search keys over every pair
# and edge of the arena; `check.check_safety` and the node findings of
# `check.verify_strategy_closure` must match them, order included


def reference_check_safety(trace, doc):
    """The violation list of `check.check_safety`."""
    if not len(trace.vals):
        return [("trace", "empty", "no rows to check")]
    col = dict(zip(trace.names, trace.vals.T))
    found = []
    for d in doc.vars:
        if d.name in col:
            vals = col[d.name]
            for k in np.flatnonzero((vals < d.lo) | (vals > d.hi)).tolist():
                found.append((k, "domain", f"{d.name} = {vals[k]} "
                                           f"outside {d.lo}..{d.hi}"))
    steps = np.flatnonzero(~trace.human_away[1:]) + 1
    init = (np.zeros(1, np.int64), {n: v[:1] for n, v in col.items()}, None,
            "init violated")
    trans = (steps, {n: v[steps - 1] for n, v in col.items()},
             {n: v[steps] for n, v in col.items()}, "violated")
    for kind, clauses, (where, cur, nxt, what) in (
            ("env_init", doc.env_init, init), ("sys_init", doc.sys_init, init),
            ("env_trans", doc.env_safety, trans),
            ("sys_trans", doc.sys_safety, trans)):
        for i, c in enumerate(clauses):
            held = np.broadcast_to(sl.eval_expr(c, cur, nxt), where.shape)
            found += [(k, f"{kind}[{i}]", f"{what}: {sl.format_expr(c)}")
                      for k in where[~held].tolist()]
    return sorted(found, key=lambda v: v[0])


def _reference_find(keys, queries):
    pos = np.searchsorted(keys, queries)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == queries[hit]
    return np.where(hit, pos, -1)


def reference_closure(st, a, result):
    """The node findings of `check.verify_strategy_closure`: everything but
    the initial entries."""
    if st.names != a.names:
        return [("vars", "order", f"strategy vars {st.names} != "
                                  f"arena vars {a.names}")]
    if st.n_goals != len(result.goals):
        return [("goals", "count", f"strategy goals {st.n_goals} != "
                                   f"game goals {len(result.goals)}")]
    owner = np.repeat(np.arange(st.n_nodes), np.diff(st.edge_indptr))
    s = a.state_codec.index(st.node_vals)
    here = s[owner]
    e = np.where(here < 0, -1, a.env_codec.index(st.edge_env))
    t = a.state_codec.index(np.hstack([st.edge_env, st.edge_sys]))
    pair = _reference_find(a.pair_state * a.n_env + a.env_next,
                           np.where(e < 0, -1, here * a.n_env + e))
    edge_pair = np.repeat(np.arange(a.n_pairs), np.diff(a.sys_indptr))
    sys_ok = _reference_find(edge_pair * a.n_states + a.edge_succ,
                             np.where((pair < 0) | (t < 0), -1,
                                      pair * a.n_states + t)) >= 0
    succ_ok = s[st.edge_next] == t
    j = st.node_goal[owner]
    known = (here >= 0) & (j >= 0) & (j < len(result.goals))
    holds = np.zeros(len(owner), dtype=bool)
    holds[known] = np.array(result.goals)[j[known], here[known]]
    goal_ok = st.node_goal[st.edge_next] == np.where(
        holds, (j + 1) % st.n_goals, j)
    winning = (s < 0) | result.winning[s]
    legal = pair >= 0
    per_node = functools.partial(np.bincount, minlength=st.n_nodes)
    degree = np.diff(a.env_indptr)[s]
    distinct = np.unique(np.column_stack([owner, pair])[legal], axis=0)[:, 0]
    bad = ((s < 0) | ~winning | (per_node(owner[legal]) != degree) |
           (per_node(distinct) != degree) |
           (per_node(owner[~(sys_ok & succ_ok & goal_ok)]) > 0))

    violations = []
    for nid in np.flatnonzero(bad).tolist():
        def add(detail, clause="closure"):
            violations.append((nid, clause, detail))
        if s[nid] < 0:
            add(f"state {dict(zip(st.names, st.node_vals[nid].tolist()))} "
                "outside the arena's domain")
            continue
        edges = range(st.edge_indptr[nid], st.edge_indptr[nid + 1])
        have = dict(zip(edges, map(tuple, st.edge_env[edges].tolist())))
        if len(set(have.values())) < len(have):
            add("duplicate edges")
        moves = a.env_next[a.env_indptr[s[nid]]:a.env_indptr[s[nid] + 1]]
        for m in moves[~np.isin(moves, e[edges])]:
            add(f"no edge for legal env move {a.env_codec.decode(m)}")
        for m in sorted({have[k] for k in edges if not legal[k]}):
            add(f"edge for illegal env move {m}")
        if not winning[nid]:
            add("node state outside the winning region", "winning")
        for k in (k for k in edges if legal[k]):
            if not sys_ok[k]:
                add(f"illegal sys response to {have[k]}")
                continue
            if not succ_ok[k]:
                add(f"successor mismatch on {have[k]}")
            if not goal_ok[k]:
                add("goal index must advance exactly on goal states", "goal")
    return violations


REDUCED = dict(n=2, bl_max=10, gamma_units=1, delta_units=5,
               bl_upper=9, k_move=1, k_drop=2)


@pytest.fixture(scope="session")
def paper_params():
    return wd.WorkDeliveryParams()


@pytest.fixture(scope="session")
def paper_doc(paper_params):
    return wd.emit_spec(paper_params)


@pytest.fixture(scope="session")
def paper_arena(paper_doc):
    return ar.build_arena(paper_doc)


@pytest.fixture(scope="session")
def paper_result(paper_arena, paper_doc):
    return gr1.solve(paper_arena, paper_doc.env_liveness,
                     paper_doc.sys_liveness)


@pytest.fixture(scope="session")
def scenario(paper_arena, paper_result):
    """Per-bl_init view over the shared solve: (doc, arena, result)."""
    cache = {}

    def get(bl_init, hf_init=False):
        key = (bl_init, hf_init)
        if key not in cache:
            doc = wd.emit_spec(
                wd.WorkDeliveryParams(bl_init=bl_init, hf_init=hf_init))
            arena = ar.with_inits(paper_arena, doc)
            result = dataclasses.replace(
                paper_result,
                realizable=gr1.is_realizable(paper_result, arena))
            cache[key] = (doc, arena, result)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def strategy_for(scenario):
    cache = {}

    def get(bl_init):
        if bl_init not in cache:
            doc, arena, result = scenario(bl_init)
            cache[bl_init] = gr1.extract_strategy(result, arena)
        return cache[bl_init]

    return get


@pytest.fixture(scope="session")
def reduced_doc():
    return wd.emit_spec(wd.WorkDeliveryParams(bl_init=5, **REDUCED))


@pytest.fixture(scope="session")
def reduced_arena(reduced_doc):
    return ar.build_arena(reduced_doc)


@pytest.fixture(scope="session")
def reduced_result(reduced_doc, reduced_arena):
    return gr1.solve(reduced_arena, reduced_doc.env_liveness,
                     reduced_doc.sys_liveness)


@pytest.fixture(scope="session")
def reduced_strategy(reduced_arena, reduced_result):
    return gr1.extract_strategy(reduced_result, reduced_arena)


@pytest.fixture(scope="session")
def keep_edges():
    """Copy of a strategy with only the edges at the given positions, which
    must be sorted by node; a repeated position duplicates that edge."""
    def keep(st, positions):
        positions = np.asarray(positions, dtype=np.int64)
        owner = np.repeat(np.arange(st.n_nodes), np.diff(st.edge_indptr))
        return dataclasses.replace(
            st, edge_indptr=np.searchsorted(owner[positions],
                                            np.arange(st.n_nodes + 1)),
            edge_env=st.edge_env[positions], edge_sys=st.edge_sys[positions],
            edge_next=st.edge_next[positions])

    return keep
