import dataclasses
import json

import numpy as np
import pytest

from gr1kit import arena as ar
from gr1kit import gr1
from gr1kit import sim
from gr1kit import workdelivery as wd


def encode_state(arena, values):
    """State index of a value tuple; -1 outside the domain."""
    return int(arena.state_codec.index([values])[0])


def sys_values(arena, y):
    """Sys assignment index as a name -> value dict."""
    return dict(zip(arena.names[arena.n_env_vars:],
                    arena.sys_codec.decode(y)))


def env_column(arena, name, idx=None):
    """Values of an env variable across env assignment indices."""
    return arena.env_codec.column((name, False), idx)


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
    n = sim._scenario_shape(set(trace.names))
    if n is None:
        head, cols = list(trace.names), list(range(len(trace.names)))
    else:
        obstacles = [f"O{j}" for j in range(1, n)]
        head = ["RS", "BL", "HF", "tries", "S", *obstacles, "mode", "ACT"]
        cols = [trace.names.index(k) for k in ("rs", "bl", "hf", "tries", "s",
                                               *map(str.lower, obstacles),
                                               "act")]
    fp.write(",".join(["step", "time_s", *head, "human_away"]) + "\n")
    rows = trace.vals[:, cols].tolist()
    if n is not None:
        modes = wd.human_mode(trace.vals[:, cols[0]], trace.vals[:, cols[1]], n)
        for row, mode in zip(rows, modes):
            row[-1:] = [mode, f"Go_S{row[-1]}"]
    for step, t, row, away in zip(trace.step.tolist(), trace.time_s.tolist(),
                                  rows, trace.human_away.astype(int).tolist()):
        time_s = str(int(t)) if float(t).is_integer() else f"{t:g}"
        fp.write(",".join(map(str, [step, time_s, *row, away])) + "\n")


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
