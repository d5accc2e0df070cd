import dataclasses

import numpy as np
import pytest

from gr1kit import arena as ar
from gr1kit import gr1
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
