"""Game solving: three-nested fixpoint, strategy extraction, naive oracle.

The winning region is the greatest fixpoint

    Z = AND_j  mu Y. OR_i  nu X.
            (goal_j & cpre(Z)) | cpre(Y) | (~assumption_i & cpre(X))

over the controllable-predecessor operator ``cpre``: states from which, for
every legal environment commitment, some system response lands in the target
(environment deadlocks count as controllable, system deadlocks never do).

Every cpre is kept by one edge counter, `_Cpre`, over a target that only
grows or only shrinks, so a state crossing it costs its in-edges once (the
linear-time attractor of Grädel, Thomas and Wilke (eds.), *Automata, Logics,
and Infinite Games*, LNCS 2500, ch. 2).  Its in-edge index is built once
per arena (`GameArena.in_edges`).  Growing ones give cpre(Y) and, with
liveness assumptions, the bound each nu-X retreats from: `solve` grows one
to ~assumption_i once, and each mu-Y goes on from a copy.  Shrinking ones
give the nu-X retreats and cpre(Z), as every Z handed to a goal lies
inside the one before it; a retreat builds one only when some undecided
state has a pair without an edge into its bound, which most never do.  One
mu-Y kernel, `_mu_y`, serves every game: its round 0 is the seed and its
nu-X layers, and the env deadlocks (cpre of the empty set) join the base
after it, for the same least fixpoint.  A goal whose seed did not change
keeps its mu-Y, and each nu-X retreats from one step of its operator on
base | ~assumption_i, a bound its greatest fixpoint cannot leave (the
fixpoint of Piterman, Pnueli and Sa'ar, VMCAI 2006).

``brute_force_oracle`` recomputes the winning region by a deliberately
independent route: product the arena with goal counters for both players,
assign three parity priorities, and run Zielonka's attractor recursion over
the explicit product graph.  Its product nodes are integer ids built
straight from the arena's CSR arrays, and it shares no code with the
solver beyond reading the liveness predicates.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import CapacityExceeded, NotRealizable
from . import arena as ar

INF_RANK = np.int32(2 ** 30)


def _pred(arena, p):
    if isinstance(p, np.ndarray):
        out = p.astype(bool)
        if out.shape != (arena.n_states,):
            raise ValueError("predicate array has wrong length")
        return out
    return ar.state_predicate(arena, p)


def _normalize(arena, env_live, sys_live):
    goals = [_pred(arena, p) for p in sys_live]
    if not goals:
        raise ValueError("at least one system liveness goal is required")
    assumptions = [_pred(arena, p) for p in env_live]
    if not assumptions:
        assumptions = [np.ones(arena.n_states, dtype=bool)]
    return assumptions, goals


class _Ctx:
    """Per-solve degree arrays and the arena's in-edge index, for
    vectorized cpre and nu-X."""

    def __init__(self, arena):
        self.arena = arena
        # int32: every growing cpre copies it as its dead counts
        self.env_degree = np.diff(arena.env_indptr).astype(np.int32)
        self.stuck = (self.env_degree == 0).nonzero()[0]
        self.in_indptr, self.in_pair = arena.in_edges

    def pairs(self, states):
        """The pairs of `states`, in state order."""
        return ar._gather(self.arena.env_indptr, states,
                          self.env_degree[states])

    def into(self, pairs, target):
        """Sys edges of each of `pairs` into the state mask `target`."""
        a = self.arena
        size = a.sys_indptr[pairs + 1] - a.sys_indptr[pairs]
        edges = ar._gather(a.sys_indptr, pairs, size)
        hits = np.zeros(len(edges) + 1, dtype=np.int64)
        np.cumsum(target[a.edge_succ[edges]], out=hits[1:])
        ends = size.cumsum()
        return hits[ends] - hits[ends - size]

    def nu_x(self, x, lower):
        """Greatest fixpoint of X -> lower | (x & cpre(X)), in place in `x`.

        `lower` must lie inside `x`.  The attractor's dual: a shrinking cpre
        of `x` over the undecided states drops those that leave cpre(x).
        With `lower` = base, this is the nu-X of a mu-Y round, the greatest
        fixpoint X* of X -> base | (not_a & cpre(X)), whenever X* lies in
        `x` and `x` in base | not_a.  Most retreats drop nothing: when
        every pair of every undecided state has an edge into `x`, `x` is
        the fixpoint, and no tracker is built.
        """
        # on bools, a > b is a & ~b in one call
        states = (x > lower).nonzero()[0]
        if not len(states):
            return x
        pairs = self.pairs(states)
        cnt = self.into(pairs, x)
        if cnt.all():
            return x
        cpre = _Cpre(self, states, x, pairs, cnt)
        gone = states[cpre.dead[states] > 0]
        while len(gone):
            gone = cpre.remove(gone)
        return x


class _Cpre:
    """cpre of a target that only grows or only shrinks, by edge counters.

    Each pair counts its sys edges into the target (`cnt`), each state its
    pairs at 0 (`dead`): cpre is ``dead == 0``.  Built on a `target`, the
    tracker shrinks it in place, starting from the sys edges `cnt` of each
    of `pairs`, the pairs of the `scope`; else it grows one from empty.
    `add` and `remove` move states across at the cost of their in-edges,
    O(edges) in all, and return the states entering or leaving cpre, each
    once.  A counter need be exact only where it counts down to 0:
    growing, `cnt` is a flag per pair; shrinking, `dead` saturates.  So a
    growing tracker's counters are a function of its target alone, not of
    the order it grew in, and a `copy` may stand for a fresh tracker grown
    to the same target.  cpre is defined only on the `scope` (every state
    if None), and only its pairs do work: growing, the others start
    flagged; shrinking, their hits are dropped, so a nu-X retreat costs
    O(edges of its undecided states).
    """

    def __init__(self, ctx, scope=None, target=None, pairs=None, cnt=None):
        a = self.arena = ctx.arena
        self.ctx, self.grows = ctx, target is None
        if scope is not None:
            self.scope = np.zeros(a.n_states, dtype=bool)
            self.scope[scope] = True
        if self.grows:
            self.target = np.zeros(a.n_states, dtype=bool)
            self.cnt = (np.zeros(a.n_pairs, dtype=bool) if scope is None
                        else ~self.scope[a.pair_state])
            self.dead = ctx.env_degree.copy()
            return
        self.target = target
        # only cells in the scope are ever read: the rest stays unwritten
        self.cnt = np.empty(a.n_pairs, dtype=np.int32)
        self.dead = np.empty(a.n_states, dtype=np.int32)
        self.cnt[pairs] = cnt
        self.dead[scope] = 0
        self.dead[a.pair_state[pairs[cnt == 0]]] = 1

    def copy(self):
        """A growing tracker on a copy of this one's target."""
        assert self.grows, "only growing trackers are copied"
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, target=self.target.copy(),
                            cnt=self.cnt.copy(), dead=self.dead.copy())
        return out

    def add(self, states):
        """Put `states` in the target; returns the states entering cpre."""
        assert self.grows, "cpre targets must shrink"
        if not len(states):
            return states
        self.target[states] = True
        hit = self.ctx.in_pair[ar._gather(self.ctx.in_indptr, states)]
        fresh = hit[~self.cnt[hit]]
        fresh.sort()
        fresh = _distinct(fresh)
        self.cnt[fresh] = True
        owners = self.arena.pair_state[fresh]
        np.subtract.at(self.dead, owners, np.int32(1))
        return _distinct(owners[self.dead[owners] == 0])

    def remove(self, states):
        """Take `states` out of the target; returns the states leaving cpre."""
        assert not self.grows, "cpre targets must grow"
        if not len(states):
            return states
        self.target[states] = False
        hit = self.ctx.in_pair[ar._gather(self.ctx.in_indptr, states)]
        hit = hit[self.scope[self.arena.pair_state[hit]]]
        np.subtract.at(self.cnt, hit, np.int32(1))
        owners = self.arena.pair_state[hit[self.cnt[hit] == 0]]
        gone = owners[self.dead[owners] == 0]
        self.dead[owners] = 1
        gone.sort()
        return _distinct(gone)


def _distinct(idx):
    """Distinct values of a sorted array.  Sorting and then calling this
    replaces ``np.unique``, whose hashing made it 10-15x slower on the
    arrays of a wave (numpy 2.4)."""
    first = np.empty(len(idx), dtype=bool)
    first[:1] = True
    np.not_equal(idx[1:], idx[:-1], out=first[1:])
    return idx[first]


@dataclass
class SynthesisResult:
    winning: np.ndarray          # bool per state
    realizable: bool
    y_rank: np.ndarray           # [n_goals, n_states], INF_RANK outside
    goals: list
    assumptions: list
    x_witness: list | None       # per goal: {rank: [(i, bool-array), ...]}


def solve(arena, env_live, sys_live):
    """Winning region and extraction data for the GR(1) game.

    `env_live` / `sys_live` hold state predicates, either as boolean arrays
    over states or as current-step expressions.  An empty assumption list is
    the single trivially-true assumption.  Deterministic across runs.
    """
    assumptions, goals = _normalize(arena, env_live, sys_live)
    ctx = _Ctx(arena)
    # an assumption true everywhere has an empty nu-X disjunct; each other
    # one gets a growing cpre of ~a_i, scoped to ~a_i, that every mu-Y
    # copies (see `_mu_y`)
    falsifiable = []
    for i, a in enumerate(assumptions):
        if not a.all():
            not_a = (~a).nonzero()[0]
            cpre = _Cpre(ctx, scope=not_a)
            cpre.add(not_a)
            falsifiable.append((i, ~a, cpre))
    n_goals = len(goals)
    Z = np.ones(arena.n_states, dtype=bool)
    y_rank = np.full((n_goals, arena.n_states), INF_RANK, dtype=np.int32)
    # Every Z handed to a goal lies inside the one before it, so one
    # shrinking cpre serves them all.  A Z handed on is a fixpoint
    # Y = B_j(Y) of the previous goal's mu-Y step B_j, with B(Y) = seed |
    # cpre(Y) | OR_i nu X. (seed | cpre(Y) | (~a_i & cpre(X))).  So
    # cpre(Y) <= Y, the next seed g & cpre(Y) lies in cpre(Y), hence
    # B_{j+1}(Y) <= B_j(Y) = Y, and the least fixpoint of B_{j+1} lies in Y.
    # cpre(Z) is read only inside the goals, so they are its scope, and
    # under the full target a pair's count is its sys degree.
    in_goals = functools.reduce(np.logical_or, goals).nonzero()[0]
    pairs = ctx.pairs(in_goals)
    cpre = _Cpre(ctx, in_goals, np.ones(arena.n_states, dtype=bool), pairs,
                 arena.sys_indptr[pairs + 1] - arena.sys_indptr[pairs])
    # each goal's last seed, and the nu-X layers of every round of its mu-Y
    seeds = [None] * n_goals
    x_layers = [None] * n_goals

    while True:
        z_before = Z
        for j, g in enumerate(goals):
            # on bools, a > b is a & ~b in one call
            cpre.remove((cpre.target > Z).nonzero()[0])
            seed = g & (cpre.dead == 0)
            # a mu-Y is a function of its seed alone
            if not np.array_equal(seed, seeds[j]):
                seeds[j] = seed
                y_rank[j], x_layers[j] = _mu_y(ctx, seed, falsifiable)
            Z = y_rank[j] != INF_RANK
        assert not np.any(Z & ~z_before), "Z iterates must shrink"
        if np.array_equal(Z, z_before):
            break

    # the round that added nothing is not a witness
    x_witness = ([dict(enumerate(layers[:-1])) for layers in x_layers]
                 if falsifiable else None)
    result = SynthesisResult(
        winning=Z, realizable=False, y_rank=y_rank,
        goals=goals, assumptions=assumptions, x_witness=x_witness)
    result.realizable = is_realizable(result, arena)
    return result


def _mu_y(ctx, seed, falsifiable):
    """mu Y. B(Y) | OR_i nu X. B(Y) | (~a_i & cpre(X)), where B(Y) is
    seed | cpre(Y), at O(edges) per round.

    `falsifiable` lists (i, ~assumption_i, a growing cpre of
    ~assumption_i); with none, the mu-Y is the attractor of the seed.
    Returns the rank of each state (the round it joined Y, INF_RANK outside
    Y) and the nu-X layers [(i, X), ...] of every round, the last one
    adding nothing (no layers without assumptions).

    Y grows, so a growing `_Cpre` keeps cpre(Y), and `base` grows by the
    states it reports entering: base_0 = seed, then base_r = seed |
    cpre(Y_r).  So the env deadlocks, cpre(empty), join base at round 1, and
    rank 0 in every game is the seed and its round-0 nu-X layers.  The least
    fixpoint of the mu-Y step M is the same: Y_1 lies in M(empty), so in
    M(Y_1) and lfp M, as M is monotone; the later rounds iterate M upward
    from Y_1, and the first that adds nothing to Y or to base is a fixpoint
    of M inside lfp M, so lfp M.  Without assumptions, Y_{r+1} = base_r.

    Round r's nu-X for assumption i, X_{r,i}, is the greatest fixpoint of
    F_r(X) = base_r | (~a_i & cpre(X)), and `_Ctx.nu_x` finds it by a
    retreat from one bound down to base_r.  X_{r,i} = F_r(X_{r,i}) lies in
    T_r = base_r | ~a_i, and F_r is monotone, so X_{r,i} lies in F_r(T_r),
    where the retreat starts.  T_r grows with r, as base_r does, so a
    growing `_Cpre` per assumption, scoped to ~a_i where it is read, keeps
    cpre(T_r) at O(edges) per mu-Y, where counting the edges of every
    undecided state in every round was not.  T_0 = seed | ~a_i, and every
    mu-Y of a solve shares ~a_i, so each starts from a copy of the one
    tracker `solve` grew to ~a_i and adds only seed & a_i.
    """
    rank = np.full(ctx.arena.n_states, INF_RANK, dtype=np.int32)
    cpre_y = _Cpre(ctx)
    cpre_t = [cpre.copy() for _, _, cpre in falsifiable]
    base = seed.copy()
    newly = base.nonzero()[0]
    layers = []
    for r in itertools.count():
        if falsifiable:
            layer, y_new = [], base.copy()
            for (i, not_a, _), cpre in zip(falsifiable, cpre_t):
                # T_r and F_r(T_r) of the docstring
                cpre.add(((base | not_a) > cpre.target).nonzero()[0])
                x = not_a & (cpre.dead == 0)
                x |= base
                X = ctx.nu_x(x, base)
                layer.append((i, X))
                y_new |= X
            layers.append(layer)
            # Y is the target of cpre_y
            assert not np.any(cpre_y.target > y_new), "Y iterates must grow"
            newly = (y_new > cpre_y.target).nonzero()[0]
        # only round 0 can leave states pending: cpre(empty), the deadlocks
        if not len(newly) and (r or not len(ctx.stuck)):
            return rank, layers
        rank[newly] = r
        fresh = cpre_y.add(newly)
        if not r:
            fresh = np.concatenate((fresh, ctx.stuck))
        newly = fresh[~base[fresh]]
        base[newly] = True


def _init_escapes(arena, winning=True):
    """Indices of the legal env init assignments with no sys init
    completion inside `winning` (a state mask; True allows every state)."""
    return np.flatnonzero(arena.env_init & (arena.init_states(winning) < 0))


def is_realizable(result, arena):
    """Initial-condition check: every legal env init admits a winning
    sys init response."""
    return not len(_init_escapes(arena, result.winning))


# --------------------------------------------------------------------------
# strategies


@dataclass
class Strategy:
    """A finite-memory controller as flat arrays, in the arena's CSR shape.

    Node ``i`` is a state valuation ``node_vals[i]`` (env variables first)
    paired with the pursued goal ``node_goal[i]``.  Its edges are the
    positions ``edge_indptr[i]:edge_indptr[i + 1]``: one per legal env
    assignment ``edge_env[k]``, with the sys response ``edge_sys[k]`` and
    the successor node ``edge_next[k]``.  Initial env assignment
    ``init_env[m]`` starts at node ``init_node[m]``.  Every array holds
    int64 values, not arena indices, so a strategy needs no arena to run.
    """

    env_names: tuple
    sys_names: tuple
    n_goals: int
    node_vals: np.ndarray        # [nodes × vars]
    node_goal: np.ndarray        # [nodes]
    edge_indptr: np.ndarray      # [nodes + 1]
    edge_env: np.ndarray         # [edges × env vars]
    edge_sys: np.ndarray         # [edges × sys vars]
    edge_next: np.ndarray        # [edges]
    init_env: np.ndarray         # [inits × env vars]
    init_node: np.ndarray        # [inits]

    @property
    def n_nodes(self):
        return len(self.node_goal)

    @property
    def names(self):
        return tuple(self.env_names) + tuple(self.sys_names)

    # ---- serialization (field order is part of the format) ------------

    def _json_text(self):
        """The JSON text `save` writes.  It equals ``json.dumps`` of the
        object form plus a newline, byte for byte: one ``%`` template per
        edge, node and init entry, built from the quoted variable names and
        filled a row at a time."""
        def fields(names):
            return "{%s}" % ", ".join(json.dumps(n).replace("%", "%%") + ": %d"
                                      for n in names)

        env, sys_ = fields(self.env_names), fields(self.sys_names)
        edge_t = f'{{"env": {env}, "sys": {sys_}, "next": %d}}'
        node_t = (f'{{"id": %d, "state": {fields(self.names)}, "goal": %d, '
                  f'"edges": [%s]}}')
        init_t = f'{{"env": {env}, "node": %d}}'
        edges = list(map(edge_t.__mod__, zip(*self.edge_env.T.tolist(),
                                             *self.edge_sys.T.tolist(),
                                             self.edge_next.tolist())))
        bounds = self.edge_indptr.tolist()
        nodes = map(node_t.__mod__, zip(
            range(self.n_nodes), *self.node_vals.T.tolist(),
            self.node_goal.tolist(),
            [", ".join(edges[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]))
        inits = map(init_t.__mod__, zip(*self.init_env.T.tolist(),
                                        self.init_node.tolist()))
        return '{"vars": %s, "goals": %d, "nodes": [%s], "init": [%s]}\n' % (
            json.dumps(list(self.names)), self.n_goals, ", ".join(nodes),
            ", ".join(inits))

    def to_obj(self):
        """The JSON object of the text `save` writes."""
        return json.loads(self._json_text())

    def save(self, path):
        with open(path, "w") as fp:
            fp.write(self._json_text())

    @classmethod
    def from_obj(cls, obj):
        """Strategy from its JSON object; ValueError on a value that is not
        a JSON integer and on dangling references."""
        names = list(obj["vars"])
        nodes, inits = obj["nodes"], obj["init"]
        node_edges = list(map(itemgetter("edges"), nodes))
        edges = list(itertools.chain.from_iterable(node_edges))
        env_keys = (edges or inits or [{"env": {}}])[0]["env"]
        env_names = [n for n in names if n in env_keys]
        sys_names = [n for n in names if n not in env_keys]

        def table(field, dicts, keys, part=None):
            """int64 [dicts × keys] of ``d[k]``, or of ``d[part][k]``;
            bools are not integers."""
            if part is not None:
                field = f"{field} {part}"
                dicts = list(map(itemgetter(part), dicts))
            if not keys:
                return np.zeros((len(dicts), 0), dtype=np.int64)
            rows = list(map(itemgetter(*keys), dicts))
            cells = (itertools.chain.from_iterable(rows) if len(keys) > 1
                     else rows)
            if not set(map(type, cells)) <= {int}:
                k, v = next((k, d[k]) for d in dicts for k in keys
                            if type(d[k]) is not int)
                raise ValueError(f"{field}[{k!r}] = {v!r} is not an integer")
            return np.array(rows, dtype=np.int64).reshape(len(dicts), len(keys))

        n_goals = obj["goals"]
        if type(n_goals) is not int:
            raise ValueError(f"goals = {n_goals!r} is not an integer")
        strat = cls(
            env_names=tuple(env_names), sys_names=tuple(sys_names),
            n_goals=n_goals,
            node_vals=table("node", nodes, names, "state"),
            node_goal=table("node", nodes, ("goal",))[:, 0],
            edge_indptr=np.cumsum([0, *map(len, node_edges)], dtype=np.int64),
            edge_env=table("edge", edges, env_names, "env"),
            edge_sys=table("edge", edges, sys_names, "sys"),
            edge_next=table("edge", edges, ("next",))[:, 0],
            init_env=table("init", inits, env_names, "env"),
            init_node=table("init", inits, ("node",))[:, 0])
        if not np.array_equal(table("node", nodes, ("id",))[:, 0],
                              np.arange(len(nodes))):
            raise ValueError("node ids must be 0, 1, ... in list order")
        for what, refs, n in (("next", strat.edge_next, len(nodes)),
                              ("init node", strat.init_node, len(nodes)),
                              ("goal", strat.node_goal, strat.n_goals)):
            bad = refs[(refs < 0) | (refs >= n)]
            if len(bad):
                raise ValueError(f"{what} {bad[0]} outside 0..{n - 1}")
        return strat

    @classmethod
    def load(cls, path):
        with open(path) as fp:
            return cls.from_obj(json.load(fp))


def extract_strategy(result, arena):
    """Finite-memory controller from a realizable synthesis result.

    Memory is the pursued goal index; it advances exactly at nodes whose
    state satisfies the current goal.  Responses strictly decrease the
    attractor rank toward the pursued goal, or keep the play inside a
    recorded nu-X region whose assumption is falsified, or (right after a
    goal advance) move anywhere inside the winning region with minimal new
    rank.  Ties break toward the lowest sys assignment index.
    """
    if not result.realizable:
        raise NotRealizable("cannot extract a strategy: game is unrealizable")
    a = arena
    n_goals = len(result.goals)
    winning = result.winning
    n_states = a.n_states

    node_ids = {}
    order = []       # (state, goal) in discovery order

    def node_of(s, j):
        if (s, j) not in node_ids:
            node_ids[s, j] = len(order)
            order.append((s, j))
        return node_ids[s, j]

    init_env = np.nonzero(a.env_init)[0]
    init_node = []
    for e0, s0 in zip(init_env.tolist(),
                      a.init_states(winning)[init_env].tolist()):
        if s0 < 0:
            raise NotRealizable(f"no winning sys init for env init {e0}")
        init_node.append(node_of(s0, 0))

    # per-pair minimum of key = rank * n_states + succ picks the
    # lowest-ranked successor with the lowest sys index, as a pair's
    # successors share their env part; INF keys mark excluded edges
    rank64 = result.y_rank.astype(np.int64)
    INFKEY = np.int64(INF_RANK) * n_states * 4
    edge_succ, edge_next = [], []    # successor state and node per edge
    edge_indptr = [0]
    for s, j in order:               # order grows while it is walked
        goal_holds = bool(result.goals[j][s])
        jp = (j + 1) % n_goals if goal_holds else j
        rank = rank64[jp]
        my_rank = rank[s]
        plo, phi = int(a.env_indptr[s]), int(a.env_indptr[s + 1])
        elo, ehi = int(a.sys_indptr[plo]), int(a.sys_indptr[phi])
        succ = a.edge_succ[elo:ehi]
        key = rank[succ] * n_states + succ
        key[~winning[succ]] = INFKEY
        if not goal_holds:
            key[rank[succ] >= my_rank] = INFKEY
        starts = (a.sys_indptr[plo:phi] - elo).astype(np.int64)
        best = np.minimum.reduceat(key, starts).tolist() if len(key) else []
        for p, b in zip(range(plo, phi), best):
            t = (b % n_states if b < INFKEY
                 else _loiter_pick(result, a, s, jp, my_rank, p))
            edge_next.append(node_of(t, jp))
            edge_succ.append(t)
        edge_indptr.append(len(edge_next))

    states = np.array([s for s, _ in order], dtype=np.int64)
    # a successor's env part is its edge's env assignment
    edge_vals = a.state_codec.values(np.array(edge_succ, dtype=np.int64))
    return Strategy(
        env_names=a.names[:a.n_env_vars],
        sys_names=a.names[a.n_env_vars:],
        n_goals=n_goals,
        node_vals=a.state_codec.values(states),
        node_goal=np.array([j for _, j in order], dtype=np.int64),
        edge_indptr=np.array(edge_indptr, dtype=np.int64),
        edge_env=edge_vals[:, :a.n_env_vars],
        edge_sys=edge_vals[:, a.n_env_vars:],
        edge_next=np.array(edge_next, dtype=np.int64),
        init_env=a.env_codec.values(init_env),
        init_node=np.array(init_node, dtype=np.int64))


def _loiter_pick(result, a, s, jp, my_rank, p):
    """Successor of pair `p` at the same rank inside a recorded nu-X region
    (assumption games)."""
    succ = a.edge_succ[a.sys_indptr[p]:a.sys_indptr[p + 1]]
    layers = (result.x_witness[jp].get(int(my_rank), ())
              if result.x_witness else ())
    for wi, xset in layers:
        if not result.assumptions[wi][s] and xset[s]:
            stay = np.nonzero(xset[succ])[0]
            if len(stay):
                return int(succ[stay[0]])
    raise AssertionError(f"extraction stuck at state {s} goal {jp} "
                         f"env {a.env_next[p]}")


# --------------------------------------------------------------------------
# independent oracle: counter product + 3-priority Zielonka


def brute_force_oracle(arena, env_live, sys_live, cap=10_000):
    """Winning region by explicit parity-game solving on the goal-counter
    product; maximally naive on purpose.  Raises CapacityExceeded above `cap`.

    Env node (s, c, d) is ``(s * ng + c) * na + d``: state s, pursued goal
    c, awaited assumption d.  Sys nodes come after the env nodes: (p, c2,
    d2) is ``n_states * ng * na + (p * ng + c2) * na + d2``, for the pair
    p = (s, env') and the counters after s.  WIN and LOSE come last."""
    if arena.n_states > cap:
        raise CapacityExceeded(
            f"{arena.n_states} states exceeds oracle cap {cap}")
    assumptions, goals = _normalize(arena, env_live, sys_live)
    ng, na = len(goals), len(assumptions)
    m = ng * na
    n_env = arena.n_states * m
    WIN = n_env + arena.n_pairs * m
    LOSE = WIN + 1
    env_indptr = arena.env_indptr.tolist()
    sys_indptr = arena.sys_indptr.tolist()
    # the env node at counters k = c2 * na + d2 after each sys edge
    edge_to = arena.edge_succ * m
    to = [(edge_to + k).tolist() for k in range(m)]
    goal = [g.tolist() for g in goals]
    assume = [a.tolist() for a in assumptions]

    succ, pri = [], []
    for s in range(arena.n_states):
        lo, hi = env_indptr[s], env_indptr[s + 1]
        for c in range(ng):
            c2 = (c + 1) % ng if goal[c][s] else c
            for d in range(na):
                if c == ng - 1 and goal[ng - 1][s]:
                    pri.append(2)
                elif d == na - 1 and assume[na - 1][s]:
                    pri.append(1)
                else:
                    pri.append(0)
                d2 = (d + 1) % na if assume[d][s] else d
                k = n_env + c2 * na + d2
                succ.append(list(range(lo * m + k, hi * m + k, m)) or [WIN])
    # counters move by a bijection, so every sys node has an env parent
    for lo, hi in zip(sys_indptr, sys_indptr[1:]):
        succ += [t[lo:hi] or [LOSE] for t in to]
    succ += [[WIN], [LOSE]]
    pri += [0] * (arena.n_pairs * m) + [2, 1]
    owner = [1] * n_env + [0] * (arena.n_pairs * m) + [0, 1]

    preds = [[] for _ in succ]
    for u, ws in enumerate(succ):
        for w in ws:
            preds[w].append(u)

    w0, _w1 = _zielonka(succ, preds, owner, pri, set(range(len(succ))))
    return np.array([s * m in w0 for s in range(arena.n_states)], dtype=bool)


def _zielonka(succ, preds, owner, pri, alive):
    """Returns (W0, W1) over `alive` for a max-parity game."""
    W0, W1 = set(), set()
    alive = set(alive)
    while alive:
        p = max(map(pri.__getitem__, alive))
        player = p % 2
        top = {v for v in alive if pri[v] == p}
        A = _attr(succ, preds, owner, player, top, alive)
        rest = alive - A
        sub0, sub1 = (_zielonka(succ, preds, owner, pri, rest)
                      if rest else (set(), set()))
        opp = sub1 if player == 0 else sub0
        if not opp:
            if player == 0:
                W0 |= alive
            else:
                W1 |= alive
            return W0, W1
        B = _attr(succ, preds, owner, 1 - player, opp, alive)
        if player == 0:
            W1 |= B
        else:
            W0 |= B
        alive -= B
    return W0, W1


def _attr(succ, preds, owner, player, target, alive):
    """Attractor of `target` for `player` inside `alive`, by counting each
    opponent node's successors that are still outside it."""
    A = set(target)
    cnt = {}
    stack = list(target)
    while stack:
        v = stack.pop()
        for u in preds[v]:
            if u not in alive or u in A:
                continue
            if owner[u] != player:
                # successor lists hold no repeats
                n = (cnt[u] if u in cnt else
                     len(alive.intersection(succ[u]))) - 1
                cnt[u] = n
                if n:
                    continue
            A.add(u)
            stack.append(u)
    return A
