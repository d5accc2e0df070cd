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
and Infinite Games*, LNCS 2500, ch. 2).  It counts per move group, not per
pair: the pairs of a group share its edges, so a group's count stands for
each of them.  Its in-edge index is built once per arena
(`GameArena.in_edges`).  Growing ones, built per mu-Y, give cpre(Y) and,
with liveness assumptions, the bound each nu-X retreats from.  Shrinking
ones give the nu-X retreats and cpre(Z), as every Z handed to a goal lies
inside the one before it; a retreat builds one only when some undecided
state has a pair without an edge into its bound, which most never do.
The cpre(Z) tracker spans every state and keeps its target at the safety
core of Z, nu C. Z & cpre(C), cut wave by wave before each goal reads its
seed g & cpre(core): the states from which the environment can force a
system deadlock leave before the first sweep, not one layer per sweep at
the price of a whole mu-Y per goal (the Büchi-game loop of Chatterjee,
Henzinger and Piterman, *Algorithms for Büchi games*, GDV 2006).  The
winning region W lies in every Z and in cpre(W), so in every core, and no
output changes (see `solve`).  One mu-Y kernel, `_mu_y`, serves every
game: its round 0 is the seed and its nu-X layers, and the env deadlocks
(cpre of the empty set) join the base after it, for the same least
fixpoint.  A goal whose seed did not change keeps its mu-Y, and each nu-X
retreats from one step of its operator on base | ~assumption_i, a bound
its greatest fixpoint cannot leave (the fixpoint of Piterman, Pnueli and
Sa'ar, VMCAI 2006).

``brute_force_oracle`` recomputes the winning region by a deliberately
independent route: product the arena with goal counters for both players,
assign three parity priorities, and run Zielonka's attractor recursion over
the explicit product graph.  Its product nodes are integer ids built
straight from the arena's CSR arrays, and it shares no code with the
solver beyond reading the liveness predicates.
"""

from __future__ import annotations

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


def _into(arena, groups, target):
    """Sys edges of each of `groups` into the state mask `target`."""
    size = arena.group_indptr[groups + 1] - arena.group_indptr[groups]
    edges = ar._gather(arena.group_indptr, groups, size)
    hits = np.zeros(len(edges) + 1, dtype=np.int64)
    np.cumsum(target[arena.group_succ[edges]], out=hits[1:])
    ends = size.cumsum()
    return hits[ends] - hits[ends - size]


def _nu_x(arena, x, lower):
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
    groups = arena.pair_group[ar._gather(arena.env_indptr, states)]
    cnt = _into(arena, groups, x)
    if cnt.all():
        return x
    cpre = _Cpre(arena, states, x, groups, cnt)
    cpre.shrink(states[cpre.dead[states] > 0])
    return x


class _Cpre:
    """cpre of a target that only grows or only shrinks, by edge counters.

    Each move group counts its sys edges into the target (`cnt`), shared
    by every pair in it, and each state its pairs whose group is at 0
    (`dead`): cpre is ``dead == 0``.  Built on a `target`, the tracker
    shrinks it in place, starting from the counts `cnt` its caller took
    of each of `groups` (the groups of the scope's pairs, or every group
    with no scope); else it grows one from empty, every state starting
    from its env degree.  `add` and `remove` move states across at the
    cost of their in-edges (`GameArena.in_edges`), and a group crossing 0
    fans out to the states of its pairs, so a tracker costs O(group edges
    + pairs) in all; they return the states entering or leaving cpre,
    each once.  A counter need be exact only where it counts down to 0:
    growing, `cnt` is a flag per group; shrinking, `dead` saturates.  So
    a growing tracker's counters are a function of its target alone, not
    of the order it grew in.  cpre is defined only on the `scope` (every
    state if None): a group fans out to the scope's states alone, and a
    shrinking tracker is handed counts of the scope's groups only, so a
    nu-X retreat costs O(group edges of its undecided states).
    """

    def __init__(self, arena, scope=None, target=None, groups=None, cnt=None):
        self.grows, self.scope = target is None, None
        (self.in_indptr, self.in_group,
         self.member_indptr, self.member) = arena.in_edges
        if scope is not None:
            self.scope = np.zeros(arena.n_states, dtype=bool)
            self.scope[scope] = True
        if self.grows:
            self.target = np.zeros(arena.n_states, dtype=bool)
            self.cnt = np.zeros(arena.n_groups, dtype=bool)
            self.dead = np.diff(arena.env_indptr).astype(np.int32)
            return
        self.target = target
        # a group with no pair in the scope starts at 0 and only goes down
        self.cnt = np.zeros(arena.n_groups, dtype=np.int64)
        self.cnt[groups] = cnt
        self.dead = np.zeros(arena.n_states, dtype=np.int32)
        zero = groups[cnt == 0]
        zero.sort()
        self.dead[self._members(_distinct(zero))] = 1

    def _members(self, groups):
        """The scope's states with a pair in one of the distinct `groups`,
        once per pair."""
        owners = self.member[ar._gather(self.member_indptr, groups)]
        return owners if self.scope is None else owners[self.scope[owners]]

    def add(self, states):
        """Put `states` in the target; returns the states entering cpre."""
        assert self.grows, "cpre targets must shrink"
        if not len(states):
            return states
        self.target[states] = True
        hit = self.in_group[ar._gather(self.in_indptr, states)]
        fresh = hit[~self.cnt[hit]]
        fresh.sort()
        fresh = _distinct(fresh)
        if not len(fresh):
            return fresh
        self.cnt[fresh] = True
        owners = self._members(fresh)
        np.subtract.at(self.dead, owners, np.int32(1))
        entered = owners[self.dead[owners] == 0]
        entered.sort()
        return _distinct(entered)

    def remove(self, states):
        """Take `states` out of the target; returns the states leaving cpre."""
        assert not self.grows, "cpre targets must grow"
        self.target[states] = False
        hit = self.in_group[ar._gather(self.in_indptr, states)]
        np.subtract.at(self.cnt, hit, 1)
        zero = hit[self.cnt[hit] == 0]
        if not len(zero):
            return zero
        zero.sort()
        owners = self._members(_distinct(zero))
        gone = owners[self.dead[owners] == 0]
        self.dead[owners] = 1
        gone.sort()
        return _distinct(gone)

    def shrink(self, states):
        """Take `states` out of the target, then, wave by wave, every
        state of the target that leaves cpre, until the target lies in its
        cpre (on the scope): the greatest such subset of what it held."""
        while len(states):
            gone = self.remove(states)
            # a state taken out before it left cpre is taken out once
            states = gone[self.target[gone]]


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
    arena.in_edges      # the peak of a solve: build it before any pair array
    # an assumption true everywhere has an empty nu-X disjunct
    falsifiable = [(i, ~a) for i, a in enumerate(assumptions) if not a.all()]
    n_goals = len(goals)
    Z = np.ones(arena.n_states, dtype=bool)
    y_rank = np.full((n_goals, arena.n_states), INF_RANK, dtype=np.int32)
    # Every Z handed to a goal lies inside the one before it, so one
    # shrinking cpre serves them all.  A Z handed on is a fixpoint
    # Y = B_j(Y) of the previous goal's mu-Y step B_j, with B(Y) = seed |
    # cpre(Y) | OR_i nu X. (seed | cpre(Y) | (~a_i & cpre(X))).  So
    # cpre(Y) <= Y, the next seed lies in g & cpre(Y), so in cpre(Y), hence
    # B_{j+1}(Y) <= B_j(Y) = Y, and the least fixpoint of B_{j+1} lies in Y.
    #
    # The tracker's target is not Z itself but its safety core C(Z), the
    # greatest C = Z & cpre(C), and each seed is g & cpre(C(Z)), inside
    # g & cpre(Z): a Z that a whole round leaves unchanged then lies in
    # every goal's mu-Y on the seed g & cpre(Z), so in the greatest
    # fixpoint of the module docstring, the winning region W.  And W lies
    # in cpre(W), so W = C(W) lies in C(Z) whenever it lies in Z: every
    # seed holds g & cpre(W) and every Z holds W.  So the loop ends at W,
    # where C(W) = W: each goal's last seed is g & cpre(W), as with seeds
    # g & cpre(Z), and so are its ranks and nu-X layers.  From a state
    # outside the core the environment can force the play out of Z or into
    # a system deadlock; such states leave at once, wave by wave, not one
    # layer per sweep.
    core = _Cpre(arena, target=np.ones(arena.n_states, dtype=bool),
                 groups=np.arange(arena.n_groups),
                 cnt=np.diff(arena.group_indptr))
    core.shrink((core.dead > 0).nonzero()[0])
    # each goal's last seed, and the nu-X layers of every round of its mu-Y
    seeds = [None] * n_goals
    x_layers = [None] * n_goals

    while True:
        z_before = Z
        for j, g in enumerate(goals):
            # on bools, a > b is a & ~b in one call
            core.shrink((core.target > Z).nonzero()[0])
            seed = g & (core.dead == 0)
            # a mu-Y is a function of its seed alone
            if not np.array_equal(seed, seeds[j]):
                seeds[j] = seed
                y_rank[j], x_layers[j] = _mu_y(arena, seed, falsifiable)
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


def _mu_y(arena, seed, falsifiable):
    """mu Y. B(Y) | OR_i nu X. B(Y) | (~a_i & cpre(X)), where B(Y) is
    seed | cpre(Y), at O(edges) per round.

    `falsifiable` lists (i, ~assumption_i); with none, the mu-Y is the
    attractor of the seed.  Returns the rank of each state (the round it
    joined Y, INF_RANK outside Y) and the nu-X layers [(i, X), ...] of
    every round, the last one adding nothing (no layers without
    assumptions).

    Y grows, so a growing `_Cpre` keeps cpre(Y), and `base` grows by the
    states it reports entering: base_0 = seed, then base_r = seed |
    cpre(Y_r).  So the env deadlocks, cpre(empty), join base at round 1, and
    rank 0 in every game is the seed and its round-0 nu-X layers.  The least
    fixpoint of the mu-Y step M is the same: Y_1 lies in M(empty), so in
    M(Y_1) and lfp M, as M is monotone; the later rounds iterate M upward
    from Y_1, and the first that adds nothing to Y or to base is a fixpoint
    of M inside lfp M, so lfp M.  Without assumptions, Y_{r+1} = base_r.

    Round r's nu-X for assumption i, X_{r,i}, is the greatest fixpoint of
    F_r(X) = base_r | (~a_i & cpre(X)), and `_nu_x` finds it by a
    retreat from one bound down to base_r.  X_{r,i} = F_r(X_{r,i}) lies in
    T_r = base_r | ~a_i, and F_r is monotone, so X_{r,i} lies in F_r(T_r),
    where the retreat starts.  T_r grows with r, as base_r does, so a
    growing `_Cpre` per assumption keeps cpre(T_r) at O(edges) per mu-Y,
    where counting the edges of every undecided state in every round was
    not.
    """
    rank = np.full(arena.n_states, INF_RANK, dtype=np.int32)
    cpre_y = _Cpre(arena)
    stuck = (cpre_y.dead == 0).nonzero()[0]     # cpre(empty), the deadlocks
    cpre_t = [_Cpre(arena) for _ in falsifiable]
    base = seed.copy()
    newly = base.nonzero()[0]
    layers = []
    for r in itertools.count():
        if falsifiable:
            layer, y_new = [], base.copy()
            for (i, not_a), cpre in zip(falsifiable, cpre_t):
                # T_r and F_r(T_r) of the docstring
                cpre.add(((base | not_a) > cpre.target).nonzero()[0])
                x = not_a & (cpre.dead == 0)
                x |= base
                X = _nu_x(arena, x, base)
                layer.append((i, X))
                y_new |= X
            layers.append(layer)
            # Y is the target of cpre_y
            assert not np.any(cpre_y.target > y_new), "Y iterates must grow"
            newly = (y_new > cpre_y.target).nonzero()[0]
        # only round 0 can leave states pending: cpre(empty), the deadlocks
        if not len(newly) and (r or not len(stuck)):
            return rank, layers
        rank[newly] = r
        fresh = cpre_y.add(newly)
        if not r:
            fresh = np.concatenate((fresh, stuck))
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
        a JSON integer, on a repeated variable and on dangling references."""
        names = list(obj["vars"])
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise ValueError(f"vars named twice: {', '.join(repeated)}")
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

    # each group's minimum of key = rank * n_states + succ over its winning
    # successors, per pursued goal, picks the lowest-ranked one with the
    # lowest sys index, as a group's successors share their env part; INF
    # keys mark groups without one
    rank64 = result.y_rank.astype(np.int64)
    INFKEY = np.int64(INF_RANK) * n_states * 4
    succ = a.group_succ
    filled = np.diff(a.group_indptr) > 0
    best = np.full((n_goals, a.n_groups), INFKEY)
    for jp in range(n_goals):
        key = rank64[jp][succ] * n_states + succ
        key[~winning[succ]] = INFKEY
        if len(key):
            best[jp, filled] = np.minimum.reduceat(
                key, a.group_indptr[:-1][filled])
    edge_succ, edge_next = [], []    # successor state and node per edge
    edge_indptr = [0]
    for s, j in order:               # order grows while it is walked
        goal_holds = bool(result.goals[j][s])
        jp = (j + 1) % n_goals if goal_holds else j
        my_rank = rank64[jp, s]
        plo, phi = int(a.env_indptr[s]), int(a.env_indptr[s + 1])
        keys = best[jp, a.pair_group[plo:phi]]
        if not goal_holds:
            # the key orders by rank first: a group's best is below my
            # rank exactly when one of its successors is
            keys[keys >= my_rank * n_states] = INFKEY
        for p, b in zip(range(plo, phi), keys.tolist()):
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
    g = a.pair_group[p]
    succ = a.group_succ[a.group_indptr[g]:a.group_indptr[g + 1]]
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
    group_indptr = arena.group_indptr.tolist()
    # the env node at counters k = c2 * na + d2 after each group edge
    edge_to = arena.group_succ * m
    to = [(edge_to + k).tolist() for k in range(m)]
    # the successors of a sys node of each group, per counter pair; the
    # pairs of a group share them
    group_to = [[t[lo:hi] or [LOSE] for t in to]
                for lo, hi in zip(group_indptr, group_indptr[1:])]
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
    for g in arena.pair_group.tolist():
        succ += group_to[g]
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
