"""Game solving: three-nested fixpoint, strategy extraction, naive oracle.

The winning region is the greatest fixpoint

    Z = AND_j  mu Y. OR_i  nu X.
            (goal_j & cpre(Z)) | cpre(Y) | (~assumption_i & cpre(X))

over the controllable-predecessor operator ``cpre``: states from which, for
every legal environment commitment, some system response lands in the target
(environment deadlocks count as controllable, system deadlocks never do).

With no liveness assumptions the inner disjunct vanishes and each mu-Y is a
plain attractor; that case runs on a linear-time counter/wave schedule so
the ~5e4-state work-delivery instance solves in well under a second.

``brute_force_oracle`` recomputes the winning region by a deliberately
independent route: product the arena with goal counters for both players,
assign three parity priorities, and run Zielonka's attractor recursion over
the explicit product graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NotRealizable, TooLarge
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
    """Precomputed edge arrays for vectorized cpre and attractors."""

    def __init__(self, arena):
        self.arena = arena
        n_pairs = arena.n_pairs
        self.env_degree = np.diff(arena.env_indptr)
        self.edge_pair = np.repeat(
            np.arange(n_pairs, dtype=np.int64), np.diff(arena.sys_indptr))
        self.edge_succ = (arena.env_next[self.edge_pair] * arena.n_sys +
                          arena.sys_next)
        # incoming sys edges grouped by successor state
        order = np.argsort(self.edge_succ, kind="stable")
        self.in_edge = order
        self.in_indptr = np.zeros(arena.n_states + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.edge_succ, minlength=arena.n_states),
                  out=self.in_indptr[1:])

    def cpre(self, target):
        """States where sys can force the next state into `target`."""
        a = self.arena
        good = np.zeros(a.n_pairs, dtype=bool)
        good[self.edge_pair[target[self.edge_succ]]] = True
        bad = np.bincount(a.pair_state[~good], minlength=a.n_states)
        return bad == 0

    def attractor_ranks(self, seed):
        """Least fixpoint of T -> seed | cpre(T), with wave index per state.

        Returns an int32 array: 0 on seed, k for states joining at wave k,
        INF_RANK outside the fixpoint.  Runs in O(edges) overall.
        """
        a = self.arena
        rank = np.full(a.n_states, INF_RANK, dtype=np.int32)
        seed_idx = np.nonzero(seed)[0]
        rank[seed_idx] = 0
        pair_good = np.zeros(a.n_pairs, dtype=bool)
        bad_cnt = self.env_degree.copy()
        frontier = seed_idx
        r = 0
        while True:
            lo = self.in_indptr[frontier]
            hi = self.in_indptr[frontier + 1]
            if (hi - lo).sum():
                gather = np.concatenate(
                    [self.in_edge[x:y] for x, y in zip(lo, hi) if x != y])
                pairs = self.edge_pair[gather]
                pairs = np.unique(pairs[~pair_good[pairs]])
                pair_good[pairs] = True
                owners = a.pair_state[pairs]
                np.subtract.at(bad_cnt, owners, 1)
                cand = np.unique(owners[bad_cnt[owners] == 0])
            else:
                cand = np.zeros(0, dtype=np.int64)
            if r == 0:
                # env-deadlocked states sit in every cpre application
                dead = np.nonzero((self.env_degree == 0) &
                                  (rank == INF_RANK))[0]
                cand = np.union1d(cand, dead)
            cand = cand[rank[cand] == INF_RANK]
            rank[cand] = r + 1
            frontier = cand
            r += 1
            if not len(frontier):
                break
        return rank


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
    trivial = all(a.all() for a in assumptions)
    n_goals = len(goals)
    Z = np.ones(arena.n_states, dtype=bool)
    y_rank = np.full((n_goals, arena.n_states), INF_RANK, dtype=np.int32)
    x_witness = None if trivial else [dict() for _ in range(n_goals)]

    while True:
        z_before = Z
        for j, g in enumerate(goals):
            seed = g & ctx.cpre(Z)
            if trivial:
                rank = ctx.attractor_ranks(seed)
                Y = rank != INF_RANK
            else:
                rank, Y, wit = _mu_y_general(ctx, seed, assumptions, Z)
                x_witness[j] = wit
            y_rank[j] = rank
            Z = Y
        assert not np.any(Z & ~z_before), "Z iterates must shrink"
        if np.array_equal(Z, z_before):
            break

    result = SynthesisResult(
        winning=Z, realizable=False, y_rank=y_rank,
        goals=goals, assumptions=assumptions, x_witness=x_witness)
    result.realizable = is_realizable(result, arena)
    return result


def _mu_y_general(ctx, seed, assumptions, Z):
    """mu-Y with per-assumption nu-X disjuncts; small-arena path."""
    n = ctx.arena.n_states
    Y = np.zeros(n, dtype=bool)
    rank = np.full(n, INF_RANK, dtype=np.int32)
    witness = {}
    r = 0
    while True:
        base = seed | ctx.cpre(Y)
        y_new = base.copy()
        layer = []
        for i, a in enumerate(assumptions):
            if a.all():
                continue   # ~a empty: disjunct vanishes
            X = np.ones(n, dtype=bool)
            while True:
                x_new = base | (~a & ctx.cpre(X))
                if np.array_equal(x_new, X):
                    break
                X = x_new
            layer.append((i, X))
            y_new |= X
        assert not np.any(Y & ~y_new), "Y iterates must grow"
        newly = y_new & ~Y
        if not newly.any():
            break
        rank[newly] = r
        if layer:
            witness[r] = layer
        Y = y_new
        r += 1
    return rank, Y, witness


def is_realizable(result, arena):
    """Initial-condition check: every legal env init admits a winning
    sys init response."""
    env_init = arena.env_init
    if not env_init.any():
        return True
    ok = (result.winning & arena.sys_init).reshape(arena.n_env, arena.n_sys)
    return bool(ok.any(axis=1)[env_init].all())


def init_feasible(arena):
    """False when some env init has no sys init completion at all
    (unrealizable regardless of the game)."""
    if not arena.env_init.any():
        return True
    ok = arena.sys_init.reshape(arena.n_env, arena.n_sys).any(axis=1)
    return bool(ok[arena.env_init].all())


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

    def node_state(self, nid):
        return dict(zip(self.names, self.node_vals[nid].tolist()))

    def legal_env_moves(self, nid):
        """Env assignments of the node's edges, in edge order, as tuples."""
        lo, hi = self.edge_indptr[nid], self.edge_indptr[nid + 1]
        return list(map(tuple, self.edge_env[lo:hi].tolist()))

    def respond(self, nid, k):
        """(sys values, next node) of the node's k-th edge."""
        edge = self.edge_indptr[nid] + k
        return tuple(self.edge_sys[edge].tolist()), int(self.edge_next[edge])

    # ---- serialization (field order is part of the format) ------------

    def to_obj(self):
        env_names, sys_names = self.env_names, self.sys_names
        edges = [{"env": dict(zip(env_names, ev)),
                  "sys": dict(zip(sys_names, sv)),
                  "next": nxt}
                 for ev, sv, nxt in zip(self.edge_env.tolist(),
                                        self.edge_sys.tolist(),
                                        self.edge_next.tolist())]
        bounds = self.edge_indptr.tolist()
        nodes = [{"id": nid, "state": dict(zip(self.names, vals)),
                  "goal": goal, "edges": edges[lo:hi]}
                 for nid, (vals, goal, lo, hi) in enumerate(zip(
                     self.node_vals.tolist(), self.node_goal.tolist(),
                     bounds, bounds[1:]))]
        init = [{"env": dict(zip(env_names, ev)), "node": nid}
                for ev, nid in zip(self.init_env.tolist(),
                                   self.init_node.tolist())]
        return {"vars": list(self.names), "goals": int(self.n_goals),
                "nodes": nodes, "init": init}

    def save(self, path):
        with open(path, "w") as fp:
            json.dump(self.to_obj(), fp)
            fp.write("\n")

    @classmethod
    def from_obj(cls, obj):
        """Strategy from its JSON object; ValueError on dangling references."""
        names = list(obj["vars"])
        nodes, inits = obj["nodes"], obj["init"]
        edges = [e for nd in nodes for e in nd["edges"]]
        env_keys = (edges or inits or [{"env": {}}])[0]["env"]
        env_names = [n for n in names if n in env_keys]
        sys_names = [n for n in names if n not in env_keys]

        def table(dicts, keys):
            return np.array([[int(d[k]) for k in keys] for d in dicts],
                            dtype=np.int64).reshape(len(dicts), len(keys))

        strat = cls(
            env_names=tuple(env_names), sys_names=tuple(sys_names),
            n_goals=int(obj["goals"]),
            node_vals=table([nd["state"] for nd in nodes], names),
            node_goal=table(nodes, ["goal"])[:, 0],
            edge_indptr=np.cumsum([0] + [len(nd["edges"]) for nd in nodes],
                                  dtype=np.int64),
            edge_env=table([e["env"] for e in edges], env_names),
            edge_sys=table([e["sys"] for e in edges], sys_names),
            edge_next=table(edges, ["next"])[:, 0],
            init_env=table([it["env"] for it in inits], env_names),
            init_node=table(inits, ["node"])[:, 0])
        if [nd["id"] for nd in nodes] != list(range(len(nodes))):
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
    n_sys = a.n_sys

    node_ids = {}
    order = []       # (state, goal) in discovery order

    def node_of(s, j):
        if (s, j) not in node_ids:
            node_ids[s, j] = len(order)
            order.append((s, j))
        return node_ids[s, j]

    init_env = np.nonzero(a.env_init)[0]
    init_node = []
    sys_ok = (winning & a.sys_init).reshape(a.n_env, n_sys)
    for e0 in init_env.tolist():
        ys = np.nonzero(sys_ok[e0])[0]
        if not len(ys):
            raise NotRealizable(f"no winning sys init for env init {e0}")
        init_node.append(node_of(a.successor(e0, ys[0]), 0))

    # per-pair minimum of key = rank * n_sys + y picks the lowest-ranked
    # successor with the lowest sys index; INF keys mark excluded edges
    rank64 = result.y_rank.astype(np.int64)
    INFKEY = np.int64(INF_RANK) * n_sys * 4
    edge_sys, edge_next = [], []     # sys index and next node per edge
    for s, j in order:               # order grows while it is walked
        goal_holds = bool(result.goals[j][s])
        jp = (j + 1) % n_goals if goal_holds else j
        rank = rank64[jp]
        my_rank = rank[s]
        plo, phi = int(a.env_indptr[s]), int(a.env_indptr[s + 1])
        elo, ehi = int(a.sys_indptr[plo]), int(a.sys_indptr[phi])
        es_idx = a.env_next[plo:phi]
        ys = a.sys_next[elo:ehi]
        succ = np.repeat(es_idx, np.diff(a.sys_indptr[plo:phi + 1])) * n_sys + ys
        key = rank[succ] * n_sys + ys
        key[~winning[succ]] = INFKEY
        if not goal_holds:
            key[rank[succ] >= my_rank] = INFKEY
        starts = (a.sys_indptr[plo:phi] - elo).astype(np.int64)
        best = np.minimum.reduceat(key, starts).tolist() if len(key) else []
        for e, b in zip(es_idx.tolist(), best):
            if b < INFKEY:
                y = b % n_sys
            else:
                y = _loiter_pick(result, a, s, jp, my_rank, e)
                if y is None:
                    raise AssertionError(
                        f"extraction stuck at state {s} goal {jp} env {e}")
            edge_next.append(node_of(a.successor(e, y), jp))
            edge_sys.append(y)

    states = np.array([s for s, _ in order], dtype=np.int64)
    degree = np.diff(a.env_indptr)[states]
    edge_indptr = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(degree, out=edge_indptr[1:])
    # each node's edges are its state's (state, env') pairs, in pair order
    pairs = (np.repeat(a.env_indptr[states] - edge_indptr[:-1], degree) +
             np.arange(edge_indptr[-1]))
    return Strategy(
        env_names=a.names[:a.n_env_vars],
        sys_names=a.names[a.n_env_vars:],
        n_goals=n_goals,
        node_vals=a.state_codec.values(states),
        node_goal=np.array([j for _, j in order], dtype=np.int64),
        edge_indptr=edge_indptr,
        edge_env=a.env_codec.values(a.env_next[pairs]),
        edge_sys=a.sys_codec.values(np.array(edge_sys, dtype=np.int64)),
        edge_next=np.array(edge_next, dtype=np.int64),
        init_env=a.env_codec.values(init_env),
        init_node=np.array(init_node, dtype=np.int64))


def _loiter_pick(result, a, s, jp, my_rank, e):
    """Same-rank response inside a recorded nu-X region (assumption games)."""
    if result.x_witness is None:
        return None
    ys = a.sys_moves(s, e)
    succ = e * a.n_sys + ys
    for wi, xset in result.x_witness[jp].get(int(my_rank), ()):
        if not result.assumptions[wi][s] and xset[s]:
            stay = np.nonzero(xset[succ])[0]
            if len(stay):
                return int(ys[stay[0]])
    return None


# --------------------------------------------------------------------------
# independent oracle: counter product + 3-priority Zielonka


def brute_force_oracle(arena, env_live, sys_live, cap=10_000):
    """Winning region by explicit parity-game solving on the goal-counter
    product; maximally naive on purpose.  Raises TooLarge above `cap`."""
    if arena.n_states > cap:
        raise TooLarge(f"{arena.n_states} states exceeds oracle cap {cap}")
    assumptions, goals = _normalize(arena, env_live, sys_live)
    ng, na = len(goals), len(assumptions)
    n_sys = arena.n_sys

    succ = {}
    pri = {}
    owner = {}
    WIN, LOSE = ("win",), ("lose",)
    succ[WIN] = [WIN]
    pri[WIN] = 2
    owner[WIN] = 0
    succ[LOSE] = [LOSE]
    pri[LOSE] = 1
    owner[LOSE] = 1

    for s in range(arena.n_states):
        for c in range(ng):
            for d in range(na):
                v = ("e", s, c, d)
                owner[v] = 1
                if c == ng - 1 and goals[ng - 1][s]:
                    pri[v] = 2
                elif d == na - 1 and assumptions[na - 1][s]:
                    pri[v] = 1
                else:
                    pri[v] = 0
                c2 = (c + 1) % ng if goals[c][s] else c
                d2 = (d + 1) % na if assumptions[d][s] else d
                es = arena.env_moves(s)
                if len(es) == 0:
                    succ[v] = [WIN]
                    continue
                succ[v] = []
                for e in es:
                    e = int(e)
                    u = ("y", s, c2, d2, e)
                    succ[v].append(u)
                    owner[u] = 0
                    pri[u] = 0
                    ys = arena.sys_moves(s, e)
                    if len(ys) == 0:
                        succ[u] = [LOSE]
                    else:
                        succ[u] = [("e", e * n_sys + int(y), c2, d2)
                                   for y in ys]

    preds = {v: [] for v in succ}
    for u, ws in succ.items():
        for w in ws:
            preds[w].append(u)

    w0, _w1 = _zielonka(succ, preds, owner, pri, set(succ))
    out = np.zeros(arena.n_states, dtype=bool)
    for s in range(arena.n_states):
        out[s] = ("e", s, 0, 0) in w0
    return out


def _zielonka(succ, preds, owner, pri, alive):
    """Returns (W0, W1) over `alive` for a max-parity game."""
    W0, W1 = set(), set()
    alive = set(alive)
    while alive:
        p = max(pri[v] for v in alive)
        player = p % 2
        top = {v for v in alive if pri[v] == p}
        A = _attr(succ, preds, owner, player, top, alive)
        sub0, sub1 = (_zielonka(succ, preds, owner, pri, alive - A)
                      if alive - A else (set(), set()))
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
    A = set(target)
    cnt = {}
    stack = list(target)
    while stack:
        v = stack.pop()
        for u in preds[v]:
            if u not in alive or u in A:
                continue
            if owner[u] == player:
                A.add(u)
                stack.append(u)
            else:
                if u not in cnt:
                    cnt[u] = sum(1 for w in succ[u] if w in alive)
                cnt[u] -= 1
                if cnt[u] == 0:
                    A.add(u)
                    stack.append(u)
    return A
