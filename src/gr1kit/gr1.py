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
    env_names: tuple
    sys_names: tuple
    n_goals: int
    node_vals: list              # per node: tuple of ints, env vars first
    node_goal: list              # per node: goal index
    edge_env: list               # per node: [k][n_env_vars] int array
    edge_sys: list               # per node: [k][n_sys_vars] int array
    edge_next: list              # per node: [k] int array
    init_env: list               # [m] env value tuples
    init_node: list              # [m] node ids

    @property
    def n_nodes(self):
        return len(self.node_vals)

    @property
    def names(self):
        return tuple(self.env_names) + tuple(self.sys_names)

    def node_state(self, nid):
        return dict(zip(self.names, self.node_vals[nid]))

    def legal_env_moves(self, nid):
        """Env assignments with an outgoing edge, as value tuples."""
        return [tuple(row) for row in self.edge_env[nid]]

    def respond(self, nid, env_tuple):
        """(sys values, next node) for a committed env assignment."""
        rows = self.edge_env[nid]
        for k in range(len(rows)):
            if tuple(rows[k]) == env_tuple:
                return tuple(self.edge_sys[nid][k]), int(self.edge_next[nid][k])
        return None

    # ---- serialization (field order is part of the format) ------------

    def to_obj(self):
        nodes = []
        names = self.names
        for nid in range(self.n_nodes):
            edges = []
            for k in range(len(self.edge_env[nid])):
                edges.append({
                    "env": dict(zip(self.env_names,
                                    (int(v) for v in self.edge_env[nid][k]))),
                    "sys": dict(zip(self.sys_names,
                                    (int(v) for v in self.edge_sys[nid][k]))),
                    "next": int(self.edge_next[nid][k]),
                })
            nodes.append({
                "id": nid,
                "state": dict(zip(names, (int(v) for v in self.node_vals[nid]))),
                "goal": int(self.node_goal[nid]),
                "edges": edges,
            })
        init = [{"env": dict(zip(self.env_names, (int(v) for v in ev))),
                 "node": int(nid)}
                for ev, nid in zip(self.init_env, self.init_node)]
        return {"vars": list(names), "goals": self.n_goals,
                "nodes": nodes, "init": init}

    def save(self, path):
        with open(path, "w") as fp:
            json.dump(self.to_obj(), fp)
            fp.write("\n")

    @classmethod
    def from_obj(cls, obj):
        names = list(obj["vars"])
        nodes = obj["nodes"]
        env_names = list(nodes[0]["edges"][0]["env"].keys()) if (
            nodes and nodes[0]["edges"]) else []
        if not env_names and obj["init"]:
            env_names = list(obj["init"][0]["env"].keys())
        sys_names = [n for n in names if n not in env_names]
        env_names = [n for n in names if n in env_names]
        strat = cls(env_names=tuple(env_names), sys_names=tuple(sys_names),
                    n_goals=int(obj["goals"]),
                    node_vals=[], node_goal=[], edge_env=[], edge_sys=[],
                    edge_next=[], init_env=[], init_node=[])
        for nd in nodes:
            strat.node_vals.append(tuple(int(nd["state"][n]) for n in names))
            strat.node_goal.append(int(nd["goal"]))
            ee = np.array([[int(e["env"][n]) for n in env_names]
                           for e in nd["edges"]], dtype=np.int64)
            es = np.array([[int(e["sys"][n]) for n in sys_names]
                           for e in nd["edges"]], dtype=np.int64)
            en = np.array([int(e["next"]) for e in nd["edges"]], dtype=np.int64)
            strat.edge_env.append(ee.reshape(-1, len(env_names)))
            strat.edge_sys.append(es.reshape(-1, len(sys_names)))
            strat.edge_next.append(en)
        for it in obj["init"]:
            strat.init_env.append(tuple(int(it["env"][n]) for n in env_names))
            strat.init_node.append(int(it["node"]))
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
    env_decls, sys_decls = a.env_decls(), a.sys_decls()
    n_sys = a.n_sys

    # decoded value tables for all env / sys assignment indices
    env_mat = a.env_codec.values()
    sys_mat = a.sys_codec.values()

    node_ids = {}
    order = []       # (state, goal) in discovery order

    def node_of(s, j):
        key = (s, j)
        if key not in node_ids:
            node_ids[key] = len(order)
            order.append(key)
        return node_ids[key]

    init_env, init_node = [], []
    sys_ok = (winning & a.sys_init).reshape(a.n_env, n_sys)
    for e0 in np.nonzero(a.env_init)[0]:
        ys = np.nonzero(sys_ok[e0])[0]
        if not len(ys):
            raise NotRealizable(f"no winning sys init for env init {e0}")
        s0 = a.successor(int(e0), int(ys[0]))
        init_env.append(tuple(int(x) for x in env_mat[e0]))
        init_node.append(node_of(s0, 0))

    # per-pair minimum of key = rank * n_sys + y picks the lowest-ranked
    # successor with the lowest sys index; INF keys mark excluded edges
    rank64 = result.y_rank.astype(np.int64)
    INFKEY = np.int64(INF_RANK) * n_sys * 4
    edge_env, edge_sys, edge_next = [], [], []
    node_goal_out = []
    i = 0
    while i < len(order):
        s, j = order[i]
        node_goal_out.append(j)
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
        if len(key):
            best = np.minimum.reduceat(key, starts)
        else:
            best = np.zeros(0, dtype=np.int64)
        ee, esv, en = [], [], []
        for k, e in enumerate(es_idx):
            if best[k] < INFKEY:
                y = int(best[k] % n_sys)
            else:
                y = _loiter_pick(result, a, s, jp, my_rank, int(e))
                if y is None:
                    raise AssertionError(
                        f"extraction stuck at state {s} goal {jp} env {int(e)}")
            s2 = a.successor(int(e), y)
            en.append(node_of(s2, jp))
            esv.append(y)
        edge_env.append(env_mat[es_idx])
        edge_sys.append(sys_mat[np.array(esv, dtype=np.int64)])
        edge_next.append(np.array(en, dtype=np.int64))
        i += 1

    node_vals = [a.decode_state(s) for s, _ in order]
    return Strategy(
        env_names=tuple(d.name for d in env_decls),
        sys_names=tuple(d.name for d in sys_decls),
        n_goals=n_goals,
        node_vals=node_vals,
        node_goal=node_goal_out,
        edge_env=edge_env, edge_sys=edge_sys, edge_next=edge_next,
        init_env=init_env, init_node=init_node)


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
