"""Verification of traces and strategies against a specification.

Each clause is evaluated once, by ``speclang.eval_expr`` over columns:
the previous-row and next-row matrices of a trace's ``vals``, each
gathered once (rows where the human is away are not transitions), or a
controller's ``node_vals``.  A variable the clause references but the
trace or controller lacks raises MissingBinding, and so does, for a
trace, any declared variable it lacks.

* ``check_safety``: every transition of a trace against all safety clauses,
  plus state-invariant clauses (those referencing only next-step values) on
  every snapshot, the init clauses on the first one, and every declared
  variable's values against its domain.
* ``check_recurrence``: finite-trace approximation of an "infinitely often"
  goal; every window of W consecutive steps must contain a goal state.
  Human-away spans do not count toward windows.
* ``lasso_check``: exact liveness for a strategy driven by a deterministic
  finite adversary, stepped by the same edge-index step as ``sim.run``;
  the product run is eventually periodic, so each
  reachable cycle either visits every system goal or falsifies some
  environment assumption.  Reports the worst inter-goal gap, which is a
  sound window for ``check_recurrence`` under the same adversary.
* ``verify_strategy_closure``: structural totality of a controller against
  an arena and its solved game, with winning-region membership, and its
  initial entries: exactly one per legal initial env assignment, each at
  an initial and winning state carrying that assignment.  Pairs and edges
  are looked up among the pairs of the controller's own states only, so
  a call costs O(nodes + edges of those pairs + env assignments), not
  O(arena edges).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .arena import _gather
from .errors import AdversaryNotFinite, MissingBinding, StrategyHole
from .sim import _advance
from .speclang import eval_expr, format_expr


@dataclass
class Verdict:
    passed: bool
    violations: list = field(default_factory=list)
    max_goal_gap: int | None = None

    def summary(self):
        out = {"passed": self.passed,
               "violations": [{"where": w, "clause": c, "detail": d}
                              for w, c, d in self.violations]}
        if self.max_goal_gap is not None:
            out["max_goal_gap"] = self.max_goal_gap
        return out

    def render(self):
        lines = ["PASS" if self.passed else "FAIL"]
        if self.max_goal_gap is not None:
            lines.append(f"max goal gap: {self.max_goal_gap}")
        for where, clause, detail in self.violations:
            lines.append(f"  at {where}: [{clause}] {detail}")
        return "\n".join(lines)


def _verdict(violations, gap=None):
    return Verdict(passed=not violations, violations=violations,
                   max_goal_gap=gap)


# --------------------------------------------------------------------------
# safety


def check_safety(trace, doc):
    """Every consecutive pair against all safety clauses; snapshots against
    next-only invariants; the first row against the init clauses; every
    declared variable's values against its domain.  Violations come in row
    order, and within a row domain first, then clause order.
    MissingBinding when the trace lacks a declared variable."""
    if not len(trace.vals):
        return _verdict([("trace", "empty", "no rows to check")])
    column = {name: k for k, name in enumerate(trace.names)}
    decls = doc.vars
    for d in decls:
        if d.name not in column:
            raise MissingBinding(f"{d.name} missing from trace")
    vals = trace.vals[:, [column[d.name] for d in decls]]
    bounds = np.array([(d.lo, d.hi) for d in decls], np.int64).reshape(-1, 2)
    rows, cols = np.nonzero((vals < bounds[:, 0]) | (vals > bounds[:, 1]))
    found = [(k, "domain", f"{decls[j].name} = {vals[k, j]} outside "
                           f"{decls[j].lo}..{decls[j].hi}")
             for k, j in zip(rows.tolist(), cols.tolist())]
    # clauses referencing only next-step values double as invariants on the
    # later snapshot, so the pairwise sweep covers them at every reached row
    steps = np.flatnonzero(~trace.human_away[1:]) + 1
    init = (np.zeros(1, np.int64), dict(zip(trace.names, trace.vals[:1].T)),
            None, "init violated")
    trans = (steps, dict(zip(trace.names, trace.vals[steps - 1].T)),
             dict(zip(trace.names, trace.vals[steps].T)), "violated")
    for kind, clauses, (where, cur, nxt, what) in (
            ("env_init", doc.env_init, init), ("sys_init", doc.sys_init, init),
            ("env_trans", doc.env_safety, trans),
            ("sys_trans", doc.sys_safety, trans)):
        for i, c in enumerate(clauses):
            held = eval_expr(c, cur, nxt)
            if held.all():
                continue
            bad = where[~np.broadcast_to(held, where.shape)]
            found += [(k, f"{kind}[{i}]", f"{what}: {format_expr(c)}")
                      for k in bad.tolist()]
    # a stable sort: within a row, domain findings stay first
    return _verdict(sorted(found, key=lambda v: v[0]))


def check_recurrence(trace, goal, window):
    """Pass iff every `window` consecutive non-frozen rows contain a state
    satisfying the goal expression."""
    if window < 1:
        raise ValueError("window must be at least 1")
    eff = np.flatnonzero(~trace.human_away)
    hits = np.broadcast_to(
        eval_expr(goal, dict(zip(trace.names, trace.vals[eff].T))), eff.shape)
    # rows since the last goal row; a stretch is reported once per window
    pos = np.arange(len(eff))
    run = pos - np.maximum.accumulate(np.where(hits, pos, -1))
    ends = eff[(run > 0) & (run % window == 0)]
    return _verdict([(step, "recurrence",
                      f"{window} consecutive steps without the goal")
                     for step in trace.step[ends].tolist()])


# --------------------------------------------------------------------------
# exact lasso liveness


def lasso_check(strategy, adversary, doc):
    """Exact check of the strategy x adversary closed loop.

    Requires a deterministic finite adversary (the greedy policies).  The
    run from every initial node is eventually periodic; the cycle must
    visit every system liveness goal unless it falsifies some environment
    assumption.  `max_goal_gap` is the largest number of consecutive steps
    without a given goal over all runs: a recurrence window that is sound
    for runs against that deterministic adversary, not for every
    environment behaviour (ROADMAP direction 1 gives the exact bound).
    A strategy without initial nodes has no run to check, and fails."""
    if not getattr(adversary, "deterministic_finite", False):
        raise AdversaryNotFinite(
            f"adversary {getattr(adversary, 'kind', '?')} has unbounded state")
    vals = {name: strategy.node_vals[:, k]
            for k, name in enumerate(strategy.names)}
    # truth of each goal and assumption at every node
    goals = [np.broadcast_to(eval_expr(g, vals), (strategy.n_nodes,))
             for g in doc.sys_liveness]
    assumed = [np.broadcast_to(eval_expr(a, vals), (strategy.n_nodes,))
               for a in doc.env_liveness]
    violations = [] if len(strategy.init_node) else [
        ("init", "init", "strategy has no initial nodes")]
    worst_gap = 0

    for start in dict.fromkeys(strategy.init_node.tolist()):
        seen = {}
        path = []
        nid = start
        while nid not in seen:
            seen[nid] = len(path)
            path.append(nid)
            try:
                nid = _advance(strategy, nid, adversary)
            except StrategyHole:
                violations.append((nid, "deadlock", "node has no edges"))
                break
        else:
            loop_start = seen[nid]
            cycle = path[loop_start:]
            # the run falsifies an assumption only if the assumption
            # fails at every state of the cycle
            vacuous = any(not a[cycle].any() for a in assumed)
            for gi, g in enumerate(goals):
                if vacuous or g[cycle].any():
                    continue
                violations.append(
                    (cycle[0], f"sys_liveness[{gi}]",
                     "cycle through nodes "
                     f"{cycle} never satisfies "
                     f"{format_expr(doc.sys_liveness[gi])}"))
            # inter-goal gaps over the unrolled run
            unrolled = path + cycle * 2
            for g in goals:
                hits = np.flatnonzero(g[unrolled])
                if hits.size:
                    worst_gap = max(worst_gap,
                                    int(np.diff(hits, prepend=-1).max()))
    return _verdict(violations, gap=worst_gap if not violations else None)


# --------------------------------------------------------------------------
# closure


def _find(keys, queries):
    """Position of each query in the sorted array `keys`, -1 where absent."""
    pos = np.searchsorted(keys, queries)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == queries[hit]
    return np.where(hit, pos, -1)


def _span(indptr, rows):
    """Length of each row's slice of a CSR `indptr`."""
    return indptr[rows + 1] - indptr[rows]


def verify_strategy_closure(strategy, arena, result):
    """Totality and consistency of a controller against an arena and the
    `gr1.solve` result of its game.

    Checks, per node: the state lies in the arena's domain and the winning
    region, every legal env assignment has exactly one edge, the recorded
    response is a legal sys move, the successor node carries the combined
    assignment, and the goal index advances exactly on nodes satisfying
    their current goal.  A value outside its variable's domain is never
    legal.  Then the initial entries: one per legal initial env assignment
    and none other, each at a node whose state carries the entry's env
    values, is initial and is winning.

    Pairs and edges are looked up only among the pairs of the controller's
    own states, so a call costs O(nodes + edges of those pairs + env
    assignments), not O(arena edges)."""
    st, a = strategy, arena
    if st.names != a.names:
        return _verdict([("vars", "order", f"strategy vars {st.names} != "
                                           f"arena vars {a.names}")])
    # the goal index advances by the strategy's own goal count
    if st.n_goals != len(result.goals):
        return _verdict([("goals", "count", f"strategy goals {st.n_goals} "
                          f"!= game goals {len(result.goals)}")])
    nodes = np.arange(st.n_nodes)
    owner = np.repeat(nodes, np.diff(st.edge_indptr))
    s = a.state_codec.index(st.node_vals)           # -1: outside the domain
    here = s[owner]
    e = np.where(here < 0, -1, a.env_codec.index(st.edge_env))
    # each edge's claimed successor state, -1 outside the domain
    t = a.state_codec.index(np.hstack([st.edge_env, st.edge_sys]))
    # the pairs of each node's state, env' ascending, so node * n_env + env'
    # ascends along them: one search finds each edge's pair, and a key of
    # -1 finds nothing
    degree = np.where(s < 0, 0, _span(a.env_indptr, s))
    move_node = np.repeat(nodes, degree)
    move_pair = _gather(a.env_indptr, s[s >= 0])
    pos = _find(move_node * a.n_env + a.env_next[move_pair],
                np.where(e < 0, -1, owner * a.n_env + e))
    legal = pos >= 0
    pair = np.where(legal, move_pair[pos], -1)
    answered = np.zeros(len(move_pair), dtype=bool)
    answered[pos[legal]] = True
    # a legal response is one of its pair's successors
    ask = np.flatnonzero(legal & (t >= 0))
    group = a.pair_group[pair[ask]]
    asker = np.repeat(ask, _span(a.group_indptr, group))
    sys_ok = np.zeros(len(owner), dtype=bool)
    sys_ok[asker[a.group_succ[_gather(a.group_indptr, group)]
                 == t[asker]]] = True
    succ_ok = s[st.edge_next] == t
    holds = np.zeros(st.n_nodes, dtype=bool)
    for j, goal in enumerate(result.goals):
        at = np.flatnonzero((st.node_goal == j) & (s >= 0))
        holds[at] = goal[s[at]]
    j = st.node_goal[owner]
    goal_ok = st.node_goal[st.edge_next] == np.where(
        holds[owner], (j + 1) % st.n_goals, j)
    winning = (s < 0) | result.winning[s]
    per_node = functools.partial(np.bincount, minlength=st.n_nodes)
    bad = ((s < 0) | ~winning | (per_node(owner[legal]) != degree) |
           (per_node(move_node[~answered]) > 0) |
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
    return _verdict(violations + _init_violations(st, a, s, result))


def _init_violations(st, a, s, result):
    """Findings on the initial entries; `s` is each node's state index."""
    entry = a.env_codec.index(st.init_env)          # -1: outside the domain
    count = np.bincount(entry[entry >= 0], minlength=a.n_env)
    found = [("init", "init", f"no init entry for legal env assignment "
                              f"{a.env_codec.decode(m)}")
             for m in np.flatnonzero(a.env_init & (count == 0)).tolist()]
    found += [("init", "init", f"duplicate init entries for env assignment "
                               f"{a.env_codec.decode(m)}")
              for m in np.flatnonzero(count > 1).tolist()]
    node = st.init_node
    state = s[node]
    legal = (entry >= 0) & a.env_init[entry]
    carried = (st.node_vals[node, :a.n_env_vars] == st.init_env).all(axis=1)
    initial = (state >= 0) & a.sys_init[state]
    winning = (state < 0) | result.winning[state]
    for k in np.flatnonzero(~(legal & carried & initial & winning)).tolist():
        env, nid = tuple(st.init_env[k].tolist()), int(node[k])
        if not legal[k]:
            found.append(("init", "init",
                          f"init entry for illegal env assignment {env}"))
            continue
        if not initial[k]:
            found.append(("init", "init",
                          f"init node {nid} state is not initial"))
        if not carried[k]:
            found.append(("init", "init", f"init node {nid} does not carry "
                                          f"env assignment {env}"))
        if not winning[k]:
            found.append(("init", "winning", f"init node {nid} state outside "
                                             "the winning region"))
    return found
