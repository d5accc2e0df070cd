"""Verification of traces and strategies against a specification.

* ``check_safety``: every transition of a trace against all safety clauses,
  plus state-invariant clauses (those referencing only next-step values) on
  every snapshot and the init clauses on the first one.
* ``check_recurrence``: finite-trace approximation of an "infinitely often"
  goal; every window of W consecutive steps must contain a goal state.
  Human-away spans do not count toward windows.
* ``lasso_check``: exact liveness for a strategy driven by a deterministic
  finite adversary; the product run is eventually periodic, so each
  reachable cycle either visits every system goal or falsifies some
  environment assumption.  Reports the worst inter-goal gap, which is a
  sound window for ``check_recurrence`` under the same adversary.
* ``verify_strategy_closure``: structural totality of a controller against
  an arena, optionally with winning-region membership.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import AdversaryNotFinite
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


def _clauses(doc):
    for i, c in enumerate(doc.env_init):
        yield f"env_init[{i}]", c, "init"
    for i, c in enumerate(doc.sys_init):
        yield f"sys_init[{i}]", c, "init"
    for i, c in enumerate(doc.env_safety):
        yield f"env_trans[{i}]", c, "env"
    for i, c in enumerate(doc.sys_safety):
        yield f"sys_trans[{i}]", c, "sys"


def check_safety(trace, doc):
    """Every consecutive pair against all safety clauses; snapshots against
    next-only invariants; the first row against the init clauses."""
    violations = []
    rows = trace.rows
    if not rows:
        return _verdict([("trace", "empty", "no rows to check")])
    init_clauses = [(cid, c) for cid, c, kind in _clauses(doc)
                    if kind == "init"]
    trans_clauses = [(cid, c) for cid, c, kind in _clauses(doc)
                     if kind != "init"]
    for cid, c in init_clauses:
        if not eval_expr(c, rows[0].state):
            violations.append((0, cid, f"init violated: {format_expr(c)}"))
    # clauses referencing only next-step values double as invariants on the
    # later snapshot, so the pairwise sweep covers them at every reached row
    for k in range(1, len(rows)):
        if rows[k].human_away:
            continue
        cur, nxt = rows[k - 1].state, rows[k].state
        for cid, c in trans_clauses:
            if not eval_expr(c, cur, nxt):
                violations.append((k, cid, f"violated: {format_expr(c)}"))
    return _verdict(violations)


def check_recurrence(trace, goal, window):
    """Pass iff every `window` consecutive non-frozen rows contain a state
    satisfying the goal (expression or state-dict predicate)."""
    if window < 1:
        raise ValueError("window must be at least 1")
    test = goal if callable(goal) else (lambda st: bool(eval_expr(goal, st)))
    eff = [(r.index, test(r.state)) for r in trace.rows if not r.human_away]
    violations = []
    if len(eff) >= window:
        run = 0
        for idx, hit in eff:
            run = 0 if hit else run + 1
            if run >= window:
                violations.append(
                    (idx, "recurrence",
                     f"{window} consecutive steps without the goal"))
                run = 0    # report each violating stretch once
    return _verdict(violations)


# --------------------------------------------------------------------------
# exact lasso liveness


def lasso_check(strategy, adversary, doc):
    """Exact check of the strategy x adversary closed loop.

    Requires a deterministic finite adversary (the greedy policies).  The
    run from every initial node is eventually periodic; the cycle must
    visit every system liveness goal unless it falsifies some environment
    assumption.  `max_goal_gap` is the largest number of consecutive steps
    without a given goal over all runs, a sound recurrence window."""
    if not getattr(adversary, "deterministic_finite", False):
        raise AdversaryNotFinite(
            f"adversary {getattr(adversary, 'kind', '?')} has unbounded state")
    goals = list(doc.sys_liveness)
    assumptions = list(doc.env_liveness)
    env_names = list(strategy.env_names)
    violations = []
    worst_gap = 0

    for start in dict.fromkeys(strategy.init_node.tolist()):
        seen = {}
        path = []
        nid = start
        while nid not in seen:
            seen[nid] = len(path)
            path.append(nid)
            legal = strategy.legal_env_moves(nid)
            if not legal:
                violations.append((nid, "deadlock", "node has no edges"))
                break
            choice = adversary.choose(0, strategy.node_state(nid),
                                      legal, env_names)
            nid = strategy.respond(nid, legal.index(tuple(choice)))[1]
        else:
            loop_start = seen[nid]
            cycle = path[loop_start:]
            cycle_states = [strategy.node_state(q) for q in cycle]
            # the run falsifies an assumption only if the assumption
            # fails at every state of the cycle
            vacuous = any(
                not any(eval_expr(a, st) for st in cycle_states)
                for a in assumptions)
            for gi, g in enumerate(goals):
                if vacuous or any(eval_expr(g, st) for st in cycle_states):
                    continue
                violations.append(
                    (cycle[0], f"sys_liveness[{gi}]",
                     "cycle through nodes "
                     f"{cycle} never satisfies {format_expr(g)}"))
            # inter-goal gaps over the unrolled run
            unrolled = path + cycle * 2
            for gi, g in enumerate(goals):
                hits = [i for i, q in enumerate(unrolled)
                        if eval_expr(g, strategy.node_state(q))]
                if not hits:
                    continue
                gap = hits[0] + 1
                for a, b in zip(hits, hits[1:]):
                    gap = max(gap, b - a)
                worst_gap = max(worst_gap, gap)
    return _verdict(violations, gap=worst_gap if not violations else None)


# --------------------------------------------------------------------------
# closure


def _find(keys, queries):
    """Position of each query in the sorted array `keys`, -1 where absent."""
    pos = np.searchsorted(keys, queries)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == queries[hit]
    return np.where(hit, pos, -1)


def verify_strategy_closure(strategy, arena, result=None):
    """Totality and consistency of a controller against an arena.

    Checks, per node: the state lies in the arena's domain, every legal env
    assignment has exactly one edge, the recorded response is a legal sys
    move, the successor node carries the combined assignment, and the goal
    index advances exactly on nodes satisfying their current goal (when
    `result` is given, which also enables the winning-region membership
    check).  A value outside its variable's domain is never legal."""
    st, a = strategy, arena
    if st.names != a.names:
        return _verdict([("vars", "order", f"strategy vars {st.names} != "
                                           f"arena vars {a.names}")])
    owner = np.repeat(np.arange(st.n_nodes), np.diff(st.edge_indptr))
    s = a.state_codec.index(st.node_vals)           # -1: outside the domain
    here = s[owner]
    e = np.where(here < 0, -1, a.env_codec.index(st.edge_env))
    y = a.sys_codec.index(st.edge_sys)
    # the arena's pairs are sorted by state * n_env + env' and its edges by
    # pair * n_sys + sys'; a key of -1 finds nothing
    pair = _find(a.pair_state * a.n_env + a.env_next,
                 np.where(e < 0, -1, here * a.n_env + e))
    edge_pair = np.repeat(np.arange(a.n_pairs), np.diff(a.sys_indptr))
    sys_ok = _find(edge_pair * a.n_sys + a.sys_next,
                   np.where((pair < 0) | (y < 0), -1, pair * a.n_sys + y)) >= 0
    succ_ok = s[st.edge_next] == e * a.n_sys + y
    goal_ok, winning = np.ones(len(owner), bool), np.ones(st.n_nodes, bool)
    if result is not None:
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
            add(f"state {st.node_state(nid)} outside the arena's domain")
            continue
        edges = range(st.edge_indptr[nid], st.edge_indptr[nid + 1])
        have = dict(zip(edges, st.legal_env_moves(nid)))
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
    return _verdict(violations)
