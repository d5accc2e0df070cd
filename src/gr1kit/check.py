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

from dataclasses import dataclass, field

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

    for start in dict.fromkeys(strategy.init_node):
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
            resp = strategy.respond(nid, tuple(choice))
            if resp is None:
                violations.append((nid, "hole", f"no edge for {choice}"))
                break
            nid = resp[1]
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
                if any(eval_expr(g, st) for st in cycle_states):
                    continue
                if vacuous:
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


def verify_strategy_closure(strategy, arena, result=None):
    """Totality and consistency of a controller against an arena.

    Checks, per node: every legal env assignment has exactly one edge, the
    recorded response is a legal sys move, the successor node carries the
    combined assignment, and the goal index advances exactly on nodes
    satisfying their current goal (when `result` is given, which also
    enables the winning-region membership check)."""
    violations = []
    if tuple(strategy.names) != tuple(arena.names):
        violations.append(
            ("vars", "order",
             f"strategy vars {strategy.names} != arena vars {arena.names}"))
        return _verdict(violations)
    n_goals = strategy.n_goals
    for nid in range(strategy.n_nodes):
        s = arena.encode_state(strategy.node_vals[nid])
        legal = [tuple(arena.decode_env(int(e))) for e in arena.env_moves(s)]
        have = strategy.legal_env_moves(nid)
        have_set = set(have)
        if len(have) != len(have_set):
            violations.append((nid, "closure", "duplicate edges"))
        for m in legal:
            if m not in have_set:
                violations.append(
                    (nid, "closure", f"no edge for legal env move {m}"))
        extra = have_set.difference(legal)
        for m in sorted(extra):
            violations.append(
                (nid, "closure", f"edge for illegal env move {m}"))
        if result is not None and not result.winning[s]:
            violations.append((nid, "winning", "node state outside the "
                                               "winning region"))
        for k, m in enumerate(have):
            if m not in set(legal):
                continue
            e = arena.encode_env(m)
            y = arena.encode_sys(tuple(strategy.edge_sys[nid][k]))
            if y not in set(int(q) for q in arena.sys_moves(s, e)):
                violations.append(
                    (nid, "closure", f"illegal sys response to {m}"))
                continue
            nxt = int(strategy.edge_next[nid][k])
            if arena.encode_state(strategy.node_vals[nxt]) != \
                    arena.successor(e, y):
                violations.append(
                    (nid, "closure", f"successor mismatch on {m}"))
            if result is not None:
                j = strategy.node_goal[nid]
                holds = bool(result.goals[j][s])
                expect = (j + 1) % n_goals if holds else j
                if strategy.node_goal[nxt] != expect:
                    violations.append(
                        (nid, "goal", "goal index must advance exactly on "
                                      "goal states"))
    return _verdict(violations)
