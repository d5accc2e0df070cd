import collections
import dataclasses
import hashlib
import io
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from gr1kit import arena as ar
from gr1kit import speclang as sl
from gr1kit import workdelivery as wd
from gr1kit.errors import CapacityExceeded
from gr1kit.speclang import ENV, parse_spec

from conftest import (decode_state, dump, encode_state, env_moves,
                      grouped_arenas, sys_moves, sys_values, valuation)
from genspec import random_document, random_expr, reference_eval


def brute_env_moves(arena, doc, s):
    cur = valuation(arena, s)
    out = []
    for e in range(arena.n_env):
        nxt = arena.env_values(e)
        if all(reference_eval(c, cur, nxt) for c in doc.env_safety):
            out.append(e)
    return out


def brute_sys_moves(arena, doc, s, e):
    cur = valuation(arena, s)
    base = arena.env_values(e)
    out = []
    for y in range(arena.n_sys):
        nxt = dict(base)
        nxt.update(sys_values(arena, y))
        if all(reference_eval(c, cur, nxt) for c in doc.sys_safety):
            out.append(y)
    return out


def assert_successor_values(arena, s, e, ys):
    """The edges of pair (s, e) lead, by value, to states holding env
    assignment e in their env columns and the sys moves `ys` in their sys
    columns."""
    p = arena.env_indptr[s] + env_moves(arena, s).tolist().index(e)
    succ = arena.edge_succ[arena.sys_indptr[p]:arena.sys_indptr[p + 1]]
    env = list(arena.env_values(e).values())
    assert arena.state_codec.values(succ).tolist() == [
        env + list(sys_values(arena, y).values()) for y in ys]


def test_two_booleans_no_clauses():
    doc = parse_spec("[ENV_VARS]\ne : bool\n[SYS_VARS]\nx : bool\n")
    a = ar.build_arena(doc)
    assert a.n_states == 4
    for s in range(4):
        assert list(env_moves(a, s)) == [0, 1]
        for e in (0, 1):
            assert list(sys_moves(a, s, e)) == [0, 1]


def test_sys_projection_clause():
    doc = parse_spec(
        "[ENV_VARS]\ne : bool\n[SYS_VARS]\nrs : 0..3\n[SYS_TRANS]\nrs' = rs\n")
    a = ar.build_arena(doc)
    for s in range(a.n_states):
        rs = valuation(a, s)["rs"]
        for e in env_moves(a, s):
            ys = sys_moves(a, s, int(e))
            assert len(ys) == 1
            assert sys_values(a, int(ys[0]))["rs"] == rs


def test_state_index_bijection():
    doc = parse_spec(
        "[ENV_VARS]\nu : 0..2\nv : bool\n[SYS_VARS]\nx : -1..3\n")
    a = ar.build_arena(doc)
    for s in range(a.n_states):
        vals = decode_state(a, s)
        assert encode_state(a, vals) == s
    # the codec is mixed radix over the declared order, env side first
    assert encode_state(a, decode_state(a, 0)) == 0
    assert a.n_states == 3 * 2 * 5


def test_capacity_cap():
    doc = parse_spec("[ENV_VARS]\nu : 0..99\n[SYS_VARS]\nx : 0..99\n")
    with pytest.raises(CapacityExceeded):
        ar.build_arena(doc, cap=100)
    # under the cap, a clause over every variable is never tabulated over
    # its whole [states x env'] domain (here 40M cells): memory stays
    # within a few chunks
    tracemalloc.start()
    try:
        a = ar.build_arena(parse_spec(full_clause_spec(1999, 9)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert a.n_pairs == 2 * a.n_states - 19
    assert peak < 16 * ar._BLOCK_CELLS
    # one joint env clause over two env vars, and none over u' alone: u' is
    # bound over its whole domain (1M partial assignments) before v' prunes
    # them, so the join must expand in pieces to stay within the bound
    tracemalloc.start()
    try:
        a = ar.build_arena(parse_spec(
            "[ENV_VARS]\nu : 0..499\nv : bool\n[SYS_VARS]\nx : bool\n"
            "[ENV_TRANS]\nu' = 0 & v' | u' = u + 1 & !v'\n"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a reset from every state, a step up from all but the 4 with u = 499
    assert a.n_pairs == 2 * a.n_states - 4
    assert peak < 16 * ar._BLOCK_CELLS


# A sys pair clause and a sys choice clause over every variable: their
# (state, env') domain is wider than the legal pairs, which u' != u thins.
WIDE_SPEC = ("[ENV_VARS]\nu : 0..2\nv : bool\n[SYS_VARS]\nx : -1..2\ny : bool\n"
             "[ENV_TRANS]\nu' != u\n"
             "[SYS_TRANS]\nu' = x + 1 | v' & !y | u >= 1 & !v\n"
             "x' >= u' - 1 | (y' <-> v') | x = u & y & v\n")


def full_clause_spec(u_hi, x_hi):
    """An env clause and a sys clause, each over every variable."""
    return (f"[ENV_VARS]\nu : 0..{u_hi}\n[SYS_VARS]\nx : 0..{x_hi}\n"
            "[ENV_TRANS]\nu' = u + 1 | u' = x\n"
            "[SYS_TRANS]\nx' = x | x' = u' & u > x\n")


# u' = u leaves 72 pairs, fewer than the 216 (u, x, u') profiles that the
# sys clause reads; it does not read y
SPARSE_SPEC = ("[ENV_VARS]\nu : 0..5\n[SYS_VARS]\nx : 0..5\ny : bool\n"
               "[ENV_TRANS]\nu' = u\n"
               "[SYS_TRANS]\nx' = u' | x' = x & u != x\n")


# small specs for the join's run rule, each with the column variables that
# each level of stage 1 binds.  Stage 1 reads every state variable in
# "merge" (64 rows); the others read a part of it, so their rows are
# profiles: 24, 32, 5 and 6
RUN_SPECS = {
    # independent adjacent column variables, one conjoined table of 16 cells
    "merge": ("[ENV_VARS]\nu : bool\nv : bool\n[SYS_VARS]\nx : 0..3\n"
              "y : 0..3\n[ENV_TRANS]\nu' <-> !u\nv' | v\nx != y\n",
              [(), ("u", "v")]),
    # the bl'/stalled' shape: a group over a' and c', around b'; a' reads
    # too much to merge, and the run b', c' keys its table by a'
    "non-adjacent": ("[ENV_VARS]\na : 0..2\nb : bool\nc : bool\n"
                     "[SYS_VARS]\nx : 0..3\n[ENV_TRANS]\na' != a | x = 0\n"
                     "b' <-> !b\nc' <-> a' = 0\n",
                     [(), ("a",), ("b", "c")]),
    # v' has no group of its own inside the run
    "no-group": ("[ENV_VARS]\nu : bool\nv : bool\nw : bool\n[SYS_VARS]\n"
                 "x : 0..3\ny : 0..3\n[ENV_TRANS]\nu' <-> !u\nw' -> u'\n"
                 "x != y\n",
                 [(), ("u", "v", "w")]),
    # the conjoined u', v' table has 6 cells for 5 rows: split; with one
    # more value of x, 6 rows, it merges
    "split": ("[ENV_VARS]\nu : 0..2\nv : bool\n[SYS_VARS]\nx : 0..4\n"
              "[ENV_TRANS]\nu' != 2\nv' -> u' = 0\nx != 4\n",
              [(), ("u",), ("v",)]),
    "split-one-more-row": ("[ENV_VARS]\nu : 0..2\nv : bool\n[SYS_VARS]\n"
                           "x : 0..5\n[ENV_TRANS]\nu' != 2\nv' -> u' = 0\n"
                           "x != 4\n",
                           [(), ("u", "v")]),
}


def join_runs(monkeypatch, doc):
    """For each stage of building `doc`, the names of the column variables
    that each level of `_join` binds."""
    levels = ar._levels
    runs = []

    def recorded(clause_refs, row, n_rows, col):
        out = levels(clause_refs, row, n_rows, col)
        # a run of several variables joins its groups as one conjunction
        assert all(len(groups) <= 1 for lo, hi, groups in out if hi - lo > 1)
        runs.append([tuple(name for name, _ in col.keys[lo:hi])
                     for lo, hi, _ in out])
        return out

    with monkeypatch.context() as m:
        m.setattr(ar, "_levels", recorded)
        ar.build_arena(doc)
    return runs


def _path(clauses, row, rows):
    """Which way `_relation` dedupes its rows: none, mask or unique."""
    sub = row.sub(set().union(*map(sl.expr_refs, clauses)))
    if sub.keys == row.keys:
        return "identity"
    return "mask" if sub.size <= len(rows) else "unique"


def test_moves_match_clause_by_clause_eval(monkeypatch):
    rng = random.Random(7)
    docs = [parse_spec(WIDE_SPEC), parse_spec(full_clause_spec(9, 5)),
            parse_spec(SPARSE_SPEC)]
    docs += [parse_spec(text) for text, _ in RUN_SPECS.values()]
    while len(docs) < 60 + len(RUN_SPECS):
        doc = random_document(rng)
        if len(doc.vars) <= 3:
            docs.append(doc)
    relation = ar._relation
    paths = collections.Counter()

    def counted(clauses, row, rows, col):
        paths[_path(clauses, row, rows)] += 1
        return relation(clauses, row, rows, col)

    monkeypatch.setattr(ar, "_relation", counted)
    checked = 0
    for doc in docs:
        a = ar.build_arena(doc)
        if a.n_states > 160:
            continue
        # tiny chunks: every table outgrows a chunk and is built per chunk
        with monkeypatch.context() as m:
            m.setattr(ar, "_BLOCK_CELLS", 24)
            b = ar.build_arena(doc)
        for field in ARENA_FIELDS:
            assert np.array_equal(getattr(a, field), getattr(b, field))
        for s in range(a.n_states):
            want_e = brute_env_moves(a, doc, s)
            assert want_e == [int(e) for e in env_moves(a, s)]
            for e in want_e:
                want_y = brute_sys_moves(a, doc, s, e)
                assert want_y == [int(y) for y in sys_moves(a, s, e)]
                assert_successor_values(a, s, e, want_y)
        checked += 1
    assert checked >= 40
    assert {"identity", "mask", "unique"} <= set(paths)
    # each run spec takes the branch it was built for, at both chunk sizes
    for text, want in RUN_SPECS.values():
        for block in (ar._BLOCK_CELLS, 24):
            with monkeypatch.context() as m:
                m.setattr(ar, "_BLOCK_CELLS", block)
                stage1, _ = join_runs(monkeypatch, parse_spec(text))
            assert stage1 == want, text
    # the conjoined table must also fit in a chunk: "merge" takes 16 cells
    with monkeypatch.context() as m:
        m.setattr(ar, "_BLOCK_CELLS", 15)
        stage1, _ = join_runs(monkeypatch, parse_spec(RUN_SPECS["merge"][0]))
    assert stage1 == [(), ("u",), ("v",)]


def test_join_binds_runs_on_the_scenario(monkeypatch, paper_doc):
    stage1, stage2 = join_runs(monkeypatch, paper_doc)
    # the s', o1', o2' table is 768 profiles x 8 cells, far fewer than the
    # 47,616 states; bl' with s' would take 17,856 x 62 cells
    assert stage1 == [(), ("bl",), ("s", "o1", "o2"), ("stalled",)]
    # 7,464 distinct (state, env') profiles: only hf' and tries' merge
    assert stage2 == [(), ("rs",), ("act",), ("hf", "tries")]


def test_table_layouts_agree(monkeypatch, paper_doc, reduced_doc):
    # every table that _join and _holds build over a whole row domain, one
    # axis per variable, equals the table listing every row profile on one
    # axis, cell for cell
    table = ar._table
    calls = []

    def recorded(clauses, row, profiles, col):
        if profiles is None:
            calls.append((clauses, row, col))
        return table(clauses, row, profiles, col)

    monkeypatch.setattr(ar, "_table", recorded)
    rng = random.Random(5)
    docs = [random_document(rng) for _ in range(150)]
    # `true` clauses, and groups that read no row variable
    docs += [parse_spec(WIDE_SPEC), paper_doc, reduced_doc, parse_spec(
        "[ENV_VARS]\nu : 0..2\n[SYS_VARS]\nx : -1..1\ny : bool\n"
        "[ENV_TRANS]\nu' != 1\ntrue\n[SYS_TRANS]\nx' >= u' - 1 | y'\n"
        "[SYS_LIVENESS]\ntrue\n")]
    for doc in docs:
        a = ar.build_arena(doc)
        for expr in doc.env_liveness + doc.sys_liveness:
            ar.state_predicate(a, expr)
    for clauses, row, col in calls:
        whole = table(clauses, row, None, col)
        listed = table(clauses, row, np.arange(row.size, dtype=np.int64), col)
        assert whole.shape == listed.shape == (row.size, col.size)
        assert np.array_equal(whole, listed)
    assert len(calls) > 500
    assert any(not row.keys and col.keys for _, row, col in calls)
    assert any(not row.keys and not col.keys for _, row, col in calls)
    assert any(len(row.keys) > 1 and len(col.keys) > 1
               for _, row, col in calls)


def test_successors_carry_pair_values(monkeypatch, reduced_doc,
                                      reduced_arena):
    # random arenas, against the move functions they were built from
    from_functions = ar.from_functions
    moves = {}

    def recorded(decls, n_env_vars, env_fn, sys_fn, **kwargs):
        moves.update(env=env_fn, sys=sys_fn)
        return from_functions(decls, n_env_vars, env_fn, sys_fn, **kwargs)

    monkeypatch.setattr(ar, "from_functions", recorded)
    edges = 0
    for seed in range(80):
        a, _, _ = ar.random_arena(seed, max_states=40)
        for s in range(a.n_states):
            for e in sorted(set(moves["env"](s))):
                ys = sorted(set(moves["sys"](s, e)))
                assert_successor_values(a, s, e, ys)
                edges += len(ys)
    assert edges > 2000
    # the reduced arena, a sample of its pairs against the clauses
    a, rng = reduced_arena, random.Random(3)
    for p in rng.sample(range(a.n_pairs), 150):
        s, e = int(a.pair_state[p]), int(a.env_next[p])
        assert_successor_values(a, s, e, brute_sys_moves(a, reduced_doc, s, e))


def test_stage2_joins_distinct_profiles(monkeypatch, paper_doc):
    join = ar._join
    calls = []

    def recorded(clause_refs, row, rows, col):
        calls.append((row.keys, len(rows)))
        return join(clause_refs, row, rows, col)

    monkeypatch.setattr(ar, "_join", recorded)
    a = ar.build_arena(paper_doc)
    (keys1, rows1), (keys2, rows2) = calls
    # stage 1 reads every state variable: the states are joined as they are
    assert keys1 == a.state_codec.keys and rows1 == a.n_states == 47_616
    # stage 2 reads a part of (state, env'): 162,300 pairs, 7,464 profiles
    assert a.n_pairs == 162_300 and rows2 == 7_464
    assert len(keys2) < len(a.state_codec.keys) + a.n_env_vars


def test_reduced_predicates_and_inits(reduced_doc, reduced_arena):
    a, doc = reduced_arena, reduced_doc
    preds = [ar.state_predicate(a, e)
             for e in doc.env_liveness + doc.sys_liveness]
    assert preds and all(p.any() and not p.all() for p in preds)
    assert 0 < a.sys_init.sum() < a.n_states
    for s in range(a.n_states):
        cur = valuation(a, s)
        for expr, pred in zip(doc.env_liveness + doc.sys_liveness, preds):
            assert pred[s] == reference_eval(expr, cur)
        assert a.sys_init[s] == all(reference_eval(c, cur)
                                    for c in doc.sys_init)
    for e in range(a.n_env):
        assert a.env_init[e] == all(reference_eval(c, a.env_values(e))
                                    for c in doc.env_init)


def test_adding_clause_never_enlarges_moves():
    base = ("[ENV_VARS]\nu : 0..2\n[SYS_VARS]\nx : 0..2\n"
            "[ENV_TRANS]\nu' != 1\n")
    tightened = base + "u = 2 -> u' = 0\n"
    a1 = ar.build_arena(parse_spec(base))
    a2 = ar.build_arena(parse_spec(tightened))
    for s in range(a1.n_states):
        m1 = set(int(e) for e in env_moves(a1, s))
        m2 = set(int(e) for e in env_moves(a2, s))
        assert m2.issubset(m1)
    base_sys = base + "[SYS_TRANS]\nx' >= x - 1\n"
    tight_sys = base_sys + "x' <= x + 1\n"
    b1 = ar.build_arena(parse_spec(base_sys))
    b2 = ar.build_arena(parse_spec(tight_sys))
    for s in range(b1.n_states):
        for e in env_moves(b1, s):
            y1 = set(int(y) for y in sys_moves(b1, s, int(e)))
            y2 = set(int(y) for y in sys_moves(b2, s, int(e)))
            assert y2.issubset(y1)


def test_env_deadlock_possible():
    doc = parse_spec(
        "[ENV_VARS]\nu : bool\n[SYS_VARS]\nx : bool\n[ENV_TRANS]\nu -> u' & !u'\n")
    a = ar.build_arena(doc)
    dead = encode_state(a, [1, 0])
    assert len(env_moves(a, dead)) == 0
    live = encode_state(a, [0, 0])
    assert len(env_moves(a, live)) == 2


def test_sys_deadlock_keeps_pair():
    doc = parse_spec(
        "[ENV_VARS]\nu : bool\n[SYS_VARS]\nx : bool\n[SYS_TRANS]\nu' -> x' & !x'\n")
    a = ar.build_arena(doc)
    s = encode_state(a, [0, 0])
    assert [int(e) for e in env_moves(a, s)] == [0, 1]
    assert len(sys_moves(a, s, 0)) == 2
    assert len(sys_moves(a, s, 1)) == 0


def test_init_sets():
    doc = parse_spec(
        "[ENV_VARS]\nu : 0..2\n[SYS_VARS]\nx : 0..2\n"
        "[ENV_INIT]\nu >= 1\n[SYS_INIT]\nx = u\n")
    a = ar.build_arena(doc)
    assert list(np.nonzero(a.env_init)[0]) == [1, 2]
    states = np.nonzero(a.sys_init)[0]
    assert all(valuation(a, int(s))["x"] == valuation(a, int(s))["u"]
               for s in states)
    rng = random.Random(11)
    for _ in range(40):
        doc = random_document(rng)
        env_decls = [d for d in doc.vars if d.owner == ENV]
        doc2 = dataclasses.replace(
            doc,
            env_init=[random_expr(rng, env_decls) for _ in range(2)],
            sys_init=[random_expr(rng, doc.vars) for _ in range(2)])
        b = ar.with_inits(ar.build_arena(doc), doc2)
        for e in range(b.n_env):
            want = all(reference_eval(c, b.env_values(e))
                       for c in doc2.env_init)
            assert b.env_init[e] == want
        for expr in doc.env_liveness + doc.sys_liveness:
            pred = ar.state_predicate(b, expr)
            assert pred.shape == (b.n_states,)
            assert all(pred[s] == reference_eval(expr, valuation(b, s))
                       for s in range(b.n_states))
        for s in range(b.n_states):
            want = all(reference_eval(c, valuation(b, s))
                       for c in doc2.sys_init)
            assert b.sys_init[s] == want


def test_with_inits_shares_moves():
    doc = parse_spec(
        "[ENV_VARS]\nu : 0..2\n[SYS_VARS]\nx : 0..2\n[ENV_INIT]\nu = 0\n")
    a = ar.build_arena(doc)
    doc2 = parse_spec(
        "[ENV_VARS]\nu : 0..2\n[SYS_VARS]\nx : 0..2\n[ENV_INIT]\nu = 2\n")
    b = ar.with_inits(a, doc2)
    assert b.env_next is a.env_next
    assert list(np.nonzero(b.env_init)[0]) == [2]


def test_dump_format():
    doc = parse_spec("[ENV_VARS]\nu : bool\n[SYS_VARS]\nx : bool\n")
    a = ar.build_arena(doc)
    buf = io.StringIO()
    dump(a, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == a.n_states * 2 * 2
    assert all(len(line.split("\t")) == 3 for line in lines)


def test_reduced_state_count_by_enumeration(reduced_doc, reduced_arena):
    sizes = [d.size for d in reduced_arena.decls]
    product = 1
    for k in sizes:
        product *= k
    assert reduced_arena.n_states == product
    count = sum(1 for _ in itertools.product(
        *[range(d.lo, d.hi + 1) for d in reduced_arena.decls]))
    assert count == reduced_arena.n_states


ARENA_FIELDS = ("env_indptr", "env_next", "pair_state", "sys_indptr",
                "sys_next", "env_init", "sys_init")


def test_build_is_deterministic(reduced_doc):
    a1 = ar.build_arena(reduced_doc)
    a2 = ar.build_arena(reduced_doc)
    for field in ARENA_FIELDS:
        assert np.array_equal(getattr(a1, field), getattr(a2, field))
    # the reduced scenario's arena, pinned before the compiler was rewritten
    h = hashlib.sha256()
    for field in ARENA_FIELDS:
        arr = getattr(a1, field)
        h.update(f"{field} {arr.dtype.str} {arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == (
        "878a1e653c900f328927c6495caf7cd995ce39cb7cffd76ce9d985b6492e0962")


def arena_digest(doc, arena):
    """sha256 of the arena's `ARENA_FIELDS` arrays and of each sys goal's
    state predicate."""
    h = hashlib.sha256()
    for field in ARENA_FIELDS:
        arr = getattr(arena, field)
        h.update(f"{field} {arr.dtype.str} {arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    for goal in doc.sys_liveness:
        arr = ar.state_predicate(arena, goal)
        h.update(f"goal {arr.dtype.str} {arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def test_ladder_arena_is_pinned(paper_doc, paper_arena):
    # the n=3 arena and its sys goal predicate, pinned before the relation
    # compile became a join; unlike the reduced pin, this one covers the
    # wide bl' drop-option group
    assert arena_digest(paper_doc, paper_arena) == (
        "f26ba95e05f1d515efe9da2db763362b2a5ccd2dfd986ab6e90665ecc66e4694")


@pytest.mark.parametrize("params, digest", [
    (dict(n=4, k_move=1, k_drop=3),
     "79f3fb1e5ac8b85eadc68ba4e1266be91300ead96f57fe992480f40c64535ba7"),
    (dict(n=4),
     "2743a76c1f8a2744aff1ed42e1826849074fd74dad215270e405b45dc23e1f31"),
], ids=["n4k1k3", "n4"])
def test_wider_rung_arenas_are_pinned(params, digest):
    # pinned before a join level could bind several column variables: here
    # the obstacle and handoff run s', o1', o2', o3' is four variables wide
    doc = wd.emit_spec(wd.WorkDeliveryParams(**params))
    assert arena_digest(doc, ar.build_arena(doc)) == digest


def brute_in_edges(arena):
    """The pairs with an edge into each state, by a loop over every edge
    of the per-pair view."""
    into = [[] for _ in range(arena.n_states)]
    indptr, succ = arena.sys_indptr.tolist(), arena.edge_succ.tolist()
    for p in range(arena.n_pairs):
        for k in range(indptr[p], indptr[p + 1]):
            into[succ[k]].append(p)
    return into


def brute_group_index(arena):
    """The groups with an edge into each state, by a loop over every group
    edge, and the pairs of each group, by a loop over every pair."""
    into = [[] for _ in range(arena.n_states)]
    indptr, succ = arena.group_indptr.tolist(), arena.group_succ.tolist()
    for g in range(arena.n_groups):
        for k in range(indptr[g], indptr[g + 1]):
            into[succ[k]].append(g)
    pairs = [[] for _ in range(arena.n_groups)]
    for p, g in enumerate(arena.pair_group.tolist()):
        pairs[g].append(p)
    return into, pairs


def test_in_edges_match_brute_listing(reduced_arena):
    arenas = [ar.random_arena(seed)[0] for seed in range(200)]
    for a in arenas + grouped_arenas(60) + [reduced_arena]:
        in_indptr, in_group, member_indptr, member = a.in_edges
        # built once: every later solve on the arena reads the same index
        assert a.in_edges[1] is in_group
        into, pairs = brute_group_index(a)
        bounds = in_indptr.tolist()
        assert [in_group[lo:hi].tolist() for lo, hi in
                zip(bounds, bounds[1:])] == into
        # each group's pairs, by their states: a state has at most one
        # pair in a group
        bounds = member_indptr.tolist()
        assert [member[lo:hi].tolist() for lo, hi in zip(
            bounds, bounds[1:])] == [a.pair_state[ps].tolist() for ps in pairs]
        # expanding the groups gives the per-pair listing
        assert [sorted(p for g in gs for p in pairs[g]) for gs in into
                ] == brute_in_edges(a)
    # random arenas have one group per pair, the others fewer groups
    assert all(a.n_groups == a.n_pairs for a in arenas)
    assert reduced_arena.n_groups < reduced_arena.n_pairs


def assert_groups_are_keys(doc, arena):
    """Pairs share a group exactly when they share a key: the state's
    values of the variables the sys safety clauses read, and env'."""
    read = set().union(*map(sl.expr_refs, doc.sys_safety))
    sub = arena.state_codec.sub(read)
    key = (arena.state_codec.project(arena.pair_state, sub) * arena.n_env
           + arena.env_next)
    # every group holds a pair, its pairs share one key, and no two groups
    # share a key
    group_key = np.full(arena.n_groups, -1)
    group_key[arena.pair_group] = key
    assert (group_key >= 0).all()
    assert np.array_equal(group_key[arena.pair_group], key)
    assert len(np.unique(group_key)) == arena.n_groups


LADDER_GROUPS = {"n3": ({}, 14_736, 28_324),
                 "n4k1k3": (dict(n=4, k_move=1, k_drop=3), 37_362, 70_624),
                 "n4": (dict(n=4), 37_362, 70_624)}


@pytest.mark.parametrize("rung", LADDER_GROUPS)
def test_ladder_move_groups(rung, tmp_path):
    from gr1kit import gr1
    params, n_groups, n_group_edges = LADDER_GROUPS[rung]
    doc = wd.emit_spec(wd.WorkDeliveryParams(**params))
    a = ar.build_arena(doc)
    res = gr1.solve(a, doc.env_liveness, doc.sys_liveness)
    if res.realizable:
        gr1.extract_strategy(res, a).save(tmp_path / "w.json")
    # the headline path never expands the groups to their pairs
    assert not {"sys_indptr", "edge_succ"} & set(a.__dict__)
    assert (a.n_groups, len(a.group_succ)) == (n_groups, n_group_edges)
    assert_groups_are_keys(doc, a)


def test_move_groups_are_keys(reduced_doc, reduced_arena):
    assert_groups_are_keys(reduced_doc, reduced_arena)
    rng, grouped = random.Random(13), 0
    for _ in range(300):
        doc = random_document(rng)
        a = ar.build_arena(doc)
        assert_groups_are_keys(doc, a)
        grouped += a.n_groups < a.n_pairs
    # not vacuous: most documents have a group of several pairs
    assert grouped >= 100, grouped


def test_random_arena_is_reproducible():
    a1, el1, sl1 = ar.random_arena(123)
    a2, el2, sl2 = ar.random_arena(123)
    assert np.array_equal(a1.env_next, a2.env_next)
    assert np.array_equal(a1.sys_next, a2.sys_next)
    assert all(np.array_equal(x, y) for x, y in zip(el1, el2))
    assert all(np.array_equal(x, y) for x, y in zip(sl1, sl2))
