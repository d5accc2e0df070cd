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
from gr1kit.errors import CapacityExceeded
from gr1kit.speclang import ENV, parse_spec

from conftest import (decode_state, dump, encode_state, env_moves, sys_moves,
                      sys_values, valuation)
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
    while len(docs) < 60:
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


def test_ladder_arena_is_pinned(paper_doc, paper_arena):
    # the n=3 arena and its sys goal predicate, pinned before the relation
    # compile became a join; unlike the reduced pin, this one covers the
    # wide bl' drop-option group
    h = hashlib.sha256()
    for field in ARENA_FIELDS:
        arr = getattr(paper_arena, field)
        h.update(f"{field} {arr.dtype.str} {arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    for goal in paper_doc.sys_liveness:
        arr = ar.state_predicate(paper_arena, goal)
        h.update(f"goal {arr.dtype.str} {arr.shape}".encode())
        h.update(arr.tobytes())
    assert h.hexdigest() == (
        "f26ba95e05f1d515efe9da2db763362b2a5ccd2dfd986ab6e90665ecc66e4694")


def brute_in_edges(arena):
    """The pairs with an edge into each state, by a loop over every edge."""
    into = [[] for _ in range(arena.n_states)]
    indptr, succ = arena.sys_indptr.tolist(), arena.edge_succ.tolist()
    for p in range(arena.n_pairs):
        for k in range(indptr[p], indptr[p + 1]):
            into[succ[k]].append(p)
    return into


def test_in_edges_match_brute_listing(reduced_arena):
    for a in [ar.random_arena(seed)[0] for seed in range(200)] + [
            reduced_arena]:
        indptr, pairs = a.in_edges
        # built once: every later solve on the arena reads the same index
        assert a.in_edges[1] is pairs
        bounds = indptr.tolist()
        assert [pairs[lo:hi].tolist() for lo, hi in zip(bounds, bounds[1:])
                ] == brute_in_edges(a)


def test_random_arena_is_reproducible():
    a1, el1, sl1 = ar.random_arena(123)
    a2, el2, sl2 = ar.random_arena(123)
    assert np.array_equal(a1.env_next, a2.env_next)
    assert np.array_equal(a1.sys_next, a2.sys_next)
    assert all(np.array_equal(x, y) for x, y in zip(el1, el2))
    assert all(np.array_equal(x, y) for x, y in zip(sl1, sl2))
