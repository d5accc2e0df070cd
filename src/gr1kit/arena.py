"""Explicit two-player game arenas compiled from spec documents.

A state is a full valuation of all declared variables, indexed by its
mixed-radix encoding with environment variables first (most significant).
Each step, the environment commits next values for its variables, then the
system responds with next values for its own; the successor state is the
combined assignment.  The environment's moves at a state, and the system's
responses to each, are exactly the assignments passing every environment /
system safety clause.

The env moves are stored in CSR form over (state, env-choice) pairs, and
the sys responses in CSR form over move groups, so that solvers can run
vectorized fixpoints.  A move group is a key (the state's values of the
variables the sys safety clauses read, env'): every pair with that key has
the same responses, so its successor list is stored once and each pair
names its group.  Each edge holds its successor state: no other module
combines env and sys indices.  Environment moves with no legal system
response are kept as pairs whose group has no edge: they are system
deadlocks, not missing environment options.  The arena stores nothing
else per pair or edge: a pair's state and its own edge list are derived
from these arrays where they are needed, and never kept.

One codec, ``_Codec``, converts between indices and values everywhere: it
packs a list of (name, primed) variables in mixed radix.  One compile path
evaluates every clause set.  A relation has rows (states in stage 1;
move groups in stage 2) and columns (env' assignments in stage 1,
sys' assignments in stage 2).  It does not depend on the row variables its
clauses do not read, so the rows are quotiented: projected onto the
variables read and deduplicated into distinct profiles, which are joined;
each row then gathers its profile's cells, in pieces of about
``_BLOCK_CELLS // 8``, and the result comes back as a CSR (an indptr over
the rows, column indices ascending within each row).  Rows whose clauses
read every row variable are joined as they are.  The init sets and state
predicates have no columns: their clauses are tabulated once over the
variables they read.  For the join, clauses are grouped by the column
variables they reference; each group's conjunction is tabulated once over
the joint domain of its variables by ``speclang.eval_expr``, the toolkit's
one evaluator, called with each row and each column variable on its own
broadcast axis, so a sub-expression costs only the variables it reads.  A
table that would be larger than ``_BLOCK_CELLS``, or cover more row
profiles than there are rows, is instead built per chunk of rows over the
profiles that occur in it, held on one profile axis.

The tables are then joined level by level (a partitioned transition
relation with early quantification, done on explicit arrays).  Groups
without column variables filter the rows.  Each later level binds a run
of consecutive column variables: a run grows while the conjunction of
the groups ending in it tabulates whole, in no more cells than there are
rows to join, since that table costs O(cells) and each level it saves at
least O(rows).  Each partial assignment, a (row, column index prefix)
pair, is extended by the allowed values of the run, read from the
sparsest group that ends there (a run of several variables has one,
their conjunction) as a CSR keyed by row profile and the group's column
values before the run (the whole domain when no group ends there), with
its counts per key and its values scaled to column-index digits; the
other groups ending there filter the extensions by one gather each.  A
level whose tables are all whole is planned once per join, and each
chunk of rows only projects its rows onto the tables' row codecs; a
level with a per-chunk table is planned per chunk.  The levels bind in
codec order, except that a level whose plan gives each key at most one
value and has no filter binds a function of its key, which it can read
as soon as the levels that bind the key are bound: it moves right after
them (after the row filters if its key reads only the row), before the
runs that multiply the partial assignments (Hu and Dill's functional
dependencies, DAC 1993).  Its digit is then fixed by digits bound before
it, so the column indices stay ascending.  The work follows the
surviving partial assignments, not the [rows × columns] grid, and the
partials are expanded depth first in pieces of about
``_BLOCK_CELLS // 8`` entries, so memory stays bounded.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapacityExceeded
from . import speclang as sl

_BLOCK_CELLS = 1 << 20


class _Codec:
    """Mixed-radix codec over (name, primed) variables, first most significant."""

    def __init__(self, fields):
        self.fields = tuple(fields)          # (key, lo, size)
        self.keys = tuple(key for key, _, _ in self.fields)
        self._pos = {key: k for k, key in enumerate(self.keys)}
        weights, self.size = [], 1
        for _, _, size in reversed(self.fields):
            weights.append(self.size)
            self.size *= size
        self.weights = tuple(reversed(weights))

    @classmethod
    def of(cls, decls, primed=False):
        return cls(((d.name, primed), d.lo, d.size) for d in decls)

    def sub(self, keys):
        """Codec over the given keys, kept in this codec's order."""
        return _Codec(f for f in self.fields if f[0] in keys)

    def index(self, values):
        """Index of each row of a [n × variables] value matrix; -1 for a
        row holding a value outside its variable's domain."""
        lo = np.array([lo for _, lo, _ in self.fields], dtype=np.int64)
        size = np.array([size for _, _, size in self.fields], dtype=np.int64)
        off = np.asarray(values, dtype=np.int64) - lo
        inside = ((off >= 0) & (off < size)).all(axis=1)
        return np.where(inside, off @ np.array(self.weights, dtype=np.int64),
                        -1)

    def decode(self, i):
        i = int(i)
        return tuple(lo + i // w % size
                     for (_, lo, size), w in zip(self.fields, self.weights))

    def column(self, key, idx=None):
        """Values of one variable at each index (default: every index)."""
        if idx is None:
            idx = np.arange(self.size, dtype=np.int64)
        k = self._pos[key]
        _, lo, size = self.fields[k]
        return idx // self.weights[k] % size + lo

    def values(self, idx=None):
        """[indices × variables] value matrix."""
        cols = [self.column(key, idx) for key in self.keys]
        n = self.size if idx is None else len(idx)
        return np.stack(cols, axis=1) if cols else np.zeros((n, 0), np.int64)

    def project(self, idx, sub):
        """Index under `sub` (a codec over a subset of our keys) of each
        index.  Keys adjacent in both codecs are read off as one digit."""
        out = np.zeros(len(idx), dtype=np.int64)
        pos = [self._pos[key] for key in sub.keys] + [None]
        first = 0
        for n, k in enumerate(pos[:-1]):
            if pos[n + 1] == k + 1:
                continue
            digit = idx // self.weights[k]
            if pos[first]:
                # drop the keys above the run: two divisions are faster
                # than a modulo
                w = self.weights[pos[first] - 1]
                digit -= idx // w * (w // self.weights[k])
            out += digit * sub.weights[n]
            first = n + 1
        return out


@dataclass
class GameArena:
    decls: tuple                 # VarDecl, environment vars first
    n_env_vars: int
    n_env: int                   # number of env assignments
    n_sys: int                   # number of sys assignments
    env_indptr: np.ndarray       # [n_states+1] -> slice into env_next
    env_next: np.ndarray         # env assignment index per (state, choice) pair
    pair_group: np.ndarray       # move group per pair
    group_indptr: np.ndarray     # [n_groups+1] -> slice into group_succ
    group_succ: np.ndarray       # successor state per group edge, ascending
    env_init: np.ndarray         # bool over env assignments
    sys_init: np.ndarray         # bool over states

    @property
    def n_states(self):
        return self.n_env * self.n_sys

    @property
    def n_pairs(self):
        return len(self.env_next)

    @property
    def n_groups(self):
        return len(self.group_indptr) - 1

    @property
    def names(self):
        return tuple(d.name for d in self.decls)

    @property
    def sys_next(self):
        """Sys assignment index per edge of every pair, read through its
        group: built on each call and never kept, as it is O(edges).  Only
        ``perfbench/tracer.py`` reads it, for its length."""
        return (self.group_succ[_gather(self.group_indptr, self.pair_group)]
                % self.n_sys)

    # ---- mixed-radix codec -------------------------------------------

    @functools.cached_property
    def state_codec(self):
        return _Codec.of(self.decls)

    @functools.cached_property
    def env_codec(self):
        return _Codec.of(self.decls[:self.n_env_vars])

    @functools.cached_property
    def in_edges(self):
        """Incoming sys edges by successor state, and the pairs of each
        group: (an indptr over states, the group of each edge, ascending
        within a state; an indptr over groups, the state of each of their
        pairs, ascending within a group).  A state has at most one pair in
        a group, as its pairs differ in env'.  Built once per arena, as
        every solve on it reads the same index; the pairs' states are
        derived for it from `env_indptr`."""
        owner = np.arange(self.n_groups).repeat(np.diff(self.group_indptr))
        pair_state = np.arange(self.n_states).repeat(np.diff(self.env_indptr))
        return (*_invert(self.group_succ, self.n_states, owner),
                *_invert(self.pair_group, self.n_groups, pair_state))

    def env_values(self, e):
        """Env assignment index as a name -> value dict."""
        return dict(zip(self.names[:self.n_env_vars],
                        self.env_codec.decode(e)))

    def init_states(self, inside):
        """Lowest initial state of each env assignment inside the state
        mask `inside` (True allows every state), or -1 where there is none."""
        ok = (self.sys_init & inside).reshape(self.n_env, self.n_sys)
        first = np.arange(self.n_env) * self.n_sys + ok.argmax(axis=1)
        return np.where(ok.any(axis=1), first, -1)


# --------------------------------------------------------------------------
# clause compilation: clause groups -> truth tables -> a join over column
# variables

def _table(clauses, row, profiles, col):
    """Truth of a clause conjunction, [row profiles × every `col` index],
    where `profiles` None means every index of `row`.  Each variable holds
    ``lo + arange(size)`` on its own broadcast axis, except that given
    profiles share one axis; C order is mixed radix, first key most
    significant, so the joint array reshapes to the table."""
    fields, val, shape = col.fields, [], []
    if profiles is None:
        fields = row.fields + fields
    else:
        shape = [len(profiles)]
        val = [(key, row.column(key, profiles).reshape(-1, *[1] * len(fields)))
               for key in row.keys]
    for k, (key, lo, size) in enumerate(fields, 1):
        shape.append(size)
        val.append((key, (lo + np.arange(size, dtype=np.int64)).reshape(
            -1, *[1] * (len(fields) - k))))
    cur = {name: v for (name, primed), v in val if not primed}
    nxt = {name: v for (name, primed), v in val if primed}
    table = functools.reduce(
        np.logical_and, (sl.eval_expr(c, cur, nxt) for c in clauses),
        np.ones(shape, dtype=bool))
    return table.reshape(-1, col.size)


def _indptr(owner, n):
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=indptr[1:])
    return indptr


def _invert(keys, n_keys, values):
    """Ascending `values` grouped by their `keys`, all in 0..n_keys-1: an
    indptr over the keys and the values, ascending within each key."""
    # sorting (key, value) pairs packed in one int64 gives a stable
    # argsort's order at a third of its time and half its memory (numpy
    # 2.4); a shift and a mask pack and unpack them faster than a product
    # and a modulo
    b = (int(values[-1]) + 1 if len(values) else 0).bit_length()
    assert n_keys << b < 2 ** 63, "sort keys overflow"
    packed = keys << b
    packed |= values
    packed.sort()
    packed &= (1 << b) - 1
    return _indptr(keys, n_keys), packed


def _distinct_keys(keys, size):
    """Distinct values of `keys`, all in 0..size-1, ascending, and the
    position of each key among them.  A mask over the key space when it
    is no larger than the keys: no sort."""
    if size <= len(keys):
        seen = np.bincount(keys, minlength=size).astype(bool)
        return seen.nonzero()[0], (seen.cumsum() - 1)[keys]
    return np.unique(keys, return_inverse=True)


def _gather(indptr, rows, size=None):
    """Positions ``indptr[r]:indptr[r + 1]`` of each row in `rows`,
    concatenated in row order; `size` holds the rows' lengths if the
    caller has them."""
    lo = indptr[rows]
    if size is None:
        size = indptr[rows + 1] - lo
    # each row's start minus its first position in the output, in place
    lo -= size.cumsum()
    lo += size
    out = lo.repeat(size)
    out += np.arange(len(out))
    return out


def _generator(table, size, weight):
    """True cells of a table read as [keys × `size` values], each value
    times `weight`: a CSR (indptr, count per key, values), plus each key's
    value (negative for none) if no key has two."""
    owner, values = np.divmod(np.flatnonzero(table), size)
    n = table.size // size
    first = None
    if not (owner[1:] == owner[:-1]).any():
        first = np.full(n, -1)
        first[owner] = values
        first *= weight
    indptr = _indptr(owner, n)
    return indptr, np.diff(indptr), values * weight, first


def _cells(ri, sub, r, c, col):
    """Cell of each partial assignment (row position `r`, column index `c`)
    in a [row profile `ri` × `sub` index] table, flattened."""
    if not sub.keys:
        return ri[r]
    return ri[r] * sub.size + col.project(c, sub)


def _relation(clauses, row, rows, col):
    """True cells of a clause conjunction as a CSR: (indptr over `rows`,
    column indices ascending within each row).  Rows are indices under
    codec `row`, columns every index of codec `col`."""
    refs = [sl.expr_refs(c) for c in clauses]
    sub = row.sub(set().union(*refs))
    if sub.keys == row.keys:
        r, c = _join(zip(clauses, refs), row, rows, col)
        return _indptr(r, len(rows)), c
    profiles, inverse = _distinct_keys(row.project(rows, sub), sub.size)
    r, c = _join(zip(clauses, refs), sub, profiles, col)
    n_cells = np.bincount(r, minlength=len(profiles))
    profile_indptr = np.concatenate(([0], n_cells.cumsum()))
    indptr = np.concatenate(([0], n_cells[inverse].cumsum()))
    out = np.empty(indptr[-1], dtype=np.int64)
    # whole rows, in pieces of about `piece` cells
    piece = max(1, _BLOCK_CELLS // 8)
    cuts = indptr.searchsorted(np.arange(0, indptr[-1], piece)).tolist()
    for a, b in zip(cuts, cuts[1:] + [len(rows)]):
        out[indptr[a]:indptr[b]] = c[_gather(profile_indptr, inverse[a:b])]
    return indptr, out


def _levels(clause_refs, row, n_rows, col):
    """The join's levels, as (lo, hi, groups): the level binds the column
    variables ``col.keys[lo:hi]`` and joins the clause groups, lists of
    (clause, references) pairs, in `groups`.  The first binds nothing; its
    group reads no column variable.  The others bind runs formed greedily
    from the left: a run takes the next variable while the conjunction of
    every group ending in it tabulates whole in at most `n_rows` cells,
    and a run of several variables joins that conjunction alone."""
    groups = {}
    for c, refs in clause_refs:
        groups.setdefault(frozenset(k for k in refs if k in col.keys),
                          []).append((c, refs))
    filters = groups.pop(frozenset(), None)
    ends = [[] for _ in col.keys]
    for nxt_keys, group in groups.items():
        ends[max(map(col.keys.index, nxt_keys))].append(group)
    # the keys each variable's table reads: itself and its groups' refs
    reads = [{key}.union(*(refs for group in ending for _, refs in group))
             for key, ending in zip(col.keys, ends)]
    sizes = {key: size for key, _, size in row.fields + col.fields}
    levels, lo = [(0, 0, [filters] if filters else [])], 0
    while lo < len(ends):
        hi, run_keys = lo + 1, reads[lo]
        while hi < len(ends):
            more = run_keys | reads[hi]
            cells = math.prod(sizes[key] for key in more)
            if cells > min(n_rows, _BLOCK_CELLS):
                break
            hi, run_keys = hi + 1, more
        at = sum(ends[lo:hi], [])
        levels.append((lo, hi, [sum(at, [])] if hi - lo > 1 and at else at))
        lo = hi
    return levels


def _plan(bound, n_run, size, weight):
    """A level's (generator, CSR, filters) from its groups, each a tuple
    that starts (rows, table, column codec), where `rows` keys the table's
    rows: the sparsest group generates the level's values, keyed by (row,
    the group's column values before the run), as the CSR and `first` of
    `_generator`; the others filter them, their tables flattened.  With no
    group, the whole domain; a level that binds nothing has no CSR."""
    if len(bound) > 1:
        bound.sort(key=lambda g: g[1].mean())
    gen = csr = None
    if n_run and bound:
        rows, table, col_sub = bound.pop(0)[:3]
        gen = (rows, col_sub.sub(col_sub.keys[:-n_run]))
        csr = _generator(table, size, weight)
    elif n_run:
        csr = (np.array([0, size]), np.array([size]),
               np.arange(size) * weight, None)
    return gen, csr, [(g[0], g[1].ravel(), g[2]) for g in bound]


def _order(levels):
    """Binding order of the join's levels, given in codec order, each
    (column keys bound, ..., its plan if every table is whole, else false).
    A level whose generator gives each key at most one value, with no
    filter, binds a function of the digits its key reads.  It never
    multiplies the partial assignments, so it moves right after the
    last-bound level among those it reads (after the row filters if none),
    where there are fewest of them."""
    order = []
    for k, level in enumerate(levels):
        n, plan = len(order), level[-1]
        if plan and plan[0] and plan[1][3] is not None and not plan[2]:
            reads = plan[0][1].keys
            while n > 1 and not any(key in reads
                                    for key in levels[order[n - 1]][0]):
                n -= 1
        order.insert(n, k)
    return order


def _join(clause_refs, row, rows, col):
    """True cells (row positions, column indices) of (clause, references)
    pairs, in row-major order: each level binds a run of consecutive
    column variables (`_levels`), most significant first, except that a
    level binding a function of digits already bound may come earlier
    (`_order`).  Such a level never decides the order of two partial
    assignments, as they differ first in a level it reads or in none, so
    the partial assignments stay sorted by (row, column index) from the
    first level to the last.  A run's table costs O(cells) to tabulate and
    each level it saves at least O(rows), so with cells <= rows a merge
    never costs more than the pass it saves.  A level whose tables are all
    whole is planned once; each chunk of rows projects its rows onto their
    row codecs."""
    levels, widest = [], 1
    for lo, hi, groups in _levels(clause_refs, row, len(rows), col):
        bound, whole = [], True
        for group in groups:
            keys = set(col.keys[lo:hi]).union(*(refs for _, refs in group))
            sub, col_sub = row.sub(keys), col.sub(keys)
            conj = [c for c, _ in group]
            table = None
            if (sub.size <= len(rows)
                    and sub.size * col_sub.size <= _BLOCK_CELLS):
                table = _table(conj, sub, None, col_sub)
            else:
                # each chunk tabulates only the profiles that occur in it, so
                # no table is larger than _BLOCK_CELLS
                widest = max(widest, col_sub.size)
                whole = False
            bound.append((sub, table, col_sub, conj))
        # a run's values are digits of the column index: its joint index
        # times the weight of its last variable
        size = math.prod(size for _, _, size in col.fields[lo:hi])
        weight = col.weights[hi - 1] if hi else 0
        levels.append((col.keys[lo:hi], size, weight, bound,
                       whole and _plan(bound, hi - lo, size, weight)))
    levels = [levels[k] for k in _order(levels)]
    # a piece of partial assignments expands to about `piece` int64 entries;
    # a chunk of rows is smaller still, so that its per-group profile arrays
    # and the pieces it expands to stay in cache
    piece = max(1, _BLOCK_CELLS // 8)
    step = max(1, min(piece // 8, _BLOCK_CELLS // widest))
    r_parts, c_parts = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for lo in range(0, len(rows), step):
        chunk = rows[lo:lo + step]
        plans = []
        for keys, size, weight, bound, plan in levels:
            if plan:
                gen, csr, filters = plan
                plan = (gen and (row.project(chunk, gen[0]), gen[1]), csr,
                        [(row.project(chunk, sub), table, col_sub)
                         for sub, table, col_sub in filters])
            else:
                chunked = []
                for sub, table, col_sub, conj in bound:
                    ri = row.project(chunk, sub)
                    if table is None:
                        profiles, ri = np.unique(ri, return_inverse=True)
                        table = _table(conj, sub, profiles, col_sub)
                    chunked.append((ri, table, col_sub))
                plan = _plan(chunked, len(keys), size, weight)
            plans.append(plan)
        r = np.arange(len(chunk))
        for ri, table, _ in plans[0][2]:
            r = r[table[ri[r]]]
        # depth first and in order; an entry's `key`, each partial
        # assignment's generator key, is None until it has been cut
        stack = [(1, r, np.zeros(len(r), np.int64), None)]
        while stack:
            k, r, c, key = stack.pop()
            if k == len(levels) or not len(r):
                r_parts.append(r + lo)
                c_parts.append(c)
                continue
            gen, (indptr, counts, values, first), filters = plans[k]
            uncut = key is None
            if uncut:
                key = (_cells(*gen, r, c, col) if gen
                       else np.zeros(len(r), np.int64))
            if first is not None:
                # at most one value each, the common case: no repeat
                digit = first[key]
                keep = digit >= 0
                r, c = r[keep], c[keep] + digit[keep]
            else:
                cnt = counts[key]
                total = cnt.sum()
                if uncut and total > piece:
                    cuts = np.append(np.searchsorted(
                        cnt.cumsum(), np.arange(0, total, piece)), len(r))
                    stack.extend((k, r[a:b], c[a:b], key[a:b]) for a, b in
                                 reversed(list(zip(cuts[:-1], cuts[1:])))
                                 if a < b)
                    continue
                r = r.repeat(cnt)
                c = c.repeat(cnt) + values[_gather(indptr, key, cnt)]
            for ri, table, col_sub in filters:
                keep = table[_cells(ri, col_sub, r, c, col)]
                r, c = r[keep], c[keep]
            stack.append((k + 1, r, c, None))
    return np.concatenate(r_parts), np.concatenate(c_parts)


def _holds(clauses, codec):
    """Bool array over every index of `codec`: the clauses all hold."""
    sub = codec.sub(set().union(*map(sl.expr_refs, clauses)))
    table = _table(clauses, sub, None, _Codec(()))
    return table[codec.project(np.arange(codec.size, dtype=np.int64), sub), 0]


def build_arena(doc, cap=1 << 24):
    """Compile a validated document into an explicit arena.

    Raises CapacityExceeded when the valuation space is larger than `cap`
    states.  Stage 1 joins the env safety clauses over (state, env')
    cells, stage 2 the sys safety clauses over (move group, sys') cells,
    once per key that pairs share, and no pair's list is expanded; each
    binding the primed variables in runs from truth tables
    that ``speclang.eval_expr`` fills; the tests check the moves against a
    separate scalar evaluator, clause by clause.
    """
    env_decls = tuple(doc.env_vars())
    decls = env_decls + tuple(doc.sys_vars())
    state = _Codec.of(decls)
    env_nxt = _Codec.of(env_decls, primed=True)
    sys_nxt = _Codec.of(decls[len(env_decls):], primed=True)
    # a side with no variables keeps one (empty) assignment: product = 1
    n_env, n_sys = env_nxt.size, sys_nxt.size
    n_states = state.size
    if n_states > cap:
        raise CapacityExceeded(
            f"valuation space has {n_states} states, cap is {cap}")

    # stage 1: legal (state, env') pairs
    states = np.arange(n_states, dtype=np.int64)
    env_indptr, env_next = _relation(doc.env_safety, state, states, env_nxt)
    # stage 2: sys responses per move group, the pair's state read through
    # the variables the sys clauses read, and its env'
    read = state.sub(set().union(*map(sl.expr_refs, doc.sys_safety)))
    key = state.project(states, read).repeat(np.diff(env_indptr))
    key *= n_env
    key += env_next
    groups, pair_group = _distinct_keys(key, read.size * n_env)
    group_indptr, group_succ = _relation(
        doc.sys_safety, _Codec(read.fields + env_nxt.fields), groups, sys_nxt)
    # each sys' index becomes its successor state: the group's env' on top
    group_succ += (groups % n_env * n_sys).repeat(np.diff(group_indptr))

    return GameArena(
        decls=decls, n_env_vars=len(env_decls), n_env=n_env, n_sys=n_sys,
        env_indptr=env_indptr, env_next=env_next, pair_group=pair_group,
        group_indptr=group_indptr, group_succ=group_succ,
        env_init=_holds(doc.env_init, _Codec.of(env_decls)),
        sys_init=_holds(doc.sys_init, state))


def with_inits(arena, doc):
    """Recompute initial sets from a document's init clauses.

    The move structure is shared; only env_init / sys_init are replaced.
    Useful when scanning initial conditions over one compiled arena, so
    the codecs, which depend on the variables alone, carry over.
    """
    out = replace(arena, env_init=_holds(doc.env_init, arena.env_codec),
                  sys_init=_holds(doc.sys_init, arena.state_codec))
    out.__dict__.update(state_codec=arena.state_codec,
                        env_codec=arena.env_codec)
    return out


def state_predicate(arena, expr):
    """Evaluate a current-state expression over all states (bool array)."""
    return _holds([expr], arena.state_codec)


# --------------------------------------------------------------------------
# construction from explicit relations (synthetic and random arenas)


def from_functions(decls, n_env_vars, env_fn, sys_fn,
                   env_init=None, sys_init=None):
    """Build an arena from explicit move functions (small instances).

    env_fn(s) -> iterable of env assignment indices;
    sys_fn(s, e) -> iterable of sys assignment indices.  Each pair is a
    move group of its own.
    """
    decls = tuple(decls)
    n_env = _Codec.of(decls[:n_env_vars]).size
    n_sys = _Codec.of(decls[n_env_vars:]).size
    n_states = n_env * n_sys
    env_indptr = [0]
    env_next, group_indptr, group_succ = [], [0], []
    for s in range(n_states):
        for e in sorted(set(env_fn(s))):
            env_next.append(e)
            group_succ.extend(e * n_sys + y for y in sorted(set(sys_fn(s, e))))
            group_indptr.append(len(group_succ))
        env_indptr.append(len(env_next))
    if env_init is None:
        env_init = np.ones(n_env, dtype=bool)
    if sys_init is None:
        sys_init = np.ones(n_states, dtype=bool)
    return GameArena(
        decls=decls, n_env_vars=n_env_vars, n_env=n_env, n_sys=n_sys,
        env_indptr=np.asarray(env_indptr, dtype=np.int64),
        env_next=np.asarray(env_next, dtype=np.int64),
        pair_group=np.arange(len(env_next), dtype=np.int64),
        group_indptr=np.asarray(group_indptr, dtype=np.int64),
        group_succ=np.asarray(group_succ, dtype=np.int64),
        env_init=np.asarray(env_init, dtype=bool),
        sys_init=np.asarray(sys_init, dtype=bool))


_MAX_GOALS = 2


def random_arena(seed, max_states=200):
    """Seeded random arena plus liveness predicates, for oracle testing.

    Returns (arena, env_live, sys_live) where the liveness lists hold
    boolean state arrays: 0 to _MAX_GOALS assumptions and 1 to _MAX_GOALS
    goals.
    """
    rng = random.Random(seed)
    while True:
        env_sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 2))]
        sys_sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 2))]
        n_env = np.prod(env_sizes)
        n_sys = np.prod(sys_sizes)
        if 2 <= n_env * n_sys <= max_states:
            break
    decls = tuple(
        [sl.VarDecl(f"u{i}", sl.ENV, 0, s - 1, s == 2)
         for i, s in enumerate(env_sizes)] +
        [sl.VarDecl(f"x{i}", sl.SYS, 0, s - 1, s == 2)
         for i, s in enumerate(sys_sizes)])
    n_states = int(n_env * n_sys)
    env_density = rng.uniform(0.3, 0.9)
    sys_density = rng.uniform(0.3, 0.9)

    env_table = []
    for s in range(n_states):
        moves = [e for e in range(n_env) if rng.random() < env_density]
        if not moves and rng.random() < 0.7:
            moves = [rng.randrange(n_env)]   # keep deadlocks occasional
        env_table.append(moves)
    sys_table = {}
    for s in range(n_states):
        for e in env_table[s]:
            moves = [y for y in range(int(n_sys)) if rng.random() < sys_density]
            if not moves and rng.random() < 0.7:
                moves = [rng.randrange(int(n_sys))]
            sys_table[(s, e)] = moves

    arena = from_functions(decls, len(env_sizes),
                           lambda s: env_table[s],
                           lambda s, e: sys_table[(s, e)])
    env_live = [np.array([rng.random() < 0.5 for _ in range(n_states)])
                for _ in range(rng.randint(0, _MAX_GOALS))]
    sys_live = [np.array([rng.random() < 0.5 for _ in range(n_states)])
                for _ in range(rng.randint(1, _MAX_GOALS))]
    return arena, env_live, sys_live
