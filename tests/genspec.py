"""Seeded random spec documents and expressions for round-trip testing,
and a scalar reference evaluator to check the toolkit's evaluator against."""

import random

from gr1kit import speclang as sl
from gr1kit.errors import MissingBinding
from gr1kit.speclang import (And, BoolLit, Cmp, Iff, Implies, IntTerm, Not,
                             Or, SpecDocument, VarDecl, VarRef)

CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


def random_decls(rng, max_vars=4):
    def make(name, owner):
        if rng.random() < 0.5:
            return VarDecl(name, owner, 0, 1, True)
        lo = rng.randint(-2, 2)
        return VarDecl(name, owner, lo, lo + rng.randint(0, 4), False)

    n_env = rng.randint(1, max_vars - 1)
    n_sys = rng.randint(1, max_vars - n_env)
    return ([make(f"u{i}", sl.ENV) for i in range(n_env)] +
            [make(f"x{i}", sl.SYS) for i in range(n_sys)])


def random_expr(rng, decls, allow_primed=None, depth=3):
    """allow_primed: None = no primes, or a set of owners whose primed
    references are allowed."""
    ints = [d for d in decls if not d.is_bool]
    bools = [d for d in decls if d.is_bool]

    def prime_ok(d):
        return allow_primed is not None and d.owner in allow_primed

    def term():
        if ints and rng.random() < 0.8:
            d = rng.choice(ints)
            primed = prime_ok(d) and rng.random() < 0.4
            return IntTerm(d.name, primed, rng.randint(-3, 3))
        return IntTerm(None, False, rng.randint(-5, 5))

    def go(k):
        if k <= 0:
            roll = rng.random()
            if roll < 0.15 or (not ints and not bools):
                return BoolLit(rng.random() < 0.5)
            if bools and (roll < 0.55 or not ints):
                d = rng.choice(bools)
                primed = prime_ok(d) and rng.random() < 0.4
                return VarRef(d.name, primed)
            return Cmp(rng.choice(CMP_OPS), term(), term())
        kind = rng.randrange(5)
        if kind == 0:
            return Not(go(k - 1))
        if kind == 1:
            return And(tuple(go(k - 1) for _ in range(rng.randint(2, 3))))
        if kind == 2:
            return Or(tuple(go(k - 1) for _ in range(rng.randint(2, 3))))
        if kind == 3:
            return Implies(go(k - 1), go(k - 1))
        return Iff(go(k - 1), go(k - 1))

    return go(rng.randint(0, depth))


def random_document(rng):
    decls = random_decls(rng)
    doc = SpecDocument(vars=list(decls))
    env_decls = [d for d in decls if d.owner == sl.ENV]
    for _ in range(rng.randint(0, 2)):
        doc.env_init.append(random_expr(rng, env_decls, allow_primed=None))
    for _ in range(rng.randint(0, 2)):
        doc.sys_init.append(random_expr(rng, decls, allow_primed=None))
    for _ in range(rng.randint(0, 3)):
        doc.env_safety.append(random_expr(rng, decls, allow_primed={sl.ENV}))
    for _ in range(rng.randint(0, 3)):
        doc.sys_safety.append(
            random_expr(rng, decls, allow_primed={sl.ENV, sl.SYS}))
    for _ in range(rng.randint(0, 2)):
        doc.env_liveness.append(random_expr(rng, decls, allow_primed=None))
    for _ in range(rng.randint(0, 2)):
        doc.sys_liveness.append(random_expr(rng, decls, allow_primed=None))
    return sl.validate_document(doc)


def random_small_spec_text(rng):
    """Small well-formed spec text for arena move-equivalence tests."""
    return sl.print_spec(random_document(rng))


def _reference_term(t, current, nxt):
    if t.name is None:
        return t.offset
    env = nxt if t.primed else current
    if env is None or t.name not in env:
        raise MissingBinding(f"{t.name} missing")
    return env[t.name] + t.offset


def reference_eval(e, current, nxt=None):
    """Scalar, short-circuit evaluation of a clause over name -> int
    valuations: an independent reference for ``speclang.eval_expr``."""
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, VarRef):
        env = nxt if e.primed else current
        if env is None or e.name not in env:
            raise MissingBinding(f"{e.name} missing")
        return bool(env[e.name])
    if isinstance(e, Cmp):
        a = _reference_term(e.lhs, current, nxt)
        b = _reference_term(e.rhs, current, nxt)
        return {"=": a == b, "!=": a != b, "<": a < b,
                "<=": a <= b, ">": a > b, ">=": a >= b}[e.op]
    if isinstance(e, Not):
        return not reference_eval(e.arg, current, nxt)
    if isinstance(e, And):
        return all(reference_eval(a, current, nxt) for a in e.args)
    if isinstance(e, Or):
        return any(reference_eval(a, current, nxt) for a in e.args)
    if isinstance(e, Implies):
        return (not reference_eval(e.lhs, current, nxt)
                or reference_eval(e.rhs, current, nxt))
    if isinstance(e, Iff):
        return (reference_eval(e.lhs, current, nxt)
                == reference_eval(e.rhs, current, nxt))
    raise TypeError(f"not an expression: {e!r}")
