import copy
import pickle
import random
import weakref
from pathlib import Path

import numpy as np
import pytest

from gr1kit import speclang as sl
from gr1kit.errors import MissingBinding, SpecError
from gr1kit.speclang import (eval_expr, format_expr, parse_expr, parse_spec,
                             print_spec)

from genspec import random_document, reference_eval

DATA = Path(__file__).parent / "data"


def test_minimal_document():
    doc = parse_spec("""
        [ENV_VARS]
        o1 : bool
        [SYS_VARS]
        rs : 0..3
        [SYS_TRANS]
        rs' <= rs + 1
    """)
    assert len(doc.vars) == 2
    assert doc.vars[0].owner == sl.ENV and doc.vars[1].owner == sl.SYS
    assert len(doc.sys_safety) == 1
    # a liveness goal is always present
    assert doc.sys_liveness == [sl.BoolLit(True)]


def test_ownership_violation():
    with pytest.raises(SpecError) as exc:
        parse_spec("[SYS_VARS]\nrs : 0..3\n[ENV_TRANS]\nrs' = 0\n")
    kinds = {d.kind for d in exc.value.diagnostics}
    assert "OwnershipViolation" in kinds


def test_env_init_cannot_touch_sys_vars():
    with pytest.raises(SpecError) as exc:
        parse_spec("[SYS_VARS]\nrs : 0..3\n[ENV_INIT]\nrs = 0\n")
    assert any(d.kind == "OwnershipViolation" for d in exc.value.diagnostics)


def test_duplicate_declaration():
    with pytest.raises(SpecError) as exc:
        parse_spec("[ENV_VARS]\na : bool\na : 0..2\n")
    assert any(d.kind == "DuplicateDeclaration"
               for d in exc.value.diagnostics)


def test_unknown_variable_and_position():
    with pytest.raises(SpecError) as exc:
        parse_spec("[ENV_VARS]\na : bool\n[ENV_TRANS]\nb -> a'\n")
    d = [d for d in exc.value.diagnostics if d.kind == "UnknownVariable"][0]
    assert d.line == 4
    assert d.token == "b"


def test_type_mismatch():
    with pytest.raises(SpecError) as exc:
        parse_spec("[ENV_VARS]\na : bool\nk : 0..4\n[ENV_TRANS]\na + 1 = 2\n")
    assert any(d.kind == "TypeMismatch" for d in exc.value.diagnostics)
    with pytest.raises(SpecError) as exc:
        parse_spec("[ENV_VARS]\nk : 0..4\n[ENV_TRANS]\nk\n")
    assert any(d.kind == "TypeMismatch" for d in exc.value.diagnostics)


def test_no_primes_in_init_or_liveness():
    with pytest.raises(SpecError) as exc:
        parse_spec("[ENV_VARS]\na : bool\n[ENV_LIVENESS]\na'\n")
    assert any(d.kind == "PrimedNotAllowed" for d in exc.value.diagnostics)
    with pytest.raises(SpecError) as exc:
        parse_spec("[ENV_VARS]\na : bool\n[ENV_INIT]\na'\n")
    assert any(d.kind == "PrimedNotAllowed" for d in exc.value.diagnostics)


def test_syntax_error_reports_line_and_column():
    with pytest.raises(SpecError) as exc:
        parse_spec("[ENV_VARS]\na : bool\n[ENV_TRANS]\na & (a |\n")
    d = exc.value.diagnostics[0]
    assert d.kind == "SyntaxError" and d.line == 4 and d.column >= 1


def test_non_ascii_digits_and_spaces_are_rejected():
    # Arabic-Indic digits are Unicode decimals, but the grammar's are 0-9
    with pytest.raises(SpecError) as exc:
        parse_spec("[ENV_VARS]\nx : \u0661..\u0663\n[ENV_INIT]\nx = \u0662\n")
    assert [(d.kind, d.line, d.column, d.token)
            for d in exc.value.diagnostics] == [
        ("SyntaxError", 2, 1, "x : \u0661..\u0663"),
        ("SyntaxError", 4, 5, "\u0662")]
    with pytest.raises(SpecError):
        parse_expr("x = \u0662")
    # nor is a declaration split by a no-break space
    with pytest.raises(SpecError):
        parse_spec("[ENV_VARS]\nx :\u00a0bool\n")
    assert parse_spec("[ENV_VARS]\nx : 1..3\n[ENV_INIT]\nx = 2\n").vars == [
        sl.VarDecl("x", sl.ENV, 1, 3, False)]


def test_eval_expr_examples():
    assert eval_expr(parse_expr("bl' = bl - 1"), {"bl": 20}, {"bl": 19})
    assert eval_expr(parse_expr("bl' = bl + 15"), {"bl": 10}, {"bl": 25})
    assert not eval_expr(parse_expr("o1 -> !o1'"), {"o1": 1}, {"o1": 1})


def test_eval_missing_binding():
    e = parse_expr("bl' = bl - 1")
    with pytest.raises(MissingBinding):
        eval_expr(e, {"bl": 20}, {})
    with pytest.raises(MissingBinding):
        eval_expr(e, {}, {"bl": 19})
    # no short-circuit: a missing name raises even where it cannot matter
    with pytest.raises(MissingBinding):
        eval_expr(parse_expr("x = 0 | ok"), {"x": np.zeros(3, np.int64)})
    with pytest.raises(MissingBinding):
        eval_expr(parse_expr("false & ok'"), {}, None)


def test_eval_expr_matches_reference_elementwise():
    rng = random.Random(13)
    n = 40
    for _ in range(200):
        doc = random_document(rng)
        # values up to 2 outside each domain: evaluation ignores domains
        cur, nxt = ({d.name: np.array([rng.randint(d.lo - 2, d.hi + 2)
                                       for _ in range(n)])
                     for d in doc.vars} for _ in range(2))
        rows = [({k: int(v[i]) for k, v in cur.items()},
                 {k: int(v[i]) for k, v in nxt.items()}) for i in range(n)]
        clauses = (doc.env_init + doc.sys_init + doc.env_safety +
                   doc.sys_safety + doc.env_liveness + doc.sys_liveness +
                   [sl.BoolLit(True), sl.BoolLit(False)])
        for c in clauses:
            got = eval_expr(c, cur, nxt)
            assert np.shape(got) in ((), (n,))
            want = [reference_eval(c, a, b) for a, b in rows]
            assert np.broadcast_to(got, (n,)).tolist() == want, format_expr(c)
            assert [bool(eval_expr(c, a, b)) for a, b in rows[:3]] == want[:3]


def test_evaluated_document_compares_copies_and_pickles():
    def clauses(doc):
        return (doc.env_init + doc.sys_init + doc.env_safety + doc.sys_safety
                + doc.env_liveness + doc.sys_liveness)

    text = (DATA / "work_delivery_n3.spec").read_text()
    doc, fresh = parse_spec(text), parse_spec(text)
    vals = {d.name: np.array([d.lo, d.hi]) for d in doc.vars}
    before = [eval_expr(c, vals, vals).tolist() for c in clauses(doc)]
    assert doc == fresh
    assert list(map(hash, clauses(doc))) == list(map(hash, clauses(fresh)))
    for back in (copy.deepcopy(doc), pickle.loads(pickle.dumps(doc))):
        assert back == doc and print_spec(back) == text
        assert [eval_expr(c, vals, vals).tolist()
                for c in clauses(back)] == before


def test_compiled_clause_leaves_with_its_expression():
    e = parse_expr("x' = x + 1 & !ok")
    assert eval_expr(e, {"x": 1, "ok": 0}, {"x": 2})
    gone = weakref.ref(e)
    del e
    assert gone() is None


def test_eval_is_exact_integer_arithmetic():
    # no clamping at the expression level
    e = parse_expr("k' = k + 7")
    assert eval_expr(e, {"k": 1000000}, {"k": 1000007})


@pytest.mark.parametrize("decl, kind", [
    (sl.VarDecl("true", sl.ENV, 0, 1, True), "SyntaxError"),
    (sl.VarDecl("b", sl.ENV, 0, 5, True), "TypeMismatch"),
    (sl.VarDecl("r", "robot", 0, 2, False), "OwnershipViolation"),
    (sl.VarDecl("1x", sl.ENV, 0, 1, True), "SyntaxError"),
])
def test_validate_document_rejects_what_cannot_print(decl, kind):
    # each document's printed text fails to parse or parses to another one
    with pytest.raises(SpecError) as exc:
        sl.validate_document(sl.SpecDocument(vars=[decl]))
    assert [(d.kind, d.token) for d in exc.value.diagnostics] == [
        (kind, decl.name)]


def test_parse_and_validate_share_one_checker():
    # a declaration that fails a check counts as undeclared in the clauses
    with pytest.raises(SpecError) as exc:
        parse_spec("[ENV_VARS]\nk : 3..1\n[ENV_TRANS]\nk' = 2\n")
    assert [(d.kind, d.line) for d in exc.value.diagnostics] == [
        ("TypeMismatch", 2), ("UnknownVariable", 4)]
    doc = sl.SpecDocument(vars=[sl.VarDecl("k", sl.ENV, 3, 1, False)],
                          env_safety=[parse_expr("k' = 2")])
    with pytest.raises(SpecError) as exc:
        sl.validate_document(doc)
    assert [(d.kind, d.line) for d in exc.value.diagnostics] == [
        ("TypeMismatch", 0), ("UnknownVariable", 0)]
    # diagnostics come in line order, whichever stage found them
    with pytest.raises(SpecError) as exc:
        parse_spec("[ENV_VARS]\na : bool\n[ENV_TRANS]\nb\n@\n")
    assert [(d.kind, d.line) for d in exc.value.diagnostics] == [
        ("UnknownVariable", 4), ("SyntaxError", 5)]


# clause evaluation and the codecs use int64: a term that would overflow
# is refused, never wrapped
WIDE_TERMS = {
    "offset": "[SYS_TRANS]\nx' = x + 99999999999999999999\n",
    "sum": ("[SYS_TRANS]\nx' + 9223372036854775807 < "
            "u + 9223372036854775807\n"),
    "literal": "[SYS_TRANS]\nx' = 9223372036854775808\n",
    "below": "[SYS_TRANS]\nx' > x - 9223372036854775809\n",
}


@pytest.mark.parametrize("name", sorted(WIDE_TERMS))
def test_terms_must_fit_in_64_bits(name):
    text = "[ENV_VARS]\nu : 0..3\n[SYS_VARS]\nx : 0..3\n" + WIDE_TERMS[name]
    with pytest.raises(SpecError) as exc:
        parse_spec(text)
    diags = exc.value.diagnostics
    assert diags and {(d.kind, d.line) for d in diags} == {("TypeMismatch", 6)}
    # a built document gets the same verdicts, unpositioned
    decls = [sl.VarDecl("u", sl.ENV, 0, 3, False),
             sl.VarDecl("x", sl.SYS, 0, 3, False)]
    clause = parse_expr(text.splitlines()[-1])
    with pytest.raises(SpecError) as exc:
        sl.validate_document(sl.SpecDocument(vars=decls, sys_safety=[clause]))
    assert [(d.kind, d.token, d.line) for d in exc.value.diagnostics] == [
        (d.kind, d.token, 0) for d in diags]


def test_bounds_must_fit_in_64_bits():
    with pytest.raises(SpecError) as exc:
        parse_spec("[ENV_VARS]\nu : 9223372036854775800..9223372036854775809"
                   "\n[SYS_VARS]\nx : bool\n")
    assert [(d.kind, d.line, d.token) for d in exc.value.diagnostics] == [
        ("TypeMismatch", 2, "u")]
    for lo, hi in ((-2 ** 63 - 1, 0), (0, 2 ** 63)):
        with pytest.raises(SpecError) as exc:
            sl.validate_document(sl.SpecDocument(
                vars=[sl.VarDecl("u", sl.ENV, lo, hi, False)]))
        assert [(d.kind, d.token) for d in exc.value.diagnostics] == [
            ("TypeMismatch", "u")]
    # the extremes themselves fit
    doc = parse_spec(
        "[ENV_VARS]\nu : 9223372036854775806..9223372036854775807\n"
        "v : -9223372036854775808..-9223372036854775807\n"
        "[ENV_TRANS]\nu' = u - 1 + 1 & v' = v + 0\n"
        "v' < 9223372036854775807 & v + 9223372036854775807 < 1\n")
    assert [d.lo for d in doc.vars] == [2 ** 63 - 2, -2 ** 63]


def test_empty_sections_print():
    doc = sl.SpecDocument()
    sl.validate_document(doc)
    text = print_spec(doc)
    for header in sl.SECTIONS:
        assert header in text
    doc2 = parse_spec(text)
    assert doc2.vars == [] and doc2.sys_liveness == [sl.BoolLit(True)]


def test_roundtrip_generated_documents():
    rng = random.Random(20240)
    for _ in range(200):
        doc = random_document(rng)
        text = print_spec(doc)
        doc2 = parse_spec(text)
        assert doc2.vars == doc.vars
        for field in ("env_init", "sys_init", "env_safety", "sys_safety",
                      "env_liveness", "sys_liveness"):
            assert getattr(doc2, field) == getattr(doc, field), text
        # printing is a fixpoint after one pass
        assert print_spec(doc2) == text


def test_golden_workdelivery_roundtrip():
    text = (DATA / "work_delivery_n3.spec").read_text()
    doc = parse_spec(text)
    assert print_spec(doc) == text
    assert print_spec(parse_spec(print_spec(doc))) == text


def test_fuzz_never_panics():
    rng = random.Random(99)
    golden = (DATA / "work_delivery_n3.spec").read_bytes()
    for i in range(1000):
        if i % 2:
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(120)))
        else:
            blob = bytearray(golden[:rng.randrange(len(golden))])
            for _ in range(rng.randrange(8)):
                if blob:
                    blob[rng.randrange(len(blob))] = rng.randrange(256)
            blob = bytes(blob)
        try:
            doc = parse_spec(blob)
        except SpecError:
            continue
        # an accepted blob prints to text that reparses to the same bytes
        text = print_spec(doc)
        assert parse_spec(text) == doc and print_spec(parse_spec(text)) == text


def test_expression_precedence():
    e = parse_expr("a -> b -> c")
    assert isinstance(e, sl.Implies) and isinstance(e.rhs, sl.Implies)
    e = parse_expr("a & b | c & d")
    assert isinstance(e, sl.Or)
    e = parse_expr("!a & b")
    assert isinstance(e, sl.And) and isinstance(e.args[0], sl.Not)
    e = parse_expr("x = 1 & y = 2")
    assert isinstance(e, sl.And)
    assert format_expr(parse_expr(format_expr(e))) == format_expr(e)
