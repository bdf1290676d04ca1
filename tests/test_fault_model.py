"""Operator catalog, site enumeration, and mutant application."""

from __future__ import annotations

from collections import Counter

import pytest

from mutdense import errors
from mutdense.fault_model import (
    ALL_OPERATOR_IDS,
    CATALOG,
    Family,
    OperatorSet,
    apply_mutant,
    find_mutation_sites,
    list_operators,
)
from mutdense.source_model import SourceUnit, locate_bodies, relevant_lines, tokenize
from conftest import FACTORIAL_LOOP_LINE, FACTORIAL_SRC, GENERICS_ZOO_SRC, make_unit

TRADITIONAL = OperatorSet.default([Family.TRADITIONAL])
NULL_TYPE = OperatorSet.default([Family.NULL_TYPE])
BOTH = OperatorSet.default()


def mutants_of(src, operator_set=BOTH, path="T.java"):
    unit = make_unit(src, path)
    return unit, find_mutation_sites(unit, locate_bodies(unit), operator_set)


def in_method(stmt: str) -> str:
    return "class T {\n    void m() {\n        " + stmt + "\n    }\n}\n"


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_catalog_counts():
    assert len(list_operators(Family.TRADITIONAL)) == 8
    assert len(list_operators(Family.NULL_TYPE)) == 4
    assert len({op.id for op in list_operators()}) == 12


def test_operator_set_validation():
    with pytest.raises(ValueError):
        OperatorSet.default([])
    with pytest.raises(ValueError):
        OperatorSet.default(enabled_ids=["ROR", "XXX"])
    only_ror = OperatorSet.default(enabled_ids=["ROR"])
    assert only_ror.enabled_ids == frozenset({"ROR"})
    # ids outside the chosen families are dropped by the subset rule
    narrowed = OperatorSet.default([Family.NULL_TYPE], enabled_ids=["ROR", "NNC"])
    assert narrowed.enabled_ids == frozenset({"NNC"})
    # an id list that leaves no operator enabled could never trip a threshold
    with pytest.raises(ValueError, match="no operator is enabled"):
        OperatorSet.default(enabled_ids=[])
    with pytest.raises(ValueError, match="no operator is enabled.*ROR"):
        OperatorSet.default([Family.NULL_TYPE], enabled_ids=["ROR"])


ALL_SITES_SRC = """\
class T {
    String m(String s, int a, int b) {
        int c = a + b * -a;
        a++;
        boolean d = a < b && s == null;
        int e = (a & b) << 2;
        a += 1;
        Object o = new Object();
        return s;
    }
}
"""


@pytest.mark.parametrize("op_id", sorted(ALL_OPERATOR_IDS))
def test_each_operator_alone_yields_only_its_own_mutants(op_id):
    _, everything = mutants_of(ALL_SITES_SRC)
    assert {m.operator_id for m in everything} == ALL_OPERATOR_IDS
    _, alone = mutants_of(ALL_SITES_SRC, OperatorSet.default(enabled_ids=[op_id]))
    assert alone == [m for m in everything if m.operator_id == op_id]


def test_family_filter_applies_to_a_hand_built_operator_set():
    hand_built = OperatorSet(
        families=frozenset({Family.TRADITIONAL}), enabled_ids=ALL_OPERATOR_IDS
    )
    _, mutants = mutants_of(ALL_SITES_SRC, hand_built)
    assert mutants and {m.family for m in mutants} == {Family.TRADITIONAL}
    assert mutants == mutants_of(ALL_SITES_SRC, TRADITIONAL)[1]


# ---------------------------------------------------------------------------
# enumeration examples
# ---------------------------------------------------------------------------


def test_factorial_loop_header_has_exactly_two_traditional_mutants():
    unit, mutants = mutants_of(FACTORIAL_SRC, TRADITIONAL)
    on_line = [m for m in mutants if m.line == FACTORIAL_LOOP_LINE]
    assert sorted(m.operator_id for m in on_line) == ["AOR-S", "ROR"]
    by_op = {m.operator_id: m for m in on_line}
    assert (by_op["ROR"].original, by_op["ROR"].replacement) == ("<", ">=")
    assert (by_op["AOR-S"].original, by_op["AOR-S"].replacement) == ("++", "--")
    assert "i >= NUM_FACTS" in apply_mutant(unit, by_op["ROR"])
    assert "i--" in apply_mutant(unit, by_op["AOR-S"])


def test_string_concat_plus_is_skipped():
    _, mutants = mutants_of(FACTORIAL_SRC, TRADITIONAL)
    assert not any(m.line == 5 for m in mutants)  # println(i + "! is " + ...)
    _, kept = mutants_of(in_method("s = s1 + s2;"), TRADITIONAL)
    assert [m.operator_id for m in kept] == ["AOR-B"]


def test_generic_declaration_yields_no_traditional_mutants():
    _, mutants = mutants_of(in_method("List<String> x;"), TRADITIONAL)
    assert mutants == []


def test_reference_return_yields_nrv_and_niv():
    src = "class T {\n    String f(String name) {\n        return name;\n    }\n}\n"
    _, mutants = mutants_of(src, NULL_TYPE)
    assert sorted(m.operator_id for m in mutants) == ["NIV", "NRV"]
    nrv = next(m for m in mutants if m.operator_id == "NRV")
    assert nrv.original == "return name;"
    assert nrv.replacement == "return null;"
    niv = next(m for m in mutants if m.operator_id == "NIV")
    assert (niv.line, niv.original) == (2, "name")


def test_null_check_line_hosts_three_mutants_across_families():
    _, mutants = mutants_of(in_method("if (x == null) y = a + b;"), BOTH)
    assert Counter(m.operator_id for m in mutants) == Counter(
        {"ROR": 1, "NNC": 1, "AOR-B": 1}
    )
    ror = next(m for m in mutants if m.operator_id == "ROR")
    nnc = next(m for m in mutants if m.operator_id == "NNC")
    assert ror.family is Family.TRADITIONAL
    assert nnc.family is Family.NULL_TYPE
    assert (ror.start, ror.end) == (nnc.start, nnc.end)
    assert ror.replacement == nnc.replacement == "!="


# ---------------------------------------------------------------------------
# per-operator rules
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "stmt,op,original,replacement",
    [
        ("x = a + b;", "AOR-B", "+", "-"),
        ("x = a - b;", "AOR-B", "-", "+"),
        ("x = a * b;", "AOR-B", "*", "/"),
        ("x = a / b;", "AOR-B", "/", "*"),
        ("x = a % b;", "AOR-B", "%", "*"),
        ("i++;", "AOR-S", "++", "--"),
        ("i--;", "AOR-S", "--", "++"),
        ("b = x < y;", "ROR", "<", ">="),
        ("b = x > y;", "ROR", ">", "<="),
        ("b = x <= y;", "ROR", "<=", ">"),
        ("b = x >= y;", "ROR", ">=", "<"),
        ("b = x == y;", "ROR", "==", "!="),
        ("b = x != y;", "ROR", "!=", "=="),
        ("b = p && q;", "COR", "&&", "||"),
        ("b = p || q;", "COR", "||", "&&"),
        ("x = a & b;", "LOR", "&", "|"),
        ("x = a | b;", "LOR", "|", "&"),
        ("x = a ^ b;", "LOR", "^", "&"),
        ("x = a << 2;", "SOR", "<<", ">>"),
        ("x = a >> 2;", "SOR", ">>", "<<"),
        ("x = a >>> 2;", "SOR", ">>>", "<<"),
        ("x += 2;", "ASR-S", "+=", "-="),
        ("x -= 2;", "ASR-S", "-=", "+="),
        ("x *= 2;", "ASR-S", "*=", "/="),
        ("x /= 2;", "ASR-S", "/=", "*="),
        ("x %= 2;", "ASR-S", "%=", "*="),
        ("x <<= 2;", "ASR-S", "<<=", ">>="),
        ("x >>= 2;", "ASR-S", ">>=", "<<="),
        ("x &= 2;", "ASR-S", "&=", "|="),
        ("x |= 2;", "ASR-S", "|=", "&="),
        ("x ^= 2;", "ASR-S", "^=", "&="),
    ],
)
def test_replacement_map(stmt, op, original, replacement):
    _, mutants = mutants_of(in_method(stmt), TRADITIONAL)
    assert len(mutants) == 1
    m = mutants[0]
    assert (m.operator_id, m.original, m.replacement) == (op, original, replacement)


def test_unary_minus_is_deleted_not_replaced():
    unit, mutants = mutants_of(in_method("return -c;"), TRADITIONAL)
    assert [(m.operator_id, m.original, m.replacement) for m in mutants] == [
        ("AOR-U", "-", "")
    ]
    assert "return c;" in apply_mutant(unit, mutants[0])


@pytest.mark.parametrize(
    "stmt,expected_ops",
    [
        ("x = (a) - b;", ["AOR-B"]),        # ')' closes an operand
        ("x = arr[0] - 1;", ["AOR-B"]),     # ']' closes an operand
        ("x = -a + b;", ["AOR-U", "AOR-B"]),
        ("x = a - -b;", ["AOR-B", "AOR-U"]),
        ("f(-a);", ["AOR-U"]),
        ("x = 3 - 4;", ["AOR-B"]),          # literal operand on the left
    ],
)
def test_minus_binarity(stmt, expected_ops):
    _, mutants = mutants_of(in_method(stmt), TRADITIONAL)
    assert [m.operator_id for m in mutants] == expected_ops


def test_bitwise_needs_binary_position():
    # '<T extends A & B>' leaves '&' after '>', a non-operand, so no LOR
    src = "class T {\n    <T extends Comparable<T> & Cloneable> void m(T t) {\n    }\n}\n"
    _, mutants = mutants_of(src, TRADITIONAL)
    assert mutants == []


def test_shift_tokens_in_generics_are_not_shifts():
    _, mutants = mutants_of(
        in_method("Map<String, List<Integer>> m = null;"), TRADITIONAL
    )
    assert mutants == []
    _, zoo = mutants_of(GENERICS_ZOO_SRC, TRADITIONAL)
    assert [m for m in zoo if m.operator_id in ("ROR", "SOR")] == []


def test_noi_object_creation_forms():
    cases = {
        "o = new String(\"x\");": "new String(\"x\")",
        "o = new java.util.ArrayList(n);": "new java.util.ArrayList(n)",
        "o = new ArrayList<String>(n);": "new ArrayList<String>(n)",
        "o = new ArrayList<>();": "new ArrayList<>()",
        "f(new A(1), 2);": "new A(1)",
    }
    for stmt, site_text in cases.items():
        _, mutants = mutants_of(in_method(stmt), NULL_TYPE)
        noi = [m for m in mutants if m.operator_id == "NOI"]
        assert [(m.original, m.replacement) for m in noi] == [(site_text, "null")], stmt


def test_noi_skips_array_creation():
    for stmt in ("a = new int[3];", "a = new String[n];", "a = new int[]{1, 2};"):
        _, mutants = mutants_of(in_method(stmt), NULL_TYPE)
        assert [m for m in mutants if m.operator_id == "NOI"] == [], stmt


def test_nrv_rules():
    # bare 'return null;' is already null: no NRV
    src = "class T {\n    String f() {\n        return null;\n    }\n}\n"
    _, mutants = mutants_of(src, NULL_TYPE)
    assert [m.operator_id for m in mutants] == []
    # primitive and void returns: no NRV
    for ret, stmt in (("int", "return 1;"), ("void", "return;")):
        src = f"class T {{\n    {ret} f() {{\n        {stmt}\n    }}\n}}\n"
        _, mutants = mutants_of(src, NULL_TYPE)
        assert [m for m in mutants if m.operator_id == "NRV"] == []
    # the innermost span decides: run() is void, so its return gets no NRV
    src = """\
class T {
    String outer() {
        Runnable r = new Runnable() {
            public void run() {
                return;
            }
        };
        return "x";
    }
}
"""
    _, mutants = mutants_of(src, NULL_TYPE)
    nrv = [m for m in mutants if m.operator_id == "NRV"]
    assert [(m.line, m.original) for m in nrv] == [(8, 'return "x";')]


def test_nrv_owner_is_innermost_span_at_every_depth():
    src = """\
class T {
    String a() {
        class L {
            Object b() {
                Runnable r = new Runnable() {
                    public void run() {
                        return;
                    }
                };
                return r;
            }
            int c() {
                return 1;
            }
        }
        return "a";
    }
    T() {
        return;
    }
    List<String> d() {
        return list;
    }
}
"""
    _, mutants = mutants_of(src, NULL_TYPE)
    nrv = [m for m in mutants if m.operator_id == "NRV"]
    assert [(m.line, m.original) for m in nrv] == [
        (10, "return r;"),
        (16, 'return "a";'),
        (22, "return list;"),
    ]


def test_nrv_site_spans_keyword_through_semicolon():
    src = "class T {\n    String f(int n) {\n        return g(n, 1);\n    }\n}\n"
    unit, mutants = mutants_of(src, NULL_TYPE)
    nrv = next(m for m in mutants if m.operator_id == "NRV")
    assert nrv.original == "return g(n, 1);"
    mutated = apply_mutant(unit, nrv)
    assert "return null;" in mutated
    assert "g(n, 1)" not in mutated


def test_niv_covers_reference_params_only():
    src = "class T {\n    T(String a, int b, List<String> c, double d) {\n        this.a = a;\n    }\n}\n"
    unit, mutants = mutants_of(src, NULL_TYPE)
    niv = [m for m in mutants if m.operator_id == "NIV"]
    assert [(m.original, m.replacement) for m in niv] == [
        ("a", "a = null"),
        ("c", "c = null"),
    ]
    mutated = apply_mutant(unit, niv[0])
    assert "{ a = null;" in mutated


def test_apply_mutant_examples_and_stale_site():
    unit, mutants = mutants_of(in_method("x = a + b;"), TRADITIONAL)
    assert "a - b" in apply_mutant(unit, mutants[0])
    unit2, mutants2 = mutants_of(in_method("i++;"), TRADITIONAL)
    assert "i--" in apply_mutant(unit2, mutants2[0])
    edited = SourceUnit.from_text(unit.path, unit.text.replace("a + b", "a * b"))
    with pytest.raises(errors.SiteMismatch):
        apply_mutant(edited, mutants[0])


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

FIXTURES = [FACTORIAL_SRC, GENERICS_ZOO_SRC, in_method("if (x == null) y = a + b;")]


@pytest.mark.parametrize("src", FIXTURES)
def test_mutant_invariants(src):
    unit = make_unit(src)
    spans = locate_bodies(unit)
    relevant = relevant_lines(unit, spans)
    for m in find_mutation_sites(unit, spans, BOTH):
        assert unit.text[m.start : m.end] == m.original
        assert m.replacement != m.original
        assert m.line in relevant.relevant
        assert m.unit_path == unit.path


@pytest.mark.parametrize("src", FIXTURES)
def test_family_partition(src):
    unit = make_unit(src)
    spans = locate_bodies(unit)
    both = find_mutation_sites(unit, spans, BOTH)
    trad = find_mutation_sites(unit, spans, TRADITIONAL)
    null = find_mutation_sites(unit, spans, NULL_TYPE)
    assert Counter(both) == Counter(trad) + Counter(null)
    assert {m.family for m in trad} <= {Family.TRADITIONAL}
    assert {m.family for m in null} <= {Family.NULL_TYPE}


@pytest.mark.parametrize("src", FIXTURES)
def test_enumeration_is_deterministic(src):
    unit = make_unit(src)
    spans = locate_bodies(unit)
    assert find_mutation_sites(unit, spans, BOTH) == find_mutation_sites(
        unit, spans, BOTH
    )


def test_single_token_replacements_preserve_token_count():
    single_token_ops = {"ROR", "COR", "LOR", "SOR", "AOR-B", "AOR-S", "ASR-S", "NNC"}
    statements = [
        "if (a < b && x == null) { y = a + b; y <<= 2; }",
        # replacements that would merge with a neighbour unless padded
        "y = a+-b;",  # AOR-B: a--b would be a decrement
        "y = x*/*c*/y;",  # AOR-B: x//*c*/y would comment out the rest
        "y = a+-+b;",  # AOR-U: deleting '-' would make '++'
        "y = a/-/b;",  # AOR-U: deleting '-' would open a line comment
        "y = a<=-b>>-c;",
    ]
    for stmt in statements:
        unit, mutants = mutants_of(in_method(stmt), BOTH)
        texts = [t.text for t in unit.tokens]
        starts = [t.start for t in unit.tokens]
        for m in mutants:
            if m.operator_id not in single_token_ops | {"AOR-U"}:
                continue
            site = starts.index(m.start)
            expected = texts[:site] + [m.replacement] * bool(m.replacement) + texts[site + 1:]
            mutated = [t.text for t in tokenize(apply_mutant(unit, m))]
            assert mutated == expected, (stmt, m.operator_id)
            if m.operator_id != "AOR-U":
                assert len(mutated) == len(texts)
