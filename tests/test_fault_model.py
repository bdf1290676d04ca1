"""Operator catalog, site enumeration, and mutant application."""

from __future__ import annotations

import random
import shutil
import subprocess
from collections import Counter

import pytest

from mutdense import errors
from mutdense.fault_model import (
    ALL_OPERATOR_IDS,
    CATALOG,
    ORIGINAL_MAX,
    Family,
    OperatorSet,
    apply_mutant,
    find_mutation_sites,
)
from mutdense.metrics import analyze_unit
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
    assert Counter(op.family for op in CATALOG) == {Family.TRADITIONAL: 8, Family.NULL_TYPE: 4}
    assert len({op.id for op in CATALOG}) == 12


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


def test_hand_built_operator_set_enables_exactly_its_ids():
    ids = frozenset({"ROR", "NNC", "NOI"})
    _, everything = mutants_of(ALL_SITES_SRC)
    _, mutants = mutants_of(ALL_SITES_SRC, OperatorSet(ids))
    assert {m.operator_id for m in mutants} == ids
    assert mutants == [m for m in everything if m.operator_id in ids]


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


def test_legacy_array_return_form_gets_nrv_and_aor_b():
    src = "class T {\n    int f(int a)[] {\n        return new int[] {a + 1};\n    }\n}\n"
    _, mutants = mutants_of(src)
    assert sorted((m.operator_id, m.line, m.original) for m in mutants) == [
        ("AOR-B", 3, "+"),
        ("NRV", 3, "return new int[] {a + 1};"),
    ]


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


def test_null_on_the_left_of_a_check_is_negated_too():
    src = "class T {\n    boolean m(String s) {\n        return null == s || null != s;\n    }\n}\n"
    _, mutants = mutants_of(src)
    assert sorted((m.operator_id, m.original, m.replacement) for m in mutants
                  if m.operator_id in ("NNC", "ROR")) == [
        ("NNC", "!=", "=="), ("NNC", "==", "!="), ("ROR", "!=", "=="), ("ROR", "==", "!="),
    ]


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
        ("int y = a++ - 1;", ["AOR-S", "AOR-B"]),  # postfix '++' closes one
        ("x = a-- + 1;", ["AOR-S", "AOR-B"]),
        ("int y = (int) -x;", ["AOR-U"]),   # a primitive cast's ')' closes none
        ("long z = (long) +x;", []),
    ],
)
def test_minus_binarity(stmt, expected_ops):
    _, mutants = mutants_of(in_method(stmt), TRADITIONAL)
    assert [m.operator_id for m in mutants] == expected_ops


@pytest.mark.parametrize("stmt", ["boolean z = true & b;", "boolean z = false ^ b;"])
def test_literal_word_closes_an_operand(stmt):
    _, mutants = mutants_of(in_method(stmt), TRADITIONAL)
    assert [m.operator_id for m in mutants] == ["LOR"]


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


@pytest.mark.parametrize(
    "stmt,created",
    [
        ("java.util.List<int[]> a = new java.util.ArrayList<int[]>();",
         ["new java.util.ArrayList<int[]>()"]),
        ("Map<String, byte[][]> m = new HashMap<String, byte[][]>();",
         ["new HashMap<String, byte[][]>()"]),
        ("Function<int[], Integer> g = new Memo<int[], Integer>(f);",
         ["new Memo<int[], Integer>(f)"]),
        ("x = (List<int[]>) o;", []),
        ("x = (IntFunction<int[]>) int[]::new;", []),
        ("List<@NonNull String> a = new ArrayList<@NonNull String>();",
         ["new ArrayList<@NonNull String>()"]),
    ],
    ids=["list-of-int-array", "map-of-byte-array", "function-of-int-array", "cast",
         "array-constructor-reference", "type-use-annotation"],
)
def test_primitive_arrays_and_annotations_in_type_arguments(stmt, created):
    _, mutants = mutants_of(in_method(stmt))
    assert [m for m in mutants if m.operator_id in ("ROR", "SOR")] == []
    assert [m.original for m in mutants if m.operator_id == "NOI"] == created


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


def test_noi_skips_creation_statements():
    # 'null;' is no statement, and 'else', 'do', the ')' of an 'if',
    # 'while' or 'for' header and the ':' of a label are always followed by
    # one; after any other ':', '->' or a cast's ')' a creation may be an
    # expression (ternary, for-each source, assert message, lambda body,
    # switch-expression arm, cast's operand), so it keeps its NOI there
    stmt = ("new Object(); Object o = new Object(); g(new B()); { new C(); }"
            " o = c ? a : new D(); o = (Object) new E(); r = () -> new F();"
            " if (c) f(); else new G(); do new K(); while (c);"
            " if (c) new C(); while (c) new E(); for (int i = 0; i < n; i++) new H();"
            " if (f(g(c))) f(); else if (c) new J();"
            " l: new L(); l: m: new M(); switch (k) { case 1: new N(); default: new P(); }"
            " switch (k) { case A: l: new Q(); }"
            " for (Object x : new R()) f(); assert c : new S();"
            " o = switch (k) { case 1 -> new T(); default -> new U(); };")
    _, mutants = mutants_of(in_method(stmt), NULL_TYPE)
    noi = [m for m in mutants if m.operator_id == "NOI"]
    assert [m.original for m in noi] == [
        "new Object()", "new B()", "new D()", "new E()", "new F()",
        "new R()", "new S()", "new T()", "new U()"]
    assert noi[0].column == 34  # the declaration's


def test_noi_skips_creation_statements_after_labels():
    # a switch is a statement where a statement starts at its 'switch', and
    # a rule of a switch statement holds a statement; an arm of a switch
    # expression holds an expression, whatever encloses either
    stmt = ("switch (k) { case 1 -> new A(); default -> { new B(); } }"
            " if (c) switch (k) { case 1 -> new C(); } else l: switch (k) { default -> new D(); }"
            " switch (k) { case 1: switch (k) { case 2 -> new E(); } }"
            " switch (k) { case 1 -> { o = switch (k) { case 2 -> new F(); default -> o; }; }"
            " default -> new G(); }"
            " o = switch (k) { case 1 -> { switch (k) { case 2 -> new H(); } yield new J(); }"
            " default -> new K(); };"
            " r = () -> { switch (k) { case 1 -> new L(); } };"
            " r = () -> switch (k) { case 1 -> new M(); default -> o; };")
    _, mutants = mutants_of(in_method(stmt), NULL_TYPE)
    assert [m.original for m in mutants if m.operator_id == "NOI"] == [
        "new F()", "new J()", "new K()", "new M()"]


_NOI_STATEMENTS = [
    "new Object();", "{ new Object(); }", "if (c) g(o); else new Object();",
    "do new Object(); while (c);", "if (c) new Object();", "while (c) new Object();",
    "for (int i = 0; i < 1; i++) new Object();", "if (c) g(o); else if (g(c) == o) new Object();",
    "l: new Object();", "switch (o.hashCode()) { case 1: new Object(); }",
    "switch (o.hashCode()) { default: new Object(); }",
    "switch (o.hashCode()) { case 1 -> new Object(); }",
    "if (c) switch (o.hashCode()) { case 1 -> new Object(); }",
    "l: switch (o.hashCode()) { case 1 -> new Object(); }",
    "switch (o.hashCode()) { case 1: switch (o.hashCode()) { case 2 -> new Object(); } }",
    "Runnable r = () -> { switch (o.hashCode()) { case 1 -> new Object(); } };",
]
_NOI_EXPRESSIONS = [
    "Object d = new Object();", "g(new Object());", "o = c ? o : new Object();",
    "o = (Object) new Object();", "java.util.function.Supplier<Object> s = () -> new Object();",
    "assert c : new Object();",
    "o = switch (o.hashCode()) { case 1 -> new Object(); default -> o; };",
    # one NOI each: the switch expression's arm and the 'yield'
    "switch (o.hashCode()) { case 1 -> { o = switch (o.hashCode()) { case 2 -> new Object();"
    " default -> o; }; } default -> new Object(); }",
    "o = switch (o.hashCode()) { case 1 -> { switch (o.hashCode()) { case 2 -> new Object(); }"
    " yield new Object(); } default -> o; };",
]


@pytest.mark.skipif(shutil.which("javac") is None,
                    reason="javac is not on PATH, so the NOI mutants cannot be compiled")
def test_noi_mutants_compile(tmp_path):
    # each form in a well-typed class; the originals and every NOI mutant
    # go to one javac call
    def unit_of(name, form):
        return make_unit(f"class {name} {{ Object o; boolean c; Object g(Object x) {{ return x; }}"
                         f" Object f() {{ {form} return o; }} }}\n", f"{name}.java")

    with_noi, sources = [], {}
    for n, form in enumerate(_NOI_STATEMENTS + _NOI_EXPRESSIONS):
        sources[f"O{n}"] = unit_of(f"O{n}", form).text
        unit = unit_of(f"M{n}", form)
        noi = [m for m in find_mutation_sites(unit, locate_bodies(unit), NULL_TYPE)
               if m.operator_id == "NOI"]
        assert len(noi) <= 1, form
        if noi:
            with_noi.append(form)
            sources[f"M{n}"] = apply_mutant(unit, noi[0])
    paths = []
    for name, text in sources.items():
        paths.append(tmp_path / f"{name}.java")
        paths[-1].write_text(text, encoding="utf-8")
    compiled = subprocess.run(["javac", "-d", str(tmp_path / "classes"), *map(str, paths)],
                              capture_output=True, text=True)
    assert compiled.returncode == 0, compiled.stderr
    assert with_noi == _NOI_EXPRESSIONS


def test_noi_reaches_into_an_anonymous_creations_arguments():
    # the arguments are walked as a frame of the method's, so each creation
    # in them is recorded; the NOI of 'new A(...)' itself, which leaves
    # 'null { }', is ROADMAP item 5's anonymous-class half
    stmt = "Object o = new A(new B(), () -> { Object c = new C(); }, () -> new D()) { };"
    _, mutants = mutants_of(in_method(stmt), NULL_TYPE)
    assert [m.original for m in mutants if m.operator_id == "NOI"][1:] == [
        "new B()", "new C()", "new D()"]


def test_noi_ends_inside_its_body():
    # a creation whose ')' lies past its body's '}' gets no NOI across it
    unit, mutants = mutants_of("class A {\n  Object f() {\n    x = new B(\n  }\n  )\n}\n")
    assert [span.name for span in locate_bodies(unit)] == ["f"]
    assert mutants == []


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
    # an array of a primitive type is a reference
    src = "class T {\n    int[] f() {\n        return a;\n    }\n}\n"
    _, mutants = mutants_of(src, NULL_TYPE)
    assert [(m.operator_id, m.original) for m in mutants] == [("NRV", "return a;")]
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
    # an array of a primitive type is a reference
    src = "class T {\n    void f(int[] e, int k) {\n    }\n}\n"
    _, mutants = mutants_of(src, NULL_TYPE)
    assert [m.original for m in mutants if m.operator_id == "NIV"] == ["e"]
    mutated = apply_mutant(unit, niv[0])
    assert "{ a = null;" in mutated


@pytest.mark.parametrize("params, nulled", [
    ("final String s", []),  # a final parameter cannot be assigned
    ("String s", ["s"]),
    ("final int n", []),
    ("final String s, String t, @Deprecated final List<T> u", ["t"]),
])
def test_niv_skips_final_params(params, nulled):
    src = "class T {\n    void f(" + params + ") {\n        g();\n    }\n}\n"
    _, mutants = mutants_of(src, NULL_TYPE)
    assert [m.original for m in mutants if m.operator_id == "NIV"] == nulled


@pytest.mark.parametrize("src, nulled", [
    ("class A { void f(A this, String s) { } }", ["s"]),
    ("class A { class B { B(A A.this) { } } }", []),
])
def test_niv_skips_a_receiver_parameter(src, nulled):
    # a receiver (JLS 8.4) is no formal parameter and cannot be assigned
    _, mutants = mutants_of(src, NULL_TYPE)
    assert [m.original for m in mutants if m.operator_id == "NIV"] == nulled


@pytest.mark.parametrize("src", [
    "enum E { A(B) { int f() { return 1; } }, B; }",
    "class C { void f(@A x) { } }",
])
def test_niv_needs_a_typed_parameter(src):
    # an enum constant's arguments, read as a method's, and a lone name
    # declare no typed parameter
    _, mutants = mutants_of(src, NULL_TYPE)
    assert [m.original for m in mutants if m.operator_id == "NIV"] == []


# header shapes, '{}' standing for the parameter's name, and whether NIV
# (for a parameter) or NRV (for a return type) applies to them
_PARAM_SHAPES = [
    ("String {}", True), ("int[] {}", True), ("int {}[]", True), ("int... {}", True),
    ("a.b.C {}", True), ("java.util.List<int[]> {}", True),
    ("Map<String, ? extends T> {}", True), ("@A(v = 1) String {}", True),
    ("String @A [] {}", True), ("@A String... {}", True), ("T {}[][]", True),
    ("int {}", False), ("final String {}", False), ("@a.b.A final String {}", False),
    ("final @A String {}", False),
]
_RETURN_SHAPES = [
    ("String", True), ("int[]", True), ("<T> T", True), ("Class<?>", True),
    ("<K, V extends Comparable<? super V>> java.util.Map<K, V>", True),
    ("@a.b.A String", True),
    ("void", False), ("int", False), ("<T> int", False), ("@a.b.A int", False),
]


def _gen_headers(rng: random.Random, methods: int) -> tuple[str, list[tuple[int, str, str]]]:
    """A class of ``methods`` one-line methods and generic or annotated
    constructors with random header shapes, and its NIV and NRV mutants by
    construction, as (line, operator id, original text)."""
    lines = ["class C {"]
    expected: list[tuple[int, str, str]] = []
    for i in range(methods):
        line = len(lines) + 1
        names = [f"p{i}_{j}" for j in range(rng.randint(0, 3))]
        shapes = [rng.choice(_PARAM_SHAPES) for _ in names]
        params = [shape.format(name) for (shape, _), name in zip(shapes, names)]
        expected += [(line, "NIV", name) for (_, nullable), name in zip(shapes, names) if nullable]
        if rng.random() < 0.1:
            params.insert(0, f"T t{i}")
            expected.append((line, "NIV", f"t{i}"))
            head, body = rng.choice(["<T> C", "@a.b.A C"]), "return;"
        else:
            if rng.random() < 0.2:
                params.insert(0, rng.choice(["C this", "C Outer.this"]))
            ret, reference = rng.choice(_RETURN_SHAPES)
            head = f"{ret} m{i}"
            if ret == "void":
                body = "return;"
            elif not reference:
                body = "return 1;"
            elif rng.random() < 0.3:
                body = "return null;"
            else:
                body = f"return v{i};"
                expected.append((line, "NRV", body))
        lines.append(f"    {head}({', '.join(params)}) {{ {body} }}")
    lines.append("}")
    return "\n".join(lines) + "\n", expected


@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_headers_give_niv_and_nrv_by_construction(seed):
    src, expected = _gen_headers(random.Random(seed), 100)
    _, mutants = mutants_of(src, OperatorSet.default(enabled_ids={"NIV", "NRV"}))
    assert sorted((m.line, m.operator_id, m.original) for m in mutants) == sorted(expected)


@pytest.mark.parametrize(
    "src",
    [
        "class C { int f() { return 1; } int y = 2 * 3; }",
        "class C { @A(x = 1 + 2) int f() { return 0; } }",
        "non-sealed class C extends B { void f() { } }",
        "class C {\n    void f() {\n    } Object o = new Object();\n}\n",
    ],
    ids=["field-after-body", "annotation-in-header", "non-sealed", "field-after-close"],
)
def test_no_site_outside_a_body_on_a_body_line(src):
    assert analyze_unit("C.java", src, BOTH).mutants == ()


def test_initializers_of_a_type_nested_in_a_body_count_nothing():
    src = """\
class C {
    Object f(int a) {
        Object o = new Object() {
            int y = a + 1;
            { y = y * 2; }
        };
        return o;
    }
}
"""
    _, mutants = mutants_of(src)
    assert [(m.operator_id, m.line) for m in mutants] == [("NOI", 3), ("NRV", 7)]


def test_a_local_class_counts_its_methods_but_not_its_fields():
    src = """\
class C {
    void f() {
        class L {
            Object xs = new java.util.ArrayList<>();
            int g(int a) {
                return a - 1;
            }
        }
    }
}
"""
    _, mutants = mutants_of(src)
    assert [(m.operator_id, m.line) for m in mutants] == [("AOR-B", 6)]


def _nrv_lines(src):
    _, mutants = mutants_of(src, NULL_TYPE)
    return [m.line for m in mutants if m.operator_id == "NRV"]


def test_no_nrv_for_a_return_inside_a_block_lambda():
    src = """\
class T {
    String f(int k) {
        IntSupplier s = () -> {
            if (k > 0) {
                return k;
            }
            return 0;
        };
        Function<String, String> g = x -> { return x; };
        return "v" + s.getAsInt();
    }
}
"""
    # the lambdas' returns are typed by their lambdas, not by f
    assert _nrv_lines(src) == [10]


def test_nrv_kept_in_anonymous_class_and_switch_rule_inside_a_lambda():
    src = """\
class T {
    Object f(int k) {
        Supplier<Comparator<String>> s = () -> {
            return new Comparator<String>() {
                public String name(int i) {
                    return "c" + i;
                }
            };
        };
        switch (k) {
            case 1, 2 -> {
                return s;
            }
            case 3 -> run(() -> { return k; });
            default -> {
                return null;
            }
        }
        return s;
    }
}
"""
    # line 4 leaves the lambda; line 6 leaves name(); line 12 leaves f from
    # a switch rule's block; line 14 leaves a lambda in a rule; line 16 is
    # bare null
    assert _nrv_lines(src) == [6, 12, 19]


def test_old_style_switch_labels_keep_their_returns():
    src = """\
class T {
    String f(int k) {
        switch (k) {
            case 1:
                return "a";
            default:
                Runnable r = () -> { return; };
                return "b";
        }
    }
}
"""
    assert _nrv_lines(src) == [5, 8]


def test_apply_mutant_examples_and_stale_site():
    unit, mutants = mutants_of(in_method("x = a + b;"), TRADITIONAL)
    assert "a - b" in apply_mutant(unit, mutants[0])
    unit2, mutants2 = mutants_of(in_method("i++;"), TRADITIONAL)
    assert "i--" in apply_mutant(unit2, mutants2[0])
    edited = SourceUnit.from_text(unit.path, unit.text.replace("a + b", "a * b"))
    with pytest.raises(errors.SiteMismatch):
        apply_mutant(edited, mutants[0])


def test_a_long_site_keeps_a_bounded_original():
    call = "g(" + ", ".join(f"a{k}" for k in range(60)) + ")"
    name = "p" * 250
    src = ("class T {\n    Object m(String " + name + ") {\n        return " + call
           + ";\n    }\n}\n")
    unit, mutants = mutants_of(src, NULL_TYPE)
    nrv, niv = (next(m for m in mutants if m.operator_id == op) for op in ("NRV", "NIV"))
    for m in (nrv, niv):
        site = unit.text[m.start:m.end]
        assert len(site) > ORIGINAL_MAX
        assert m.original == site[:ORIGINAL_MAX] + "\u2026"
    assert call not in apply_mutant(unit, nrv) and "return null;" in apply_mutant(unit, nrv)
    assert f"{{ {name} = null;" in apply_mutant(unit, niv)
    # the stale-site check reads the same bounded text
    edited = SourceUnit.from_text(unit.path, unit.text.replace("g(a0,", "h(a0,"))
    with pytest.raises(errors.SiteMismatch):
        apply_mutant(edited, nrv)


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
