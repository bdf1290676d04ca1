"""Body spans, generic-bracket classification, line relevance."""

from __future__ import annotations

import pytest

from mutdense import errors
from mutdense.source_model import (
    SpanKind,
    locate_bodies,
    mark_generic_angles,
    relevant_lines,
    span_region_lines,
    split_lines,
    tokenize,
)
from conftest import (
    FACTORIAL_SRC,
    GENERICS_ZOO_SRC,
    INTERFACE_SRC,
    make_unit,
)


def spans_of(src):
    return locate_bodies(make_unit(src))


def test_single_method():
    spans = spans_of("class A { int f(int x) { return x; } }")
    assert len(spans) == 1
    span = spans[0]
    assert span.kind is SpanKind.METHOD
    assert span.name == "f"
    assert span.return_type_text == "int"
    assert span.param_types == (("x", "int"),)


def test_field_initializer_is_not_a_body():
    assert spans_of("class A { int x = 1; }") == []


def test_constructor_and_method():
    spans = spans_of("class A { A() { } void g() { } }")
    assert [(s.kind, s.name) for s in spans] == [
        (SpanKind.CONSTRUCTOR, "A"),
        (SpanKind.METHOD, "g"),
    ]
    assert spans[0].return_type_text is None
    assert spans[1].return_type_text == "void"


def test_nested_local_and_anonymous_bodies():
    src = """\
class Outer {
    class Inner {
        int f() {
            return 1;
        }
    }
    void top() {
        Runnable r = new Runnable() {
            public void run() {
                int x = 0;
            }
        };
        class Local {
            void deep() { }
        }
    }
}
"""
    spans = spans_of(src)
    assert [(s.kind, s.name) for s in spans] == [
        (SpanKind.METHOD, "f"),
        (SpanKind.METHOD, "top"),
        (SpanKind.METHOD, "run"),
        (SpanKind.METHOD, "deep"),
    ]


def test_interface_bodiless_methods_yield_nothing():
    assert spans_of(INTERFACE_SRC) == []


def test_interface_default_method_has_a_span():
    src = """\
interface I {
    int size();
    default int twice() {
        return 2 * size();
    }
}
"""
    spans = spans_of(src)
    assert [s.name for s in spans] == ["twice"]
    assert spans[0].decl_line == 3


def test_enum_constructor_and_method():
    src = """\
enum Color {
    RED, GREEN;
    Color() {
    }
    int code() {
        return 7;
    }
}
"""
    spans = spans_of(src)
    assert [(s.kind, s.name) for s in spans] == [
        (SpanKind.CONSTRUCTOR, "Color"),
        (SpanKind.METHOD, "code"),
    ]


def test_control_keywords_do_not_open_spans():
    src = """\
class A {
    void f(int n) {
        if (n > 0) {
            n = 0;
        }
        while (n < 5) {
            n++;
        }
        for (int i = 0; i < n; i++) {
            n += i;
        }
        switch (n) {
            default: break;
        }
        synchronized (this) {
            n--;
        }
    }
}
"""
    assert [s.name for s in spans_of(src)] == ["f"]


def test_class_literal_does_not_start_type_scan():
    src = """\
class A {
    Class<?> g() {
        return String.class;
    }
}
"""
    spans = spans_of(src)
    assert [s.name for s in spans] == ["g"]
    assert spans[0].return_type_text == "Class<?>"


def test_throws_clause_and_qualified_generic_return():
    src = """\
class A {
    java.util.List<String> g(int n) throws java.io.IOException, IllegalStateException {
        return null;
    }
}
"""
    spans = spans_of(src)
    assert len(spans) == 1
    assert spans[0].return_type_text == "java.util.List<String>"
    assert spans[0].param_types == (("n", "int"),)


def test_generic_method_drops_type_parameter_group():
    spans = spans_of("class A { <T> T pick(java.util.List<T> xs) { return null; } }")
    assert spans[0].return_type_text == "T"
    assert spans[0].param_types == (("xs", "java.util.List<T>"),)


def test_array_return_and_modifier_stripping():
    src = "class A { int[] f(final String s, @NotNull int k, String... parts) { return null; } }"
    spans = spans_of(src)
    assert spans[0].return_type_text == "int[]"
    assert spans[0].param_types == (
        ("s", "String"),
        ("k", "int"),
        ("parts", "String..."),
    )


def test_annotation_call_before_method_is_skipped():
    src = """\
class A {
    @Deprecated(since = "9")
    void f() {
    }
}
"""
    spans = spans_of(src)
    assert [s.name for s in spans] == ["f"]
    assert spans[0].decl_line == 3


# ---------------------------------------------------------------------------
# generic angle brackets
# ---------------------------------------------------------------------------


def angle_texts(src):
    toks = tokenize(src)
    marked = mark_generic_angles(toks).indices
    return [toks[i].text for i in sorted(marked)]


def test_nested_generics_all_marked():
    assert angle_texts("Map<String, List<Integer>> m;") == ["<", "<", ">>"]
    assert angle_texts("List<List<List<String>>> x;") == ["<", "<", "<", ">>>"]
    assert angle_texts("Set<? extends Number> s;") == ["<", ">"]
    assert angle_texts("Map<Key.Part, Value[]> m;") == ["<", ">"]
    assert angle_texts("Box<T extends A & B> b;") == ["<", ">"]
    assert angle_texts("Set<?> s;") == ["<", ">"]


def test_relational_angles_stay_unmarked():
    assert angle_texts("a < b") == []
    assert angle_texts("if (a < b && c > d) e();") == []
    assert angle_texts("x = a < b ? c : d;") == []
    assert angle_texts("while (i < n) i++;") == []
    assert angle_texts("a << 2 >> 1") == []


def test_call_argument_ambiguity_resolves_to_generic():
    # f(a < b, c > d) is the classic ambiguity; the purely syntactic rule
    # deliberately reads it as a generic group
    assert angle_texts("f(a < b, c > d);") == ["<", ">"]


def test_mixed_statement_boundaries_block_matching():
    assert angle_texts("x = a < b; y = c > d;") == []


# ---------------------------------------------------------------------------
# braces and relevance
# ---------------------------------------------------------------------------


def test_unbalanced_braces_reported():
    with pytest.raises(errors.UnbalancedBraces):
        locate_bodies(make_unit("class A { void f() { }"))
    with pytest.raises(errors.UnbalancedBraces) as exc_info:
        locate_bodies(make_unit("}}"))
    assert (exc_info.value.line, exc_info.value.column) == (1, 1)


def test_blank_line_inside_method_is_not_relevant():
    src = "class A {\n    int f() {\n\n    }\n}\n"
    unit = make_unit(src)
    spans = locate_bodies(unit)
    assert sorted(relevant_lines(unit, spans).relevant) == [2, 4]


def test_five_line_unit_relevance():
    src = "class A {\nint f() {\nreturn 1;\n}\n}\n"
    unit = make_unit(src)
    assert sorted(relevant_lines(unit, locate_bodies(unit)).relevant) == [2, 3, 4]


def test_no_methods_means_no_relevant_lines():
    unit = make_unit(INTERFACE_SRC)
    assert relevant_lines(unit, locate_bodies(unit)).relevant == frozenset()


def test_comment_only_line_is_not_relevant():
    src = """\
class A {
    int f() {
        // only a comment
        return 1;
    }
}
"""
    unit = make_unit(src)
    assert sorted(relevant_lines(unit, locate_bodies(unit)).relevant) == [2, 4, 5]


def test_text_block_interior_lines_are_relevant_unless_blank():
    # line 5 is a blank line inside the text block; line 7 holds only
    # U+00A0, a token of its own that strip() still calls blank
    src = (
        'class A {\n    String f() {\n        String s = """\n            one\n'
        '\n            two""";\n\u00a0\n        return s;\n    }\n}\n'
    )
    unit = make_unit(src)
    assert [t.line for t in unit.tokens if t.text == "\u00a0"] == [7]
    assert sorted(relevant_lines(unit, locate_bodies(unit)).relevant) == [2, 3, 4, 6, 8, 9]


def test_factorial_relevance_covers_both_methods():
    unit = make_unit(FACTORIAL_SRC)
    spans = locate_bodies(unit)
    assert sorted(relevant_lines(unit, spans).relevant) == list(range(3, 13))


def test_every_relevant_line_is_nonblank():
    for src in (FACTORIAL_SRC, GENERICS_ZOO_SRC, INTERFACE_SRC):
        unit = make_unit(src)
        rel = relevant_lines(unit, locate_bodies(unit))
        for ln in rel.relevant:
            assert unit.lines[ln - 1].strip()


def test_span_invariants_and_nesting():
    for src in (FACTORIAL_SRC, GENERICS_ZOO_SRC):
        unit = make_unit(src)
        spans = locate_bodies(unit)
        for s in spans:
            lo, hi = s.body_token_range
            assert unit.tokens[lo].text == "{"
            assert unit.tokens[hi - 1].text == "}"
            assert s.decl_line <= unit.tokens[lo].line
        for a in spans:
            for b in spans:
                if a is b:
                    continue
                (alo, ahi), (blo, bhi) = a.body_token_range, b.body_token_range
                disjoint = ahi <= blo or bhi <= alo
                nested = (alo < blo and bhi <= ahi) or (blo < alo and ahi <= bhi)
                assert disjoint or nested


def test_span_region_includes_decl_line():
    src = """\
class A {
    int f(
        int x
    ) {
        return x;
    }
}
"""
    unit = make_unit(src)
    spans = locate_bodies(unit)
    assert spans[0].decl_line == 2
    assert span_region_lines(unit, spans) == set(range(2, 7))


@pytest.mark.parametrize(
    "text,expected",
    [
        ("", ()),
        ("a", ("a",)),
        ("a\n", ("a",)),
        ("a\n\n", ("a", "")),
        ("a\nb", ("a", "b")),
    ],
)
def test_split_lines(text, expected):
    assert split_lines(text) == expected
