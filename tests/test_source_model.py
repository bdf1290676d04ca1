"""Body spans, generic-bracket classification, line relevance."""

from __future__ import annotations

import random

import pytest

from mutdense import errors
from mutdense.fault_model import OperatorSet, find_mutation_sites
from mutdense.metrics import analyze_unit
from mutdense.scanner import scan, split_lines
from mutdense.source_model import (
    SpanKind,
    locate_bodies,
    mark_generic_angles,
    match_braces,
    relevant_lines,
    text_positions,
)
from conftest import (
    FACTORIAL_SRC,
    GENERICS_ZOO_SRC,
    INTERFACE_SRC,
    SOUP_ALPHABET,
    gen_mixed_unit,
    make_unit,
    seeded_soups,
)


def spans_of(src):
    return locate_bodies(make_unit(src))


def nullable_names(src):
    """Per span, the names of the parameters it marks as nullable."""
    unit = make_unit(src)
    return [[unit.tokens[k].text for k in s.nullable_params] for s in locate_bodies(unit)]


def test_single_method():
    spans = spans_of("class A { int f(int x) { return x; } }")
    assert len(spans) == 1
    span = spans[0]
    assert span.kind is SpanKind.METHOD
    assert span.name == "f"
    assert span.returns_reference is False
    assert span.nullable_params == ()


def test_field_initializer_is_not_a_body():
    assert spans_of("class A { int x = 1; }") == []


def test_constructor_and_method():
    spans = spans_of("class A { A() { } void g() { } }")
    assert [(s.kind, s.name) for s in spans] == [
        (SpanKind.CONSTRUCTOR, "A"),
        (SpanKind.METHOD, "g"),
    ]
    assert spans[0].returns_reference is False
    assert spans[1].returns_reference is False


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


def test_a_method_in_an_anonymous_creations_arguments_is_a_span():
    src = """\
class T {
    Object f(Object x) {
        o = new A(new B() { Object g(String s) { return s + 1; } }) { Object h() { return x; } };
    }
}
"""
    unit = make_unit(src)
    spans = locate_bodies(unit)
    assert [s.name for s in spans] == ["f", "g", "h"]
    f, g, _ = spans
    g_open, g_end = g.body_token_range
    assert all(hi <= g_open or lo >= g_end for lo, hi in f.owned)
    assert sorted((m.operator_id, m.original) for m in find_mutation_sites(
        unit, [g], OperatorSet.default())) == [("AOR-B", "+"), ("NIV", "s"), ("NRV", "return s + 1;")]


@pytest.mark.parametrize(
    "header", ["class X implements @A({1}) Y", "class X<T extends @A({1}) Object>"])
def test_a_type_headers_annotation_arguments_are_skipped(header):
    # the type's '{' is the first outside the header's groups
    src = header + " { int f(int a) { return a + 1; } }"
    assert [s.name for s in spans_of(src)] == ["f"]
    report = analyze_unit("X.java", src, OperatorSet.default())
    assert [m.operator_id for m in report.mutants] == ["AOR-B"]


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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: an enum constant with arguments and a body "
                          "reads as a method named after the constant")
def test_enum_constant_body_holds_its_methods():
    src = """\
enum E {
    A(1) {
        String f(String s) {
            return s + 1;
        }
    };
    E(int x) {
    }
}
"""
    unit = make_unit(src, "E.java")
    spans = locate_bodies(unit)
    assert [(s.kind, s.name) for s in spans] == [
        (SpanKind.METHOD, "f"),
        (SpanKind.CONSTRUCTOR, "E"),
    ]
    assert spans[0].returns_reference
    assert [unit.tokens[k].text for k in spans[0].nullable_params] == ["s"]
    report = analyze_unit("E.java", src, OperatorSet.default())
    assert sorted(m.operator_id for m in report.mutants) == ["AOR-B", "NIV", "NRV"]
    assert 2 not in report.relevant_lines  # the constant's own line


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
    assert spans[0].returns_reference is True


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
    assert spans[0].returns_reference is True
    assert spans[0].nullable_params == ()


@pytest.mark.parametrize(
    "throws", ["@A IOException", "java.io.@A IOException", "@a.b.A(v = {1}) E, @B F"]
)
def test_type_annotations_in_a_throws_clause(throws):
    def sites(throws):
        src = f"class A {{\n    void f(int a) throws {throws} {{\n        a = a + 1;\n    }}\n}}\n"
        report = analyze_unit("A.java", src, OperatorSet.default())
        return spans_of(src), [(m.operator_id, m.line, m.column) for m in report.mutants]

    spans, mutants = sites(throws)
    assert [(s.kind, s.name, s.decl_line) for s in spans] == [(SpanKind.METHOD, "f", 2)]
    assert mutants and mutants == sites("E")[1]


def test_generic_method_drops_type_parameter_group():
    src = "class A { <T> T pick(java.util.List<T> xs) { return null; } }"
    assert spans_of(src)[0].returns_reference is True
    assert nullable_names(src) == [["xs"]]
    # the dropped group leaves a lone primitive
    assert spans_of("class A { <T> int f() { return 0; } }")[0].returns_reference is False


def test_array_return_and_modifier_stripping():
    src = "class A { int[] f(final String s, @NotNull int k, String... parts) { return null; } }"
    assert spans_of(src)[0].returns_reference is True
    assert nullable_names(src) == [["parts"]]


@pytest.mark.parametrize("header", ["int f(int a)[]", "String f()[][] throws E"])
def test_legacy_array_return_form_has_a_span(header):
    src = f"class A {{\n    {header} {{\n        return null;\n    }}\n}}\n"
    spans = spans_of(src)
    assert [(s.kind, s.name, s.decl_line) for s in spans] == [(SpanKind.METHOD, "f", 2)]
    assert spans[0].returns_reference is True


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


def test_a_header_left_open_is_no_callable():
    # 'f(' has no ')' in the class body, so f is no callable; g after it is
    src = "class A { void f( int x; int g(int a) { return a + 1; } }"
    assert [s.name for s in spans_of(src)] == ["g"]
    assert [m.operator_id for m in analyze_unit("A.java", src, OperatorSet.default()).mutants] == [
        "AOR-B"]


# ---------------------------------------------------------------------------
# generic angle brackets
# ---------------------------------------------------------------------------


def angle_texts(src):
    toks = scan(src)
    marked = mark_generic_angles(toks, text_positions(toks)).indices
    return [toks[i].text for i in sorted(marked)]


def test_nested_generics_all_marked():
    assert angle_texts("Map<String, List<Integer>> m;") == ["<", "<", ">>"]
    assert angle_texts("List<List<List<String>>> x;") == ["<", "<", "<", ">>>"]
    assert angle_texts("Set<? extends Number> s;") == ["<", ">"]
    assert angle_texts("Map<Key.Part, Value[]> m;") == ["<", ">"]
    assert angle_texts("Box<T extends A & B> b;") == ["<", ">"]
    assert angle_texts("Set<?> s;") == ["<", ">"]
    # primitive array types and type-use annotations as type arguments
    assert angle_texts("List<int[]> a;") == ["<", ">"]
    assert angle_texts("Map<String, byte[][]> m;") == ["<", ">"]
    assert angle_texts("Function<int[], Integer> g;") == ["<", ">"]
    assert angle_texts("x = (List<int[]>) o;") == ["<", ">"]
    assert angle_texts("x = (IntFunction<int[]>) int[]::new;") == ["<", ">"]
    assert angle_texts("List<@NonNull String> a;") == ["<", ">"]
    assert angle_texts("x = new java.util.ArrayList<int[]>();") == ["<", ">"]
    # only the second '<' closes: the first one's walk ends with its run
    assert angle_texts("a < b < c > d") == ["<", ">"]


def test_relational_angles_stay_unmarked():
    assert angle_texts("a < b") == []
    assert angle_texts("if (a < b && c > d) e();") == []
    assert angle_texts("x = a < b ? c : d;") == []
    assert angle_texts("while (i < n) i++;") == []
    assert angle_texts("a << 2 >> 1") == []
    assert angle_texts("b = i < a.length; c = x > 0;") == []
    assert angle_texts("b = x < y[0] && z > 1;") == []
    assert angle_texts("q = new int[a < b ? 1 : 2]; r = c > d;") == []
    # '>>' overshoots the first '<'; only the last pair is generic
    assert angle_texts("a < b >> c < d > e") == ["<", ">"]


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


_CLOSER_OF = {"(": ")", "[": "]", "{": "}"}


def walked_pairs(texts):
    """Each opener's closer, found by a forward walk that counts only its
    own kind; an opener the walk cannot close is absent."""
    pairs = {}
    for i, opener in enumerate(texts):
        if opener not in _CLOSER_OF:
            continue
        depth = 0
        for j in range(i, len(texts)):
            depth += (texts[j] == opener) - (texts[j] == _CLOSER_OF[opener])
            if depth == 0:
                pairs[i] = j
                break
    return pairs


def brace_error(texts, pairs):
    """Message and token index of the first fault in the curly braces: a
    '}' that closes nothing, else the last '{' left open."""
    depth = 0
    for i, tx in enumerate(texts):
        depth += (tx == "{") - (tx == "}")
        if depth < 0:
            return "unmatched '}'", i
    unclosed = [i for i, tx in enumerate(texts) if tx == "{" and i not in pairs]
    return ("unclosed '{'", unclosed[-1]) if unclosed else None


def test_pair_table_matches_a_walk_per_kind():
    rng = random.Random(7)
    sources = [*seeded_soups(SOUP_ALPHABET), *seeded_soups(SOUP_ALPHABET + "\r")]
    sources += [gen_mixed_unit(rng, idx)[1] for idx in range(100)]
    seen = {"table": 0, "unmatched": 0, "unmatched '}'": 0, "unclosed '{'": 0}
    for src in sources:
        try:
            tokens = scan(src)
        except errors.MutdenseError:
            continue
        texts = [t.text for t in tokens]
        walked = walked_pairs(texts)
        expected_error = brace_error(texts, walked)
        if expected_error is not None:
            with pytest.raises(errors.UnbalancedBraces) as exc_info:
                match_braces(tokens, text_positions(tokens))
            message, at = expected_error
            line, column = tokens[at].line, tokens[at].column
            assert str(exc_info.value) == f"{message} at line {line}, column {column}"
            assert (exc_info.value.line, exc_info.value.column) == (line, column)
            seen[message] += 1
            continue
        # every '(', '[' and '{' maps to the walk's closer, and exactly the
        # unmatched '(' and '[' are absent
        assert match_braces(tokens, text_positions(tokens)) == walked, src
        seen["table"] += 1
        seen["unmatched"] += any(tx in "([" and i not in walked for i, tx in enumerate(texts))
    assert min(seen.values()) >= 20, seen


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


@pytest.mark.parametrize(
    "src, expected",
    [
        # '"""' only in a line comment: no text block, the comment line is blank
        ('class A {\n    int f() {\n        // a """ here\n        int x = 1;\n\n'
         '        return x;\n    }\n}\n', [2, 4, 6, 7]),
        # only in a block comment over two lines
        ('class A {\n    int f() {\n        /* opens """\n           closes """ */\n'
         '        return 1;\n    }\n}\n', [2, 5, 6]),
        # only in a character literal, which the scanner reads up to its quote
        ("class A {\n    char f() {\n        char q = '\"\"\"';\n\n"
         "        return q;\n    }\n}\n", [2, 3, 5, 6]),
        # a text block whose lines 4 and 5 start no token
        ('class A {\n    String f() {\n        return """\n            a\n'
         '            b\n            """;\n    }\n}\n', [2, 3, 4, 5, 6, 7]),
    ],
    ids=["line-comment", "block-comment", "char-literal", "text-block"],
)
def test_relevant_lines_where_triple_quotes_appear(src, expected):
    unit = make_unit(src)
    assert '"""' in unit.text
    assert sorted(relevant_lines(unit, locate_bodies(unit)).relevant) == expected


def test_factorial_relevance_covers_both_methods():
    unit = make_unit(FACTORIAL_SRC)
    spans = locate_bodies(unit)
    assert sorted(relevant_lines(unit, spans).relevant) == list(range(3, 13))


def test_every_relevant_line_is_nonblank():
    for src in (FACTORIAL_SRC, GENERICS_ZOO_SRC, INTERFACE_SRC):
        unit = make_unit(src)
        rel = relevant_lines(unit, locate_bodies(unit))
        for ln in rel.relevant:
            assert split_lines(unit.text)[ln - 1].strip()


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
    assert relevant_lines(unit, spans).relevant == frozenset(range(2, 7))


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
