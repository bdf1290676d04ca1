"""The per-unit chain as one call: ``metrics.analyze_unit``.

Locks the properties the chain must keep whatever its inner structure:
line-layout invariance, no crash on arbitrary text, and each derived token
structure built once per unit.
"""

from __future__ import annotations

import random

import pytest

from mutdense import errors, source_model
from mutdense.fault_model import OperatorSet, find_mutation_sites
from mutdense.metrics import UnitReport, analyze_unit, build_unit_report
from conftest import (
    ALPHA_SRC,
    BETA_SRC,
    FACTORIAL_SRC,
    GAMMA_SRC,
    GENERICS_ZOO_SRC,
    SHAPE_SRC,
    SOUP_ALPHABET,
    gen_mixed_unit,
    seeded_soups,
)

ALL_OPS = OperatorSet.default()

_NESTED_SRC = """\
class Outer<T extends Comparable<T>> {
    private final Map<String, List<T>> index = new HashMap<String, List<T>>();
    String name(List<T> xs, int n) {
        Runnable r = new Runnable() {
            public void run() {
                if (n << 2 > 3 && xs != null) {
                    return;
                }
            }
        };
        return xs.get(n - 1).toString();
    }
    Outer(T seed) {
        index.put("k", new ArrayList<T>());
    }
}
"""

# no text blocks or block comments, so a line may go between any two lines
_LAYOUT_SOURCES = [FACTORIAL_SRC, ALPHA_SRC, BETA_SRC, GAMMA_SRC, SHAPE_SRC,
                   GENERICS_ZOO_SRC, _NESTED_SRC]
_FILLER_LINES = ["", "   ", "\t", "// a note", "    /* aside */", "  // x + y == null"]


def _sites(report: UnitReport, shift=lambda line: line):
    return sorted(
        (shift(m.line), m.column, m.operator_id, m.original, m.replacement)
        for m in report.mutants
    )


@pytest.mark.parametrize("seed", range(40))
def test_blank_and_comment_lines_only_shift_mutants(seed):
    rng = random.Random(seed)
    if seed < len(_LAYOUT_SOURCES):
        src = _LAYOUT_SOURCES[seed]
    else:
        path, src = gen_mixed_unit(rng, seed)
        while path.startswith("Iface"):  # no bodies, nothing to shift
            path, src = gen_mixed_unit(rng, seed)
    lines = src.splitlines()
    inserted_before = [0] * (len(lines) + 2)  # original line -> lines added above it
    out: list[str] = []
    added = 0
    for number, line in enumerate(lines, start=1):
        for _ in range(rng.choice((0, 0, 1, 2))):
            out.append(rng.choice(_FILLER_LINES))
            added += 1
        inserted_before[number] = added
        out.append(line)
    out.append(rng.choice(_FILLER_LINES))
    before = analyze_unit("U.java", src, ALL_OPS)
    after = analyze_unit("U.java", "\n".join(out) + "\n", ALL_OPS)
    assert before.mutants
    assert _sites(after) == _sites(before, lambda line: line + inserted_before[line])
    assert after.relevant_line_count == before.relevant_line_count
    assert after.physical_line_count == before.physical_line_count + added + 1


@pytest.mark.parametrize("alphabet", [SOUP_ALPHABET, SOUP_ALPHABET + "\r"])
def test_seeded_soup_analyzes_or_fails_cleanly(alphabet):
    analyzed = 0
    for soup in seeded_soups(alphabet):
        try:
            report = analyze_unit("Soup.java", soup, ALL_OPS)
        except errors.MutdenseError:
            continue
        analyzed += 1
        assert report.physical_line_count >= report.relevant_line_count
    assert analyzed > 0


_FRAGMENTS = [
    "class A {", "}", "{", "int f(int a) {", "String g(List<String> x) {",
    "return x;", "return null;", "return new Foo<Bar>(a, b) {", "new Baz(1);",
    "new X.Y<Z>(q)", "a < b", "a << 2 >> 3 >>> 4", "if (a == null)", "(", ")",
    ";", ",", "enum E { A { int f() { return 1; } }, B }", "Foo() {",
    "T<U> h(T<U> t) {", '"""\n text\n """', "\n", "// c\n", "/* b \n */",
    "a += 1;", "i++;", "-x", "p & q | r ^ s", " ", "return a ? b : c;",
]


def test_seeded_fragment_soup_analyzes_or_fails_cleanly():
    """Java fragments glued at random reach past the scanner into bodies,
    generics and every operator."""
    rng = random.Random(31)
    analyzed = 0
    for _ in range(300):
        soup = " ".join(rng.choice(_FRAGMENTS) for _ in range(rng.randint(1, 40)))
        try:
            analyze_unit("Soup.java", soup, ALL_OPS)
        except errors.MutdenseError:
            continue
        analyzed += 1
    assert analyzed >= 20


def test_braces_and_angles_are_built_once_per_unit(monkeypatch):
    calls = {"match_braces": 0, "mark_generic_angles": 0}
    for name in calls:
        original = getattr(source_model, name)

        def counted(tokens, _original=original, _name=name):
            calls[_name] += 1
            return _original(tokens)

        monkeypatch.setattr(source_model, name, counted)
    report = analyze_unit("Outer.java", _NESTED_SRC, ALL_OPS)
    assert {m.operator_id for m in report.mutants} >= {"NOI", "NRV", "ROR", "SOR"}
    assert calls == {"match_braces": 1, "mark_generic_angles": 1}


def test_analyze_unit_matches_the_layered_calls():
    unit = source_model.SourceUnit.from_text("Outer.java", _NESTED_SRC)
    spans = source_model.locate_bodies(unit)
    relevant = source_model.relevant_lines(unit, spans)
    layered = build_unit_report(unit, relevant, find_mutation_sites(unit, spans, ALL_OPS))
    assert analyze_unit("Outer.java", _NESTED_SRC, ALL_OPS) == layered
