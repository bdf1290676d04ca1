"""The per-unit chain as one call: ``metrics.analyze_unit``.

Locks the properties the chain must keep whatever its inner structure:
line-layout and identifier-renaming invariance, mutants that rescan, no
crash on arbitrary text or nesting depth, and each derived token structure
built once per unit.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import random
import sys
from collections import Counter

import pytest

from mutdense import cli, errors, source_model
from mutdense.fault_model import OperatorSet, apply_mutant, find_mutation_sites
from mutdense.metrics import (
    UnitReport,
    UnitSummary,
    aggregate_project,
    analyze_source,
    analyze_unit,
    build_unit_report,
)
from mutdense.reporting import DEFAULT_STYLE, emit_json, emit_unit_json, render_heatmap
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


def _rename_identifiers(src: str, rng: random.Random) -> str:
    """``src`` with every identifier mapped through a random bijection onto
    names that do not occur in it."""
    tokens = source_model.tokenize(src)
    names = sorted({t.text for t in tokens if t.kind is source_model.TokenKind.IDENTIFIER})
    fresh = [f"q{k}_{rng.randrange(10**6)}" for k in range(len(names))]
    assert not set(fresh) & set(names)
    rng.shuffle(fresh)
    mapping = dict(zip(names, fresh))
    out, pos = [], 0
    for t in tokens:
        if t.kind is source_model.TokenKind.IDENTIFIER:
            out += [src[pos:t.start], mapping[t.text]]
            pos = t.end
    return "".join(out) + src[pos:]


def _relevant_and_sites(src: str):
    unit = source_model.SourceUnit.from_text("U.java", src)
    spans = source_model.locate_bodies(unit)
    relevant = source_model.relevant_lines(unit, spans).relevant
    sites = Counter((m.operator_id, m.line) for m in find_mutation_sites(unit, spans, ALL_OPS))
    return relevant, sites


@pytest.mark.parametrize("seed", range(40))
def test_renaming_identifiers_changes_nothing(seed):
    rng = random.Random(seed)
    if seed < len(_LAYOUT_SOURCES):
        src = _LAYOUT_SOURCES[seed]
    else:
        src = gen_mixed_unit(rng, seed)[1]
    renamed = _rename_identifiers(src, rng)
    assert renamed != src
    assert _relevant_and_sites(renamed) == _relevant_and_sites(src)


def _squeezed(src: str) -> str:
    """``src`` rendered from its tokens with no space wherever the two
    neighbours are not both word-like, so operators sit side by side."""
    out, prev = [], None
    for t in source_model.tokenize(src):
        if prev is not None:
            gap = src[prev.end:t.start]
            if "\n" in gap:
                out.append("\n")
            elif (prev.text[-1].isalnum() or prev.text[-1] in "_$") and (
                t.text[0].isalnum() or t.text[0] in "_$"
            ):
                out.append(" ")
        out.append(t.text)
        prev = t
    return "".join(out) + "\n"


# statements whose operators touch a neighbour, for apply_mutant's padding
_TOUCHING = ["x = -y;", "x = a+-b;", "x = a+-+b;", "x = a-(-b);", "return-x;",
             "x = a*/*c*/-b;", "x = a/-/b;", "x = p==null;", "x = new S()instanceof S;"]


def _mutant_sources(rng: random.Random):
    yield from _LAYOUT_SOURCES
    for idx in range(30):
        yield gen_mixed_unit(rng, idx)[1]
    for _ in range(200):
        body = " ".join(rng.choice(_FRAGMENTS + _TOUCHING) for _ in range(rng.randint(1, 12)))
        yield "class S { Object m(Object p) { " + body + " } }"


def test_every_mutant_rescans_and_differs_only_at_its_site():
    rng = random.Random(17)
    checked = 0
    for src in _mutant_sources(rng):
        for text in (src, _squeezed(src)):
            try:
                unit = source_model.SourceUnit.from_text("U.java", text)
                mutants = find_mutation_sites(unit, source_model.locate_bodies(unit), ALL_OPS)
            except errors.MutdenseError:
                continue
            for m in mutants:
                out = apply_mutant(unit, m)
                if m.insert_after is None:
                    lo, hi, new = m.start, m.end, m.replacement
                else:
                    lo, hi, new = m.insert_after, m.insert_after, f"{m.original} = null;"
                assert out[:lo] == text[:lo] and out.endswith(text[hi:])
                assert out[lo:len(out) - len(text) + hi].strip() == new
                expected = (
                    [t.text for t in unit.tokens if t.end <= lo]
                    + [t.text for t in source_model.tokenize(new)]
                    + [t.text for t in unit.tokens if t.start >= hi]
                )
                assert [t.text for t in source_model.tokenize(out)] == expected, (text, m)
                checked += 1
    assert checked > 1000


def _nested_classes(depth: int) -> str:
    levels = [f"class A{k} {{\n    int f() {{ return x + 1; }}\n" for k in range(depth)]
    return "".join(levels) + "}\n" * depth


def _nested_anonymous(depth: int) -> str:
    opening = "Object o = new Object() {\nvoid f() {\n" * depth
    closing = "}\n};\n" * depth
    return "class C {\nvoid g() {\n" + opening + "x = x + 1;\n" + closing + "}\n}\n"


def test_nesting_depth_is_not_bounded_by_the_interpreter_stack(tmp_path):
    depth = 2 * sys.getrecursionlimit()
    cases = {
        # one method per class, each on its own line with one AOR-B site
        "Deep.java": (_nested_classes(depth), depth, depth),
        # g plus one f per anonymous class; NOI per 'new', AOR-B innermost
        "Anon.java": (_nested_anonymous(depth), depth + 1, depth + 1),
    }
    for name, (src, spans, mutants) in cases.items():
        unit = source_model.SourceUnit.from_text(name, src)
        assert len(source_model.locate_bodies(unit)) == spans
        assert len(analyze_unit(name, src, ALL_OPS).mutants) == mutants
        (tmp_path / "src").mkdir(exist_ok=True)
        (tmp_path / "src" / name).write_text(src)
    out = tmp_path / "out"
    assert cli.main(["analyze", str(tmp_path / "src"), "--out", str(out)]) == 0
    doc = json.loads((out / "project.json").read_bytes())
    assert doc["diagnostics"] == []
    assert {u["path"]: len(u["mutants"]) for u in doc["units"]} == {
        name: mutants for name, (_, _, mutants) in cases.items()}


class CountingTokens(tuple):
    """A token tuple that counts its indexed reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def _nested_creations(depth: int) -> str:
    return "class C {\nObject f() {\nreturn " + "new A(" * depth + "x" + ")" * depth + ";\n}\n}\n"


def _nested_lambda_returns(depth: int) -> str:
    opening = "return g(() -> {\n" * depth
    return "class C {\nObject f() {\n" + opening + "return x;\n" + "});\n" * depth + "}\n}\n"


@pytest.mark.parametrize("nested", [_nested_creations, _nested_lambda_returns])
def test_nesting_cost_grows_linearly(nested):
    """Token reads of the whole chain double, no more, when the depth of
    nested brackets doubles: each closer is looked up, never walked to."""
    reads = []
    for depth in (300, 600):
        src = nested(depth)
        tokens = CountingTokens(source_model.tokenize(src))
        unit = source_model.SourceUnit("N.java", src, source_model.split_lines(src), tokens)
        # one NOI per 'new', or one NRV per 'return'
        assert len(analyze_source(unit, ALL_OPS).mutants) == depth + 1
        reads.append(tokens.reads)
    assert reads[1] <= 2.2 * reads[0], reads


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


_FOUND = ["path", "physical_line_count", "relevant_lines", "mutants"]


def test_worker_result_holds_only_what_analysis_found(tmp_path):
    source = tmp_path / "Outer.java"
    source.write_text(_NESTED_SRC, encoding="utf-8")
    settings = cli.UnitSettings(ALL_OPS, ("json", "html", "text"), DEFAULT_STYLE, 10)
    result = cli.analyze_path("Outer.java", str(source), settings)
    report = analyze_unit("Outer.java", _NESTED_SRC, ALL_OPS)
    assert [f.name for f in dataclasses.fields(UnitReport)] == _FOUND
    # no derived view was built by analysis
    assert list(vars(report)) == _FOUND
    assert result.error is None and report.mutants
    # the worker sends finished bytes and a summary, never the report
    assert result.json == emit_unit_json(report)
    unit = source_model.SourceUnit.from_text("Outer.java", _NESTED_SRC)
    assert result.html == render_heatmap(unit, report).encode("utf-8")
    assert result.summary == UnitSummary.from_report(report, 10)
    assert pickle.loads(pickle.dumps(result)) == result
    clone = pickle.loads(pickle.dumps(report))
    assert clone == report
    assert emit_json(aggregate_project([clone])) == emit_json(aggregate_project([report]))
    # each derived view is built once, on first read
    assert report.line_densities is report.line_densities
    assert report.avg_density_by_family is report.avg_density_by_family
