"""The per-unit chain as one call: ``metrics.analyze_unit``.

Locks the properties the chain must keep whatever its inner structure:
line-layout and identifier-renaming invariance, mutants that rescan, no
crash on arbitrary text or nesting depth, and each derived token structure
built once per unit.
"""

from __future__ import annotations

import functools
import json
import pickle
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from mutdense import cli, errors, scanner, source_model
from mutdense.fault_model import OperatorSet, apply_mutant, find_mutation_sites
from mutdense.metrics import (
    UnitReport,
    UnitSummary,
    aggregate_project,
    analyze_unit,
    build_unit_report,
)
from mutdense.reporting import DEFAULT_STYLE, emit_unit_json, render_heatmap
from conftest import (
    ALPHA_SRC,
    BETA_SRC,
    FACTORIAL_SRC,
    GAMMA_SRC,
    GENERICS_ZOO_SRC,
    SHAPE_SRC,
    SOUP_ALPHABET,
    corpus_plan,
    gen_mixed_unit,
    project_json,
    seeded_soups,
)
import nests

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


def _fragment_soups():
    rng = random.Random(31)
    for _ in range(300):
        yield " ".join(rng.choice(_FRAGMENTS) for _ in range(rng.randint(1, 40)))


def test_seeded_fragment_soup_analyzes_or_fails_cleanly():
    """Java fragments glued at random reach past the scanner into bodies,
    generics and every operator."""
    analyzed = 0
    for soup in _fragment_soups():
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


# ---------------------------------------------------------------------------
# metamorphic layout: a mutant counts by its tokens, never by its line
# ---------------------------------------------------------------------------

def _relaid(unit: source_model.SourceUnit, gap) -> str:
    """The unit's text with each stretch between tokens, and the ones before
    the first and after the last, replaced by ``gap(stretch)``; the tokens
    stay."""
    src, out, at = unit.text, [], 0
    for t in unit.tokens:
        out += [gap(src[at:t.start]), t.text]
        at = t.end
    out.append(gap(src[at:]))
    return "".join(out)


def _wrapped(unit: source_model.SourceUnit, opening: str = "class LayoutWrap {\n",
             closing: str = "\n}\n") -> str:
    """The unit's text with the types after its package and import
    declarations moved between ``opening`` and ``closing``: by default into
    an outer class."""
    src, tokens = unit.text, unit.tokens
    k = 0
    while k < len(tokens) and tokens[k].text in ("package", "import"):
        while tokens[k].text != ";":
            k += 1
        k += 1
    at = tokens[k].start if k < len(tokens) else len(src)
    return f"{src[:at]}{opening}{src[at:]}{closing}"


_RELAYOUTS = {
    "blank-lines-doubled": lambda unit: _relaid(unit, lambda gap: gap.replace("\n", "\n\n")),
    "token-per-line": lambda unit: _relaid(unit, lambda gap: "\n"),
    "one-line": lambda unit: _relaid(unit, lambda gap: " "),
    "comment-between-tokens": lambda unit: _relaid(unit, lambda gap: " /*c*/ "),
    "crlf": lambda unit: _relaid(unit, lambda gap: gap.replace("\n", "\r\n")),
    "cr": lambda unit: _relaid(unit, lambda gap: gap.replace("\n", "\r")),
    "wrapped": _wrapped,
    # local types: their field initializers and initializer blocks count
    # no more than a top-level type's
    "local-wrapped": lambda unit: _wrapped(unit, "class LayoutWrap { void w() {\n", "\n} }\n"),
}


_RECORD_PATH = "com/example/model/Point0.java"  # a dense unit holding a record


def _seed1_corpus_units() -> dict[str, str]:
    """A seeded sample of the benchmark's seed-1 trees, 20 dense units and
    100 sparse ones, and one record unit, by display path."""
    rng = random.Random(1)
    units = {}
    for name, count in (("dense", 20), ("sparse", 100)):
        plan = corpus_plan(name, 1)
        for path in rng.sample(sorted(plan.units), count):
            units[f"{name}/{path}"] = plan.files[path].decode("utf-8")
        if name == "dense":
            units[f"dense/{_RECORD_PATH}"] = plan.files[_RECORD_PATH].decode("utf-8")
    return units


def _mutant_texts(unit: source_model.SourceUnit) -> Counter:
    """Each mutant as its operator, its site's token texts and its
    replacement, so that an NRV's site spanning lines compares whole; the
    site is read from the unit, since ``original`` keeps only its start."""
    return Counter(
        (m.operator_id, tuple(t.text for t in source_model.tokenize(unit.text[m.start:m.end])),
         m.replacement)
        for m in analyze_unit(unit.path, unit.text, ALL_OPS).mutants
    )


@functools.lru_cache(maxsize=1)
def _layout_inputs() -> dict[str, tuple[source_model.SourceUnit, Counter]]:
    """Each input unit by name, with its mutant texts."""
    sources = {f"layout{k}": src for k, src in enumerate(_LAYOUT_SOURCES)}
    rng = random.Random(5)
    for idx in range(20):
        path, src = gen_mixed_unit(rng, idx)
        sources[path] = src
    sources.update(_seed1_corpus_units())
    units = (source_model.SourceUnit.from_text(name, src) for name, src in sources.items())
    return {unit.path: (unit, _mutant_texts(unit)) for unit in units}


def _relaid_mutant_texts(unit: source_model.SourceUnit, layout: str) -> Counter:
    return _mutant_texts(source_model.SourceUnit.from_text("U.java", _RELAYOUTS[layout](unit)))


def _has_record(unit: source_model.SourceUnit) -> bool:
    return "record" in (t.text for t in unit.tokens)


@pytest.mark.parametrize("layout", sorted(_RELAYOUTS))
def test_relayout_keeps_every_mutant(layout):
    checked = 0
    for name, (unit, texts) in _layout_inputs().items():
        # record bodies are not yet located; wrapped, a record reads as a method
        if layout.endswith("wrapped") and _has_record(unit):
            continue
        assert _relaid_mutant_texts(unit, layout) == texts, name
        checked += 1
    assert checked > 100


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: a record header inside a class body reads as a method")
def test_wrapping_a_record_keeps_every_mutant():
    unit, texts = _layout_inputs()[f"dense/{_RECORD_PATH}"]
    assert _relaid_mutant_texts(unit, "wrapped") == texts


# creations in the arguments of anonymous creations, in a body and in a
# block lambda, one of them anonymous too, and a broken lambda there whose
# braces enclose the class body
_ANONYMOUS_ARGUMENTS = """\
class A {
  void f() {
    Object o = new A(new B(), () -> { new C(); }) { };
    Runnable r = () -> { o = new A(new B(new C()) { void g() { new D(); } }) { }; };
    o = new A(() -> { ) { void g() { new D(); } } };
  }
}
"""

# type headers whose annotation arguments hold a '{', at the top level and
# in a type body, where that '{' and the '(' before it are stops
_ANNOTATED_HEADERS = """\
class X implements @A({1}) Y {
  int f(int a) { return a + 1; }
  class Z<T extends @A({2}) Object> { Object g() { return new B(new C()) { }; } }
}
"""


def _ownership_inputs():
    """The layout units, creations in anonymous creations' arguments, type
    headers with annotation arguments, the nests of lambdas, switch rules
    and anonymous classes, and the soups of characters and of fragments
    that parse."""
    yield from (unit for unit, _ in _layout_inputs().values())
    yield source_model.SourceUnit.from_text("Arguments.java", _ANONYMOUS_ARGUMENTS)
    yield source_model.SourceUnit.from_text("Headers.java", _ANNOTATED_HEADERS)
    for nested in nests.NESTS:
        yield source_model.SourceUnit.from_text("Nest.java", nested(3)[0])
    for soup in (*seeded_soups(SOUP_ALPHABET), *_fragment_soups()):
        try:
            unit = source_model.SourceUnit.from_text("Soup.java", soup)
            unit.pairs  # unbalanced braces fail here
        except errors.MutdenseError:
            continue
        yield unit


def test_each_token_and_return_has_at_most_one_owner():
    """A span's owned intervals ascend inside its braces, no two spans own
    a token, each of its returns is a 'return' token that it owns, ended by
    a ';' that it owns or by none, and each of its creations is a 'new'
    that it owns, closed by a ')' inside its body.  An owned creation that
    no span records is a whole statement, which NOI may not null."""
    with_returns = with_creations = 0
    for unit in _ownership_inputs():
        tokens = unit.tokens
        claimed, created, accepted = [], [], []
        for span in source_model.locate_bodies(unit):
            def owns(idx):
                return any(lo <= idx < hi for lo, hi in span.owned)

            at = span.body_token_range[0] + 1  # past the '{'
            for lo, hi in span.owned:
                assert at <= lo < hi < span.body_token_range[1], (unit.path, span)
                at = hi
            claimed += span.owned
            for idx, end in span.returns:
                assert tokens[idx].text == "return"
                assert owns(idx), (unit.path, span, idx)
                assert end is None or (idx < end and tokens[end].text == ";" and owns(end)), (
                    unit.path, span, idx, end)
            assert span.returns == sorted(span.returns)
            for idx, close in span.creations:
                assert tokens[idx].text == "new" and owns(idx), (unit.path, span, idx)
                assert tokens[close].text == ")", (unit.path, span, idx, close)
                assert idx < close < span.body_token_range[1] - 1, (unit.path, span, idx, close)
            assert span.creations == sorted(span.creations), (unit.path, span)
            created += span.creations
            with_returns += bool(span.returns)
            with_creations += bool(span.creations)
            # each owned 'new' that matches a creation up to the unit's end
            # and closes it inside the body
            for lo, hi in span.owned:
                for idx in range(lo, hi):
                    if tokens[idx].text == "new":
                        site = source_model.match_creation(unit, idx, len(tokens))
                        if site is not None and site[1] < span.body_token_range[1] - 1:
                            accepted.append((idx, site[1]))
        # a statement ends at the ';' after it and starts after a statement's
        # end, 'else', 'do', a header's ')', a label's ':' or a rule's '->'
        statements = sorted(set(accepted) - set(created))
        assert all(tokens[close + 1].text == ";" and tokens[idx - 1].text in (
            ";", "{", "}", "else", "do", ")", ":", "->") for idx, close in statements), (
            unit.path, statements)
        assert sorted(created) == sorted(c for c in accepted if c not in statements), unit.path
        claimed.sort()
        assert all(a[1] <= b[0] for a, b in zip(claimed, claimed[1:])), unit.path
    assert with_returns > 100
    assert with_creations > 100


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


class CountingColumn(list):
    """A token column that counts its indexed reads and the walks over it
    on the tokens it belongs to."""

    def __init__(self, items, counts):
        super().__init__(items)
        self.counts = counts

    def __getitem__(self, key):
        self.counts.reads += 1
        return super().__getitem__(key)

    def __iter__(self):
        self.counts.walks += 1
        return super().__iter__()


class CountingTokens(scanner.Tokens):
    """The tokens of ``src``, whose texts and kinds, the columns that the
    layers index, count their indexed reads and the walks over them."""

    __slots__ = ("reads", "walks")

    def __init__(self, src):
        tokens = scanner.scan(src)
        super().__init__(CountingColumn(tokens.texts, self), CountingColumn(tokens.kinds, self),
                         tokens.starts, tokens.lines, tokens.line_starts)
        self.reads = self.walks = 0


@pytest.mark.parametrize("nested", nests.NESTS)
def test_nesting_cost_grows_linearly(nested):
    """Each nest gives the mutants per operator that its generator counts,
    and token reads of the whole chain, and the text the mutants store,
    double, no more, when the depth of nested brackets doubles: each closer
    is looked up, never walked to, and a mutant keeps a bounded ``original``
    however much of the nest its site holds."""
    reads, stored = [], []
    for depth in (300, 600):
        src, expected = nested(depth)
        tokens = CountingTokens(src)
        unit = source_model.SourceUnit("N.java", src, tokens)
        spans = source_model.locate_bodies(unit)
        mutants = build_unit_report(unit, source_model.relevant_lines(unit, spans),
                                    find_mutation_sites(unit, spans, ALL_OPS)).mutants
        assert Counter(m.operator_id for m in mutants) == expected
        reads.append(tokens.reads)
        stored.append(sum(len(m.original) for m in mutants))
    assert reads[1] <= 2.2 * reads[0], reads
    assert stored[1] <= 2.2 * stored[0], stored


def _statements(count: int) -> str:
    return "class C {\nint f(int a) {\n" + "a = a + 1;\nb.g(a, c[a]);\n" * count + "return a;\n}\n}\n"


def _locate_reads(src: str) -> int:
    """The token reads of ``locate_bodies`` on ``src``, which has one body,
    with the unit's tables built before the count starts."""
    tokens = CountingTokens(src)
    unit = source_model.SourceUnit("N.java", src, tokens)
    unit.pairs, unit.angles, unit.positions
    tokens.reads = 0
    assert len(source_model.locate_bodies(unit)) == 1
    return tokens.reads


def test_block_frames_read_no_token_without_a_body_opener():
    """Inside a body, locate_bodies reads only its stops: 'new', type
    keywords, 'return', and the '->', 'case' and 'default' that tell a
    block lambda from a switch rule."""
    reads = [_locate_reads(_statements(count)) for count in (200, 400)]
    assert reads[1] - reads[0] <= 2, reads


def _lambda_returns(count: int) -> str:
    return ("class C {\nint f(int a) {\nreturn g(() -> {\n" + "return a + 1;\n" * count
            + "});\n}\n}\n")


def test_block_lambda_frames_read_no_return():
    """A block lambda's frame does not stop at 'return': its returns leave
    the lambda, and its callable owns none of them."""
    reads = [_locate_reads(_lambda_returns(count)) for count in (200, 400)]
    assert reads[1] - reads[0] <= 2, reads


def _fields(count: int) -> str:
    return ("class C {\n" + "private int a = 1 * 2;\nString s, t;\nList<String> l;\n" * count
            + "int f() {\nreturn a;\n}\n}\n")


def test_type_bodies_read_no_token_without_a_stop():
    """In a type body, locate_bodies reads only its stops, 'new', type
    keywords, '{' and '(', and the tokens their tests look at."""
    reads = [_locate_reads(_fields(count)) for count in (200, 400)]
    assert reads[1] - reads[0] <= 2, reads


def test_bracket_and_angle_tables_read_only_brackets_and_angle_runs():
    """Building ``pairs`` and ``angles`` walks no token list: it reads the
    tokens of each '<' run, and no more when a body's bracket-free
    statements double."""
    reads = []
    for count in (200, 400):
        src = ("class C {\nint f(List<int[]> a) {\n" + "a = a + 1;\n" * count
               + "return a < b ? g(a) : c[a];\n}\n}\n")
        tokens = CountingTokens(src)
        unit = source_model.SourceUnit("N.java", src, tokens)
        unit.positions  # the one walk, before the count starts
        tokens.reads = tokens.walks = 0
        assert len(unit.pairs) == 6 and len(unit.angles.indices) == 2
        assert tokens.walks == 0
        reads.append(tokens.reads)
    assert reads[0] == reads[1] <= 20, reads


def test_a_longer_import_block_adds_no_token():
    imports = "package p.q;\n// imports\nimport java.util.List;\nimport static java.lang.Math.*;\n"
    units = [source_model.SourceUnit.from_text("A.java", imports * k + ALPHA_SRC) for k in (1, 2)]
    assert len(units[0].tokens) == len(units[1].tokens) == len(source_model.tokenize(ALPHA_SRC))


def test_braces_and_angles_are_built_once_per_unit(monkeypatch):
    calls = {"match_braces": 0, "mark_generic_angles": 0, "text_positions": 0}
    for name in calls:
        original = getattr(source_model, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(source_model, name, counted)
    report = analyze_unit("Outer.java", _NESTED_SRC, ALL_OPS)
    assert {m.operator_id for m in report.mutants} >= {"NOI", "NRV", "ROR", "SOR"}
    assert calls == {"match_braces": 1, "mark_generic_angles": 1, "text_positions": 1}


def test_analyze_unit_matches_the_layered_calls():
    unit = source_model.SourceUnit.from_text("Outer.java", _NESTED_SRC)
    spans = source_model.locate_bodies(unit)
    relevant = source_model.relevant_lines(unit, spans)
    layered = build_unit_report(unit, relevant, find_mutation_sites(unit, spans, ALL_OPS))
    assert analyze_unit("Outer.java", _NESTED_SRC, ALL_OPS) == layered


_README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_snippets_run():
    """Each fenced python block of the README runs against the code."""
    blocks = re.findall(r"^```python\n(.*?)^```", _README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"source_text": FACTORIAL_SRC})


def test_public_names_resolve():
    """Every name in ``mutdense.__all__`` is bound in the package, and a
    star import binds exactly those names."""
    import mutdense

    assert len(set(mutdense.__all__)) == len(mutdense.__all__)
    for name in mutdense.__all__:
        assert hasattr(mutdense, name), name
    namespace: dict = {}
    exec("from mutdense import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(mutdense.__all__)


_FOUND = ["path", "physical_line_count", "relevant_lines", "mutants"]


def test_worker_result_holds_only_what_analysis_found(tmp_path):
    source = tmp_path / "Outer.java"
    source.write_text(_NESTED_SRC, encoding="utf-8")
    config = cli.Config(("Outer.java",), operator_set=ALL_OPS, output_dir=str(tmp_path),
                        formats=("json", "html", "text"), top_lines=10, style=DEFAULT_STYLE)
    result = cli.analyze_path("Outer.java", str(source), config, "Outer.java.html")
    report = analyze_unit("Outer.java", _NESTED_SRC, ALL_OPS)
    assert list(UnitReport._fields) == _FOUND
    # no derived view was built by analysis
    assert vars(report) == {}
    assert type(result) is UnitSummary and report.mutants
    # the worker writes the page itself and sends a summary with the
    # finished JSON entry, never the report or the page
    page = (tmp_path / "Outer.java.html").read_bytes()
    assert page == render_heatmap(report, _NESTED_SRC).encode("utf-8")
    assert result == UnitSummary.from_report(report, 10, emit_unit_json(report))
    assert pickle.loads(pickle.dumps(result)) == result
    clone = pickle.loads(pickle.dumps(report))
    assert clone == report
    assert project_json(aggregate_project([clone])) == project_json(aggregate_project([report]))
    # each derived view is built once, on first read
    assert report.line_counts is report.line_counts
    assert report.avg_density_by_family is report.avg_density_by_family
