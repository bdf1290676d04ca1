"""Acceptance suite: eight end-to-end checks that gate a release.

Each test guards one numbered requirement and records a
``criterion N: PASS/FAIL`` line that the terminal summary echoes after
the run, so a red suite names the broken requirement directly.  Counts
and averages asserted here were computed by hand (see conftest) or by
independent oracles implemented inside the tests; nothing is compared
against recorded engine output.
"""

from __future__ import annotations

import functools
import json
import random
import re
import time
from collections import Counter
from fractions import Fraction

from mutdense.cli import Config, run
from mutdense.fault_model import (
    Family,
    OperatorSet,
    apply_mutant,
    find_mutation_sites,
)
from mutdense.metrics import build_unit_report
from mutdense.source_model import SourceUnit, locate_bodies, relevant_lines

from conftest import (
    ALPHA_SRC,
    BETA_SRC,
    FACTORIAL_LOOP_LINE,
    FACTORIAL_SRC,
    GAMMA_SRC,
    GENERICS_DECL_COUNT,
    GENERICS_ZOO_SRC,
    INTERFACE_SRC,
    RANKED_PATHS,
    SHAPE_SRC,
    gen_mixed_unit,
    gen_straightline_class,
    oracle_traditional_count,
)

RESULTS: dict[int, str] = {}


def criterion(number: int, title: str):
    """Record one PASS/FAIL summary line for the wrapped test."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS[number] = f"criterion {number}: FAIL - {title}"
                raise
            RESULTS[number] = f"criterion {number}: PASS - {title}"

        return wrapper

    return decorate


FIXTURE_SOURCES = [
    ("Factorial.java", FACTORIAL_SRC),
    ("Alpha.java", ALPHA_SRC),
    ("Beta.java", BETA_SRC),
    ("Gamma.java", GAMMA_SRC),
    ("Shape.java", SHAPE_SRC),
    ("Quiet.java", INTERFACE_SRC),
    ("GenericsZoo.java", GENERICS_ZOO_SRC),
]

TRIO = {"Alpha.java": ALPHA_SRC, "Beta.java": BETA_SRC, "Gamma.java": GAMMA_SRC}


def _analyze(path, src, operator_set=None):
    unit = SourceUnit.from_text(path, src)
    spans = locate_bodies(unit)
    relevant = relevant_lines(unit, spans)
    mutants = find_mutation_sites(
        unit, spans, operator_set or OperatorSet.default()
    )
    return unit, relevant, mutants


# ---------------------------------------------------------------------------
# 1. worked loop-header example
# ---------------------------------------------------------------------------


@criterion(1, "loop header yields exactly ROR 'i >= NUM_FACTS' and AOR-S "
              "'i--', line density 2, under 1 s")
def test_criterion_1_loop_header_example():
    started = time.perf_counter()
    unit, relevant, mutants = _analyze("Factorial.java", FACTORIAL_SRC)
    report = build_unit_report(unit, relevant, mutants)
    elapsed = time.perf_counter() - started

    on_line = [m for m in mutants if m.line == FACTORIAL_LOOP_LINE]
    assert len(on_line) == 2
    assert all(m.family is Family.TRADITIONAL for m in on_line)

    by_op = {m.operator_id: m for m in on_line}
    assert sorted(by_op) == ["AOR-S", "ROR"]

    ror_text = apply_mutant(unit, by_op["ROR"])
    assert "i >= NUM_FACTS" in ror_text.splitlines()[FACTORIAL_LOOP_LINE - 1]
    aor_text = apply_mutant(unit, by_op["AOR-S"])
    assert "i--" in aor_text.splitlines()[FACTORIAL_LOOP_LINE - 1]

    assert sum(report.line_counts[FACTORIAL_LOOP_LINE]) == 2
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. average identity
# ---------------------------------------------------------------------------


@criterion(2, "avg x relevantLineCount equals the mutant total, exact, "
              "per family and combined, on fixtures plus 25 generated units")
def test_criterion_2_average_identity():
    rng = random.Random(4242)
    generated = [gen_mixed_unit(rng, i) for i in range(25)]
    assert len(generated) >= 20

    for path, src in FIXTURE_SOURCES + generated:
        unit, relevant, mutants = _analyze(path, src)
        report = build_unit_report(unit, relevant, mutants)
        count = report.relevant_line_count
        for fam in Family:
            assert (
                report.avg_density_by_family[fam] * count
                == report.mutant_count_by_family[fam]
            ), path
        assert report.avg_density_combined * count == len(mutants), path
        assert isinstance(report.avg_density_combined, Fraction)


# ---------------------------------------------------------------------------
# 3. family split
# ---------------------------------------------------------------------------


@criterion(3, "full mutant list is the disjoint union of the family lists "
              "and per-line totals are the family sums")
def test_criterion_3_family_split():
    only_traditional = OperatorSet.default(families=(Family.TRADITIONAL,))
    only_null = OperatorSet.default(families=(Family.NULL_TYPE,))
    for path, src in FIXTURE_SOURCES:
        unit, relevant, both = _analyze(path, src)
        spans = locate_bodies(unit)
        trad = find_mutation_sites(unit, spans, only_traditional)
        null = find_mutation_sites(unit, spans, only_null)

        assert Counter(both) == Counter(trad) + Counter(null), path

        rows = build_unit_report(unit, relevant, both).line_counts
        trad_rows = build_unit_report(unit, relevant, trad).line_counts
        null_rows = build_unit_report(unit, relevant, null).line_counts
        assert rows.keys() == trad_rows.keys() | null_rows.keys(), path
        for line, (t, n) in rows.items():
            assert trad_rows.get(line, (0, 0)) == (t, 0)
            assert null_rows.get(line, (0, 0)) == (0, n)


# ---------------------------------------------------------------------------
# 4. oracle equivalence
# ---------------------------------------------------------------------------


@criterion(4, "traditional count matches the naive token-occurrence oracle "
              "on 100 generated straight-line bodies, exactly")
def test_criterion_4_oracle_equivalence():
    rng = random.Random(1337)
    only_traditional = OperatorSet.default(families=(Family.TRADITIONAL,))
    for _ in range(100):
        src, emitted = gen_straightline_class(rng)
        unit = SourceUnit.from_text("G.java", src)
        spans = locate_bodies(unit)
        engine = find_mutation_sites(unit, spans, only_traditional)
        assert len(engine) == oracle_traditional_count(unit) == emitted, src


# ---------------------------------------------------------------------------
# 5. generic-bracket safety
# ---------------------------------------------------------------------------

_WORD = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_DECL = re.compile(r"^\s*(?P<type>.+?)\s+d\d{2}\s*=\s*null;\s*$")
_PRIMITIVES = ("boolean", "byte", "char", "short", "int", "long", "float", "double")


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i] == " ":
        i += 1
    return i


def _take_word(text: str, i: int) -> int:
    m = _WORD.match(text, i)
    if m is None:
        raise ValueError(f"expected a name at {i} in {text!r}")
    return m.end()


def _take_type(text: str, i: int) -> int:
    """Consume ('@' Name)* (Name(.Name)* ('<' args '>')? ('[' ']')* |
    primitive ('[' ']')+) and return the index just past it; raises when
    the text is not a pure type."""
    i = _skip_ws(text, i)
    while text.startswith("@", i):  # type-use annotations
        i = _skip_ws(text, _take_word(text, i + 1))
    start = i
    i = _take_word(text, i)
    primitive = text[start:i] in _PRIMITIVES
    if not primitive:
        while i < len(text) and text[i] == ".":
            i = _take_word(text, i + 1)
        i = _skip_ws(text, i)
        if i < len(text) and text[i] == "<":
            i = _take_type_args(text, i + 1)
    i = _skip_ws(text, i)
    dims = 0
    while text.startswith("[]", i):
        i = _skip_ws(text, i + 2)
        dims += 1
    if primitive and not dims:
        raise ValueError(f"a primitive type argument needs '[]' at {i} in {text!r}")
    return i


def _take_type_args(text: str, i: int) -> int:
    while True:
        i = _skip_ws(text, i)
        if i < len(text) and text[i] == "?":
            i = _skip_ws(text, i + 1)
            for keyword in ("extends", "super"):
                if text.startswith(keyword, i):
                    i = _take_type(text, i + len(keyword))
                    break
        else:
            i = _take_type(text, i)
        i = _skip_ws(text, i)
        if i < len(text) and text[i] == ",":
            i += 1
            continue
        if i < len(text) and text[i] == ">":
            return i + 1
        raise ValueError(f"expected ',' or '>' at {i} in {text!r}")


@criterion(5, "23 nested-generic declarations yield zero ROR; a type-grammar "
              "oracle confirms every angle bracket is a type bracket")
def test_criterion_5_generic_bracket_safety():
    decls = [
        m.group("type")
        for m in map(_DECL.match, GENERICS_ZOO_SRC.splitlines())
        if m is not None
    ]
    assert len(decls) == GENERICS_DECL_COUNT == 23

    # independent route: each declared type parses under a grammar that
    # only produces type brackets, so the correct ROR yield is zero
    angle_chars = 0
    for type_text in decls:
        assert _take_type(type_text, 0) == len(type_text), type_text
        angle_chars += type_text.count("<") + type_text.count(">")
    assert angle_chars >= 2 * GENERICS_DECL_COUNT  # corpus is not vacuous

    unit, _, mutants = _analyze(
        "GenericsZoo.java",
        GENERICS_ZOO_SRC,
        OperatorSet.default(families=(Family.TRADITIONAL,)),
    )
    assert [m for m in mutants if m.operator_id == "ROR"] == []
    # a '>>' closer misread as a shift would surface here instead
    assert [m for m in mutants if m.operator_id == "SOR"] == []


# ---------------------------------------------------------------------------
# 6. ranking determinism and correctness
# ---------------------------------------------------------------------------


@criterion(6, "trio ranks Gamma > Beta > Alpha per the hand computation and "
              "two consecutive runs write byte-identical project.json")
def test_criterion_6_ranking_and_determinism(write_tree, tmp_path):
    root = write_tree(TRIO)
    payloads = []
    for attempt in (1, 2):
        out = tmp_path / f"out{attempt}"
        code = run(
            Config(roots=(str(root),), formats=("json",), output_dir=str(out))
        )
        assert code == 0
        payloads.append((out / "project.json").read_bytes())
    assert payloads[0] == payloads[1]

    doc = json.loads(payloads[0])
    combined = {u["path"]: u["avg"]["combined"] for u in doc["units"]}
    # hand values: 1/3 -> 0.3333, 4/6 -> 0.6667, 4/5 -> 0.8
    assert combined == {
        "Alpha.java": 0.3333,
        "Beta.java": 0.6667,
        "Gamma.java": 0.8,
    }
    ranked = sorted(combined, key=lambda path: (-combined[path], path))
    assert ranked == RANKED_PATHS


# ---------------------------------------------------------------------------
# 7. degenerate handling
# ---------------------------------------------------------------------------


@criterion(7, "an interface-only file reports relevantLineCount 0, "
              "averages 0, empty true, and exits 0")
def test_criterion_7_degenerate_interface(write_tree, tmp_path):
    root = write_tree({"Quiet.java": INTERFACE_SRC})
    out = tmp_path / "out"
    code = run(Config(roots=(str(root),), formats=("json",), output_dir=str(out)))
    assert code == 0

    doc = json.loads((out / "project.json").read_bytes())
    (unit,) = doc["units"]
    assert unit["path"] == "Quiet.java"
    assert unit["relevantLineCount"] == 0
    assert unit["avg"] == {"traditional": 0.0, "nullType": 0.0, "combined": 0.0}
    assert unit["empty"] is True


# ---------------------------------------------------------------------------
# 8. bar-chart structure
# ---------------------------------------------------------------------------


def _label_from_json(value: float) -> str:
    """Independent 2-decimal rounding of a serialized 4-decimal average."""
    q4 = round(Fraction(str(value)) * 10000)
    q2 = round(Fraction(q4, 100))
    return f"{q2 // 100}.{q2 % 100:02d}"


@criterion(8, "project.svg holds one gray and one black bar per unit in "
              "descending combined order with labels matching rounded JSON")
def test_criterion_8_barchart_structure(write_tree, tmp_path):
    root = write_tree(TRIO)
    out = tmp_path / "out"
    code = run(
        Config(roots=(str(root),), formats=("json", "svg"), output_dir=str(out))
    )
    assert code == 0
    svg = (out / "project.svg").read_text(encoding="utf-8")
    doc = json.loads((out / "project.json").read_bytes())
    by_path = {u["path"]: u for u in doc["units"]}

    order = re.findall(r'<g data-path="([^"]+)">', svg)
    assert order == RANKED_PATHS
    combined = [by_path[path]["avg"]["combined"] for path in order]
    assert combined == sorted(combined, reverse=True)

    groups = re.split(r'<g data-path="[^"]+">', svg)[1:]
    assert len(groups) == len(order)
    seen_labels = []
    for path, body in zip(order, groups):
        grays = re.findall(r'<rect class="bar traditional"[^>]*fill="gray"/>', body)
        blacks = re.findall(r'<rect class="bar null-type"[^>]*fill="black"/>', body)
        assert len(grays) == 1, path
        assert len(blacks) == 1, path
        labels = re.findall(
            r'<text x="[0-9.]+" y="[0-9]+">([0-9]+\.[0-9]{2})</text>', body
        )
        expected = [
            _label_from_json(by_path[path]["avg"]["traditional"]),
            _label_from_json(by_path[path]["avg"]["nullType"]),
        ]
        assert labels == expected, path
        seen_labels.extend(labels)
    # hand cross-check of every printed value, in rank order
    assert seen_labels == ["0.80", "0.00", "0.17", "0.50", "0.33", "0.00"]
