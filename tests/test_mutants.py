"""Self-oracle: every mutant, applied and analyzed again, reads the way its
count assumed.

Each mutant of the benchmark's sparse tree at seed 1 and of 200 seeded
mixed units is materialized with ``apply_mutant``, and the mutated text
goes through the whole chain again.  Four things must hold:
- every mutant applies, changes its unit's text, and the mutated text
  scans and analyzes;
- a one-token rewrite (an operator in ``REWRITES``) keeps every span and
  every other site, those after it shifted by the change in length;
- no two mutants of one family give the same text;
- each known way of breaking a check is a named allowance below, and its
  count may only fall.
"""

from __future__ import annotations

import functools
import random
from collections import Counter, defaultdict

import pytest

from mutdense import errors
from mutdense.fault_model import REWRITES, OperatorSet, apply_mutant, find_mutation_sites
from mutdense.metrics import build_unit_report
from mutdense.source_model import SourceUnit, locate_bodies, relevant_lines
from conftest import corpus_plan, gen_mixed_unit

ALL_OPS = OperatorSet.default()

# The most mutants each known violation may count.  Lower a count when a
# fix makes it fall; every check not named here allows none.
ALLOWANCES = {
    # a ROR rewrite that creates an 'x < y > z' group, which then reads as
    # type arguments, so the comparison sites in it vanish
    "ror_makes_type_arguments": 7,
    # an NOI on 'return new T(...);' gives the program of that statement's NRV
    "noi_equals_nrv": 49,
}


def analyze(path, text):
    """The unit, its spans and its mutants, through the whole chain."""
    unit = SourceUnit.from_text(path, text)
    spans = locate_bodies(unit)
    mutants = find_mutation_sites(unit, spans, ALL_OPS)
    build_unit_report(unit, relevant_lines(unit, spans), mutants)  # every site on a relevant line
    return unit, spans, mutants


def oracle_inputs():
    """Text by path: the sparse tree's units at seed 1, then 200 mixed units."""
    plan = corpus_plan("sparse", 1)
    units = {path: plan.files[path].decode("utf-8") for path in sorted(plan.units)}
    rng = random.Random(1)
    for idx in range(200):
        path, src = gen_mixed_unit(rng, idx)
        units[path] = src
    return units


def other_sites(mutants, start, end, shift):
    """Each (operator, start) of a site that does not start in
    ``[start, end)``, shifting those at or past ``end`` by ``shift``."""
    return Counter(
        (m.operator_id, m.start + shift if m.start >= end else m.start)
        for m in mutants
        if not start <= m.start < end
    )


def rewrite_finding(mutant, before, after):
    """The check a one-token rewrite breaks, or None; ``before`` and
    ``after`` are what ``analyze`` gives on the unit and on the mutant."""
    (unit, spans, mutants), (munit, mspans, mmutants) = before, after
    shift = len(munit.text) - len(unit.text)
    same_spans = [(s.kind, s.name, s.decl_line) for s in spans] == [
        (s.kind, s.name, s.decl_line) for s in mspans
    ]
    # the rewritten token spans [start, end + shift) in the mutated text
    same_sites = other_sites(mutants, mutant.start, mutant.end, shift) == other_sites(
        mmutants, mutant.start, mutant.end + shift, 0
    )
    if same_spans and same_sites:
        return None
    if mutant.operator_id == "ROR" and mutant.replacement in ("<", ">"):
        k = next(k for k, t in enumerate(munit.tokens) if t.start >= mutant.start)
        if k in munit.angles.indices:
            return "ror_makes_type_arguments"
    return "rewrite_moves_spans_or_sites"


@functools.lru_cache(maxsize=1)
def findings():
    """Each violated check by name, with one (path, mutant) per violation,
    and the number of mutants checked."""
    found = defaultdict(list)
    checked = 0
    for path, text in oracle_inputs().items():
        before = analyze(path, text)
        unit, _, mutants = before
        programs = defaultdict(list)  # (family, mutated text) -> its mutants
        for m in mutants:
            checked += 1
            mutated = apply_mutant(unit, m)
            if mutated == text:
                found["gives_own_text"].append((path, m))
            programs[m.family, mutated].append(m)
            try:
                after = analyze(path, mutated)
            except errors.MutdenseError:
                found["mutant_fails_analysis"].append((path, m))
                continue
            if m.operator_id in REWRITES:
                name = rewrite_finding(m, before, after)
                if name:
                    found[name].append((path, m))
        for same in programs.values():
            if len(same) > 1:
                ops = sorted(m.operator_id for m in same)
                name = "noi_equals_nrv" if ops == ["NOI", "NRV"] else "duplicate_program"
                found[name] += [(path, m) for m in same[1:]]
    return found, checked


@pytest.mark.parametrize(
    "checks",
    [
        ("gives_own_text", "mutant_fails_analysis"),
        ("rewrite_moves_spans_or_sites", "ror_makes_type_arguments"),
        ("duplicate_program", "noi_equals_nrv"),
    ],
    ids=["applies_and_analyzes", "rewrite_keeps_other_sites", "one_program_per_mutant"],
)
def test_mutants_stay_within_their_allowances(checks):
    found, checked = findings()
    assert checked > 10_000
    for name in checks:
        allowed = ALLOWANCES.get(name, 0)
        assert len(found[name]) <= allowed, (name, found[name][: allowed + 3])

