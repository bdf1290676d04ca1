"""Fault model: the operator catalog and mutant enumeration.

Two operator families are built in.  Traditional operators rewrite basic
language elements (arithmetic, relational, conditional, bitwise, shift,
assignment shortcuts); null-type operators introduce or invert null-related
faults.  Each operator applies a single fixed replacement per site, so one
site yields one mutant per operator.  The enabled set is configurable, which
keeps the density metric parametric in the fault model.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

from mutdense import errors
from mutdense.scanner import scan
from mutdense.source_model import (
    PRIMITIVE_TYPES,
    BodySpan,
    GenericAngles,
    SourceUnit,
    SpanKind,
    Token,
    TokenKind,
    is_reference_type,
    match_creation,
    span_region_lines,
)


class Family(str, Enum):
    TRADITIONAL = "traditional"
    NULL_TYPE = "null-type"


@dataclass(frozen=True)
class MutationOperator:
    id: str
    family: Family
    description: str


CATALOG: tuple[MutationOperator, ...] = (
    MutationOperator("AOR-B", Family.TRADITIONAL, "replace a binary arithmetic operator (+ - * / %)"),
    MutationOperator("AOR-S", Family.TRADITIONAL, "swap increment and decrement (++ <-> --)"),
    MutationOperator("AOR-U", Family.TRADITIONAL, "delete a unary minus"),
    MutationOperator("ROR", Family.TRADITIONAL, "replace a relational operator (< > <= >= == !=)"),
    MutationOperator("COR", Family.TRADITIONAL, "swap conditional and/or (&& <-> ||)"),
    MutationOperator("LOR", Family.TRADITIONAL, "replace a binary bitwise operator (& | ^)"),
    MutationOperator("SOR", Family.TRADITIONAL, "replace a shift operator (<< >> >>>)"),
    MutationOperator("ASR-S", Family.TRADITIONAL, "replace a compound assignment operator (+= -= ...)"),
    MutationOperator("NOI", Family.NULL_TYPE, "replace an object instantiation with null"),
    MutationOperator("NIV", Family.NULL_TYPE, "null a reference-typed input parameter at body start"),
    MutationOperator("NRV", Family.NULL_TYPE, "replace a returned reference value with null"),
    MutationOperator("NNC", Family.NULL_TYPE, "negate a null check (== null <-> != null)"),
)

_OPERATORS_BY_ID = {op.id: op for op in CATALOG}
ALL_OPERATOR_IDS = frozenset(_OPERATORS_BY_ID)


def list_operators(family: Family | None = None) -> list[MutationOperator]:
    """The fixed catalog, optionally restricted to one family."""
    if family is None:
        return list(CATALOG)
    return [op for op in CATALOG if op.family is family]


@dataclass(frozen=True)
class OperatorSet:
    """The enabled slice of the catalog: families plus optional id filter."""

    families: frozenset[Family]
    enabled_ids: frozenset[str]

    @classmethod
    def default(
        cls,
        families: Iterable[Family] | None = None,
        enabled_ids: Iterable[str] | None = None,
    ) -> "OperatorSet":
        fams = frozenset(families) if families is not None else frozenset(Family)
        if not fams:
            raise ValueError("at least one operator family is required")
        family_ids = frozenset(op.id for op in CATALOG if op.family in fams)
        if enabled_ids is None:
            ids = family_ids
        else:
            requested = frozenset(enabled_ids)
            unknown = requested - ALL_OPERATOR_IDS
            if unknown:
                raise ValueError(f"unknown operator ids: {sorted(unknown)}")
            ids = requested & family_ids
            if not ids:
                raise ValueError(
                    f"no operator is enabled: the operator ids {sorted(requested)}"
                    f" select none of the families {sorted(f.value for f in fams)}"
                )
        return cls(families=fams, enabled_ids=ids)


@dataclass(frozen=True)
class Mutant:
    """One applicable mutation at one site.

    ``start``/``end`` are half-open offsets of the replaced text;
    ``insert_after`` is set only for parameter-nulling mutants and points
    just past the opening brace where the nulling statement goes.
    """

    operator_id: str
    family: Family
    unit_path: str
    line: int
    column: int
    start: int
    end: int
    original: str
    replacement: str
    insert_after: int | None = None


# Each token-rewriting operator's fixed replacement for each token text it
# applies to.  NOI, NRV and NIV match constructs instead of single tokens.
REWRITES: dict[str, dict[str, str]] = {
    "AOR-B": {"+": "-", "-": "+", "*": "/", "/": "*", "%": "*"},
    "AOR-S": {"++": "--", "--": "++"},
    "AOR-U": {"-": ""},
    "ROR": {"<": ">=", ">": "<=", "<=": ">", ">=": "<", "==": "!=", "!=": "=="},
    "COR": {"&&": "||", "||": "&&"},
    "LOR": {"&": "|", "|": "&", "^": "&"},
    "SOR": {"<<": ">>", ">>": "<<", ">>>": "<<"},
    "ASR-S": {
        "+=": "-=", "-=": "+=", "*=": "/=", "/=": "*=", "%=": "*=",
        "<<=": ">>=", ">>=": "<<=", "&=": "|=", "|=": "&=", "^=": "&=",
    },
    "NNC": {"==": "!=", "!=": "=="},
}

_BINARY_LEFT_KINDS = frozenset(
    {
        TokenKind.IDENTIFIER,
        TokenKind.NUMBER_LITERAL,
        TokenKind.STRING_LITERAL,
        TokenKind.CHAR_LITERAL,
    }
)


# Other tokens that close an operand: a ')' or ']', the literal words, and a
# '++'/'--', which just before an operator can only be postfix ('++-a' does
# not compile).
_BINARY_LEFT_TEXTS = frozenset({")", "]", "true", "false", "null", "++", "--"})


def _is_binary(tokens: Sequence[Token], idx: int) -> bool:
    """'+'/'-'/'&'/'|'/'^' is binary iff an operand just closed on its left.

    The ')' of a primitive cast such as '(int)' closes none; after any other
    ')', as in '(a) - b', the operator is binary (JLS 15.16).
    """
    if idx == 0:
        return False
    prev = tokens[idx - 1]
    if prev.text == ")" and idx >= 3 and tokens[idx - 2].text in PRIMITIVE_TYPES:
        return tokens[idx - 3].text != "("
    return prev.kind in _BINARY_LEFT_KINDS or prev.text in _BINARY_LEFT_TEXTS


def _string_adjacent(tokens: Sequence[Token], idx: int) -> bool:
    if idx > 0 and tokens[idx - 1].kind is TokenKind.STRING_LITERAL:
        return True
    return idx + 1 < len(tokens) and tokens[idx + 1].kind is TokenKind.STRING_LITERAL


def _arithmetic_site(tokens: Sequence[Token], idx: int, angles: GenericAngles) -> bool:
    """'*', '/', '%' always; '+'/'-' in binary position, but no '+' next to
    a string literal, which is concatenation."""
    tx = tokens[idx].text
    if tx != "+" and tx != "-":
        return True
    return _is_binary(tokens, idx) and not (tx == "+" and _string_adjacent(tokens, idx))


# Where each operator in REWRITES applies; one missing here applies at every
# token it names.  A '<' or a '>'-run that closes type arguments is no
# comparison or shift.
_SITES: dict[str, Callable[[Sequence[Token], int, GenericAngles], bool]] = {
    "AOR-B": _arithmetic_site,
    "AOR-U": lambda tokens, idx, angles: not _is_binary(tokens, idx),
    "ROR": lambda tokens, idx, angles: idx not in angles.indices,
    "LOR": lambda tokens, idx, angles: _is_binary(tokens, idx),
    "SOR": lambda tokens, idx, angles: idx not in angles.indices,
    "NNC": lambda tokens, idx, angles: _null_adjacent(tokens, idx),
}


def find_mutation_sites(
    unit: SourceUnit, spans: Sequence[BodySpan], operator_set: OperatorSet
) -> list[Mutant]:
    """Enumerate every enabled-operator match inside span regions.

    Returned sorted by (line, column, operator id); identical inputs always
    produce the identical list.
    """
    tokens = unit.tokens
    angles = unit.angles
    region = span_region_lines(unit, spans)
    # an id outside the set's families stays off, however the set was built
    enabled = {op_id for op_id in operator_set.enabled_ids
               if _OPERATORS_BY_ID[op_id].family in operator_set.families}
    # token text -> [(operator id, replacement, site predicate or None)]
    rules: dict[str, list[tuple[str, str, Callable | None]]] = {}
    for op_id in sorted(enabled & REWRITES.keys()):
        for text, replacement in REWRITES[op_id].items():
            rules.setdefault(text, []).append((op_id, replacement, _SITES.get(op_id)))
    out: list[Mutant] = []
    returns: list[int] = []  # NRV candidates, matched to their spans below

    def emit(op_id: str, tok_line: int, tok_col: int, start: int, end: int,
             replacement: str, insert_after: int | None = None) -> None:
        out.append(
            Mutant(
                operator_id=op_id,
                family=_OPERATORS_BY_ID[op_id].family,
                unit_path=unit.path,
                line=tok_line,
                column=tok_col,
                start=start,
                end=end,
                original=unit.text[start:end],
                replacement=replacement,
                insert_after=insert_after,
            )
        )

    for idx, tok in enumerate(tokens):
        if tok.line not in region:
            continue
        matches = rules.get(tok.text)
        if matches is not None:
            for op_id, replacement, site in matches:
                if site is None or site(tokens, idx, angles):
                    emit(op_id, tok.line, tok.column, tok.start, tok.end, replacement)
        elif tok.kind is TokenKind.KEYWORD:
            if tok.text == "new" and "NOI" in enabled:
                site_range = match_creation(unit, idx, len(tokens))
                if site_range is not None:
                    emit("NOI", tok.line, tok.column, tok.start,
                         tokens[site_range[1]].end, "null")
            elif tok.text == "return" and "NRV" in enabled:
                returns.append(idx)

    for idx, span in _return_owners(returns, spans).items():
        end = _nullable_return_range(unit, idx, span)
        if end is not None:
            tok = tokens[idx]
            emit("NRV", tok.line, tok.column, tok.start, end, "return null;")

    if "NIV" in enabled:
        for span in spans:
            insert_at = tokens[span.body_token_range[0]].end
            for (param_name, type_text), name_idx in zip(
                span.param_types, span.param_name_indices
            ):
                if not is_reference_type(type_text):
                    continue
                name_tok = tokens[name_idx]
                emit("NIV", name_tok.line, name_tok.column, name_tok.start,
                     name_tok.end, f"{param_name} = null", insert_after=insert_at)

    out.sort(key=lambda m: (m.line, m.column, m.operator_id))
    return out


def _null_adjacent(tokens: Sequence[Token], idx: int) -> bool:
    if idx > 0 and tokens[idx - 1].text == "null":
        return True
    return idx + 1 < len(tokens) and tokens[idx + 1].text == "null"


def _return_owners(returns: list[int], spans: Sequence[BodySpan]) -> dict[int, BodySpan]:
    """Map each 'return' token index to the innermost span whose body holds it.

    ``returns`` is ascending and ``spans`` is sorted by body start, so one
    sweep with a stack of open spans serves every return.  A span that has
    closed before one return has closed before every later one.
    """
    owners: dict[int, BodySpan] = {}
    stack: list[BodySpan] = []
    pending = iter(spans)
    nxt = next(pending, None)
    for idx in returns:
        while nxt is not None and nxt.body_token_range[0] < idx:
            stack.append(nxt)
            nxt = next(pending, None)
        while stack and idx >= stack[-1].body_token_range[1] - 1:
            stack.pop()
        if stack:
            owners[idx] = stack[-1]
    return owners


def _nullable_return_range(unit: SourceUnit, idx: int, span: BodySpan) -> int | None:
    """For 'return expr;' in a method returning a reference type, the end
    offset of the terminating ';', reached by jumping over bracket groups;
    'return null;' yields nothing."""
    if span.kind is not SpanKind.METHOD or not is_reference_type(span.return_type_text):
        return None
    tokens, pairs = unit.tokens, unit.pairs
    k = idx + 1
    while k < span.body_token_range[1]:
        if tokens[k].text == ";":
            if k == idx + 2 and tokens[idx + 1].text == "null":
                return None
            return tokens[k].end
        k = pairs.get(k, k) + 1
    return None


def apply_mutant(unit: SourceUnit, mutant: Mutant) -> str:
    """Materialize one mutant as full source text (verification aid)."""
    actual = unit.text[mutant.start : mutant.end]
    if actual != mutant.original:
        raise errors.SiteMismatch(
            f"stale mutant at {unit.path}:{mutant.line}: "
            f"expected {mutant.original!r}, found {actual!r}"
        )
    text = unit.text
    if mutant.insert_after is not None:
        pos = mutant.insert_after
        return f"{text[:pos]} {mutant.original} = null;{text[pos:]}"
    # where the replacement meets its neighbours: the text back to the start
    # of the last token before the site, and on through the first after it
    tokens = unit.tokens
    k = bisect.bisect_right(tokens, mutant.start, key=lambda t: t.end)
    m = bisect.bisect_left(tokens, mutant.end, key=lambda t: t.start)
    left = text[tokens[k - 1].start if k else 0 : mutant.start]
    right = text[mutant.end : tokens[m].end if m < len(tokens) else len(text)]
    replacement = mutant.replacement
    if replacement:
        pad_left, pad_right = _joins(left, replacement), _joins(replacement, right)
    else:
        pad_left, pad_right = _joins(left, right), False
    padded = " " * pad_left + replacement + " " * pad_right
    return text[: mutant.start] + padded + text[mutant.end :]


def _joins(a: str, b: str) -> bool:
    """Whether ``a`` and ``b`` written with nothing between them scan to
    other tokens than each does alone: ``-`` before ``-b`` makes ``--``,
    and ``/`` before ``/*c*/y`` opens a line comment."""
    try:
        return [t.text for t in scan(a + b)] != [t.text for t in scan(a) + scan(b)]
    except errors.MutdenseError:
        return True
