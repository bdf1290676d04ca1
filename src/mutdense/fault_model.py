"""Fault model: the operator catalog and mutant enumeration.

Two operator families are built in.  Traditional operators rewrite basic
language elements (arithmetic, relational, conditional, bitwise, shift,
assignment shortcuts); null-type operators introduce or invert null-related
faults.  Each operator applies a single fixed replacement per site, so one
site yields one mutant per operator.  The enabled set is configurable, which
keeps the density metric parametric in the fault model.
"""

from bisect import bisect_left, bisect_right
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

from mutdense import errors
from mutdense.scanner import scan
from mutdense.source_model import (
    PRIMITIVE_TYPES,
    BodySpan,
    GenericAngles,
    SourceUnit,
    Token,
    TokenKind,
)


class Family(str, Enum):
    TRADITIONAL = "traditional"
    NULL_TYPE = "null-type"


class MutationOperator(NamedTuple):
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


class OperatorSet(NamedTuple):
    """The enabled slice of the catalog: the ids of its enabled operators."""

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
        ids = frozenset(op.id for op in CATALOG if op.family in fams)
        if enabled_ids is not None:
            requested = frozenset(enabled_ids)
            unknown = requested - ALL_OPERATOR_IDS
            if unknown:
                raise ValueError(f"unknown operator ids: {sorted(unknown)}")
            ids &= requested
            if not ids:
                raise ValueError(
                    f"no operator is enabled: the operator ids {sorted(requested)}"
                    f" select none of the families {sorted(f.value for f in fams)}"
                )
        return cls(ids)


class Mutant(NamedTuple):
    """One applicable mutation at one site.

    ``start``/``end`` are half-open offsets of the replaced text, and
    ``original`` is that text as ``site_text`` bounds it; ``insert_after``
    is set only for parameter-nulling mutants and points just past the
    opening brace where the nulling statement goes.
    """

    operator_id: str
    family: Family
    line: int
    column: int
    start: int
    end: int
    original: str
    replacement: str
    insert_after: int | None = None


# ``Mutant.original`` keeps at most this many characters of its site, which
# may be as long as the unit: a 'return' of nested anonymous classes holds
# the rest of the nest.
ORIGINAL_MAX = 200


def site_text(text: str, start: int, end: int) -> str:
    """``text[start:end]``, cut after ``ORIGINAL_MAX`` characters with '…'."""
    if end - start <= ORIGINAL_MAX:
        return text[start:end]
    return text[start:start + ORIGINAL_MAX] + "\u2026"


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


@lru_cache(maxsize=8)
def _rule_table(operator_set: OperatorSet) -> dict[str, list[tuple[str, str, Callable | None]]]:
    """The rewrite rules by token text, built once per operator set and
    shared, so callers must not change them."""
    enabled = operator_set.enabled_ids
    # token text -> [(operator id, replacement, site predicate or None)]
    rules: dict[str, list[tuple[str, str, Callable | None]]] = {}
    for op_id in sorted(enabled & REWRITES.keys()):
        for text, replacement in REWRITES[op_id].items():
            rules.setdefault(text, []).append((op_id, replacement, _SITES.get(op_id)))
    return rules


# After these a 'new' starts a statement, which 'null;' is not ('else' and
# 'do' are always followed by one), as it does after the ')' that ends a
# header of ``_HEADER_WORDS``.  After ':', '->' or a cast's ')' it may
# start an expression: ternary, arrow body, cast.
_STATEMENT_STARTS = frozenset({";", "{", "}", "else", "do"})
_HEADER_WORDS = ("if", "while", "for")


def find_mutation_sites(
    unit: SourceUnit, spans: Sequence[BodySpan], operator_set: OperatorSet
) -> list[Mutant]:
    """Enumerate each enabled rewrite of a token, creation (NOI) and return
    (NRV) that a span owns, and each NIV, whose site is the parameter.

    Returned sorted by (line, column, operator id); identical inputs always
    produce the identical list.
    """
    tokens = unit.tokens
    angles = unit.angles
    rules = _rule_table(operator_set)
    enabled = operator_set.enabled_ids
    out: list[Mutant] = []
    text = unit.text
    _new = tuple.__new__  # builds a Mutant without NamedTuple's Python-level __new__

    def emit(op_id: str, tok_line: int, tok_col: int, start: int, end: int,
             replacement: str, insert_after: int | None = None) -> None:
        out.append(_new(Mutant, (op_id, _OPERATORS_BY_ID[op_id].family, tok_line, tok_col,
                                 start, end, site_text(text, start, end), replacement,
                                 insert_after)))

    found = unit.positions_of(rules)
    if "NOI" in enabled:  # the ')' that ends each 'if', 'while' and 'for' header
        positions, pairs = unit.positions, unit.pairs
        header_ends = {pairs.get(h + 1) for w in _HEADER_WORDS for h in positions.get(w, ())}
    for span in spans:
        for lo, hi in span.owned:
            for idx in found[bisect_left(found, lo):bisect_left(found, hi)]:
                tok = tokens[idx]
                for op_id, replacement, site in rules[tok.text]:
                    if site is None or site(tokens, idx, angles):
                        emit(op_id, tok.line, tok.column, tok.start, tok.end, replacement)
        if "NOI" in enabled:
            for idx, close in span.creations:
                if tokens[close + 1].text != ";" or not (
                        tokens[idx - 1].text in _STATEMENT_STARTS or idx - 1 in header_ends):
                    tok = tokens[idx]
                    emit("NOI", tok.line, tok.column, tok.start, tokens[close].end, "null")
        if span.returns_reference and "NRV" in enabled:
            for idx, end in span.returns:
                # 'return null;' has no other value to return
                if end is not None and (end != idx + 2 or tokens[idx + 1].text != "null"):
                    tok = tokens[idx]
                    emit("NRV", tok.line, tok.column, tok.start, tokens[end].end, "return null;")
        if "NIV" in enabled:
            insert_at = tokens[span.body_token_range[0]].end
            for name_idx in span.nullable_params:
                name_tok = tokens[name_idx]
                emit("NIV", name_tok.line, name_tok.column, name_tok.start,
                     name_tok.end, f"{name_tok.text} = null", insert_after=insert_at)

    out.sort(key=lambda m: (m.line, m.column, m.operator_id))
    return out


def _null_adjacent(tokens: Sequence[Token], idx: int) -> bool:
    if idx > 0 and tokens[idx - 1].text == "null":
        return True
    return idx + 1 < len(tokens) and tokens[idx + 1].text == "null"


def apply_mutant(unit: SourceUnit, mutant: Mutant) -> str:
    """Materialize one mutant as full source text (verification aid)."""
    text = unit.text
    actual = site_text(text, mutant.start, mutant.end)
    if actual != mutant.original:
        raise errors.SiteMismatch(
            f"stale mutant at {unit.path}:{mutant.line}: "
            f"expected {mutant.original!r}, found {actual!r}"
        )
    if mutant.insert_after is not None:
        pos = mutant.insert_after
        return f"{text[:pos]} {text[mutant.start:mutant.end]} = null;{text[pos:]}"
    # where the replacement meets its neighbours: the text back to the start
    # of the last token before the site, and on through the first after it
    tokens = unit.tokens
    k = bisect_right(tokens, mutant.start, key=lambda t: t.end)
    m = bisect_left(tokens, mutant.end, key=lambda t: t.start)
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
