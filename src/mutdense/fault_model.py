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
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from mutdense import errors
from mutdense.scanner import scan
from mutdense.source_model import (
    PRIMITIVE_TYPES,
    BodySpan,
    GenericAngles,
    SourceUnit,
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

_FAMILIES = {op.id: op.family for op in CATALOG}
ALL_OPERATOR_IDS = frozenset(_FAMILIES)


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


def _is_binary(texts: Sequence[str], kinds: Sequence[TokenKind], idx: int) -> bool:
    """'+'/'-'/'&'/'|'/'^' is binary iff an operand just closed on its left.

    The ')' of a primitive cast such as '(int)' closes none; after any other
    ')', as in '(a) - b', the operator is binary (JLS 15.16).
    """
    if idx == 0:
        return False
    prev = texts[idx - 1]
    if prev == ")" and idx >= 3 and texts[idx - 2] in PRIMITIVE_TYPES:
        return texts[idx - 3] != "("
    return kinds[idx - 1] in _BINARY_LEFT_KINDS or prev in _BINARY_LEFT_TEXTS


def _string_adjacent(kinds: Sequence[TokenKind], idx: int) -> bool:
    if idx > 0 and kinds[idx - 1] is TokenKind.STRING_LITERAL:
        return True
    return idx + 1 < len(kinds) and kinds[idx + 1] is TokenKind.STRING_LITERAL


def _arithmetic_site(texts: Sequence[str], kinds: Sequence[TokenKind], idx: int,
                     angles: GenericAngles) -> bool:
    """'*', '/', '%' always; '+'/'-' in binary position, but no '+' next to
    a string literal, which is concatenation."""
    tx = texts[idx]
    if tx != "+" and tx != "-":
        return True
    return _is_binary(texts, kinds, idx) and not (tx == "+" and _string_adjacent(kinds, idx))


# Where each operator in REWRITES applies, given the token texts and kinds;
# one missing here applies at every token it names.  A '<' or a '>'-run that
# closes type arguments is no comparison or shift.
_SITES: dict[str, Callable[[Sequence[str], Sequence[TokenKind], int, GenericAngles], bool]] = {
    "AOR-B": _arithmetic_site,
    "AOR-U": lambda texts, kinds, idx, angles: not _is_binary(texts, kinds, idx),
    "ROR": lambda texts, kinds, idx, angles: idx not in angles.indices,
    "LOR": lambda texts, kinds, idx, angles: _is_binary(texts, kinds, idx),
    "SOR": lambda texts, kinds, idx, angles: idx not in angles.indices,
    "NNC": lambda texts, kinds, idx, angles: _null_adjacent(texts, idx),
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


def find_mutation_sites(
    unit: SourceUnit, spans: Sequence[BodySpan], operator_set: OperatorSet
) -> list[Mutant]:
    """Enumerate each enabled rewrite of a token, creation (NOI) and return
    (NRV) that a span owns, and each NIV, whose site is the parameter.

    Returned sorted by (line, column, operator id); identical inputs always
    produce the identical list.
    """
    tokens = unit.tokens
    texts, kinds, lines, starts = tokens.texts, tokens.kinds, tokens.lines, tokens.starts
    angles = unit.angles
    rules = _rule_table(operator_set)
    enabled = operator_set.enabled_ids
    out: list[Mutant] = []
    text = unit.text
    _new = tuple.__new__  # builds a Mutant without NamedTuple's Python-level __new__

    def emit(op_id: str, idx: int, end: int, replacement: str,
             insert_after: int | None = None) -> None:
        """A mutant whose site runs from token ``idx`` to offset ``end``."""
        start = starts[idx]
        out.append(_new(Mutant, (op_id, _FAMILIES[op_id], lines[idx], tokens.column(idx), start,
                                 end, site_text(text, start, end), replacement, insert_after)))

    found = unit.positions_of(rules)
    for span in spans:
        for lo, hi in span.owned:
            for idx in found[bisect_left(found, lo):bisect_left(found, hi)]:
                tx = texts[idx]
                for op_id, replacement, site in rules[tx]:
                    if site is None or site(texts, kinds, idx, angles):
                        emit(op_id, idx, starts[idx] + len(tx), replacement)
        if "NOI" in enabled:
            for idx, close in span.creations:
                emit("NOI", idx, starts[close] + 1, "null")
        if span.returns_reference and "NRV" in enabled:
            for idx, end in span.returns:
                # 'return null;' has no other value to return
                if end is not None and (end != idx + 2 or texts[idx + 1] != "null"):
                    emit("NRV", idx, starts[end] + 1, "return null;")
        if "NIV" in enabled:
            insert_at = starts[span.body_token_range[0]] + 1
            for name_idx in span.nullable_params:
                name = texts[name_idx]
                emit("NIV", name_idx, starts[name_idx] + len(name), f"{name} = null",
                     insert_after=insert_at)

    out.sort(key=itemgetter(2, 3, 0))  # line, column, operator id
    return out


def _null_adjacent(texts: Sequence[str], idx: int) -> bool:
    if idx > 0 and texts[idx - 1] == "null":
        return True
    return idx + 1 < len(texts) and texts[idx + 1] == "null"


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
    starts = tokens.starts
    k = bisect_right(starts, mutant.start)  # tokens[:k] start at or before the site
    if k and tokens.end(k - 1) > mutant.start:  # the site's own token
        k -= 1
    m = bisect_left(starts, mutant.end)
    left = text[starts[k - 1] if k else 0 : mutant.start]
    right = text[mutant.end : tokens.end(m) if m < len(starts) else len(text)]
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
        return scan(a + b).texts != scan(a).texts + scan(b).texts
    except errors.MutdenseError:
        return True
