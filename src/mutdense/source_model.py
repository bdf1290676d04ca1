"""Source model: tokens, method/constructor body spans, relevant lines.

The analyzer works on a syntactic Java-style subset: no symbol table, no
type resolution.  Constructs outside the subset (annotations, generics,
lambdas, text blocks) are tokenized and skipped gracefully.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

from mutdense import errors, scanner
from mutdense.scanner import Token, TokenKind, split_lines


def tokenize(text: str) -> list[Token]:
    """Scan ``text`` into tokens.

    Comments and whitespace emit nothing; literals keep their delimiters.
    Raises UnterminatedLiteral / UnterminatedComment with the position of
    the offending construct.
    """
    return scanner.scan(text)


@dataclass(frozen=True)
class SourceUnit:
    """One source file: raw text, physical lines, and its token stream.

    ``pairs`` (bracket pairs) and ``angles`` are derived from the tokens on
    first use and kept, so every layer that reads them shares one
    computation.
    """

    path: str
    text: str
    lines: tuple[str, ...]
    tokens: tuple[Token, ...]

    @classmethod
    def from_text(cls, path: str, text: str) -> "SourceUnit":
        return cls(path=path, text=text, lines=split_lines(text), tokens=tuple(tokenize(text)))

    @cached_property
    def pairs(self) -> dict[int, int]:
        return match_braces(self.tokens)

    @cached_property
    def angles(self) -> GenericAngles:
        return mark_generic_angles(self.tokens)


class SpanKind(Enum):
    METHOD = "method"
    CONSTRUCTOR = "constructor"


@dataclass(frozen=True)
class BodySpan:
    """A method or constructor with a brace-delimited body.

    ``body_token_range`` is a half-open token-index pair whose first token
    is the opening ``{`` and whose last covered token is the matching ``}``.
    ``decl_line`` is the line of the name token in the declaration header.
    """

    kind: SpanKind
    name: str
    decl_line: int
    body_token_range: tuple[int, int]
    param_types: tuple[tuple[str, str], ...]
    return_type_text: str | None
    param_name_indices: tuple[int, ...] = field(compare=False, default=())


@dataclass(frozen=True)
class LineSet:
    relevant: frozenset[int]


# ---------------------------------------------------------------------------
# generic angle brackets
# ---------------------------------------------------------------------------

# A '<' is a type bracket iff it can be closed by a later '>' / '>>' / '>>>'
# with every enclosed token drawn from: Identifier, ',', '?', 'extends',
# 'super', '.', '[', ']', '&', or a nested '<...>'.  Anything else makes it
# a relational operator.
_ANGLE_PUNCT = frozenset({",", ".", "[", "]", "?", "&"})
_ANGLE_KEYWORDS = frozenset({"extends", "super"})
_CLOSER_DEPTH = {">": 1, ">>": 2, ">>>": 3}


@dataclass(frozen=True)
class GenericAngles:
    """Token indices classified as generic type brackets."""

    indices: frozenset[int]
    open_close: dict[int, int]  # outermost '<' index -> final closer index
    close_open: dict[int, int]  # final closer index -> outermost '<' index


def mark_generic_angles(tokens: Sequence[Token]) -> GenericAngles:
    marked: set[int] = set()
    open_close: dict[int, int] = {}
    close_open: dict[int, int] = {}
    n = len(tokens)
    for i in range(n):
        tok = tokens[i]
        if tok.text != "<" or i in marked:
            continue
        depth = 1
        angle_indices = [i]
        j = i + 1
        matched = False
        while j < n:
            t = tokens[j]
            tx = t.text
            if tx == "<":
                depth += 1
                angle_indices.append(j)
            elif tx in _CLOSER_DEPTH:
                depth -= _CLOSER_DEPTH[tx]
                angle_indices.append(j)
                if depth == 0:
                    matched = True
                    break
                if depth < 0:
                    break
            elif t.kind is TokenKind.IDENTIFIER:
                pass
            elif t.kind is TokenKind.KEYWORD and tx in _ANGLE_KEYWORDS:
                pass
            elif tx in _ANGLE_PUNCT:
                pass
            else:
                break
            j += 1
        if matched:
            marked.update(angle_indices)
            open_close[i] = j
            close_open[j] = i
    return GenericAngles(frozenset(marked), open_close, close_open)


# ---------------------------------------------------------------------------
# body location
# ---------------------------------------------------------------------------

_TYPE_KEYWORDS = frozenset({"class", "interface", "enum"})
_FORBIDDEN_BEFORE_NAME = frozenset(
    {"new", "if", "for", "while", "switch", "catch", "synchronized"}
)
PRIMITIVE_TYPES = frozenset(
    {"boolean", "byte", "char", "short", "int", "long", "float", "double"}
)


def is_reference_type(type_text: str | None) -> bool:
    return type_text is not None and type_text not in PRIMITIVE_TYPES and type_text != "void"


def locate_bodies(unit: SourceUnit) -> list[BodySpan]:
    """Find every method/constructor body span, including those of nested,
    local, and anonymous types.

    One loop over an explicit stack of frames ``(next token, end token,
    enclosing type name or None inside a block)``, so nesting depth is
    bounded by memory rather than by the interpreter stack.  In any frame a
    type declaration or an anonymous class body opens a type-body frame;
    in a type body, an initializer ``{`` or a callable body also opens a
    block frame.
    """
    pairs = unit.pairs  # unbalanced braces fail here, even in a unit with no bodies
    tokens = unit.tokens
    spans: list[BodySpan] = []
    frames: list[tuple[int, int, str | None]] = [(0, len(tokens), None)]
    while frames:
        i, hi, type_name = frames.pop()
        while i < hi:
            tok = tokens[i]
            body_open = None
            child_name = None
            if _is_type_decl_keyword(tokens, i):
                j = i + 1
                while j < hi and tokens[j].kind is not TokenKind.IDENTIFIER:
                    j += 1
                if j < hi:
                    child_name = tokens[j].text
                    while j < hi and tokens[j].text != "{":
                        j += 1
                    if j < hi:
                        body_open = j
            elif tok.kind is TokenKind.KEYWORD and tok.text == "new":
                site = match_creation(unit, i, hi)
                if site is not None and site[1] + 1 < hi and tokens[site[1] + 1].text == "{":
                    child_name, body_open = site[0], site[1] + 1
            elif type_name is not None:
                if tok.text == "{":
                    body_open = i  # initializer block or array initializer
                elif tok.kind is TokenKind.IDENTIFIER and i + 1 < hi and tokens[i + 1].text == "(":
                    body_open = _try_callable(unit, spans, i, hi, type_name)
            if body_open is None:
                i += 1
                continue
            close = pairs[body_open]
            frames.append((close + 1, hi, type_name))
            frames.append((body_open + 1, close, child_name))
            break
    spans.sort(key=lambda s: s.body_token_range[0])
    return spans


def match_braces(tokens: Sequence[Token]) -> dict[int, int]:
    """Map each '(', '[' and '{' token index to the index of its closer.

    Each kind pairs on its own stack, in one pass.  Curly braces must
    balance; an unmatched '(' or '[' is left out and a stray ')' or ']' is
    passed over.
    """
    pairs: dict[int, int] = {}
    paren: list[int] = []
    bracket: list[int] = []
    brace: list[int] = []
    stacks = {"(": paren, ")": paren, "[": bracket, "]": bracket, "{": brace, "}": brace}
    for idx, tok in enumerate(tokens):
        tx = tok.text
        stack = stacks.get(tx)
        if stack is None:
            continue
        if tx in "([{":
            stack.append(idx)
        elif stack:
            pairs[stack.pop()] = idx
        elif tx == "}":
            raise errors.UnbalancedBraces("unmatched '}'", tok.line, tok.column)
    if brace:
        tok = tokens[brace[-1]]
        raise errors.UnbalancedBraces("unclosed '{'", tok.line, tok.column)
    return pairs


def match_creation(unit: SourceUnit, i: int, hi: int) -> tuple[str, int] | None:
    """At the 'new' keyword at index ``i``, match ``new Name(.Name)* [<...>]
    ( ... )`` within ``tokens[:hi]``.

    Returns the last name and the index of the closing ')', or None for
    anything else (array creation, a parenthesis left open before ``hi``).
    """
    tokens, angles = unit.tokens, unit.angles
    j = i + 1
    if j >= hi or tokens[j].kind is not TokenKind.IDENTIFIER:
        return None
    name = tokens[j].text
    j += 1
    while j + 1 < hi and tokens[j].text == "." and tokens[j + 1].kind is TokenKind.IDENTIFIER:
        name = tokens[j + 1].text
        j += 2
    if j < hi and tokens[j].text == "<" and j in angles.open_close:
        j = angles.open_close[j] + 1
    if j >= hi or tokens[j].text != "(":
        return None
    pclose = unit.pairs.get(j, hi)
    return (name, pclose) if pclose < hi else None


def _is_type_decl_keyword(tokens: Sequence[Token], i: int) -> bool:
    tok = tokens[i]
    if tok.kind is not TokenKind.KEYWORD or tok.text not in _TYPE_KEYWORDS:
        return False
    # 'String.class' is a class literal, not a declaration
    return i == 0 or tokens[i - 1].text != "."


def _try_callable(
    unit: SourceUnit, spans: list[BodySpan], i: int, hi: int, type_name: str
) -> int | None:
    """Match Identifier '(' params ')' [throws names] '{' at index ``i``.

    Records the span and returns the index of the body's '{', or None when
    the tokens do not form a callable header.
    """
    tokens = unit.tokens
    prev = tokens[i - 1] if i > 0 else None
    if prev is not None and prev.kind is TokenKind.KEYWORD and prev.text in _FORBIDDEN_BEFORE_NAME:
        return None
    popen = i + 1
    pclose = unit.pairs.get(popen, hi)
    if pclose >= hi:
        return None
    j = pclose + 1
    if j < hi and tokens[j].kind is TokenKind.KEYWORD and tokens[j].text == "throws":
        j += 1
        while j < hi and (
            tokens[j].kind is TokenKind.IDENTIFIER or tokens[j].text in (".", ",")
        ):
            j += 1
    if j >= hi or tokens[j].text != "{":
        return None
    body_open = j
    body_close = unit.pairs[body_open]
    name_tok = tokens[i]
    return_type = _return_type_text(tokens, unit.angles, i)
    params, name_indices = _parse_params(unit, popen, pclose)
    if return_type is None and name_tok.text == type_name:
        kind = SpanKind.CONSTRUCTOR
    else:
        kind = SpanKind.METHOD
    spans.append(
        BodySpan(
            kind=kind,
            name=name_tok.text,
            decl_line=name_tok.line,
            body_token_range=(body_open, body_close + 1),
            param_types=params,
            return_type_text=None if kind is SpanKind.CONSTRUCTOR else return_type,
            param_name_indices=name_indices,
        )
    )
    return body_open


def _return_type_text(
    tokens: Sequence[Token], angles: GenericAngles, name_idx: int
) -> str | None:
    """Collect the type tokens preceding a callable's name, walking backward
    over qualified names, array brackets, and generic groups."""
    collected: list[int] = []
    k = name_idx - 1
    while k >= 0:
        tok = tokens[k]
        tx = tok.text
        if tok.kind is TokenKind.IDENTIFIER:
            if k > 0 and tokens[k - 1].text == "@":
                break  # annotation, not part of the type
            collected.append(k)
            k -= 1
            continue
        if tok.kind is TokenKind.KEYWORD and (tx in PRIMITIVE_TYPES or tx == "void"):
            collected.append(k)
            k -= 1
            continue
        if tx in (".", "[", "]"):
            collected.append(k)
            k -= 1
            continue
        if tx in _CLOSER_DEPTH and k in angles.close_open:
            opener = angles.close_open[k]
            collected.extend(range(k, opener - 1, -1))
            k = opener - 1
            continue
        break
    collected.reverse()
    # drop a leading type-parameter group:  <T> T f(...)
    if collected and tokens[collected[0]].text == "<":
        group_close = angles.open_close.get(collected[0])
        if group_close is not None:
            collected = [x for x in collected if x > group_close]
    if not collected:
        return None
    return _render_type(tokens, collected)


def _render_type(tokens: Sequence[Token], indices: Iterable[int]) -> str:
    parts: list[str] = []
    prev = ""
    for idx in indices:
        tx = tokens[idx].text
        if parts and (_wordy(prev[-1]) or prev == "?") and _wordy(tx[0]):
            parts.append(" ")
        parts.append(tx)
        prev = tx
    return "".join(parts)


def _wordy(ch: str) -> bool:
    return ch.isalnum() or ch == "_" or ch == "$"


def _parse_params(
    unit: SourceUnit, popen: int, pclose: int
) -> tuple[tuple[tuple[str, str], ...], tuple[int, ...]]:
    """Name and type of each parameter between ``popen`` and ``pclose``,
    split at the commas outside bracket and generic groups."""
    tokens, pairs, angles = unit.tokens, unit.pairs, unit.angles
    params: list[tuple[str, str]] = []
    name_indices: list[int] = []
    lo = idx = popen + 1
    while idx <= pclose:
        if idx < pclose and tokens[idx].text != ",":
            # past the group this token opens, if any; in broken code a '['
            # may close past the list
            group_end = pairs.get(idx) or angles.open_close.get(idx, idx)
            idx = min(group_end, pclose - 1) + 1
            continue
        kept = _strip_param_modifiers(unit, lo, idx)
        names = [k for k in kept if tokens[k].kind is TokenKind.IDENTIFIER]
        if names:
            type_indices = [k for k in kept if k != names[-1]]
            params.append((tokens[names[-1]].text, _render_type(tokens, type_indices)))
            name_indices.append(names[-1])
        lo = idx = idx + 1
    return tuple(params), tuple(name_indices)


def _strip_param_modifiers(unit: SourceUnit, lo: int, hi: int) -> list[int]:
    """Indices of the parameter tokens in ``[lo, hi)`` but 'final' and
    annotations."""
    tokens = unit.tokens
    kept: list[int] = []
    k = lo
    while k < hi:
        tok = tokens[k]
        if tok.kind is TokenKind.KEYWORD and tok.text == "final":
            k += 1
            continue
        if tok.text == "@":
            k += 1
            while k < hi and tokens[k].kind is TokenKind.IDENTIFIER:
                k += 1
                if k + 1 < hi and tokens[k].text == ".":
                    k += 1
                else:
                    break
            if k < hi and tokens[k].text == "(":
                k = min(unit.pairs.get(k, hi) + 1, hi)  # past the arguments
            continue
        kept.append(k)
        k += 1
    return kept


# ---------------------------------------------------------------------------
# relevance
# ---------------------------------------------------------------------------


def span_region_lines(unit: SourceUnit, spans: Sequence[BodySpan]) -> set[int]:
    """All lines from each span's declaration line through its closing brace."""
    region: set[int] = set()
    covered = 0  # every line up to here is in ``region``; nested spans add none
    tokens = unit.tokens
    ends = sorted((s.decl_line, tokens[s.body_token_range[1] - 1].line) for s in spans)
    for first, last in ends:
        if last > covered:
            region.update(range(max(first, covered + 1), last + 1))
            covered = last
    return region


def relevant_lines(unit: SourceUnit, spans: Sequence[BodySpan]) -> LineSet:
    """Non-blank lines within some span region.

    Blank means no non-whitespace character outside comments; a line holding
    only a comment is blank for this purpose.
    """
    region = span_region_lines(unit, spans)
    return LineSet(frozenset(region & _nonblank_lines(unit)))


def _nonblank_lines(unit: SourceUnit) -> set[int]:
    covered = {tok.line for tok in unit.tokens}
    # only text blocks span lines
    for tok in unit.tokens:
        if tok.kind is TokenKind.STRING_LITERAL and tok.text.startswith('"""'):
            last_line = tok.line + len(scanner.LINE_END.findall(tok.text))
            covered.update(range(tok.line + 1, last_line + 1))
    # a token may sit on a line that strip() calls blank (U+00A0, say)
    lines = unit.lines
    return {ln for ln in covered if ln - 1 < len(lines) and lines[ln - 1].strip()}
