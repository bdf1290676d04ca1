"""Source model: tokens, method/constructor body spans, relevant lines.

The analyzer works on a syntactic Java-style subset: no symbol table, no
type resolution.  Constructs outside the subset (annotations, generics,
lambdas, text blocks) are tokenized and skipped gracefully.
"""

import functools
import re
from bisect import bisect_left, bisect_right
from enum import Enum
from itertools import compress
from typing import Iterable, NamedTuple, Sequence

from mutdense import errors, scanner
from mutdense.scanner import Token, TokenKind, Tokens


def tokenize(text: str, start: int = 0) -> list[Token]:
    """Scan ``text`` into ``Token`` tuples, from offset ``start`` on.

    Comments and whitespace emit nothing; literals keep their delimiters.
    Raises UnterminatedLiteral / UnterminatedComment with the position of
    the offending construct.
    """
    return list(scanner.scan(text, start))


_SPACE = f"[{re.escape(scanner._WS)}]"  # one character the scanner reads as whitespace
_WS = _SPACE + "*"


@functools.cache  # compiled on first use: a process that reads no unit skips it
def _preamble() -> re.Pattern:
    """A unit's preamble: a run of whitespace, complete comments and
    complete ``package`` and ``import [static]`` statements made of names,
    '.', '*' and whitespace.  No layer reads a token in it: it holds no
    bracket, no '<' and no word that opens a block, and every body lies
    after it.  Each text matches in one way only, so a failed piece
    backtracks in linear time, and a line comment counts only with its
    line end, so the window below never cuts one."""
    # a name of ASCII characters that is none of the words at which
    # ``locate_bodies`` opens a type body; any other name ends the preamble
    name = rf"(?!(?:{'|'.join(_TYPE_OPENERS)})(?![\w$]))[A-Za-z_$][A-Za-z0-9_$]*"
    return re.compile(
        rf"(?:{_SPACE}+(?!{_SPACE})|//[^\r\n]*(?=[\r\n])"
        r"|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/"
        rf"|(?:package|import(?![\w$])(?:{_WS}static)?)(?![\w$])"
        rf"{_WS}{name}(?:{_WS}\.{_WS}(?:{name}|\*))*{_WS};)*"
    )


# The regex engine's memory grows with each repetition it matches, so the
# preamble is sought in the first 64 KiB only; stopping early is safe.
_PREAMBLE_WINDOW = 1 << 16


class _SourceFields(NamedTuple):
    path: str
    text: str
    tokens: Tokens


class SourceUnit(_SourceFields):
    """One source file: raw text and its tokens, as the columns of
    ``scanner.scan``; indexing ``tokens`` builds a ``Token``.

    ``pairs`` (bracket pairs), ``angles`` and ``positions`` are derived on
    first use and kept, so every layer that reads them shares one
    computation; ``tokens.line_starts`` numbers the physical lines.
    """

    @classmethod
    def from_text(cls, path: str, text: str) -> "SourceUnit":
        """The unit of ``text``, whose tokens start after its package and
        import preamble: every layer gives the same results as it does on
        all of the text's tokens."""
        start = _preamble().match(text, 0, _PREAMBLE_WINDOW).end()
        return cls(path, text, scanner.scan(text, start))

    @functools.cached_property
    def pairs(self) -> dict[int, int]:
        return match_braces(self.tokens, self.positions)

    @functools.cached_property
    def angles(self) -> "GenericAngles":
        return mark_generic_angles(self.tokens, self.positions)

    @functools.cached_property
    def positions(self) -> dict[str, list[int]]:
        return text_positions(self.tokens)

    def positions_of(self, texts: Iterable[str]) -> list[int]:
        """The ascending indices of the tokens whose text is one of
        ``texts``, each a keyword, an operator or punctuation."""
        positions = self.positions
        found: list[int] = []
        for text in texts:
            found += positions.get(text, ())
        found.sort()
        return found


_INDEXED_KINDS = frozenset({TokenKind.KEYWORD, TokenKind.OPERATOR, TokenKind.PUNCTUATION})


def text_positions(tokens: Tokens) -> dict[str, list[int]]:
    """Map each keyword, operator and punctuation text to the ascending
    indices of its tokens; identifiers and literals are left out."""
    positions: dict[str, list[int]] = {}
    kinds = tokens.kinds
    for idx, text in enumerate(tokens.texts):
        if kinds[idx] in _INDEXED_KINDS:
            at = positions.get(text)
            if at is None:
                positions[text] = [idx]
            else:
                at.append(idx)
    return positions


class SpanKind(Enum):
    METHOD = "method"
    CONSTRUCTOR = "constructor"


class BodySpan(NamedTuple):
    """A method or constructor with a brace-delimited body.

    ``body_token_range`` is a half-open token-index pair whose first token
    is the opening ``{`` and whose last covered token is the matching ``}``.
    ``decl_line`` is the line of the name token in the declaration header.
    ``returns_reference`` tells whether a method's return type is a
    reference type (never for a constructor); ``nullable_params`` holds the
    name-token index of each parameter that is not ``final``, not a
    receiver and of a reference type.  ``owned`` holds the ascending
    half-open token intervals of the body that lie outside every type body
    nested in it.  ``returns`` pairs each ``return`` in them that leaves no
    block lambda with its statement's ';' (None if none comes before the
    body's '}'), and ``creations`` each owned ``new Name(...)`` but a whole
    statement with its ')', which lies before the '}' of its body or lambda.
    """

    kind: SpanKind
    name: str
    decl_line: int
    body_token_range: tuple[int, int]
    returns_reference: bool
    nullable_params: tuple[int, ...]
    owned: list[tuple[int, int]]
    returns: list[tuple[int, int | None]]
    creations: list[tuple[int, int]]


class LineSet(NamedTuple):
    relevant: frozenset[int]


# ---------------------------------------------------------------------------
# generic angle brackets
# ---------------------------------------------------------------------------

# A '<' is a type bracket iff it can be closed by a later '>' / '>>' / '>>>'
# with every enclosed token drawn from: Identifier, ',', '?', 'extends',
# 'super', '.', '[', ']', '&', a primitive keyword followed by '[' (int[]),
# an '@' followed by an identifier (@NonNull), or a nested '<...>'.
# Anything else makes it a relational operator.
# the texts that continue a run; a token with a keyword's text is that keyword
_ANGLE_WORDS = frozenset({",", ".", "[", "]", "?", "&", "extends", "super"})
_CLOSER_DEPTH = {">": 1, ">>": 2, ">>>": 3}


class GenericAngles(NamedTuple):
    """Token indices classified as generic type brackets."""

    indices: frozenset[int]
    open_close: dict[int, int]  # outermost '<' index -> final closer index
    close_open: dict[int, int]  # final closer index -> outermost '<' index


def mark_generic_angles(tokens: Tokens, positions: dict[str, list[int]]) -> GenericAngles:
    """Mark each '<' that a later closer matches, with the '<'s and closers
    between them, unless an earlier match encloses it.  One walk over a run
    of type-argument tokens settles every '<' in the run, so a walk starts
    only at a '<' of ``positions`` that no earlier run covered."""
    marked: set[int] = set()
    open_close: dict[int, int] = {}
    close_open: dict[int, int] = {}
    texts, kinds = tokens.texts, tokens.kinds
    n = len(texts)
    covered = -1  # the index of the token that ended the last run
    for i in positions.get("<", ()):
        if i <= covered:
            continue
        angle_indices: list[int] = []  # each '<' and closer of the run
        unsettled: list[tuple[int, int]] = []  # ('<' index, depth before it)
        matches: dict[int, int] = {}  # '<' index -> its closer's index
        depth = 0
        j = i
        while j < n:
            tx = texts[j]
            if tx == "<":
                unsettled.append((j, depth))
                depth += 1
                angle_indices.append(j)
            elif tx in _CLOSER_DEPTH:
                depth -= _CLOSER_DEPTH[tx]
                angle_indices.append(j)
                # the closer ends each '<' opened at or above the new depth;
                # the one opened exactly at it matches here
                while unsettled and unsettled[-1][1] >= depth:
                    k, before = unsettled.pop()
                    if before == depth:
                        matches[k] = j
            elif not (tx in _ANGLE_WORDS
                      or (tx in PRIMITIVE_TYPES and j + 1 < n and texts[j + 1] == "[")
                      or kinds[j] is TokenKind.IDENTIFIER
                      or (tx == "@" and j + 1 < n and kinds[j + 1] is TokenKind.IDENTIFIER)):
                break
            j += 1
        enclosing_end = -1
        for k in angle_indices:
            if k <= enclosing_end:
                marked.add(k)
            elif k in matches:
                enclosing_end = matches[k]
                open_close[k] = enclosing_end
                close_open[enclosing_end] = k
                marked.add(k)
        covered = j
    return GenericAngles(frozenset(marked), open_close, close_open)


# ---------------------------------------------------------------------------
# body location
# ---------------------------------------------------------------------------

# Where each frame of ``locate_bodies`` stops: every frame at the words that
# may open a type body; a block also at each return and where a block lambda
# or a statement may, a type body where an initializer or a callable may.
_TYPE_OPENERS = ("new", "class", "enum", "interface")
_BLOCK_STOPS = (*_TYPE_OPENERS, "return", "->", "case", "default", "switch", "if", "while", "for")
_TYPE_BODY_STOPS = (*_TYPE_OPENERS, "{", "(")
_LABEL_ENDS = frozenset({"->", ":", ";", "{", "}"})
# A statement starts after these ('else' and 'do' take one) and after each end
# that ``locate_bodies`` marks; after other ':', '->' or ')' an expression may.
_STATEMENT_STARTS = frozenset({";", "{", "}", "else", "do"})
_STATEMENT_END = frozenset({";"})
_BODY_OPEN, _COMMA = frozenset({"{"}), frozenset({","})
_FORBIDDEN_BEFORE_NAME = frozenset(
    {"new", "if", "for", "while", "switch", "catch", "synchronized"}
)
PRIMITIVE_TYPES = frozenset(
    {"boolean", "byte", "char", "short", "int", "long", "float", "double"}
)
_TYPE_WORDS = PRIMITIVE_TYPES | {"void"}  # the keywords a return type may be


def locate_bodies(unit: SourceUnit) -> list[BodySpan]:
    """Find every method/constructor body span, including those of nested,
    local, and anonymous types, with the tokens and returns each one owns.

    One loop over an explicit stack of frames ``(lo, hi, type_name, span,
    returns)``, so nesting depth is bounded by memory rather than by the
    interpreter stack.  A frame walks ``tokens[lo:hi]``, adding to the owned
    intervals and creations of ``span`` (None outside a callable's body or
    in an initializer) and to ``returns`` (the span's, or None in a block
    lambda), through the ascending indices of its stops in
    ``unit.positions``.  A block (no ``type_name``) stops at ``new`` and the
    type keywords, where a type body may open, at each ``return``, at each
    ``->``, ``case`` and ``default``, which tell whether a ``{`` after a
    ``->`` opens a block lambda, and at each ``if``, ``while``, ``for`` and
    ``switch``, which tell where statements start; a type body stops at
    ``new`` and the type keywords too, at each ``{``, which opens an
    initializer block, and at each ``(``, where a callable's parameters open
    when a name precedes it.  A type's ``{`` is the first outside its
    header's groups.  When another stop lies between a stop and the ``{`` it
    opens (an anonymous class's arguments), the tokens between are one more
    frame like the enclosing one, walked before the body; no body opens in
    it that closes past it.  A callable's body owns its tokens outside the
    type bodies in it, its returns outside the block lambdas in it (each
    with its ';') and its creations but whole statements (each with its ')').
    """
    pairs = unit.pairs  # unbalanced braces fail here, even in a unit with no bodies
    texts, kinds = unit.tokens.texts, unit.tokens.kinds
    block_stops = unit.positions_of(_BLOCK_STOPS)
    body_stops = unit.positions_of(_TYPE_BODY_STOPS)
    spans: list[BodySpan] = []
    # each header's ')' and each switch label's ':' or '->', mapped to whether
    # a statement starts after it: not after a switch expression's arrow
    ends: dict[int, bool] = {}
    switches: list[tuple[int, bool]] = []  # each open switch body's '}', and whether a statement

    def starts_statement(i: int) -> bool:
        """Whether a statement starts at ``tokens[i]``, after any labels ``name :``."""
        k = i - 1
        while k > 0 and k not in ends and texts[k] == ":" and kinds[k - 1] is TokenKind.IDENTIFIER:
            k -= 2
        return k >= 0 and (texts[k] in _STATEMENT_STARTS or ends.get(k, False))

    frames: list[tuple] = [(0, len(texts), None, None, None)]
    while frames:
        lo, hi, type_name, span, returns = frames.pop()
        stops = block_stops if type_name is None else body_stops
        for k in range(bisect_left(stops, lo), bisect_left(stops, hi)):
            i = stops[k]
            tx = texts[i]
            child = None  # the fields of the body's frame after its bounds
            if tx == "new":
                site = match_creation(unit, i, hi)
                if site is not None and span is not None and (
                        texts[site[1] + 1] != ";" or not starts_statement(i)):
                    span.creations.append((i, site[1]))
                if site is not None and site[1] + 1 < hi and texts[site[1] + 1] == "{":
                    body_open, child = site[1] + 1, (site[0], None, None)
            elif tx == "{":  # initializer block or array initializer
                body_open, child = i, (None, None, None)
            elif tx == "(":
                # a type body starts after its '{', so tokens[i - 1] is in it
                if kinds[i - 1] is TokenKind.IDENTIFIER:
                    found = _try_callable(unit, i - 1, hi, type_name)
                    if found is not None:
                        spans.append(found)
                        body_open, child = found.body_token_range[0], (None, found, found.returns)
            elif tx == "return":
                if returns is not None:
                    returns.append((i, first_outside_groups(unit, i + 1, hi, _STATEMENT_END)))
            elif tx == "if" or tx == "while" or tx == "for":
                ends[pairs.get(i + 1, hi)] = True  # with no ')', hi: a brace or past the end
            elif tx == "->":
                if i not in ends and i + 1 < hi and texts[i + 1] == "{":
                    body_open, child = i + 1, (None, span, None)
            elif tx == "case" or tx == "default":
                end = first_outside_groups(unit, i + 1, hi, _LABEL_ENDS)
                while switches and switches[-1][0] < i:  # closed before this label
                    switches.pop()
                if end is not None and texts[end] == ":":
                    ends[end] = True
                elif end is not None and texts[end] == "->":
                    ends[end] = bool(switches) and switches[-1][1]
            elif tx == "switch":
                body = pairs.get(i + 1, hi) + 1  # the '{' after its header
                if body < hi and texts[body] == "{":
                    switches.append((pairs[body], starts_statement(i)))
            elif i == 0 or texts[i - 1] != ".":  # 'String.class' is a class literal
                j = i + 1
                while j < hi and kinds[j] is not TokenKind.IDENTIFIER:
                    j += 1
                body_open = first_outside_groups(unit, j, hi, _BODY_OPEN)
                if body_open is not None:  # the type's name is texts[j]
                    child = (texts[j], None, None)
            if child is not None and (close := pairs[body_open]) < hi:
                # an anonymous class's arguments that hold stops are walked first
                head = i + 1 if bisect_left(stops, body_open) > k + 1 else body_open
                if span is not None and lo < head:
                    span.owned.append((lo, head))
                frames.append((close + 1, hi, type_name, span, returns))
                frames.append((body_open + 1, close, *child))
                if head < body_open:
                    frames.append((head, body_open, type_name, span, returns))
                break
        else:  # no body opened before ``hi``
            if span is not None and lo < hi:
                span.owned.append((lo, hi))
    spans.sort(key=lambda s: s.body_token_range[0])
    return spans


def match_braces(tokens: Tokens, positions: dict[str, list[int]]) -> dict[int, int]:
    """Map each '(', '[' and '{' token index to the index of its closer.

    Each kind pairs on its own stack, walking only that kind's indices in
    ``positions``.  Curly braces must balance; an unmatched '(' or '[' is
    left out and a stray ')' or ']' is passed over.
    """
    pairs: dict[int, int] = {}
    for opener, closer in (("(", ")"), ("[", "]"), ("{", "}")):
        opens = positions.get(opener, ())
        stack: list[int] = []
        k = 0  # opens[:k] are on the stack or already closed
        for close in positions.get(closer, ()):
            j = bisect_left(opens, close, k)
            stack += opens[k:j]
            k = j
            if stack:
                pairs[stack.pop()] = close
            elif opener == "{":
                raise errors.UnbalancedBraces("unmatched '}'", tokens.lines[close],
                                              tokens.column(close))
        if opener == "{" and (stack or k < len(opens)):
            at = opens[-1] if k < len(opens) else stack[-1]  # the last left open
            raise errors.UnbalancedBraces("unclosed '{'", tokens.lines[at], tokens.column(at))
    return pairs


def match_creation(unit: SourceUnit, i: int, hi: int) -> tuple[str, int] | None:
    """At the 'new' keyword at index ``i``, match ``new Name(.Name)* [<...>]
    ( ... )`` within ``tokens[:hi]``.

    Returns the last name and the index of the closing ')', or None for
    anything else (array creation, a parenthesis left open before ``hi``).
    """
    texts, kinds, angles = unit.tokens.texts, unit.tokens.kinds, unit.angles
    j = i + 1
    if j >= hi or kinds[j] is not TokenKind.IDENTIFIER:
        return None
    name = texts[j]
    j += 1
    while j + 1 < hi and texts[j] == "." and kinds[j + 1] is TokenKind.IDENTIFIER:
        name = texts[j + 1]
        j += 2
    if j < hi and texts[j] == "<" and j in angles.open_close:
        j = angles.open_close[j] + 1
    if j >= hi or texts[j] != "(":
        return None
    pclose = unit.pairs.get(j, hi)
    return (name, pclose) if pclose < hi else None


def first_outside_groups(unit: SourceUnit, k: int, end: int, wanted: frozenset[str]) -> int | None:
    """The index of the first token from ``k`` up to ``end`` whose text is
    one of ``wanted``, jumping over each bracket and generic group; None if
    there is none, also when a group closes at or past ``end``."""
    texts, pairs, angles = unit.tokens.texts, unit.pairs, unit.angles.open_close
    while k < end:
        if texts[k] in wanted:
            return k
        k = (pairs.get(k) or angles.get(k, k)) + 1
    return None


def _try_callable(unit: SourceUnit, i: int, hi: int, type_name: str) -> BodySpan | None:
    """Match Identifier '(' params ')' ['[' ']']* [throws types] '{' at index ``i``.

    Returns the span, whose ``owned``, ``returns`` and ``creations`` are
    yet empty, or None when the tokens do not form a callable header.
    """
    tokens = unit.tokens
    texts, kinds = tokens.texts, tokens.kinds
    if texts[i - 1] in _FORBIDDEN_BEFORE_NAME:  # the name lies in a type body, after its '{'
        return None
    popen = i + 1
    pclose = unit.pairs.get(popen, hi)
    if pclose >= hi:
        return None
    j = pclose + 1
    while j < hi and texts[j] == "[":  # legacy array return: int f()[] { ... }
        j = unit.pairs.get(j, hi) + 1
    array_return = j > pclose + 1  # brackets after ')' make the return type an array
    if j < hi and texts[j] == "throws":
        j += 1
        while j < hi and (kinds[j] is TokenKind.IDENTIFIER or texts[j] in (".", ",", "@")):
            j += 1
            if j < hi and texts[j] == "(":  # a type annotation's arguments
                j = unit.pairs.get(j, hi) + 1
    if j >= hi or texts[j] != "{" or unit.pairs[j] >= hi:  # its body lies in tokens[:hi]
        return None
    name = texts[i]
    return_type = _type_before(tokens, unit.angles, i)
    constructor = return_type is None and name == type_name
    kind = SpanKind.CONSTRUCTOR if constructor else SpanKind.METHOD
    # positional arguments: a keyword call costs about twice as much, per span
    return BodySpan(kind, name, tokens.lines[i], (j, unit.pairs[j] + 1),
                    return_type is not None and (array_return or return_type),
                    _nullable_params(unit, popen, pclose), [], [], [])


def _type_before(tokens: Tokens, angles: GenericAngles, name_idx: int) -> bool | None:
    """The type declared just before the name at ``name_idx``: None when no
    type precedes it, False for a primitive keyword or ``void`` and True
    for any other type.  An array or a varargs type ends in ']' or '...';
    a generic type steps back over its '<...>' group, and a group that no
    type name precedes declares type parameters (``<T> C(``).  A type name
    is ``Name(.Name)*``, unless an '@' starts it: ``@a.b.C`` is an
    annotation, not a type."""
    texts, kinds = tokens.texts, tokens.kinds
    k = name_idx - 1
    tx = texts[k] if k >= 0 else ""
    if tx in _TYPE_WORDS:
        return False
    if tx in ("]", "..."):
        return True
    if k in angles.close_open:
        k = angles.close_open[k] - 1
    if k < 0 or kinds[k] is not TokenKind.IDENTIFIER:
        return None
    while k >= 2 and texts[k - 1] == "." and kinds[k - 2] is TokenKind.IDENTIFIER:
        k -= 2
    return None if k >= 1 and texts[k - 1] == "@" else True


def _nullable_params(unit: SourceUnit, popen: int, pclose: int) -> tuple[int, ...]:
    """The name token index of each parameter between ``popen`` and
    ``pclose`` that may be assigned ``null``.  Split at the commas outside
    bracket and generic groups, a parameter's name is its last identifier,
    before any '[' ']' pairs (``String args[]``).  It is nullable when a
    type precedes it (so it is not the parameter's first token), brackets
    follow it or that type is a reference, no ``final`` precedes it and it
    is no receiver (``C this``, ``C Outer.this``: ``this`` is no
    identifier).  An annotated dimension after the name (``int x @A []``)
    hides it: the name read is then ``A``, which no type precedes."""
    tokens, angles = unit.tokens, unit.angles
    texts = tokens.texts
    nullable: list[int] = []
    lo = popen + 1
    while lo <= pclose:
        # in broken code a '[' may close past the list, which then ends it
        idx = first_outside_groups(unit, lo, pclose, _COMMA) or pclose
        name = idx - 1
        while name - 1 > lo and texts[name] == "]" and texts[name - 1] == "[":
            name -= 2
        if tokens.kinds[name] is TokenKind.IDENTIFIER:
            declared = _type_before(tokens, angles, name)
            if (declared is not None and (name < idx - 1 or declared)
                    and "final" not in texts[lo:name]):
                nullable.append(name)
        lo = idx + 1
    return tuple(nullable)


# ---------------------------------------------------------------------------
# relevance
# ---------------------------------------------------------------------------


def relevant_lines(unit: SourceUnit, spans: Sequence[BodySpan]) -> LineSet:
    """Non-blank lines from some span's declaration line through its closing
    brace.

    Blank means no non-whitespace character outside comments; a line holding
    only a comment is blank for this purpose.
    """
    text, tokens = unit.text, unit.tokens
    texts, starts, lines = tokens.texts, tokens.starts, tokens.lines
    region: set[int] = set()
    covered = 0  # every line up to here is in ``region``; nested spans add none
    ends = sorted((s.decl_line, lines[s.body_token_range[1] - 1]) for s in spans)
    for first, last in ends:
        if last > covered:
            region.update(range(max(first, covered + 1), last + 1))
            covered = last
    held = set(lines)  # the lines a token starts on or, below, a text block spans
    at = text.find('"""')
    while at >= 0:
        k = bisect_left(starts, at)
        if k < len(starts) and starts[k] == at:
            at += len(texts[k]) - 1  # the block's last character
            held.update(range(lines[k] + 1, bisect_right(tokens.line_starts, at) + 1))
        at = text.find('"""', at + 1)
    held &= region
    # a token may sit on a line that strip() calls blank (U+00A0, say)
    bounds = [*tokens.line_starts, len(text)]  # line ln is text[bounds[ln - 1]:bounds[ln]]
    cuts = map(slice, map(bounds.__getitem__, map((-1).__add__, held)),
               map(bounds.__getitem__, held))
    return LineSet(frozenset(compress(held, map(str.strip, map(text.__getitem__, cuts)))))
