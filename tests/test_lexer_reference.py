"""The one-scan lexer against the regex-per-peek lexer it replaced.

``ReferenceLexer`` is the lexer as it was before tokens were scanned once:
``peek`` matches the token regex at the current offset, ``next`` matches it
again to advance, and a character that starts no token raises as soon as it
is peeked.  Both lexers drive the same recursive-descent parser
(``pwa._parse_sum`` plus the end-of-input check of ``parse_pwa``), so they
must give the same tree, or the same ParseError position, expected set and
found value, on any text.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from relugeo.errors import ParseError
from relugeo.pwa import _Lexer, _parse_sum, parse_pwa

_REFERENCE_TOKEN = re.compile(
    r"\s*(?:(\d+(?:\.\d+)?(?:/\d+)?)|(affine|relu|max|min)|([()\[\],+*-]))"
)


class ReferenceLexer:
    def __init__(self, text):
        self.text = text
        self.pos = 0  # 0-based offset into text
        self.depth = 0  # nesting level of the factor being parsed

    def peek(self):
        """(kind, value, 1-based position) of the next token; kind None at end."""
        m = _REFERENCE_TOKEN.match(self.text, self.pos)
        if m is None:
            rest = self.text[self.pos :].lstrip()
            at = len(self.text) - len(rest) + 1
            if rest:
                raise ParseError(at, {"a token"}, rest[0])
            return None, None, at
        i = m.lastindex  # exactly one of the three alternatives matched
        return {1: "num", 2: "name"}.get(i, m.group(i)), m.group(i), m.start(i) + 1

    def next(self):
        tok = self.peek()
        if tok[0] is not None:
            m = _REFERENCE_TOKEN.match(self.text, self.pos)
            self.pos = m.end()
        return tok

    def expect(self, kind, what=None):
        k, v, at = self.next()
        if k != kind:
            raise ParseError(at, {what or repr(kind)}, v)
        return v


def parse_with(lexer, text):
    """The tree, or the error as (position, expected, found), or another
    exception (a bad rational such as "1.5/2") by type and message."""
    lx = lexer(text)
    try:
        expr = _parse_sum(lx)
        k, v, at = lx.peek()
        if k is not None:
            raise ParseError(at, {"'+'", "end of input"}, v)
        return "tree", expr
    except ParseError as exc:
        return "ParseError", (exc.position, exc.expected, exc.found)
    except Exception as exc:  # the exception type and message are the outcome
        return type(exc).__name__, str(exc)


def assert_same(text):
    new = parse_with(_Lexer, text)
    assert new == parse_with(ReferenceLexer, text)
    try:
        assert new == ("tree", parse_pwa(text))
    except ParseError as exc:
        assert new == ("ParseError", (exc.position, exc.expected, exc.found))
    except Exception as exc:
        assert new == (type(exc).__name__, str(exc))


SPACES = st.sampled_from(["", "", " ", "\t", "\n", "\x1c", "　", "  \t"])
NUMBERS = st.sampled_from(["0", "1", "12", "1/2", "3.25", "٣", "７/2"])
# "2/0" and "1.5/2" are number tokens that no rational reads
JUNK = st.sampled_from(["$", "×", ".", "e", "_", "x", "a", "/", "1e3", "affinex", "2/0", "1.5/2"])
PUNCTUATION = ["(", ")", "[", "]", ",", "+", "*", "-"]
NAMES = ["affine", "relu", "max", "min"]


@st.composite
def spaced(draw, parts):
    """``parts`` joined, led and trailed by drawn whitespace."""
    return "".join(draw(SPACES) + p for p in parts) + draw(SPACES)


@st.composite
def expressions(draw, depth=3):
    """Token lists of a valid expression of the grammar."""
    kinds = ["affine", "relu", "max", "scale", "neg", "sum", "group"] if depth else ["affine"]
    kind = draw(st.sampled_from(kinds))
    sub = lambda: draw(expressions(depth - 1))
    if kind == "affine":
        coeffs = draw(st.lists(NUMBERS, min_size=1, max_size=3))
        inner = [t for c in coeffs for t in (",", c)][1:]
        sign = draw(st.sampled_from([[], ["-"]]))
        return ["affine", "(", "[", *inner, "]", ",", *sign, draw(NUMBERS), ")"]
    if kind == "relu":
        return ["relu", "(", *sub(), ")"]
    if kind == "max":
        return [draw(st.sampled_from(["max", "min"])), "(", *sub(), ",", *sub(), ")"]
    if kind == "scale":
        return [draw(NUMBERS), "*", "(", *sub(), ")"]
    if kind == "neg":
        return ["-", *sub()]
    if kind == "sum":
        return [*sub(), "+", *sub()]
    return ["(", *sub(), ")"]


@st.composite
def texts(draw):
    shape = draw(st.sampled_from(["valid", "truncated", "doubled", "junk", "tokens", "empty"]))
    if shape == "empty":
        return draw(st.sampled_from(["", " ", "\t\x1c　"]))
    if shape == "tokens":  # any grammar tokens, junk and digits in any order
        pool = st.one_of(st.sampled_from(PUNCTUATION + NAMES), NUMBERS, JUNK)
        return draw(spaced(draw(st.lists(pool, max_size=12))))
    text = draw(spaced(draw(expressions())))
    if shape == "truncated":
        return text[: draw(st.integers(0, len(text)))]
    if shape == "doubled":
        return text + draw(SPACES) + text
    if shape == "junk":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(JUNK) + text[at:]
    return text


@settings(max_examples=600, deadline=None)
@given(texts())
def test_one_scan_lexer_parses_as_the_reference(text):
    assert_same(text)


def test_fixed_texts():
    for text in [
        "",
        "   ",
        "$",
        " \t$",
        "relu(affine([1],0)) $",
        "relu(affine([1],0))　",
        "relu(affine([1],0)) relu(affine([1],0))",
        "relu(affine([1],0)",
        "2 * 3",
        "affine([١,２],3)",
        "affine([1.],0)",
        "max(affine([1],0),",
        "-" * 150 + "affine([1],0)",
    ]:
        assert_same(text)
