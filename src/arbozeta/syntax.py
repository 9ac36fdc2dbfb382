"""Text grammar and JSON serialization for forests, words and combinations.

Grammar::

    tree       := decoration [ '[' forest ']' ]
    forest     := tree { ',' tree } | empty      (top level also accepts spaces)
    decoration := positive integer | 'x' | 'y'
    word       := '(' decoration { ',' decoration } ')' | "xy-string"
    lincomb    := ['-'] term { ('+'|'-') term }
    term       := [rational '*'] (forest | word)
    rational   := int [ '/' int ]

``2[1,3[2]]`` is the tree with root 2 over a leaf 1 and a chain 3-2.
Brackets may nest at most ``MAX_NESTING`` deep; deeper input is a
``ParseError``, raised before any recursion in the parser or in the
algorithms that walk a tree can run out of stack.  :func:`render` is the
one printer of the command line's results.

Forests and words are interned (see ``trees``), so a value's text never
changes.  :func:`format_basis` therefore prints each interned forest or word
once and keeps the text in the value's own ``text`` slot.  Nothing ever
clears it: it lives exactly as long as the value, which the intern tables
keep for the life of the process, and it can never be stale because the
value it belongs to cannot change.  A combination's text is still built
afresh, since its coefficients and order belong to the combination.

The tokenizer is one ``re.findall``: each match is a number, a quoted
{x,y}-word, a symbol, or any other non-blank character, which is an error.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import ParseError
from .lincomb import LinComb
from .trees import Alphabet, Forest, Tree, _set
from .words import Word

if TYPE_CHECKING:
    from .zeta import MzvCombination, MzvEval

MAX_NESTING = 100

# One alternative per token kind; the last one catches any other character.
_TOKEN = re.compile(r'(\d+)|"([xy]*)"|([\[\](),+\-*/xy])|(\S)')


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    for num, letters, sym, bad in _TOKEN.findall(text):
        if num:
            tokens.append(("num", num))
        elif sym:
            tokens.append(("sym", sym))
        elif bad:
            raise ParseError(f"unexpected character {bad!r}")
        else:
            tokens.append(("str", letters))
    return tokens


def _check_nesting(tokens: list[tuple[str, str]]) -> None:
    depth = 0
    for kind, value in tokens:
        if kind == "sym" and value == "[":
            depth += 1
            if depth > MAX_NESTING:
                raise ParseError(f"trees nest deeper than {MAX_NESTING} levels")
        elif kind == "sym" and value == "]":
            depth -= 1


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        if text.count("[") > MAX_NESTING:
            _check_nesting(self.tokens)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, sym: str):
        kind, value = self.next()
        if kind != "sym" or value != sym:
            raise ParseError(f"expected {sym!r}, got {value!r}")

    def at_sym(self, *symbols: str) -> bool:
        kind, value = self.peek()
        return kind == "sym" and value in symbols

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    # decorations and trees ------------------------------------------------

    def at_tree_start(self) -> bool:
        kind, value = self.peek()
        return kind == "num" or (kind == "sym" and value in ("x", "y"))

    def parse_decoration(self):
        kind, value = self.next()
        if kind == "num":
            n = int(value)
            if n < 1:
                raise ParseError(f"decoration must be >= 1, got {n}")
            return n
        if kind == "sym" and value in ("x", "y"):
            return value
        raise ParseError(f"expected a decoration, got {value!r}")

    def parse_tree(self) -> Tree:
        dec = self.parse_decoration()
        children: tuple[Tree, ...] = ()
        if self.at_sym("["):
            self.next()
            children = self.parse_inner_forest().trees
            self.expect("]")
        return Tree(dec, children)

    def parse_inner_forest(self) -> Forest:
        trees: list[Tree] = []
        if self.at_tree_start():
            trees.append(self.parse_tree())
            while self.at_sym(","):
                self.next()
                trees.append(self.parse_tree())
        return Forest(tuple(trees))

    def parse_top_forest(self) -> Forest:
        trees: list[Tree] = []
        while self.at_tree_start() or self.at_sym(","):
            if self.at_sym(","):
                self.next()
                continue
            trees.append(self.parse_tree())
        return Forest(tuple(trees))

    # words ------------------------------------------------------------------

    def parse_word(self) -> Word:
        kind, value = self.peek()
        if kind == "str":
            self.next()
            return Word(tuple(value))
        self.expect("(")
        letters = []
        if not self.at_sym(")"):
            letters.append(self.parse_decoration())
            while self.at_sym(","):
                self.next()
                letters.append(self.parse_decoration())
        self.expect(")")
        return Word(tuple(letters))

    # linear combinations ----------------------------------------------------

    def parse_rational(self) -> int | Fraction:
        kind, value = self.next()
        if kind != "num":
            raise ParseError(f"expected a number, got {value!r}")
        numerator = int(value)
        if self.at_sym("/"):
            self.next()
            kind, value = self.next()
            if kind != "num":
                raise ParseError(f"expected a denominator, got {value!r}")
            if int(value) == 0:
                raise ParseError(f"zero denominator in {numerator}/{value}")
            return Fraction(numerator, int(value))
        return numerator

    def parse_term(self):
        coeff = 1
        save = self.pos
        kind, _ = self.peek()
        if kind == "num":
            maybe = self.parse_rational()
            if self.at_sym("*"):
                self.next()
                coeff = maybe
            else:
                self.pos = save
        if self.at_sym("(") or self.peek()[0] == "str":
            return coeff, self.parse_word()
        return coeff, self.parse_top_forest()

    def parse_lincomb(self) -> LinComb:
        terms = []
        sign = 1
        if self.at_sym("-"):
            self.next()
            sign = -1
        elif self.at_sym("+"):
            self.next()
        basis_kind = None
        while True:
            coeff, basis = self.parse_term()
            kind = type(basis)
            if basis_kind is None:
                basis_kind = kind
            elif kind is not basis_kind:
                raise ParseError("cannot mix forests and words in one combination")
            terms.append((basis, sign * coeff))
            if self.at_sym("+"):
                self.next()
                sign = 1
            elif self.at_sym("-"):
                self.next()
                sign = -1
            else:
                break
        if not self.done():
            raise ParseError(f"trailing input at {self.peek()[1]!r}")
        return LinComb(terms)


def parse_lincomb(text: str) -> LinComb:
    parser = _Parser(text)
    if parser.done():
        return LinComb.of(Forest())
    return parser.parse_lincomb()


def parse_expression(text: str):
    """Forest, word, or linear combination, whichever the text denotes."""
    comb = parse_lincomb(text)
    if len(comb) == 1:
        [(basis, coeff)] = comb.items()
        if coeff == 1:
            return basis
    return comb


# -- printing ---------------------------------------------------------------------

def format_tree(tree: Tree) -> str:
    if not tree.children:
        return str(tree.decoration)
    inner = ",".join(map(format_tree, tree.children))
    return f"{tree.decoration}[{inner}]"


def format_forest(forest: Forest) -> str:
    return " ".join(map(format_tree, forest.trees))


def format_word(w: Word) -> str:
    if w.alphabet is Alphabet.XY:
        return '"' + "".join(w.letters) + '"'
    return "(" + ",".join(map(str, w.letters)) + ")"


def format_basis(basis) -> str:
    """Text of a forest or word; the empty forest prints as ``()``.

    The first call for a value stores the text in the value's ``text`` slot;
    later calls read it back (see the module docstring).
    """
    try:
        return basis.text
    except AttributeError:  # not printed yet
        pass
    if isinstance(basis, Forest):
        text = format_forest(basis) if basis else "()"
    else:
        text = format_word(basis)
    _set(basis, "text", text)
    return text


def _signed_sum(terms) -> str:
    """Text of a sum of (text, coefficient) terms; "0" when there is none."""
    parts = []
    for text, coeff in terms:
        if coeff == 1:
            parts.append(text)
        elif coeff == -1:
            parts.append(f"-{text}")
        else:
            parts.append(f"{coeff}*{text}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


def format_lincomb(comb: LinComb) -> str:
    return _signed_sum((format_basis(basis), coeff) for basis, coeff in comb.sorted_items())


def format_combination(comb: MzvCombination) -> str:
    tag = "zs" if comb.flavor == "star" else "z"
    return _signed_sum(
        (f"{tag}({','.join(map(str, index))})" if index else "1", coeff)
        for index, coeff in comb.sorted_items()
    )


def format_eval(ev: MzvEval) -> str:
    return f"{ev.value:.10f} ± {ev.abs_error:.3g}"


# -- JSON --------------------------------------------------------------------------

def tree_to_json(tree: Tree) -> dict:
    return {"d": tree.decoration, "c": [tree_to_json(c) for c in tree.children]}

def forest_to_json(forest: Forest) -> list:
    return [tree_to_json(t) for t in forest.trees]


def basis_to_json(basis):
    if isinstance(basis, Forest):
        return forest_to_json(basis)
    return {"letters": list(basis.letters)}


def dumps(data) -> str:
    import json

    return json.dumps(data, indent=2, sort_keys=False)


# -- the one printer of CLI results ----------------------------------------------

def render(value, as_json: bool = False) -> str:
    """A LinComb, an MzvCombination or an MzvEval as text, or as JSON when ``as_json``.

    ``MzvEval`` is imported only for a value that is not a LinComb: such a
    value came from ``zeta``, so that module is loaded already.
    """
    if isinstance(value, LinComb):
        if not as_json:
            return format_lincomb(value)
        data = [{"coeff": str(c), "basis": basis_to_json(basis)} for basis, c in value.sorted_items()]
    else:
        from .zeta import MzvEval

        if isinstance(value, MzvEval):
            if not as_json:
                return format_eval(value)
            data = {"value": value.value, "abs_error": value.abs_error}
        else:  # an MzvCombination
            if not as_json:
                return format_combination(value)
            terms = [{"coeff": str(c), "index": list(index)} for index, c in value.sorted_items()]
            data = {"flavor": value.flavor, "terms": terms}
    return dumps(data)
