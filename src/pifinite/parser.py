"""Text grammar for space expressions.

    expr    := term { "+" term }
    term    := factor { "*" factor }
    factor  := INT | "pt" | "B" "^" INT "(" abelian ")" | "B" "(" group ")"
             | "(" expr ")"
    abelian := "C" INT { "x" "C" INT }
    group   := atomgrp { "x" atomgrp }
    atomgrp := ( "C" INT | "S" INT | "D" INT | "(" group ")" ) { "wr" "C" INT }

"+" is disjoint union, "*" is product, a bare integer is the discrete space
with that many points (0 parses to the empty space).  ``B^0(...)`` collapses
to the underlying finite set.  ``B(G)`` parses by ``spaces.classifying``,
which splits ``B(G x H)`` into ``B(G) * B(H)``, equal at every height: an
abelian factor (``C_n``, ``S2``, ``D4``, ``C1 wr C_c``, ...) is the degree-1
EM atom of the cyclic orders it names, and each other factor the
``Classifying`` atom of its canonical descriptor (``B(D6)`` parses to
``B(S3)``), so ``B(C2 x S3 x C3)`` parses to
``B^1(C2) * B(S3) * B^1(C3)``, whose normal form, where EM atoms of one
degree multiply, prints ``B(S3) * B^1(C6)``.  The equal groups of one
text share one atom.  Parsing builds no table: a table is built when it
is first read, once per atom, and a refusal is reported where it is
read, so a refused group before a syntax error is refused for the group,
and text nested deeper than ``MAX_NESTING`` levels at that depth.
Printing a parsed expression and re-parsing it yields an identical normal
form; atoms print by ``spaces.atom_text``, the printer ``NormalForm`` uses.
"""

from __future__ import annotations

from typing import Optional

from .errors import InputError, ResourceBudgetError
from .descriptors import Cyclic, Dihedral, DirectProduct, GroupDescriptor, Symmetric, Wreath
from .rationals import require_digits, require_numeral
from .records import frozen
from .spaces import (EM, PT, Classifying, Disjoint, Empty, FinSet, Product, SpaceExpr,
                     atom_text, classifying, disjoint_union, em_space,
                     finite_set, product)


# The deepest the text may nest: the open parentheses around a point plus
# the "x" and "wr" links of the groups it sits in.  The parser and the
# walks over a parsed group recurse at each level, so deeper text would
# end in a RecursionError; fourteen nontrivial "x" factors or four "wr"
# links already pass the group-order cap, so only C1 padding or extra
# parentheses lose an answer to this bound.
MAX_NESTING = 100


class ParseError(InputError):
    """Syntax error, carrying the offending position in the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@frozen
class _Token:
    kind: str      # INT, NAME, SYM, END
    text: str
    position: int


_DIGITS = "0123456789"      # ASCII only, as the CLI reads integer arguments
_KEYWORDS = ("pt", "wr")
_LETTERS = "BCSDx"
_SYMBOLS = "+*^()"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("INT", text[i:j], i))
            i = j
        elif text[i:i + 2] in _KEYWORDS:
            tokens.append(_Token("NAME", text[i:i + 2], i))
            i += 2
        elif ch in _LETTERS:
            tokens.append(_Token("NAME", ch, i))
            i += 1
        elif ch in _SYMBOLS:
            tokens.append(_Token("SYM", ch, i))
            i += 1
        elif ch.isalpha():
            raise ParseError(f"unknown name {ch!r}", i)
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.atoms: dict = {}       # the one Classifying atom of each group read

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text or 'end of input'!r}",
                             tok.position)
        return self.advance()

    def nest(self, tok: _Token) -> None:
        # one level deeper, at the "(", "x" or "wr" token just taken
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ResourceBudgetError(f"the text nests deeper than the {MAX_NESTING}-level "
                                      f"bound (at position {tok.position})")

    def open(self) -> None:
        self.nest(self.expect("SYM", "("))

    def close(self) -> None:
        self.expect("SYM", ")")
        self.depth -= 1

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def parse_int(self) -> int:
        tok = self.expect("INT")
        return int(require_numeral(tok.text, f"the number at position {tok.position}"))

    # grammar rules, each returning its value

    def expr(self) -> SpaceExpr:
        parts = [self.term()]
        while self.at("SYM", "+"):
            self.advance()
            parts.append(self.term())
        return disjoint_union(*parts)

    def term(self) -> SpaceExpr:
        factors = [self.factor()]
        while self.at("SYM", "*"):
            self.advance()
            factors.append(self.factor())
        return product(*factors)

    def factor(self) -> SpaceExpr:
        tok = self.peek()
        if tok.kind == "INT":
            return finite_set(self.parse_int())
        if self.at("NAME", "pt"):
            self.advance()
            return PT
        if self.at("NAME", "B"):
            self.advance()
            if self.at("SYM", "^"):
                self.advance()
                degree = self.parse_int()
                self.open()
                factors = self.abelian()
                self.close()
                return em_space(factors, degree)
            self.open()
            desc = self.group()
            self.close()
            return self.share(classifying(desc))
        if self.at("SYM", "("):
            self.open()
            inner = self.expr()
            self.close()
            return inner
        raise ParseError(f"expected a factor, found {tok.text or 'end of input'!r}",
                         tok.position)

    def share(self, x: SpaceExpr) -> SpaceExpr:
        # the equal groups of one text share one atom, which builds its
        # table at most once
        if isinstance(x, Product):
            return product(*map(self.share, x.factors))
        return self.atoms.setdefault(x, x) if isinstance(x, Classifying) else x

    def abelian(self) -> list[int]:
        factors = [self.cyclic_order()]
        while self.at("NAME", "x"):
            self.advance()
            factors.append(self.cyclic_order())
        return factors

    def cyclic_order(self) -> int:
        self.expect("NAME", "C")
        return self.parse_int()

    def group(self) -> GroupDescriptor:
        # each "x" or "wr" link nests the descriptor one level deeper, until
        # the group ends
        depth = self.depth
        terms = [self.atom_group()]
        while self.at("NAME", "x"):
            self.nest(self.advance())
            terms.append(self.atom_group())
        self.depth = depth
        desc = terms[0]
        for t in terms[1:]:
            desc = DirectProduct(desc, t)
        return desc

    def atom_group(self) -> GroupDescriptor:
        tok = self.peek()
        if self.at("SYM", "("):
            self.open()
            desc: GroupDescriptor = self.group()
            self.close()
        elif tok.kind == "NAME" and tok.text in "CSD":
            letter = self.advance().text
            size = self.parse_int()
            if letter == "C":
                desc = Cyclic(size)
            elif letter == "S":
                desc = Symmetric(size)
            else:
                desc = Dihedral(size)
        else:
            raise ParseError(
                f"expected a group (C/S/D), found {tok.text or 'end of input'!r}",
                tok.position)
        while self.at("NAME", "wr"):
            self.nest(self.advance())
            self.expect("NAME", "C")
            desc = Wreath(desc, self.parse_int())
        return desc


def parse_space(text: str) -> SpaceExpr:
    """Parse a space expression; raises ParseError with a position on bad input."""
    parser = _Parser(text)
    x = parser.expr()
    tok = parser.peek()
    if tok.kind != "END":
        raise ParseError(f"trailing input {tok.text!r}", tok.position)
    return x


def parse_group(text: str) -> GroupDescriptor:
    """Parse just the group sub-grammar (used by the wreath report command)."""
    parser = _Parser(text)
    desc = parser.group()
    tok = parser.peek()
    if tok.kind != "END":
        raise ParseError(f"trailing input {tok.text!r}", tok.position)
    return desc


# -- printing ------------------------------------------------------------------------

def space_text(x: SpaceExpr) -> str:
    """Render an expression in the grammar above, each atom by
    ``spaces.atom_text``.  Like an atom's orders, a finite set's size is
    held to the digit budget.

    Expressions that came from the parser always render to re-parseable
    text, since a group is named by its descriptor, held or built.  Groups
    built by internal machinery (centralizers of machine subgroups) print
    their display name, which need not parse.  A table built for G x H
    prints ``B(G x H)``, which parses to ``B(G) * B(H)``, its normal form.
    """
    if isinstance(x, Empty):
        return "0"
    if isinstance(x, FinSet):
        return "pt" if x.size == 1 else str(require_digits(x.size, "a finite set"))
    if isinstance(x, (Classifying, EM)):
        return atom_text(x)
    if isinstance(x, Disjoint):
        return " + ".join(space_text(p) for p in x.parts)
    if isinstance(x, Product):
        bits = []
        for f in x.factors:
            text = space_text(f)
            bits.append(f"({text})" if isinstance(f, Disjoint) else text)
        return " * ".join(bits)
    raise InputError(f"not a space expression: {x!r}")
