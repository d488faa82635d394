"""Text grammar for space expressions.

    expr    := term { "+" term }
    term    := factor { "*" factor }
    factor  := INT | "pt" | "B" "^" INT "(" abelian ")" | "B" "(" group ")"
             | "(" expr ")"
    abelian := "C" INT { "x" "C" INT }
    group   := atomgrp { "x" atomgrp }
    atomgrp := ( "C" INT | "S" INT | "D" INT | "(" group ")" ) { "wr" "C" INT }

A token is a run of ASCII digits (INT), ``pt``, ``wr``, one of the letters
``B C S D x`` or one of ``+ * ^ ( )``, and whitespace may stand between any
two tokens.  The whole text is split into tokens before any rule runs, so
its two lexical errors, ``unknown name`` for any other letter and
``unexpected character`` for any other character, come before anything a
rule refuses.

"+" is disjoint union, "*" is product, a bare integer is the discrete space
with that many points (0 parses to the empty space).  ``B^0(...)`` collapses
to the underlying finite set.  ``B(G)`` parses by ``spaces.classifying``,
which splits ``B(G x H)`` into ``B(G) * B(H)``, equal at every height: an
abelian factor (``C_n``, ``S2``, ``D4``, ``C1 wr C_c``, ...) is the degree-1
EM atom of the cyclic orders it names, and each other factor the
``Classifying`` atom of its canonical descriptor (``B(D6)`` parses to
``B(S3)``), so ``B(C2 x S3 x C3)`` parses to
``B^1(C2) * B(S3) * B^1(C3)``, whose normal form, where EM atoms of one
degree multiply, prints ``B(S3) * B^1(C6)``.  Parsing builds no table,
and a group is checked by ``descriptors.checked_order`` as its ``B(...)``
closes.  This module imports ``spaces`` only in the rules that build a
space, and ``parse_group`` builds none, so a text refused before its first
space, and every group text, loads no space algebra.  A refusal is reported
where it is read, so a refused group before a syntax error is refused for
the group, and text nested deeper than ``MAX_NESTING`` levels at that depth.
Printing a parsed expression and re-parsing it yields an identical normal
form; atoms print by ``spaces.atom_text``, the printer ``NormalForm`` uses.
"""

from __future__ import annotations

from .errors import InputError, ResourceBudgetError
from .descriptors import (Cyclic, Dihedral, DirectProduct, GroupDescriptor, Symmetric, Wreath,
                          checked_order)
from .rationals import require_digits, require_numeral


# The deepest the text may nest: the open parentheses around a point plus
# the "x" and "wr" links of the groups it sits in.  The parser and the
# walks over a parsed group recurse at each level, so deeper text would
# end in a RecursionError; fourteen nontrivial "x" factors or four "wr"
# links already pass the group-order cap, so only C1 padding or extra
# parentheses lose an answer to this bound.
MAX_NESTING = 100

_FAMILIES = {"C": Cyclic, "S": Symmetric, "D": Dihedral}


class ParseError(InputError):
    """Syntax error, carrying the offending position in the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str) -> list[tuple[str, int]]:
    # each token as (text, position), then ("", len(text)) for the end
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch, j = text[i], i + 1
        if ch.isspace():
            i = j
            continue
        if "0" <= ch <= "9":        # ASCII digits only, as the CLI reads integer arguments
            while j < n and "0" <= text[j] <= "9":
                j += 1
        elif text[i:i + 2] in ("pt", "wr"):
            j = i + 2
        elif ch not in "BCSDx+*^()":
            raise ParseError(f"{'unknown name' if ch.isalpha() else 'unexpected character'} "
                             f"{ch!r}", i)
        tokens.append((text[i:j], i))
        i = j
    tokens.append(("", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        if not isinstance(text, str):
            raise InputError(f"the text to parse must be a str, got {text!r}")
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def take(self, text: str) -> bool:
        # take the next token if it is ``text``
        if self.tokens[self.pos][0] == text:
            self.pos += 1
            return True
        return False

    def fail(self, want: str):
        text, position = self.tokens[self.pos]
        raise ParseError(f"expected {want}, found {text or 'end of input'!r}", position)

    def nest(self) -> None:
        # one level deeper, at the "(", "x" or "wr" token just taken
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ResourceBudgetError(f"the text nests deeper than the {MAX_NESTING}-level "
                                      f"bound (at position {self.tokens[self.pos - 1][1]})")

    def open(self) -> None:
        self.take("(") or self.fail("'('")
        self.nest()

    def close(self) -> None:
        self.take(")") or self.fail("')'")
        self.depth -= 1

    def end(self, value):
        text, position = self.tokens[self.pos]
        if text:
            raise ParseError(f"trailing input {text!r}", position)
        return value

    def number(self) -> int:
        text, position = self.tokens[self.pos]
        if not text.isdigit():
            self.fail("'INT'")
        self.pos += 1
        return int(require_numeral(text, f"the number at position {position}"))

    def cyclic_order(self) -> int:
        self.take("C") or self.fail("'C'")
        return self.number()

    # grammar rules, each returning its value; those that build a space
    # import ``spaces`` as they return one, so text refused before any space
    # is built loads no space algebra

    def expr(self) -> SpaceExpr:
        parts = [self.term()]
        while self.take("+"):
            parts.append(self.term())
        from .spaces import disjoint_union
        return disjoint_union(*parts)

    def term(self) -> SpaceExpr:
        factors = [self.factor()]
        while self.take("*"):
            factors.append(self.factor())
        from .spaces import product
        return product(*factors)

    def factor(self) -> SpaceExpr:
        if self.tokens[self.pos][0].isdigit():
            size = self.number()
            from .spaces import finite_set
            return finite_set(size)
        if self.take("pt"):
            from .spaces import PT
            return PT
        if self.take("B"):
            if self.take("^"):
                degree = self.number()
                self.open()
                orders = [self.cyclic_order()]
                while self.take("x"):
                    orders.append(self.cyclic_order())
                self.close()
                from .spaces import em_space
                return em_space(orders, degree)
            self.open()
            desc = self.group()
            self.close()
            checked_order(desc)     # refused as it closes, as classifying refuses it
            from .spaces import classifying
            return classifying(desc)
        if self.take("("):
            self.nest()
            inner = self.expr()
            self.close()
            return inner
        self.fail("a factor")

    def group(self) -> GroupDescriptor:
        # each "x" or "wr" link nests the descriptor one level deeper, until
        # the group ends
        depth = self.depth
        desc = self.atom_group()
        while self.take("x"):
            self.nest()
            desc = DirectProduct(desc, self.atom_group())
        self.depth = depth
        return desc

    def atom_group(self) -> GroupDescriptor:
        family = _FAMILIES.get(self.tokens[self.pos][0])
        if family is not None:
            self.pos += 1
            desc = family(self.number())
        elif self.take("("):
            self.nest()
            desc = self.group()
            self.close()
        else:
            self.fail("a group (C/S/D)")
        while self.take("wr"):
            self.nest()
            desc = Wreath(desc, self.cyclic_order())
        return desc


def parse_space(text: str) -> SpaceExpr:
    """Parse a space expression; raises ParseError with a position on bad input."""
    parser = _Parser(text)
    return parser.end(parser.expr())


def parse_group(text: str) -> GroupDescriptor:
    """Parse just the group sub-grammar (used by the wreath report command)."""
    parser = _Parser(text)
    return parser.end(parser.group())


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
    from .spaces import Atom, Disjoint, Empty, FinSet, Product, atom_text
    if isinstance(x, Empty):
        return "0"
    if isinstance(x, FinSet):
        return "pt" if x.size == 1 else str(require_digits(x.size, "a finite set"))
    if isinstance(x, Atom):
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
