"""And/Or trees in the four structural models.

Models:
  CATALAN    binary, plane
  ASSOC      plane, arity >= 2, stratified connectives
  COMM       binary, non-plane (children unordered)
  ASSOC_COMM non-plane, arity >= 2, stratified connectives

Stratified means no internal node carries the same connective as its
parent.  Size is the number of leaves.  Non-plane trees are kept in a
canonical sorted child order, so structural equality is model equality.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache, reduce
from operator import and_, or_
from typing import Iterator, Optional, Sequence, Union

from .boolfun import BoolFunc, Literal
from .errors import InputError, StructureError

AND = "and"
OR = "or"


def opposite(conn: str) -> str:
    return OR if conn == AND else AND


class ModelId(Enum):
    CATALAN = "catalan"
    ASSOC = "assoc"
    COMM = "comm"
    ASSOC_COMM = "assoccomm"

    @property
    def plane(self) -> bool:
        return self in (ModelId.CATALAN, ModelId.ASSOC)

    @property
    def binary(self) -> bool:
        return self in (ModelId.CATALAN, ModelId.COMM)

    @property
    def stratified(self) -> bool:
        return not self.binary


class Tree:
    """Immutable canonical tree.  Use Tree.leaf / Tree.internal / canonicalize."""

    __slots__ = ("model", "literal", "conn", "children", "_key", "_hash")

    def __init__(self, model: ModelId, literal: Optional[Literal], conn: Optional[str],
                 children: tuple["Tree", ...], _internal: bool = False):
        if not _internal:
            raise StructureError("use Tree.leaf or Tree.internal")
        self.model = model
        self.literal = literal
        self.conn = conn
        self.children = children
        if literal is not None:
            key = (0, literal.var, 0 if literal.positive else 1)
        else:
            key = (1, conn, len(children), tuple(c._key for c in children))
        self._key = key
        self._hash = hash((model, key))

    # -- constructors --------------------------------------------------

    @staticmethod
    def leaf(literal: Literal, model: ModelId) -> "Tree":
        return Tree(model, literal, None, (), _internal=True)

    @staticmethod
    def internal(conn: str, children: Sequence["Tree"], model: ModelId) -> "Tree":
        if conn not in (AND, OR):
            raise StructureError("connective must be %r or %r" % (AND, OR))
        kids = tuple(children)
        if model.binary:
            if len(kids) != 2:
                raise StructureError("%s trees are binary" % model.value)
        else:
            if len(kids) < 2:
                raise StructureError("internal nodes need >= 2 children")
            for c in kids:
                if not c.is_leaf() and c.conn == conn:
                    raise StructureError(
                        "stratification violation: %s child of %s" % (conn, conn))
        for c in kids:
            if c.model is not model:
                raise StructureError("child model mismatch")
        if not model.plane:
            kids = tuple(sorted(kids, key=lambda c: c._key))
        return Tree(model, None, conn, kids, _internal=True)

    def is_leaf(self) -> bool:
        return self.literal is not None

    # -- equality ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Tree) and self.model is other.model
                and self._key == other._key)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "Tree(%s, %s)" % (self.model.value, format_tree(self))

    # -- traversal -----------------------------------------------------

    def nodes(self, path: tuple[int, ...] = ()) -> Iterator[tuple[tuple[int, ...], "Tree"]]:
        """All (path, subtree) pairs, preorder."""
        yield path, self
        for i, c in enumerate(self.children):
            yield from c.nodes(path + (i,))

    def leaves(self) -> Iterator[Literal]:
        if self.is_leaf():
            yield self.literal  # type: ignore[misc]
        else:
            for c in self.children:
                yield from c.leaves()

    def variables(self) -> set[int]:
        return {lit.var for lit in self.leaves()}


RawTree = Union[Literal, tuple]


def canonicalize(raw: RawTree, model: ModelId) -> Tree:
    """Build a canonical Tree from nested (conn, [children]) / Literal data.

    Also accepts an existing Tree (possibly from another model) and rebuilds
    it under the target model's rules.  Violations raise StructureError.
    """
    if isinstance(raw, Tree):
        if raw.is_leaf():
            return Tree.leaf(raw.literal, model)  # type: ignore[arg-type]
        return Tree.internal(raw.conn, [canonicalize(c, model) for c in raw.children], model)  # type: ignore[arg-type]
    if isinstance(raw, Literal):
        return Tree.leaf(raw, model)
    if isinstance(raw, tuple) and len(raw) == 2:
        conn, kids = raw
        return Tree.internal(conn, [canonicalize(k, model) for k in kids], model)
    raise StructureError("unrecognized raw tree: %r" % (raw,))


@lru_cache(maxsize=1)
def _positive_tables(n: int) -> tuple[int, ...]:
    # x1..xn, kept for the one n (f.n) at which complexity's expansions
    # compute every minimal tree; one n = 24 entry holds 48 MB
    return tuple(BoolFunc.from_literal(Literal(v), n).table for v in range(1, n + 1))


def _fold(conn: str, values) -> int:
    """Truth table of a conn-node, from its children's truth tables."""
    if type(values) in (tuple, list) and len(values) == 2:
        a, b = values
        return a & b if conn == AND else a | b
    return reduce(and_ if conn == AND else or_, values)


def compute_function(t: Tree, n: Optional[int] = None) -> BoolFunc:
    """Truth table of the function computed by t, on n variables."""
    if n is None:
        n = max(t.variables())
    elif n < 1:
        raise InputError("n smaller than largest variable in tree")
    tables = _positive_tables(n)
    full = (1 << (1 << n)) - 1

    def rec(node: Tree) -> int:
        lit = node.literal
        if lit is not None:
            if lit.var > n:
                raise InputError("n smaller than largest variable in tree")
            table = tables[lit.var - 1]
            return table if lit.positive else table ^ full
        return _fold(node.conn, map(rec, node.children))

    return BoolFunc(n, rec(t))


def dual_tree(t: Tree) -> Tree:
    """Swap connectives, negate leaves; computes the negated function."""
    if t.is_leaf():
        return Tree.leaf(t.literal.negate(), t.model)  # type: ignore[union-attr]
    return Tree.internal(opposite(t.conn), [dual_tree(c) for c in t.children], t.model)  # type: ignore[arg-type]


# -- text format -------------------------------------------------------

def format_tree(t: Tree) -> str:
    if t.is_leaf():
        return str(t.literal)
    return "(%s %s)" % (t.conn, " ".join(format_tree(c) for c in t.children))


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_atom(token: str) -> Literal:
    neg = token.startswith("~")
    body = token[1:] if neg else token
    digits = body[1:]
    # int() would also take "1_0", "+2", "01" and non-ASCII digits
    if not (body.startswith("x") and digits.isascii() and digits.isdigit()
            and digits[0] != "0"):
        raise StructureError("bad leaf token %r" % token)
    return Literal(int(digits), not neg)


def parse_tree(text: str, model: ModelId) -> Tree:
    """Parse prefix notation: (and t1 t2 ...), (or ...), x3, ~x3."""
    tokens = _tokenize(text)
    pos = 0

    def parse() -> RawTree:
        nonlocal pos
        if pos >= len(tokens):
            raise StructureError("unexpected end of input")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if pos >= len(tokens) or tokens[pos] not in (AND, OR):
                raise StructureError("expected connective after '('")
            conn = tokens[pos]
            pos += 1
            kids = []
            while pos < len(tokens) and tokens[pos] != ")":
                kids.append(parse())
            if pos >= len(tokens):
                raise StructureError("missing ')'")
            pos += 1
            return (conn, kids)
        if tok == ")":
            raise StructureError("unexpected ')'")
        return _parse_atom(tok)

    raw = parse()
    if pos != len(tokens):
        raise StructureError("trailing tokens after tree")
    return canonicalize(raw, model)
