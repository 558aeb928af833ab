"""Logic-form AST, concrete syntax, and schema type checking.

Concrete syntax: ``name { arg ; arg }`` with the terminal ``all_rows``.
Bare tokens are literals; ``{`` ``}`` ``;`` and ``\\`` inside them are
escaped with a backslash.  Whether a bare token is a column reference or
an object literal is decided by its position in the enclosing function's
signature, so parsing needs the catalog but no table; a literal is parsed
straight to its cell, ``tables.normalize_cell(token)``.  Templates are
spelled in the same grammar, with groups for functions and placeholders
for bare tokens; ``parse_tree`` parses both, and the type check and the
template loader type them by one position table, ``catalog.FILLS``.
"""

from __future__ import annotations

import re

from .catalog import BOOL, CATALOG, FILLS, HEADER, OBJECT, ORD, VIEW, FunctionSignature
from .errors import ArityError, ParseError, TypeCheckError, UnknownFunctionError
from .tables import NUMERIC, CellValue, Frozen, Table, fold_text, normalize_cell

_ORDINAL_RE = re.compile(r"^\d+$")
_SPACE_RE = re.compile(r"\s*")
# a bare token, after the whitespace before it, runs up to the first
# delimiter or bad escape; its own characters include whitespace
_TOKEN_RE = re.compile(r"\s*([^{};\\]*(?:\\[{};\\][^{};\\]*)*)")
_UNESCAPE_RE = re.compile(r"\\(.)")
_ESCAPED_RE = re.compile(r"[{};\\]")

# deepest function nesting a form or template may have: every consumer
# (type check, execute, print, realize, abstract) recurses once per level
MAX_NESTING = 100


class AllRows(Frozen):
    """The whole-table view terminal."""

    __slots__ = ()


class ColumnRef(Frozen):
    __slots__ = _compared = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", fold_text(str(name)))


class Apply(Frozen):
    __slots__ = _compared = ("name", "args")

    def __init__(self, name: str, args: tuple["LogicForm", ...]):
        sig = CATALOG.get(name)
        if sig is None:
            raise UnknownFunctionError(f"unknown function {name!r}")
        if len(args) != len(sig.arg_types):
            raise ArityError(f"{name} takes {len(sig.arg_types)} arguments, got {len(args)}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)


LogicForm = AllRows | ColumnRef | CellValue | Apply


def escape_token(text: str) -> str:
    """The token with ``{`` ``}`` ``;`` and ``\\`` backslash-escaped; most hold none."""
    if _ESCAPED_RE.search(text) is None:
        return text
    return _ESCAPED_RE.sub(r"\\\g<0>", text)


def parse_tree(text: str, signatures: dict[str, FunctionSignature], node, leaf):
    """Parse the ``name { arg ; arg }`` grammar shared by forms and templates.

    ``signatures`` maps every function name to its signature; any other
    name raises UnknownFunctionError, a wrong argument count ArityError and
    any other syntax problem ParseError, all with an offset; so does a
    function nested more than MAX_NESTING levels deep.  A function is
    built by ``node(name, args)`` and a bare token by ``leaf(token, offset,
    expected)``, where ``expected`` is the argument type of its position
    (None at the root).
    """
    pos = 0

    # each parse returns with pos past the whitespace after its form
    def parse(expected: str | None, depth: int):
        nonlocal pos
        match = _TOKEN_RE.match(text, pos)
        offset, pos = match.span(1)
        raw = match.group(1)
        if text.startswith("\\", pos):
            if pos + 1 == len(text):
                raise ParseError("dangling escape", pos)
            raise ParseError(f"unknown escape \\{text[pos + 1]}", pos)
        token = (_UNESCAPE_RE.sub(r"\1", raw) if "\\" in raw else raw).strip()
        if not text.startswith("{", pos):
            if not token:
                raise ParseError("expected a form", offset)
            return leaf(token, offset, expected)
        sig = signatures.get(token)
        if sig is None:
            raise UnknownFunctionError(f"unknown function {token!r}", offset)
        if depth > MAX_NESTING:
            raise ParseError(f"functions nested more than {MAX_NESTING} levels deep", offset)
        arity = f"{token} takes {len(sig.arg_types)} arguments"
        pos += 1
        args = [parse(sig.arg_types[0], depth + 1)]
        for arg_type in sig.arg_types[1:]:
            if not text.startswith(";", pos):
                raise ArityError(arity, pos)
            pos += 1
            args.append(parse(arg_type, depth + 1))
        if text.startswith(";", pos):
            raise ArityError(arity, pos)
        if not text.startswith("}", pos):
            raise ParseError("expected '}'", pos)
        pos = _SPACE_RE.match(text, pos + 1).end()
        return node(token, tuple(args))

    tree = parse(None, 1)
    if pos < len(text):
        raise ParseError("trailing input after form", pos)
    return tree


def _form_leaf(token: str, offset: int, expected: str | None) -> LogicForm:
    if expected == HEADER:
        return ColumnRef(token)
    if expected in (VIEW, None) and token == "all_rows":
        return AllRows()
    return normalize_cell(token)


def parse_logic_form(text: str) -> LogicForm:
    """Parse concrete syntax into a form tree.

    Raises ParseError (with offset) on syntax problems, UnknownFunctionError
    on names missing from the catalog, ArityError on argument count.
    """
    return parse_tree(text, CATALOG, Apply, _form_leaf)


def print_logic_form(lf: LogicForm) -> str:
    """Canonical concrete syntax: single spaces around braces and semicolons."""
    return _print(lf)


def _print(lf: LogicForm) -> str:
    if isinstance(lf, Apply):
        return f"{lf.name} {{ {' ; '.join([_print(a) for a in lf.args])} }}"
    if isinstance(lf, AllRows):
        return "all_rows"
    if isinstance(lf, ColumnRef):
        return escape_token(lf.name)
    return escape_token(lf.text)


# the type of each leaf, which is the position it fills
_LEAF_TYPES = {AllRows: VIEW, ColumnRef: HEADER, CellValue: OBJECT}
# how a mismatch names each position a function or leaf may fill
_NOUNS = {VIEW: "view", OBJECT: "object", BOOL: "boolean"}


def type_check(lf: LogicForm, table: Table) -> str:
    """Check lf against the table schema; returns its result type.

    Depends only on headers and column types, never on row contents.  Each
    argument must fill its position in the signature by ``catalog.FILLS``,
    a function's arguments checked before its own fit; a header or ordinal
    position takes only a bare token.  Hop directly over all_rows is
    rejected since it can only succeed on single-row tables, and so is a
    tree built by hand with functions nested more than MAX_NESTING levels
    deep, as the parser rejects it.
    """
    if isinstance(lf, Apply):
        return _check(lf, table, 1)
    if isinstance(lf, ColumnRef):
        raise TypeCheckError("column reference outside a header position")
    if type(lf) not in _LEAF_TYPES:
        raise TypeCheckError(f"not a logic form node: {lf!r}")
    return _LEAF_TYPES[type(lf)]


def _check(node: Apply, table: Table, depth: int) -> str:
    if depth > MAX_NESTING:
        raise TypeCheckError(f"functions nested more than {MAX_NESTING} levels deep")
    sig = CATALOG[node.name]
    if node.name == "hop" and isinstance(node.args[0], AllRows):
        raise TypeCheckError("hop requires a single-row view, not all_rows")
    for arg, position in zip(node.args, sig.arg_types):
        if position == HEADER:
            if not isinstance(arg, ColumnRef):
                raise TypeCheckError(f"{node.name}: column name expected")
            idx = table.column_index(arg.name)
            if idx is None:
                raise TypeCheckError(f"unknown column {arg.name!r}", kind="unknown_column")
            if sig.numeric_column and table.column_types[idx] != NUMERIC:
                raise TypeCheckError(f"{node.name} needs a numeric column, {arg.name!r} is not")
        elif position == ORD:
            if not isinstance(arg, CellValue):
                raise TypeCheckError(f"{node.name}: ordinal literal expected", kind="bad_ordinal")
            try:
                rank = int(arg.text) if _ORDINAL_RE.match(arg.text) else 0
            except ValueError:  # more digits than int() reads; no view has that many rows
                raise TypeCheckError(f"{node.name}: ordinal of {len(arg.text)} digits is too long",
                                     kind="bad_ordinal") from None
            if rank < 1:
                raise TypeCheckError(
                    f"{node.name}: ordinal must be a positive integer, got {arg.text!r}",
                    kind="bad_ordinal",
                )
        elif (FILLS[_check(arg, table, depth + 1)] if isinstance(arg, Apply)
              else _LEAF_TYPES.get(type(arg))) != position:
            raise TypeCheckError(f"{node.name}: {_NOUNS[position]} argument expected")
    return sig.return_type


def walk(node):
    """Yield every node of a form or template in printing order (pre-order,
    args left to right)."""
    yield node
    for arg in getattr(node, "args", ()):
        yield from walk(arg)


def referenced_columns(lf: LogicForm) -> list[str]:
    """Column names referenced anywhere in the form, in first-seen order."""
    return list(dict.fromkeys(node.name for node in walk(lf) if isinstance(node, ColumnRef)))
