"""Parsing, printing, escaping, and schema type checking of logic forms."""

import hashlib
import random

import pytest

import loft.forms
from loft import (
    ArityError,
    ParseError,
    TypeCheckError,
    UnknownFunctionError,
    parse_logic_form,
    print_logic_form,
    realize_logic_form,
    verify,
)
from loft.catalog import BOOL, CATALOG, HEADER, NUM, OBJECT, ORD, VIEW
from loft.forms import (
    MAX_NESTING,
    AllRows,
    Apply,
    ColumnRef,
    escape_token,
    referenced_columns,
    type_check,
    walk,
)
from loft.tables import CellValue, normalize_cell
from loft.templates import abstract, parse_template

EXAMPLE = "eq { count { filter_eq { all_rows ; team ; a } } ; 1 }"


class TestParsing:
    def test_example_structure(self):
        lf = parse_logic_form(EXAMPLE)
        assert lf == Apply(
            "eq",
            (
                Apply("count", (
                    Apply("filter_eq", (AllRows(), ColumnRef("team"), normalize_cell("a"))),)),
                normalize_cell("1"),
            ),
        )

    def test_print_parse_identity(self):
        lf = parse_logic_form(EXAMPLE)
        assert print_logic_form(lf) == EXAMPLE
        assert parse_logic_form(print_logic_form(lf)) == lf

    def test_printing_a_nested_form_calls_print_logic_form_once(self, monkeypatch):
        # the printer recurses through a private helper, so a wrapper
        # installed on the module (a tracer, say) sees one call per form
        calls = []

        def counting(lf, _real=loft.forms.print_logic_form):
            calls.append(lf)
            return _real(lf)

        monkeypatch.setattr(loft.forms, "print_logic_form", counting)
        assert loft.forms.print_logic_form(parse_logic_form(EXAMPLE)) == EXAMPLE
        assert len(calls) == 1

    def test_compact_input_canonicalizes(self):
        lf = parse_logic_form("eq{count{filter_eq{all_rows;team;a}};1}")
        assert print_logic_form(lf) == EXAMPLE

    def test_whitespace_tolerance(self):
        lf = parse_logic_form("  eq {\n  count { filter_eq { all_rows ;\tteam ; a } } ; 1 }  ")
        assert print_logic_form(lf) == EXAMPLE

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            parse_logic_form("frobnicate { all_rows }")

    def test_too_few_arguments(self):
        with pytest.raises(ArityError):
            parse_logic_form("filter_eq { all_rows ; team }")

    def test_too_many_arguments(self):
        with pytest.raises(ArityError):
            parse_logic_form("count { all_rows ; team }")

    def test_parse_error_carries_offset(self):
        with pytest.raises(ParseError) as exc_info:
            parse_logic_form("count { all_rows ")
        assert exc_info.value.offset is not None

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_logic_form("count { all_rows } junk")

    def test_empty_argument_rejected(self):
        with pytest.raises(ParseError, match="expected a form"):
            parse_logic_form("count {  }")

    def test_bare_token_is_positional(self):
        # the same token reads as a column in header position and as a
        # literal in object position
        lf = parse_logic_form("filter_eq { all_rows ; 3 ; all_rows }")
        assert lf.args[1] == ColumnRef("3")
        assert lf.args[2] == normalize_cell("all_rows")

    def test_all_rows_outside_view_position_is_literal(self):
        lf = parse_logic_form("eq { all_rows ; x }")
        assert lf.args[0] == normalize_cell("all_rows")

    def test_root_bare_all_rows(self):
        assert parse_logic_form("all_rows") == AllRows()

    # each malformed text's error type, message and offset
    @pytest.mark.parametrize("text, error, message, offset", [
        ("eq { a ; b \\", ParseError, "dangling escape (at offset 11)", 11),
        ("eq { a\\x ; b }", ParseError, "unknown escape \\x (at offset 6)", 6),
        ("eq { ; b }", ParseError, "expected a form (at offset 5)", 5),
        ("eq { a ; }", ParseError, "expected a form (at offset 9)", 9),
        ("   ", ParseError, "expected a form (at offset 3)", 3),
        ("eq { count { all_rows } ; 3", ParseError, "expected '}' (at offset 27)", 27),
        ("eq { a \\; b ; c", ParseError, "expected '}' (at offset 15)", 15),
        ("eq { a ; b ; c }", ArityError, "eq takes 2 arguments (at offset 11)", 11),
        ("eq { count { all_rows } ; 3 } x", ParseError,
         "trailing input after form (at offset 30)", 30),
        ("eq { a ; b } }", ParseError, "trailing input after form (at offset 13)", 13),
        ("eq { count { nope { all_rows } } ; 3 }", UnknownFunctionError,
         "unknown function 'nope' (at offset 13)", 13),
        ("  eq  {   count {  all_rows  }   ;  3   ;  4 }", ArityError,
         "eq takes 2 arguments (at offset 40)", 40),
        ("  eq  {   count {  all_rows  }   3 }", ArityError,
         "eq takes 2 arguments (at offset 33)", 33),
        ("\t eq {  hop { all_rows ; team }  ;  x y  }   extra  ", ParseError,
         "trailing input after form (at offset 45)", 45),
    ], ids=["dangling-escape", "unknown-escape", "empty-argument", "empty-last-argument",
            "blank", "missing-close", "escaped-semicolon-then-missing-close", "extra-semicolon",
            "trailing-token", "trailing-close", "nested-unknown-function",
            "padded-extra-argument", "padded-missing-semicolon", "padded-trailing-token"])
    def test_parse_error_type_message_and_offset(self, text, error, message, offset):
        with pytest.raises(ParseError) as exc_info:
            parse_logic_form(text)
        got = exc_info.value
        assert (type(got), str(got), got.offset) == (error, message, offset)


def nested(levels: int, column: str = "team") -> str:
    """An only { filter_all { ... } } chain of `levels` functions."""
    text = "all_rows"
    for _ in range(levels - 1):
        text = f"filter_all {{ {text} ; {column} }}"
    return f"only {{ {text} }}"


class TestNesting:
    def test_deepest_allowed_form_works_in_every_consumer(self, mt):
        text = nested(MAX_NESTING)
        lf = parse_logic_form(text)
        assert print_logic_form(lf) == text
        assert type_check(lf, mt) == BOOL
        assert verify(lf, mt) is False
        assert realize_logic_form(lf)
        assert abstract(lf) == nested(MAX_NESTING, "COL_1")

    def test_one_level_deeper_is_a_parse_error_at_its_offset(self):
        text = nested(MAX_NESTING + 1)
        offending = len("only { ") + len("filter_all { ") * (MAX_NESTING - 1)
        with pytest.raises(ParseError) as exc_info:
            parse_logic_form(text)
        assert exc_info.value.offset == offending
        assert text.startswith("filter_all {", offending)

    def test_far_deeper_forms_and_templates_are_parse_errors(self):
        with pytest.raises(ParseError):
            parse_logic_form(nested(3000))
        with pytest.raises(ParseError):
            parse_template(nested(3000, "COL_1"))


class TestEscaping:
    def test_escape_round_trip(self):
        lf = Apply("eq", (normalize_cell("a;b"), normalize_cell("c{d}")))
        text = print_logic_form(lf)
        assert text == "eq { a\\;b ; c\\{d\\} }"
        assert parse_logic_form(text) == lf

    def test_backslash_round_trip(self):
        lf = Apply("eq", (normalize_cell("a\\b"), normalize_cell("x")))
        assert parse_logic_form(print_logic_form(lf)) == lf

    def test_dangling_escape(self):
        with pytest.raises(ParseError):
            parse_logic_form("eq { a ; b\\")

    def test_unknown_escape(self):
        with pytest.raises(ParseError):
            parse_logic_form("eq { a ; \\n }")

    def test_escape_token_only_touches_delimiters(self):
        assert escape_token("plain text 5%") == "plain text 5%"


class TestLiteral:
    """A bare token in an object or rank position is its cell."""

    def test_surrounding_whitespace_is_not_part_of_the_literal(self):
        assert normalize_cell(" 5 ") == normalize_cell("5")
        assert hash(normalize_cell(" 5 ")) == hash(normalize_cell("5"))
        assert parse_logic_form("eq {  5  ; x }").args[0].text == "5"

    @pytest.mark.parametrize("text", ["5", " 5 ", "12%", "5 (x)", "-0", "-", "n/a", "", "a  B",
                                      "1,000", "x\\;y"])
    def test_the_cell_is_the_text_normalized(self, text):
        # a leaf is exactly what its printed text parses to
        leaf = normalize_cell(text)
        assert normalize_cell(leaf.text) == leaf
        if leaf.text:  # the grammar has no empty token
            form = Apply("eq", (leaf, leaf))
            assert parse_logic_form(print_logic_form(form)).args == (leaf, leaf)

    def test_parsed_literals_carry_their_cell(self):
        form = parse_logic_form("eq { hop { filter_eq { all_rows ; team ; A  b } ; points } ; 12% }")
        literals = [node for node in walk(form) if isinstance(node, CellValue)]
        assert literals == [normalize_cell("A  b"), normalize_cell("12%")]
        assert [lit.text for lit in literals] == ["A  b", "12%"]
        assert parse_logic_form(print_logic_form(form)) == form


class TestTypeCheck:
    def test_example_is_boolean(self, mt):
        lf = parse_logic_form(EXAMPLE)
        assert type_check(lf, mt) == BOOL

    def test_view_and_number_roots(self, mt):
        assert type_check(parse_logic_form("filter_eq { all_rows ; team ; a }"), mt) == VIEW
        assert type_check(parse_logic_form("count { all_rows }"), mt) == NUM
        assert type_check(parse_logic_form("hop { argmax { all_rows ; points } ; team }"), mt) == OBJECT

    def test_unknown_column_kind(self, mt):
        lf = parse_logic_form("count { filter_eq { all_rows ; venue ; a } }")
        with pytest.raises(TypeCheckError) as exc_info:
            type_check(lf, mt)
        assert exc_info.value.kind == "unknown_column"

    def test_aggregation_needs_numeric_column(self, mt):
        with pytest.raises(TypeCheckError):
            type_check(parse_logic_form("avg { all_rows ; team }"), mt)
        assert type_check(parse_logic_form("avg { all_rows ; points }"), mt) == NUM

    @pytest.mark.parametrize("rank", ["0", "2.5", "x", "-1"])
    def test_bad_ordinals(self, mt, rank):
        lf = parse_logic_form(f"nth_max {{ all_rows ; points ; {rank} }}")
        with pytest.raises(TypeCheckError) as exc_info:
            type_check(lf, mt)
        assert exc_info.value.kind == "bad_ordinal"

    def test_an_ordinal_too_long_to_read_is_a_bad_ordinal(self, mt):
        # more digits than int() reads: refused, where it was a ValueError
        lf = parse_logic_form(f"nth_max {{ all_rows ; points ; {'9' * 5000} }}")
        with pytest.raises(TypeCheckError, match="ordinal of 5000 digits") as exc_info:
            type_check(lf, mt)
        assert exc_info.value.kind == "bad_ordinal"
        assert verify(lf, mt) is False

    def test_ordinal_out_of_range_still_type_checks(self, mt):
        # rank bounds are a runtime property, not a schema property
        lf = parse_logic_form("nth_max { all_rows ; points ; 99 }")
        assert type_check(lf, mt) == NUM

    def test_strict_rejects_hop_over_all_rows(self, mt):
        lf = parse_logic_form("hop { all_rows ; team }")
        with pytest.raises(TypeCheckError):
            type_check(lf, mt)

    def test_strict_allows_hop_over_filters(self, mt):
        lf = parse_logic_form("hop { filter_eq { all_rows ; team ; a } ; points }")
        assert type_check(lf, mt) == OBJECT

    def test_boolean_argument_must_be_boolean(self, mt):
        lf = Apply("and", (Apply("count", (AllRows(),)), Apply("only", (AllRows(),))))
        with pytest.raises(TypeCheckError):
            type_check(lf, mt)

    def test_view_argument_must_be_view(self, mt):
        lf = Apply("count", (normalize_cell("x"),))
        with pytest.raises(TypeCheckError):
            type_check(lf, mt)

    def test_object_argument_rejects_views(self, mt):
        lf = Apply("eq", (AllRows(), normalize_cell("x")))
        with pytest.raises(TypeCheckError):
            type_check(lf, mt)

    @pytest.mark.parametrize("value", [EXAMPLE, 3, None])
    def test_a_value_that_is_not_a_form_node_is_refused(self, mt, value):
        with pytest.raises(TypeCheckError, match="not a logic form node"):
            type_check(value, mt)

    def test_ignores_row_contents(self, mt):
        from loft import Table

        same_schema = Table.from_strings(
            "other", "other", ["team", "points"], [["z", "9"]] * 2
        )
        lf = parse_logic_form(EXAMPLE)
        assert type_check(lf, same_schema) == BOOL


# leaves of every kind, and columns and ranks both good and bad for `mt`
PIN_LEAVES = (AllRows(), ColumnRef("team"), ColumnRef("points"), ColumnRef("venue"),
              normalize_cell("2"), normalize_cell("0"), normalize_cell("x"))
LEAF_POSITIONS = {AllRows: (VIEW,), ColumnRef: (HEADER,), CellValue: (OBJECT, ORD)}


def pin_node(rng: random.Random, position: str, depth: int):
    """A leaf or a catalog function over pin nodes; three in four fit
    `position`, so a tree of a few nodes is mostly ill-typed somewhere."""
    fit = rng.random() < 0.75
    leaves = [leaf for leaf in PIN_LEAVES if not fit or position in LEAF_POSITIONS[type(leaf)]]
    names = [name for name, sig in sorted(CATALOG.items()) if depth > 1 and (
        not fit or position == (OBJECT if sig.return_type == NUM else sig.return_type))]
    if names and (not leaves or rng.random() < 0.5):
        return pin_tree(rng, rng.choice(names), depth)
    return rng.choice(leaves or PIN_LEAVES)


def pin_tree(rng: random.Random, name: str, depth: int) -> Apply:
    return Apply(name, tuple(pin_node(rng, arg_type, depth - 1)
                             for arg_type in CATALOG[name].arg_types))


def chain(levels: int, column: str) -> Apply:
    """only { filter_all { ... ; column } } of `levels` functions, built without the parser."""
    view = AllRows()
    for _ in range(levels - 1):
        view = Apply("filter_all", (view, ColumnRef(column)))
    return Apply("only", (view,))


# sha256 of each pin tree's result type or error kind, one a line
TYPE_CHECK_SHA256 = "f7eeeaea8c414d3b1767c56c34112e829c523ee00c0265f398b470a135ca60f8"


def test_type_check_results_are_pinned(mt):
    # a type check's result type and error kind, which `loft execute`
    # prints, and the order its rules are tried in, which picks that kind
    rng = random.Random(2024)
    trees = [pin_tree(rng, name, 4) for name in sorted(CATALOG) for _ in range(60)]
    trees += [chain(levels, column) for levels in (MAX_NESTING, MAX_NESTING + 1)
              for column in ("team", "venue")]
    results = []
    for lf in trees:
        try:
            results.append(type_check(lf, mt))
        except TypeCheckError as exc:
            results.append(exc.kind)
    ill_typed = sum(r in ("unknown_column", "type_mismatch", "bad_ordinal") for r in results)
    assert ill_typed > len(trees) / 2
    digest = hashlib.sha256("\n".join(results).encode()).hexdigest()
    assert digest == TYPE_CHECK_SHA256


class TestTreeHelpers:
    def test_walk_is_preorder(self):
        lf = parse_logic_form(EXAMPLE)
        kinds = [type(node).__name__ for node in walk(lf)]
        assert kinds == ["Apply", "Apply", "Apply", "AllRows", "ColumnRef", "CellValue", "CellValue"]

    def test_referenced_columns_first_seen(self):
        lf = parse_logic_form(
            "and { only { filter_eq { all_rows ; pos ; 1 } } ;"
            " eq { hop { argmax { all_rows ; points } ; pos } ; 1 } }"
        )
        assert referenced_columns(lf) == ["pos", "points"]

    def test_arity_enforced_at_construction(self):
        with pytest.raises(ArityError):
            Apply("count", (AllRows(), AllRows()))
        with pytest.raises(UnknownFunctionError):
            Apply("nope", ())
