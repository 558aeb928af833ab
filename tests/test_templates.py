"""Abstraction into templates and weighted distribution handling."""

import json
import random
import re
from itertools import accumulate

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loft import (
    ArityError,
    DistributionError,
    ParseError,
    Table,
    TypeCheckError,
    UnknownFunctionError,
    build_distribution,
    default_distribution,
    load_distribution,
    parse_logic_form,
)
from loft.catalog import BOOL
from loft.forms import AllRows, Apply, ColumnRef, type_check, walk
from loft.tables import normalize_cell
from loft.templates import (
    TemplateDistribution,
    WeightedTemplate,
    abstract,
    parse_template,
    save_distribution,
)

from .generators import random_bool_form, random_form, random_table


def abstracted(text):
    return abstract(parse_logic_form(text))


class TestAbstraction:
    def test_hop_example(self):
        assert (
            abstracted("hop { argmax { all_rows ; points } ; team }")
            == "hop { SUPER_ARG { all_rows ; COL_1 } ; COL_2 }"
        )

    def test_direction_twins_share_a_skeleton(self):
        assert abstracted("greater { 5 ; 2 }") == "COMPARE_GT { OBJ_1 ; OBJ_2 }"
        assert abstracted("less { 7 ; 1 }") == "COMPARE_GT { OBJ_1 ; OBJ_2 }"

    def test_count_example(self):
        assert (
            abstracted("eq { count { filter_eq { all_rows ; team ; a } } ; 1 }")
            == "COMPARE_EQ { count { FILTER_EQ { all_rows ; COL_1 ; OBJ_1 } } ; OBJ_2 }"
        )

    def test_repeated_entities_share_placeholders(self):
        got = abstracted(
            "and { only { filter_eq { all_rows ; pos ; 1 } } ;"
            " eq { hop { filter_eq { all_rows ; pos ; 1 } ; team } ; a } }"
        )
        assert got == (
            "and { only { FILTER_EQ { all_rows ; COL_1 ; OBJ_1 } } ;"
            " COMPARE_EQ { hop { FILTER_EQ { all_rows ; COL_1 ; OBJ_1 } ; COL_2 } ; OBJ_2 } }"
        )

    def test_ordinal_positions_get_ord_placeholders(self):
        got = abstracted("eq { nth_max { all_rows ; points ; 2 } ; 2 }")
        # the rank is ordinal, the compared value is an object, even though
        # both read "2"
        assert got == "COMPARE_EQ { ORDINAL { all_rows ; COL_1 ; ORD_1 } ; OBJ_1 }"

    def test_category_comes_from_the_root(self):
        template = parse_template(abstracted("only { filter_eq { all_rows ; team ; a } }"))
        assert template.category == "unique"
        template = parse_template(abstracted("most_eq { all_rows ; team ; a }"))
        assert template.category == "majority"

    def test_root_must_be_an_application(self):
        from loft.forms import AllRows

        assert abstract(AllRows()) == "all_rows"
        with pytest.raises(ParseError, match="root must be a function group"):
            parse_template(abstract(AllRows()))

    def test_round_trip_through_canonical_text(self):
        text = "COMPARE_EQ { hop { SUPER_ARG { all_rows ; COL_1 } ; COL_2 } ; OBJ_1 }"
        assert parse_template(text).canonical() == text


class TestTemplateParsing:
    def test_placeholder_counts(self):
        template = parse_template(
            "COMPARE_GT { hop { FILTER_EQ { all_rows ; COL_1 ; OBJ_1 } ; COL_2 } ;"
            " hop { FILTER_EQ { all_rows ; COL_1 ; OBJ_2 } ; COL_2 } }"
        )
        # two distinct columns; only the one the comparison reads is numeric
        assert template.needs == {1: False, 2: True}

    def test_numbering_must_follow_first_appearance(self):
        with pytest.raises(ParseError):
            parse_template("only { FILTER_EQ { all_rows ; COL_2 ; OBJ_1 } }")
        with pytest.raises(ParseError):
            parse_template("only { FILTER_EQ { all_rows ; COL_1 ; OBJ_2 } }")

    def test_unknown_group(self):
        with pytest.raises(ParseError):
            parse_template("SHINY { all_rows }")

    def test_member_names_are_not_groups(self):
        with pytest.raises(ParseError):
            parse_template("filter_eq { all_rows ; COL_1 ; OBJ_1 }")

    def test_leaf_positions_are_enforced(self):
        # a column placeholder cannot sit in an object position
        with pytest.raises(ParseError):
            parse_template("COMPARE_EQ { COL_1 ; OBJ_1 }")
        # all_rows cannot sit in a header position
        with pytest.raises(ParseError):
            parse_template("count { FILTER_EQ { all_rows ; all_rows ; OBJ_1 } }")
        # an ordinal placeholder cannot sit in an object position
        with pytest.raises(ParseError):
            parse_template("COMPARE_EQ { ORD_1 ; OBJ_1 }")

    def test_root_must_be_a_group(self):
        with pytest.raises(ParseError):
            parse_template("OBJ_1")

    def test_errors_share_the_form_classes(self):
        with pytest.raises(ArityError):
            parse_template("count { all_rows ; all_rows }")
        with pytest.raises(ArityError):
            parse_template("FILTER_EQ { all_rows ; COL_1 }")
        with pytest.raises(UnknownFunctionError):
            parse_template("SHINY { all_rows }")

    def test_unterminated_brace_is_a_plain_parse_error(self):
        with pytest.raises(ParseError, match="expected '}'") as exc_info:
            parse_template("count { all_rows ")
        assert type(exc_info.value) is ParseError
        assert exc_info.value.offset is not None

    def test_abstraction_round_trips_on_random_forms(self):
        # a template that loads is the one abstraction gave; the rest (a
        # view or value root, a free OBJ that cannot be grounded) are refused
        rng = random.Random(11)
        checked = refused = 0
        for _ in range(300):
            form = random_form(rng, random_table(rng))
            if isinstance(form, Apply):
                text = abstract(form)
                try:
                    loaded = parse_template(text)
                except ParseError:
                    refused += 1
                    continue
                assert loaded.canonical() == text
                checked += 1
        assert checked > 120 and refused > 60

    @pytest.mark.parametrize("text, token, message", [
        ("COMPARE_EQ { AGGREGATION { all_rows ; count { all_rows } } ; OBJ_1 }", "count",
         "count returns type number where type header is expected"),
        ("COMPARE_EQ { ORDINAL { all_rows ; COL_1 ; count { all_rows } } ; OBJ_1 }", "count",
         "count returns type number where type ordinal is expected"),
        ("COMPARE_EQ { hop { all_rows ; COL_1 } ; OBJ_1 }", "hop",
         "hop over all_rows never type-checks"),
        ("round_eq {  OBJ_1 ;\tOBJ_2 }", "round_eq", "round_eq cannot ground its OBJ"),
        ("only { FILTER_EQ { all_rows ; COL_1 ;  OBJ_2 } }", "OBJ_2",
         "OBJ_2 is not numbered by first appearance"),
        ("only { FILTER_EQ { all_rows ; COL_1 ; team } }", "team",
         "expected a placeholder, got 'team'"),
    ], ids=["function-as-column", "function-as-rank", "hop-over-all-rows", "free-comparison",
            "numbering", "bare-token"])
    def test_a_refused_skeleton_names_the_offending_node(self, text, token, message):
        with pytest.raises(ParseError, match=re.escape(message)) as exc_info:
            parse_template(text)
        assert exc_info.value.offset == text.index(token)

    def test_a_loaded_template_holds_its_column_needs(self):
        # hop under a numeric comparison reads a number; a filter's column
        # needs none, an ordinal's does
        template = parse_template(
            "COMPARE_GT { hop { FILTER_EQ { all_rows ; COL_1 ; OBJ_1 } ; COL_2 } ;"
            " ORDINAL { all_rows ; COL_3 ; ORD_1 } }")
        assert template.needs == {1: False, 2: True, 3: True}

    def test_singleton_groups_keep_function_names(self):
        template = parse_template("only { filter_all { all_rows ; COL_1 } }")
        assert template.category == "unique"


class TestDistributions:
    def test_build_from_sample_forms(self, mined_distribution):
        dist = mined_distribution
        assert len(dist.entries) == 15
        assert sum(e.weight for e in dist.entries) == pytest.approx(1.0)
        weights = [e.weight for e in dist.entries]
        assert weights == sorted(weights, reverse=True)

    def test_equal_weights_sort_by_canonical(self):
        dist = build_distribution([parse_logic_form("greater { count { all_rows } ; 2 }"),
                                   parse_logic_form("only { all_rows }")])
        assert [e.template.canonical() for e in dist.entries] == [
            "COMPARE_GT { count { all_rows } ; OBJ_1 }",
            "only { all_rows }",
        ]

    def test_a_form_whose_template_cannot_ground_is_refused_by_name(self):
        forms = [parse_logic_form("only { all_rows }"), parse_logic_form("eq { 3 ; 4 }")]
        with pytest.raises(DistributionError, match=re.escape("eq { 3 ; 4 }: its template")):
            build_distribution(forms)

    def test_empty_input_rejected(self):
        with pytest.raises(DistributionError):
            build_distribution([])

    def test_weights_must_sum_to_one(self):
        entry = WeightedTemplate(parse_template("only { all_rows }"), 0.5)
        with pytest.raises(DistributionError):
            TemplateDistribution(entries=(entry,))

    def test_duplicate_templates_rejected(self):
        half = WeightedTemplate(parse_template("only { all_rows }"), 0.5)
        with pytest.raises(DistributionError):
            TemplateDistribution(entries=(half, half))

    def test_non_positive_weight_rejected(self):
        bad = WeightedTemplate(parse_template("only { all_rows }"), 0.0)
        good = WeightedTemplate(parse_template("COMPARE_EQ { count { all_rows } ; OBJ_1 }"), 1.0)
        with pytest.raises(DistributionError):
            TemplateDistribution(entries=(good, bad))

    @pytest.mark.parametrize("weight, message", [
        ("NaN", "nan for only { all_rows } is not positive"),
        ('"nan"', "nan for only { all_rows } is not positive"),
        ("true", "entry 0: weight must be a number, not True"),
    ], ids=["nan", "nan-text", "true"])
    def test_weight_that_is_not_a_positive_number_is_refused(self, tmp_path, weight, message):
        # json reads the bare NaN literal, float() the text "nan", and True as
        # 1.0; NaN compares False with everything, so only "> 0" refuses it
        path = tmp_path / "templates.json"
        path.write_text('{"entries": [{"skeleton": "only { all_rows }", "weight": %s}]}'
                        % weight, encoding="utf-8")
        with pytest.raises(DistributionError, match=re.escape(message)):
            load_distribution(path)

    def test_running_sums_are_the_distributions_own(self):
        dist = default_distribution()
        weights = [e.weight for e in dist.entries]
        assert dist.running == tuple(accumulate(weights))
        assert dist.total == sum(weights)
        assert "running" not in repr(dist)

    def test_save_load_round_trip(self, tmp_path):
        dist = build_distribution(
            [
                parse_logic_form("greater { count { all_rows } ; 2 }"),
                parse_logic_form("greater { count { all_rows } ; 2 }"),
                parse_logic_form("only { all_rows }"),
            ],
            provenance="unit",
        )
        path = tmp_path / "dist.json"
        save_distribution(dist, path)
        back = load_distribution(path)
        assert back == dist
        save_distribution(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_declared_category_must_match_root(self, tmp_path):
        payload = {
            "provenance": "unit",
            "entries": [
                {"skeleton": "only { all_rows }", "category": "majority", "weight": 1.0}
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DistributionError, match="category"):
            load_distribution(path)

    def test_byte_order_mark_is_not_part_of_the_json(self, tmp_path):
        path = tmp_path / "bom.json"
        path.write_text('\ufeff{"entries": [{"skeleton": "only { all_rows }", "weight": 1}]}',
                        encoding="utf-8")
        assert load_distribution(path).entries[0].template.canonical() == "only { all_rows }"

    def test_a_form_that_is_not_a_function_is_refused_by_name(self):
        with pytest.raises(DistributionError,
                           match=re.escape("all_rows: its template all_rows is refused")):
            build_distribution([parse_logic_form("all_rows")])

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DistributionError):
            load_distribution(path)
        with pytest.raises(DistributionError):
            load_distribution(tmp_path / "absent.json")

    @pytest.mark.parametrize("body", [
        b'{"entries": 5}', b"[]", b'{"provenance": "x"}', b'{"entries": []}', b"\xff",
    ], ids=["entries-number", "not-object", "no-entries", "no-templates", "not-utf8"])
    def test_file_of_the_wrong_shape(self, tmp_path, body):
        path = tmp_path / "templates.json"
        path.write_bytes(body)
        with pytest.raises(DistributionError, match="templates.json"):
            load_distribution(path)

    def test_default_distribution_covers_every_category(self):
        from loft.catalog import CATEGORIES, GROUP_SIGNATURES
        from loft.forms import walk
        from loft.templates import TApply

        dist = default_distribution()
        assert len(dist.entries) == 8
        exercised = {
            GROUP_SIGNATURES[node.group].category
            for e in dist.entries
            for node in walk(e.template.skeleton)
            if isinstance(node, TApply)
        }
        assert exercised == set(CATEGORIES)
        assert sum(e.weight for e in dist.entries) == pytest.approx(1.0)


# every column numeric, so a column never fails the type check for its type
NUMERIC_TABLE = Table.from_strings(
    "numeric", "numeric", ["a", "b", "c"], [["1", "2.5", "7"], ["3", "4", "0"], ["5", "6", "9"]])


def replaced(node, index: int, new):
    """`node` with its `index`-th node in printing order replaced by `new`."""
    nodes = iter(range(index + 1))

    def rebuild(current):
        if next(nodes, None) == index:
            return new
        if isinstance(current, Apply):
            return Apply(current.name, tuple(rebuild(arg) for arg in current.args))
        return current

    return rebuild(node)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(2625)  # nth_max { all_rows ; b ; hop { argmax { all_rows ; a } ; a } }
def test_a_form_type_checks_as_boolean_exactly_when_its_template_loads(seed):
    # forms and templates are typed by one position table, so on a table
    # where no column type or name can fail, a form is boolean exactly
    # when its template loads, but for the two shapes a template refuses
    # because they cannot be grounded; a boolean form with one node
    # replaced by a leaf or by a random form is often ill-typed
    rng = random.Random(seed)
    table = NUMERIC_TABLE
    lf = random_bool_form(rng, table)
    new = rng.choice([AllRows(), ColumnRef(rng.choice(table.headers)),
                      normalize_cell(str(rng.randint(1, 3))), random_form(rng, table, 2)])
    lf = replaced(lf, rng.randrange(len(list(walk(lf)))), new)
    try:
        boolean = type_check(lf, table) == BOOL
    except TypeCheckError:
        boolean = False
    try:
        parse_template(abstract(lf))
    except ParseError as exc:  # also a root that is no longer a function
        assume("cannot ground" not in str(exc))
        loads = False
    else:
        loads = True
    assert boolean == loads
