"""Rule-based realization: exact phrasings, the bundled phrase table's fit
to the catalog, and entity containment."""

import random

import pytest

from loft import default_distribution, parse_logic_form, realize_logic_form
from loft.catalog import CATALOG, VIEW
from loft.forms import referenced_columns, walk
from loft.realizer import PLURAL, UNIT, _SLOT_RE, load_phrase_table, serialize_table
from loft.synthesizer import synthesize_candidates
from loft.tables import CellValue


class TestExactPhrasings:
    @pytest.mark.parametrize(
        "form, expected",
        [
            (
                "eq { count { filter_eq { all_rows ; team ; a } } ; 1 }",
                "the number of rows whose team is a is equal to 1",
            ),
            (
                "hop { argmax { all_rows ; points } ; team }",
                "the team of the row with the highest points",
            ),
            (
                "only { filter_eq { all_rows ; team ; a } }",
                "there is only one row whose team is a",
            ),
            (
                "most_greater_eq { all_rows ; points ; 2 }",
                "most rows have points of at least 2",
            ),
            (
                "all_not_eq { all_rows ; team ; d }",
                "every row has team different from d",
            ),
            (
                "round_eq { avg { all_rows ; points } ; 3.33 }",
                "the average points is roughly equal to 3.33",
            ),
            (
                "eq { hop { filter_eq { filter_greater { all_rows ; points ; 2 } ; team ; a } ; points } ; 3 }",
                "the points of the row whose team is a among rows whose points is greater than 2 is equal to 3",
            ),
            (
                "greater { sum { filter_eq { all_rows ; team ; a } ; points } ; 1 }",
                "the total points among rows whose team is a is greater than 1",
            ),
            (
                "less { nth_min { all_rows ; points ; 2 } ; 9 }",
                "the no. 2 lowest points is less than 9",
            ),
            (
                "eq { hop { nth_argmax { all_rows ; points ; 2 } ; team } ; a }",
                "the team of the row with the no. 2 highest points is equal to a",
            ),
            (
                "and { only { filter_eq { all_rows ; team ; a } } ; eq { count { all_rows } ; 3 } }",
                "there is only one row whose team is a and the number of rows is equal to 3",
            ),
            (
                "eq { count { filter_all { all_rows ; points } } ; 3 }",
                "the number of rows under the points column is equal to 3",
            ),
        ],
    )
    def test_sentence(self, form, expected):
        assert realize_logic_form(form) == expected

    def test_accepts_parsed_forms_too(self):
        lf = parse_logic_form("only { all_rows }")
        assert realize_logic_form(lf) == "there is only one row"


class TestPhraseTable:
    def test_bundled_table_is_complete(self):
        # the realizer trusts the bundled table: this is its only check
        table = load_phrase_table()
        assert set(table) == {"all_rows", "functions"}
        assert set(table["all_rows"]) == {PLURAL, UNIT}
        assert set(table["functions"]) == set(CATALOG)
        for name, entry in table["functions"].items():
            sig = CATALOG[name]
            wanted = {PLURAL, UNIT} if sig.return_type == VIEW else {"pattern"}
            assert set(entry) == wanted, name
            for pattern in entry.values():
                for kind, pos in _SLOT_RE.findall(pattern):
                    assert int(pos) < len(sig.arg_types), (name, pattern)
                    assert not kind or sig.arg_types[int(pos)] == VIEW, (name, pattern)


class TestEntityContainment:
    def test_synthesized_candidates_mention_their_entities(self, bundled_corpus):
        dist = default_distribution()
        checked = 0
        for entry in bundled_corpus[:6]:
            result = synthesize_candidates(entry.table, None, dist, seed=13, candidates=5)
            for cand in result.candidates:
                text = realize_logic_form(cand.form)
                for column in referenced_columns(cand.form):
                    assert column in text, (text, column)
                for node in walk(cand.form):
                    if isinstance(node, CellValue):
                        assert node.text in text, (text, node.text)
                checked += 1
        assert checked >= 50

    def test_realization_is_deterministic(self, bundled_corpus):
        dist = default_distribution()
        table = bundled_corpus[0].table
        result = synthesize_candidates(table, None, dist, seed=13, candidates=4)
        forms = [c.form for c in result.candidates]
        first = [realize_logic_form(f) for f in forms]
        second = [realize_logic_form(f) for f in forms]
        assert first == second


class TestSerializeTable:
    def test_exact_flattening(self, mt):
        assert serialize_table(mt) == (
            "title : mt | col : team | points"
            " || row 1 : a | 3 || row 2 : b | 5 || row 3 : c | 2"
        )

    def test_preserves_display_text(self):
        from loft import Table

        table = Table.from_strings("t", "scores", ["name", "share"], [["ann", "63%"]])
        assert serialize_table(table) == (
            "title : scores | col : name | share || row 1 : ann | 63%"
        )

    def test_empty_cells_keep_their_marker(self):
        from loft import Table

        table = Table.from_strings("t", "t", ["a"], [["-"]])
        assert serialize_table(table).endswith("row 1 : -")


def test_every_random_sentence_is_nonempty():
    # realization is total over type-correct forms from the generators
    from .generators import random_form, random_table

    for seed in range(40):
        rng = random.Random(seed)
        table = random_table(rng)
        form = random_form(rng, table)
        text = realize_logic_form(form)
        assert isinstance(text, str) and text
