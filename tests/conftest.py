from importlib import resources

import pytest

from loft import CorpusEntry, Table, build_distribution, load_corpus, parse_logic_form


@pytest.fixture
def mt() -> Table:
    """The tiny worked-example table used throughout the unit tests."""
    return Table.from_strings(
        "mt", "mt", ["team", "points"], [["a", "3"], ["b", "5"], ["c", "2"]]
    )


@pytest.fixture(scope="session")
def bundled_corpus() -> list[CorpusEntry]:
    return load_corpus(str(resources.files("loft.data").joinpath("sample_corpus.jsonl")))


@pytest.fixture(scope="session")
def mined_distribution():
    """The distribution mined from the bundled forms, as the benchmark mines it."""
    raw = resources.files("loft.data").joinpath("sample_forms.txt").read_text("utf-8")
    lines = (line.strip() for line in raw.splitlines())
    return build_distribution([parse_logic_form(line) for line in lines
                               if line and not line.startswith("#")])
