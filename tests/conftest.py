import json
from importlib import resources

import pytest

from loft import CorpusEntry, Table


@pytest.fixture
def mt() -> Table:
    """The tiny worked-example table used throughout the unit tests."""
    return Table.from_strings(
        "mt", "mt", ["team", "points"], [["a", "3"], ["b", "5"], ["c", "2"]]
    )


@pytest.fixture(scope="session")
def bundled_corpus() -> list[CorpusEntry]:
    from loft.tables import _entry_from_record

    raw = resources.files("loft.data").joinpath("sample_corpus.jsonl").read_text("utf-8")
    entries = []
    for line in raw.splitlines():
        if line.strip():
            entries.append(_entry_from_record(json.loads(line)))
    return entries
