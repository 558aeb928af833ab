"""Logic-form driven statement generation over flat data tables.

The package turns a table into short factual statements in four moves:
abstract observed logic forms into weighted templates, grow new forms from
those templates against a concrete table, render or delegate the wording,
then keep only statements whose underlying form executes to true.
"""

from .catalog import CATALOG
from .errors import (
    ArityError,
    DistributionError,
    ExecutionError,
    HookError,
    IngestError,
    LoftError,
    ParseError,
    TypeCheckError,
    UnknownFunctionError,
)
from .executor import execute, verify
from .forms import parse_logic_form, print_logic_form
from .metrics import score_output
from .pipeline import HookConfig, run_pipeline
from .realizer import realize_logic_form
from .tables import CorpusEntry, Table, load_corpus
from .templates import build_distribution, default_distribution, load_distribution

__version__ = "0.1.0"

__all__ = [
    "ArityError",
    "CATALOG",
    "CorpusEntry",
    "DistributionError",
    "ExecutionError",
    "HookConfig",
    "HookError",
    "IngestError",
    "LoftError",
    "ParseError",
    "Table",
    "TypeCheckError",
    "UnknownFunctionError",
    "build_distribution",
    "default_distribution",
    "execute",
    "load_corpus",
    "load_distribution",
    "parse_logic_form",
    "print_logic_form",
    "realize_logic_form",
    "run_pipeline",
    "score_output",
    "verify",
]
