"""Command line front end.

Machine-readable JSON goes to stdout, diagnostics go to stderr.  Exit
codes: 0 success, 1 bad usage, 2 unreadable or invalid input data, 3 a
hook process that could not be used at all.  A form that fails to parse,
type check or execute still exits 0: ``execute`` prints an error object
for it, ``verify`` ``{"entailed": false}``.

LOFT_LOG sets the log level (WARNING otherwise).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from importlib import resources
from pathlib import Path

from .catalog import NUM, OBJECT, VIEW
from .errors import (
    DistributionError,
    ExecutionError,
    HookError,
    IngestError,
    ParseError,
    TypeCheckError,
)
from .executor import Value, execute, number_text, verify
from .forms import parse_logic_form, type_check
from .metrics import score_output
from .pipeline import (
    BUILTIN, DEFAULT_K, DEFAULT_SEED, DEFAULT_STRATEGY, STRATEGIES, HookConfig, run_pipeline,
)
from .realizer import realize_logic_form
from .synthesizer import DEFAULT_CANDIDATES, synthesize_candidates
from .tables import (
    CorpusEntry, Table, load_corpus, not_utf8, save_corpus, write_json_lines,
)
from .templates import (
    Template,
    default_distribution,
    load_distribution,
    mine_templates,
    save_distribution,
    weigh_templates,
)

log = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(payload: dict) -> None:
    print(json.dumps(payload, ensure_ascii=False, sort_keys=True))


def _pick_table(entries: list[CorpusEntry], table_id: str | None, corpus: str) -> Table:
    if not entries:
        raise IngestError(f"{corpus} holds no tables")
    if table_id is None:
        if len(entries) == 1:
            return entries[0].table
        raise UsageError("--table-id is required when the corpus has several tables")
    for entry in entries:
        if entry.table.table_id == table_id:
            return entry.table
    raise IngestError(f"table {table_id!r} not found in corpus")


def _load_dist(path: str | None):
    if path is None:
        return default_distribution()
    return load_distribution(path)


def _at_least(low: int):
    """An argparse type: an integer of at least `low`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _timeout(text: str) -> float:
    """An argparse type: a hook timeout HookConfig accepts."""
    try:
        return HookConfig(timeout=float(text)).timeout
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# -- subcommand bodies -------------------------------------------------------


def _cmd_ingest(args) -> int:
    entries = load_corpus(args.input, format=args.format)
    save_corpus(entries, args.output)
    _emit({"tables": len(entries), "output": args.output})
    return 0


def _read_templates(path) -> list[Template]:
    """The templates of a file's logic forms, one a line, each distinct
    template checked once; skips blank and # lines, and warns about and
    skips a line whose template parse_template refuses, as it refuses a
    form that is not a function application.  A leading byte-order mark
    is dropped."""
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").split("\n")
    except UnicodeDecodeError as exc:
        raise not_utf8(Path(path)) from exc
    numbered = []  # (line number, form) of each form that parses
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            lf = parse_logic_form(line)
        except ParseError as exc:
            log.warning("skipping unparseable form on line %d: %s", lineno, exc)
            continue
        numbered.append((lineno, lf))
    templates = []
    for (lineno, _), template in zip(numbered, mine_templates([lf for _, lf in numbered])):
        if isinstance(template, ParseError):
            log.warning("skipping line %d: its template is refused: %s", lineno, template)
        else:
            templates.append(template)
    if not templates:
        raise IngestError(f"no usable logic forms in {path}")
    return templates


def _cmd_mine_templates(args) -> int:
    output_path = _output_file(args, "output", "forms")
    dist = weigh_templates(_read_templates(args.forms), provenance=args.forms)
    save_distribution(dist, output_path)
    _emit({"templates": len(dist.entries), "output": args.output})
    return 0


def _cmd_synthesize(args) -> int:
    output_path = _output_file(args, "output", "corpus", "templates")
    entries = load_corpus(args.corpus)
    dist = _load_dist(args.templates)
    records = []
    for entry in sorted(entries, key=lambda e: e.table.table_id):
        result = synthesize_candidates(
            entry.table, entry.selected_column_sets, dist,
            seed=args.seed, candidates=args.candidates,
        )
        for cand in result.candidates:
            records.append({
                "table_id": cand.table.table_id,
                "column_set": list(cand.column_set),
                "logic_form": cand.logic_form,
                "category": cand.category,
            })
    write_json_lines(output_path, records)
    _emit({"tables": len(entries), "candidates": len(records), "output": args.output})
    return 0


def _cmd_realize(args) -> int:
    try:
        _emit({"text": realize_logic_form(args.form)})
    except ParseError as exc:
        _emit({"error": str(exc), "kind": exc.kind})
    return 0


def _json_value(kind: str, value: Value):
    """A plain value of catalog type `kind` as JSON: a whole number as an
    int, a cell as its text and a view as its row-index list."""
    if kind == NUM:
        if not math.isfinite(value):  # JSON has no inf or nan: give the number's text
            return number_text(value)
        return int(value) if value.is_integer() and abs(value) < 1e15 else value
    if kind == OBJECT:
        return value.text
    if kind == VIEW:
        return list(value)
    return value


def _cmd_execute(args) -> int:
    entries = load_corpus(args.corpus)
    table = _pick_table(entries, args.table_id, args.corpus)
    try:
        lf = parse_logic_form(args.form)
        kind = type_check(lf, table)
        _emit({"kind": kind, "value": _json_value(kind, execute(lf, table))})
    except (ParseError, TypeCheckError, ExecutionError) as exc:
        _emit({"error": str(exc), "kind": exc.kind})
    return 0


def _cmd_verify(args) -> int:
    entries = load_corpus(args.corpus)
    table = _pick_table(entries, args.table_id, args.corpus)
    _emit({"entailed": verify(args.form, table)})
    return 0


def _output_file(args, output: str, *inputs: str) -> Path:
    """The path of args' `output` option, checked before any work rather
    than after it: one naming the file of an `inputs` option is bad usage,
    and its parent directory is made now."""
    path = Path(getattr(args, output))
    for name in inputs:
        other = getattr(args, name)
        if other is not None and Path(other).resolve() == path.resolve():
            raise UsageError(f"--{output} and --{name} name the same file")
    if path.is_dir():
        raise IsADirectoryError(f"{path} is a directory")
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_pipeline(args) -> int:
    report_path = args.report and _output_file(args, "report", "output", "corpus", "templates")
    output_path = _output_file(args, "output", "corpus", "templates")
    entries = load_corpus(args.corpus)
    dist = _load_dist(args.templates)
    report = run_pipeline(
        entries,
        output_path,
        dist,
        k=args.k,
        strategy=args.strategy,
        seed=args.seed,
        generator=HookConfig(command=args.generator, timeout=args.timeout),
        verifier=HookConfig(command=args.verifier, timeout=args.timeout),
        candidates=args.candidates,
    )
    payload = report.to_json()
    if report_path:
        report_path.write_text(
            json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
    _emit(payload)
    return 0


def _cmd_score(args) -> int:
    entries = load_corpus(args.corpus)
    report = score_output(args.output, entries)
    _emit(report.to_json())
    return 0


def _cmd_demo(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    corpus_path = out_dir / "corpus.jsonl"
    corpus_path.write_bytes(
        resources.files("loft.data").joinpath("sample_corpus.jsonl").read_bytes()
    )
    forms_path = out_dir / "forms.txt"
    forms_path.write_bytes(
        resources.files("loft.data").joinpath("sample_forms.txt").read_bytes()
    )

    entries = load_corpus(str(corpus_path))
    dist = weigh_templates(_read_templates(forms_path), provenance="demo")
    save_distribution(dist, out_dir / "templates.json")

    summary: dict = {"out_dir": str(out_dir), "seed": args.seed}
    for strategy in STRATEGIES:
        output = out_dir / f"output_{strategy}.jsonl"
        report = run_pipeline(
            entries, output, dist, k=args.k, strategy=strategy, seed=args.seed
        )
        metrics = score_output(output, entries)
        summary[strategy] = {
            "output": str(output),
            "report": report.to_json(),
            "metrics": metrics.to_json(),
        }
    _emit(summary)
    return 0


# -- parser wiring -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="loft", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("ingest", _cmd_ingest, "normalize a corpus file and rewrite it")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", required=True)

    p = add("mine-templates", _cmd_mine_templates,
            "abstract logic forms into a weighted template file")
    p.add_argument("--forms", required=True)
    p.add_argument("--output", required=True)

    p = add("synthesize", _cmd_synthesize, "grow candidate forms for a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--templates", default=None)
    p.add_argument("--output", required=True)
    p.add_argument("--candidates", type=_at_least(1), default=DEFAULT_CANDIDATES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = add("realize", _cmd_realize, "render one logic form as text")
    p.add_argument("form")

    p = add("execute", _cmd_execute, "evaluate one logic form against a table")
    p.add_argument("--corpus", required=True)
    p.add_argument("--table-id", default=None)
    p.add_argument("form")

    p = add("verify", _cmd_verify, "check that a form holds on a table")
    p.add_argument("--corpus", required=True)
    p.add_argument("--table-id", default=None)
    p.add_argument("form")

    p = add("pipeline", _cmd_pipeline, "run the full statement pipeline")
    p.add_argument("--corpus", required=True)
    p.add_argument("--templates", default=None)
    p.add_argument("--output", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--k", type=_at_least(0), default=DEFAULT_K)
    p.add_argument("--strategy", choices=STRATEGIES, default=DEFAULT_STRATEGY)
    p.add_argument("--candidates", type=_at_least(1), default=DEFAULT_CANDIDATES)
    p.add_argument("--generator", default=BUILTIN)
    p.add_argument("--verifier", default=BUILTIN)
    p.add_argument("--timeout", type=_timeout, default=HookConfig.timeout)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = add("score", _cmd_score, "compute metrics for a pipeline output")
    p.add_argument("--corpus", required=True)
    p.add_argument("--output", required=True)

    p = add("demo", _cmd_demo, "run everything end to end on bundled data")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--k", type=_at_least(0), default=DEFAULT_K)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    return parser


def main(argv: list[str] | None = None) -> int:
    level = (os.environ.get("LOFT_LOG") or "WARNING").upper()
    if not isinstance(logging.getLevelName(level), int):
        print(f"error: LOFT_LOG={level!r} is not a log level; "
              "use DEBUG, INFO, WARNING, ERROR or CRITICAL", file=sys.stderr)
        return 1
    logging.basicConfig(
        stream=sys.stderr,
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IngestError, DistributionError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HookError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
