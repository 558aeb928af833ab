"""Command line front end.

Machine-readable JSON goes to stdout, diagnostics go to stderr.  Exit
codes: 0 success (including forms that fail to execute, which still get
an error object on stdout), 1 bad usage, 2 unreadable or invalid input
data, 3 a hook process that could not be used at all.

LOFT_SEED sets the default seed (13 otherwise) and LOFT_LOG the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from importlib import resources
from pathlib import Path

from .errors import (
    DistributionError,
    ExecutionError,
    HookError,
    IngestError,
    ParseError,
    TypeCheckError,
)
from .executor import execute, verify
from .forms import Apply, parse_logic_form, type_check
from .metrics import TOKENS, score_output
from .pipeline import BUILTIN, STRATEGIES, HookConfig, run_pipeline
from .realizer import realize_logic_form
from .synthesizer import SynthesisConfig, synthesize_candidates
from .tables import CorpusEntry, Table, load_corpus, save_corpus
from .templates import (
    build_distribution,
    default_distribution,
    load_distribution,
    save_distribution,
)

log = logging.getLogger(__name__)

DEFAULT_SEED = 13


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(payload: dict) -> None:
    print(json.dumps(payload, ensure_ascii=False, sort_keys=True))


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("LOFT_SEED", "")
    if raw:
        try:
            return int(raw)
        except ValueError as exc:
            raise UsageError(f"LOFT_SEED must be an integer, got {raw!r}") from exc
    return DEFAULT_SEED


def _load_entries(path: str, fmt: str = "json") -> list[CorpusEntry]:
    return load_corpus(path, format=fmt)


def _pick_table(entries: list[CorpusEntry], table_id: str | None) -> Table:
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


def _form_error(exc: Exception) -> dict:
    if isinstance(exc, (TypeCheckError, ExecutionError)):
        return {"error": str(exc), "kind": exc.kind}
    return {"error": str(exc), "kind": "parse"}


# -- subcommand bodies -------------------------------------------------------


def _cmd_ingest(args) -> int:
    entries = _load_entries(args.input, args.format)
    save_corpus(entries, args.output)
    _emit({"tables": len(entries), "output": args.output})
    return 0


def _cmd_mine_templates(args) -> int:
    forms = []
    with open(args.forms, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                lf = parse_logic_form(line)
            except ParseError as exc:
                log.warning("skipping unparseable form on line %d: %s", lineno, exc)
                continue
            if not isinstance(lf, Apply):
                log.warning("skipping line %d: not a function application", lineno)
                continue
            forms.append(lf)
    if not forms:
        raise IngestError(f"no usable logic forms in {args.forms}")
    dist = build_distribution(forms, provenance=args.forms)
    save_distribution(dist, args.output)
    _emit({"templates": len(dist.entries), "output": args.output})
    return 0


def _cmd_synthesize(args) -> int:
    entries = _load_entries(args.corpus)
    dist = _load_dist(args.templates)
    config = SynthesisConfig(
        candidates_per_column_set=args.candidates,
        seed=_seed_of(args),
        max_column_sets=args.max_column_sets,
    )
    lines = []
    total = 0
    for entry in sorted(entries, key=lambda e: e.table.table_id):
        result = synthesize_candidates(
            entry.table, list(entry.selected_column_sets) or None, config, dist
        )
        for cand in result.candidates:
            total += 1
            lines.append(
                json.dumps(
                    {
                        "table_id": cand.table.table_id,
                        "column_set": list(cand.column_set),
                        "logic_form": cand.logic_form,
                        "category": cand.category,
                    },
                    ensure_ascii=False,
                    sort_keys=True,
                )
            )
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    _emit({"tables": len(entries), "candidates": total, "output": args.output})
    return 0


def _cmd_realize(args) -> int:
    try:
        _emit({"text": realize_logic_form(args.form)})
    except ParseError as exc:
        _emit(_form_error(exc))
    return 0


def _cmd_execute(args) -> int:
    entries = _load_entries(args.corpus)
    table = _pick_table(entries, args.table_id)
    try:
        lf = parse_logic_form(args.form)
        type_check(lf, table)
        value = execute(lf, table)
        _emit({"kind": value.kind, "value": value.to_json()})
    except (ParseError, TypeCheckError, ExecutionError) as exc:
        _emit(_form_error(exc))
    return 0


def _cmd_verify(args) -> int:
    entries = _load_entries(args.corpus)
    table = _pick_table(entries, args.table_id)
    _emit({"entailed": verify(args.form, table)})
    return 0


def _cmd_pipeline(args) -> int:
    entries = _load_entries(args.corpus)
    dist = _load_dist(args.templates)
    seed = _seed_of(args)
    report = run_pipeline(
        entries,
        args.output,
        dist,
        k=args.k,
        strategy=args.strategy,
        seed=seed,
        generator=HookConfig(command=args.generator, timeout=args.timeout),
        verifier=HookConfig(command=args.verifier, timeout=args.timeout),
        synthesis=SynthesisConfig(
            candidates_per_column_set=args.candidates, seed=seed
        ),
    )
    payload = report.to_json()
    if args.report:
        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
    _emit(payload)
    return 0


def _cmd_score(args) -> int:
    entries = _load_entries(args.corpus)
    report = score_output(args.output, entries, distinct_denominator=args.denominator)
    _emit(report.to_json())
    return 0


def _cmd_demo(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = _seed_of(args)

    corpus_path = out_dir / "corpus.jsonl"
    corpus_path.write_bytes(
        resources.files("loft.data").joinpath("sample_corpus.jsonl").read_bytes()
    )
    forms_path = out_dir / "forms.txt"
    forms_path.write_bytes(
        resources.files("loft.data").joinpath("sample_forms.txt").read_bytes()
    )

    entries = _load_entries(str(corpus_path))
    forms = []
    for line in forms_path.read_text("utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            forms.append(parse_logic_form(line))
    dist = build_distribution(forms, provenance="demo")
    save_distribution(dist, out_dir / "templates.json")

    summary: dict = {"out_dir": str(out_dir), "seed": seed}
    for strategy in STRATEGIES:
        output = out_dir / f"output_{strategy}.jsonl"
        report = run_pipeline(
            entries, output, dist, k=args.k, strategy=strategy, seed=seed
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
    p.add_argument("--candidates", type=int, default=20)
    p.add_argument("--max-column-sets", type=int, default=4)
    p.add_argument("--seed", type=int, default=None)

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
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--strategy", choices=STRATEGIES, default="random")
    p.add_argument("--candidates", type=int, default=20)
    p.add_argument("--generator", default=BUILTIN)
    p.add_argument("--verifier", default=BUILTIN)
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=None)

    p = add("score", _cmd_score, "compute metrics for a pipeline output")
    p.add_argument("--corpus", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--denominator", choices=(TOKENS, "ngrams"), default=TOKENS)

    p = add("demo", _cmd_demo, "run everything end to end on bundled data")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=os.environ.get("LOFT_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IngestError, DistributionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError, PermissionError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HookError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
