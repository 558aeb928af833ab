"""Seeded end-to-end benchmark of the loft pipeline and scorer.

    python3 bench/run.py --workload many-small --seed 1 --seconds 40 --trace 0

One run generates the workload's corpus from --seed and splits it into
the workload's shards.  It sets up (import loft, load the corpus, mine
the template distribution from the bundled sample forms, finish lazy
loads) a fixed number of times, spread over the run.  It then repeats
rounds up to the round boundary nearest to --seconds.  A round runs
run_pipeline followed by score_output once on each shard.  Every
iteration (one shard of one round) goes through the correctness gate in
gate.py; a crash ends the run and counts every item of the run as failed.

On a shared host the speed of the same work can change by up to 2x
from one stretch of seconds to the next, so a timing metric is the
fastest sample of identical work, not a mean or median: setup_s is the fastest set-up, and
pipeline_s (score_s) is the sum over shards of each shard's fastest
run_pipeline (score_output) call.  Shards are small enough that a call
often falls wholly inside a fast stretch.

With --trace 0 the last output line carries the end-to-end metrics,
measured with tracing off.  With --trace 1 untraced and traced rounds
alternate, and the last line carries the per-layer metrics derived from
the traced rounds' spans (see tracing.py), plus the tracing overhead.
The line before it holds run details: Python version, core count,
commit, source digest, seeds, sample counts, and medians and tails of
the set-up and round times.  Everything the run writes goes under
.bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import logging
import os
import platform
import resource
import shlex
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
FORMS_FILE = SRC / "loft" / "data" / "sample_forms.txt"
OUT_ROOT = REPO / ".bench_out"
SPEC = REPO / "BENCHMARK.json"

sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import gate  # noqa: E402
import tracing  # noqa: E402

PIPELINE_SEED = 13
K = 5
# set-ups per run: a fixed count, since each re-import leaves a little
# memory behind and peak_rss_mb must not depend on the number of rounds;
# SETUP_FIRST before the loop, then one after each round until the count
# is reached, the rest after the loop
SETUP_REPEATS = 16
SETUP_FIRST = 4


class SetupError(Exception):
    """The benchmark cannot run here: no loft sources or bundled data."""


@dataclass
class Context:
    loft: object
    entries: list
    dist: object
    shards: list


@dataclass
class Iteration:
    shard: int
    pipeline_s: float
    score_s: float
    items: int
    lost: int
    output: Path
    fingerprint: dict
    faithfulness: float | None
    problems: list
    hook_logs: tuple


class LogCounter(logging.Handler):
    """Counts loft's log records instead of printing them mid-measurement."""

    def __init__(self):
        super().__init__()
        self.counts: dict[str, int] = {}

    def emit(self, record: logging.LogRecord) -> None:
        self.counts[record.levelname] = self.counts.get(record.levelname, 0) + 1


def import_loft():
    """A fresh import of loft from this checkout's sources."""
    for key in [key for key in sys.modules if key == "loft" or key.startswith("loft.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        loft = importlib.import_module("loft")
    except ImportError as exc:
        raise SetupError(f"cannot import loft from {SRC}: {exc}") from exc
    if Path(loft.__file__).resolve().parent != SRC / "loft":
        raise SetupError(f"loft was imported from {loft.__file__}, not from {SRC}")
    return loft


def read_forms(loft) -> list:
    forms = []
    for line in FORMS_FILE.read_text("utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            forms.append(loft.parse_logic_form(line))
    return forms


def set_up(corpus_path: Path, shards: int) -> tuple[float, Context]:
    """Import, load, mine and finish lazy loads; returns (seconds, context).

    The entries are dealt round-robin into `shards` lists, so the bundled
    tables at the head of the corpus spread over the shards.
    """
    start = time.perf_counter()
    loft = import_loft()
    entries = loft.load_corpus(corpus_path)
    dist = loft.build_distribution(read_forms(loft), provenance="bench")
    loft.realizer.load_phrase_table()
    seconds = time.perf_counter() - start
    return seconds, Context(loft, entries, dist, [entries[i::shards] for i in range(shards)])


def hook_command(role: str, log_path: Path) -> str:
    return " ".join(shlex.quote(part) for part in (
        sys.executable, str(BENCH / "fake_hook.py"), role, "--log", str(log_path),
    ))


def iterate(ctx: Context, workload: corpus.Workload, out_dir: Path, number: int,
            shard: int) -> Iteration:
    """One timed run_pipeline plus score_output on one shard, then the gate's inputs."""
    loft = ctx.loft
    entries = ctx.shards[shard]
    output = out_dir / f"output-{number}-{shard}.jsonl"
    hooks = {}
    logs: tuple = ()
    if workload.hooked:
        logs = (out_dir / f"generator-{number}-{shard}.jsonl",
                out_dir / f"verifier-{number}-{shard}.jsonl")
        hooks = {
            "generator": loft.HookConfig(command=hook_command("generator", logs[0])),
            "verifier": loft.HookConfig(command=hook_command("verifier", logs[1])),
        }
    gc.collect()
    start = time.perf_counter()
    report = loft.run_pipeline(entries, output, ctx.dist, k=K, strategy=workload.strategy,
                               seed=PIPELINE_SEED, **hooks)
    middle = time.perf_counter()
    metrics = loft.score_output(output, entries)
    end = time.perf_counter()
    return Iteration(
        shard=shard,
        pipeline_s=middle - start,
        score_s=end - middle,
        items=report.candidates,
        lost=report.candidates - report.verified,
        output=output,
        fingerprint=gate.fingerprint(output, report, metrics),
        faithfulness=metrics.execution_faithfulness,
        problems=gate.faithfulness_problems(report, metrics),
        hook_logs=logs,
    )


def hook_gaps_us(logs: list[Path]) -> list[float]:
    """Idle time of each hook between one answer and the next request."""
    gaps = []
    for path in logs:
        records = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
        for prev, cur in zip(records, records[1:]):
            if cur["received_ns"] != prev["received_ns"]:
                gaps.append((cur["received_ns"] - prev["answered_ns"]) / 1e3)
    return gaps


def tail(values: list[float]) -> dict:
    """Median and the highest percentile with ten samples beyond it.

    Below twenty samples that percentile would not exceed the median, so
    the maximum is given instead, as percentile 100.
    """
    n = len(values)
    pct = 100 * (n - 10) // n if n >= 20 else 100
    return {"n": n, "median": statistics.median(values), "tail_pct": pct,
            "tail": tracing.percentile(values, pct)}


def source_digest() -> str:
    files = sorted(p for p in (SRC / "loft").rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = REPO / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text("utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = REPO / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text("utf-8").strip()
    packed = REPO / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text("utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


@dataclass
class Loop:
    """What the timed loop of one run produced."""

    untraced: list = field(default_factory=list)  # rounds: lists of Iterations
    traced: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def run_round(ctx: Context, workload: corpus.Workload, out_dir: Path, number: int,
              checker: gate.Gate, loop: Loop, its: list[Iteration]) -> None:
    """Every shard once, each through the gate; appends to `its`."""
    for shard in range(len(ctx.shards)):
        it = iterate(ctx, workload, out_dir, number, shard)
        found = checker.check(it)
        loop.problems += [f"round {number} shard {shard}: {p}" for p in found]
        loop.attempted += it.items
        loop.failed += it.items if found else it.lost
        its.append(it)


def run_loop(ctx: Context, corpus_path: Path, workload: corpus.Workload, out_dir: Path,
             seconds: float, checker: gate.Gate, tracer: tracing.Tracer | None,
             setups: list[float], cpus: list[int]) -> Loop:
    """Run rounds until the boundary nearest to `seconds`; with a tracer,
    untraced and traced rounds alternate, at least one of each.  Set-ups
    follow the rounds until SETUP_REPEATS are done (see there).  Each
    round is pinned to one of `cpus`; the caller restores the core set."""
    loop = Loop(setups=setups)
    start = time.perf_counter()
    number = 0
    while True:
        number += 1
        # each core of a shared host slows down on its own; alternating
        # the core gives every shard a chance on each of them (per pair of
        # rounds when traced, so both kinds of round visit every core)
        os.sched_setaffinity(0, {cpus[number // (2 if tracer else 1) % len(cpus)]})
        use_trace = tracer is not None and len(loop.traced) < len(loop.untraced)
        round_start = time.perf_counter()
        its: list[Iteration] = []
        try:
            if use_trace:
                tracer.run = len(loop.traced) + 1
                tracer.install()
                try:
                    run_round(ctx, workload, out_dir, number, checker, loop, its)
                finally:
                    tracer.remove()
            else:
                run_round(ctx, workload, out_dir, number, checker, loop, its)
        except Exception as exc:  # a crash fails the run: count it, report it, stop
            traceback.print_exc()
            loop.problems.append(f"round {number} crashed: {type(exc).__name__}: {exc}")
            # a crashed run fails every item: those done so far, the crashed
            # shard's and those of the shards after it, as far as they are known
            loop.attempted += max(1, checker.candidates(range(len(its), len(ctx.shards))))
            loop.failed = loop.attempted
            return loop
        round_s = time.perf_counter() - round_start
        (loop.traced if use_trace else loop.untraced).append(its)
        if len(loop.setups) < SETUP_REPEATS:
            seconds_taken, ctx = set_up(corpus_path, len(ctx.shards))
            loop.setups.append(seconds_taken)
        remaining = seconds - (time.perf_counter() - start)
        if remaining < round_s / 2 and (tracer is None or loop.traced):
            return loop


def fastest_sum(rounds: list[list[Iteration]], attr: str) -> float:
    """Sum over shards of each shard's fastest time `attr` over the rounds."""
    return sum(min(getattr(its[shard], attr) for its in rounds) for shard in range(len(rounds[0])))


def round_totals(rounds: list[list[Iteration]], attr: str) -> list[float]:
    return [sum(getattr(it, attr) for it in its) for its in rounds]


def end_to_end_metrics(loop: Loop) -> dict[str, float | None]:
    """The end-to-end metrics; those a crash left unmeasured are None."""
    timed = loop.untraced
    return {
        "setup_s": min(loop.setups),
        "pipeline_s": fastest_sum(timed, "pipeline_s") if timed else None,
        "score_s": fastest_sum(timed, "score_s") if timed else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "faithfulness": (min(it.faithfulness or 0.0 for its in timed for it in its)
                         if timed else None),
        "delivered_share": 1 - loop.failed / loop.attempted,
    }


def per_layer_metrics(tracer: tracing.Tracer, loop: Loop) -> dict[str, float]:
    """Per-layer metrics: per-round means over the traced rounds."""
    layer = tracing.layer_metrics(tracer.spans, tracer.counts, len(loop.traced))
    for name in ("tables.load_corpus", "templates.build_distribution"):
        setup_calls = [s.seconds for s in tracer.spans if s.run == 0 and s.name == name]
        layer[f"{name}_ms"] = 1e3 * statistics.median(setup_calls)
    gaps = hook_gaps_us([path for its in loop.untraced for it in its for path in it.hook_logs])
    layer["hook.client_gap_us"] = statistics.median(gaps) if gaps else 0.0

    def mean_total(rounds: list, *attrs: str) -> float:
        return statistics.fmean(sum(getattr(it, attr) for it in its for attr in attrs)
                                for its in rounds)

    untraced = mean_total(loop.untraced, "pipeline_s", "score_s")
    traced = mean_total(loop.traced, "pipeline_s", "score_s")
    layer["trace.untraced_s"] = untraced
    layer["trace.traced_s"] = traced
    layer["trace.overhead_s"] = traced - untraced
    layer["trace.pipeline_overhead_s"] = (
        mean_total(loop.traced, "pipeline_s") - mean_total(loop.untraced, "pipeline_s")
    )
    return layer


def measure(args, out_dir: Path) -> tuple[dict, dict, Loop]:
    """Set up, run the timed loop, derive metrics; returns (info, metrics, loop)."""
    workload = corpus.WORKLOADS[args.workload]
    corpus_path = corpus.write_corpus(args.workload, args.seed, out_dir / "corpus.jsonl")
    setups = []
    for _ in range(SETUP_FIRST):
        seconds, ctx = set_up(corpus_path, workload.shards)
        setups.append(seconds)
    log_counter = LogCounter()
    loft_log = logging.getLogger("loft")
    loft_log.addHandler(log_counter)
    loft_log.propagate = False
    checker = gate.Gate(ctx.loft, args.workload, args.seed, ctx.shards, K)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        for _ in range(SETUP_REPEATS):
            ctx.loft.load_corpus(corpus_path)
            ctx.loft.build_distribution(read_forms(ctx.loft), provenance="bench")
        tracer.remove()

    cpus = sorted(os.sched_getaffinity(0))
    try:
        loop = run_loop(ctx, corpus_path, workload, out_dir, args.seconds, checker, tracer,
                        setups, cpus)
    finally:
        os.sched_setaffinity(0, cpus)
    while len(loop.setups) < SETUP_REPEATS:
        loop.setups.append(set_up(corpus_path, workload.shards)[0])

    info = {
        "workload": args.workload,
        "corpus_seed": args.seed,
        "pipeline_seed": PIPELINE_SEED,
        "k": K,
        "strategy": workload.strategy,
        "shards": workload.shards,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "golden": checker.status,
        "setup_s": tail(loop.setups) | {"min": min(loop.setups)},
        "log_records": log_counter.counts,
        "problems": loop.problems[:20],
        "failed_share": loop.failed / loop.attempted,
    }
    if loop.untraced:
        # n is the number of rounds, so also the samples behind each shard's fastest time
        info["round_pipeline_s"] = tail(round_totals(loop.untraced, "pipeline_s"))
        info["round_score_s"] = tail(round_totals(loop.untraced, "score_s"))
    metrics: dict[str, float | None] = {}
    if not args.trace:
        metrics = end_to_end_metrics(loop)
    elif loop.traced:
        metrics = per_layer_metrics(tracer, loop)
        tracer.write(out_dir / "spans.jsonl")
    return info, metrics, loop


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        info, metrics, loop = measure(args, out_dir)
    except (SetupError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    declared = json.loads(SPEC.read_text("utf-8"))["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        # a crash before the first timed iteration leaves values null
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
