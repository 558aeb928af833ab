"""Record the correctness gate's expected values into golden.json.

    python3 bench/record.py --seeds 0-99

For each workload and corpus seed this runs one untraced round, checks
each shard's output with gate.check_output, and stores the shards'
fingerprints (output sha256, report and metrics JSON sha256) that every
later run on that workload and seed must reproduce.  Re-record only when a change is
meant to alter the output, and say why in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import corpus
import gate
import run


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def record_one(workload_name: str, seed: int, work: Path) -> list[dict]:
    workload = corpus.WORKLOADS[workload_name]
    corpus_path = corpus.write_corpus(workload_name, seed, work / "corpus.jsonl")
    _, ctx = run.set_up(corpus_path, workload.shards)
    fingerprints = []
    for shard, entries in enumerate(ctx.shards):
        it = run.iterate(ctx, workload, work, 0, shard)
        problems = it.problems + gate.check_output(ctx.loft, it.output, entries, run.K)
        if problems:
            raise SystemExit(f"{workload_name} seed {seed} shard {shard}: {problems[:5]}")
        fingerprints.append(it.fingerprint)
    return fingerprints


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-99", help="e.g. 0-99 or 1,2,5-9")
    parser.add_argument("--workload", action="append", choices=sorted(corpus.WORKLOADS),
                        help="repeatable; default: every workload")
    args = parser.parse_args(argv)
    golden = json.loads(gate.GOLDEN.read_text("utf-8")) if gate.GOLDEN.exists() else {}
    table = golden.setdefault("workloads", {})
    for name in args.workload or sorted(corpus.WORKLOADS):
        for seed in parse_seeds(args.seeds):
            with tempfile.TemporaryDirectory(dir=run.REPO) as tmp:
                table.setdefault(name, {})[str(seed)] = record_one(name, seed, Path(tmp))
            print(name, seed, table[name][str(seed)][0]["output_sha256"][:12], file=sys.stderr)
    golden["source_sha256"] = run.source_digest()
    golden["pipeline_seed"] = run.PIPELINE_SEED
    golden["k"] = run.K
    gate.GOLDEN.write_text(dumps(golden), encoding="utf-8")
    return 0


def dumps(golden: dict) -> str:
    """golden.json's text: one line per workload and seed, seeds in order."""
    lines = [f" {json.dumps(key)}: {json.dumps(golden[key])},"
             for key in sorted(golden) if key != "workloads"]
    lines.append(' "workloads": {')
    for w, name in enumerate(sorted(golden["workloads"])):
        seeds = sorted(golden["workloads"][name].items(), key=lambda item: int(item[0]))
        lines.append(f"  {json.dumps(name)}: {{")
        lines += [f"   {json.dumps(seed)}: {json.dumps(shards, sort_keys=True)}"
                  + ("," if i < len(seeds) - 1 else "") for i, (seed, shards) in enumerate(seeds)]
        lines.append("  }" + ("," if w < len(golden["workloads"]) - 1 else ""))
    return "{\n" + "\n".join(lines) + "\n }\n}\n"


if __name__ == "__main__":
    raise SystemExit(main())
