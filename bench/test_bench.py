"""Tests of the benchmark itself: corpus generator, fake hooks, gate, tracing.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

HOOK = Path(__file__).resolve().parent / "fake_hook.py"


@pytest.fixture
def loft():
    """A fresh import: run.set_up re-imports loft, leaving older modules stale."""
    return run.import_loft()


# -- corpus -------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_one_seed_gives_the_same_corpus_bytes(workload):
    assert corpus.corpus_bytes(workload, 7) == corpus.corpus_bytes(workload, 7)


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_two_seeds_give_different_corpus_bytes(workload):
    assert corpus.corpus_bytes(workload, 7) != corpus.corpus_bytes(workload, 8)


def test_table_ids_come_from_seed_and_index():
    assert corpus.seeded_table("many-small", 3, 12)["table_id"] == "s3-0012"


def test_schema_depends_on_index_only():
    a = corpus.seeded_table("large-tables", 1, 2)
    b = corpus.seeded_table("large-tables", 2, 2)
    assert a["header"] == b["header"]
    assert a["selected_columns"] == b["selected_columns"]
    assert len(a["rows"]) == len(b["rows"])
    assert a["rows"] != b["rows"]


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_corpus_loads_through_load_corpus(loft, workload, tmp_path):
    path = corpus.write_corpus(workload, 5, tmp_path / "corpus.jsonl")
    entries = loft.load_corpus(path)
    shape = corpus.WORKLOADS[workload]
    assert len(entries) == shape.tables + (10 if shape.bundled else 0)
    assert len({e.table.table_id for e in entries}) == len(entries)


# -- fake hooks ---------------------------------------------------------------


def _talk(role: str, requests: list[dict], log: Path) -> list[dict]:
    lines = "".join(json.dumps(r) + "\n" for r in requests)
    done = subprocess.run(
        [sys.executable, str(HOOK), role, "--log", str(log)],
        input=lines, capture_output=True, text=True, timeout=30, check=True,
    )
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_generator_hook_echoes_ids_and_readable_text(tmp_path):
    requests = [{"id": f"t#{i}", "table_text": "x", "logic_form": "f", "readable": f"text {i}"}
                for i in range(5)]
    replies = _talk("generator", requests, tmp_path / "gen.jsonl")
    assert replies == [{"id": f"t#{i}", "statement": f"text {i}"} for i in range(5)]


def test_verifier_hook_entails_every_request_and_logs_it(tmp_path):
    requests = [{"id": f"t#{i}", "table_text": "x", "statement": "s"} for i in range(4)]
    log = tmp_path / "ver.jsonl"
    replies = _talk("verifier", requests, log)
    assert replies == [{"id": f"t#{i}", "entailed": True} for i in range(4)]
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["id"] for r in records] == [r["id"] for r in requests]
    assert all(r["received_ns"] < r["answered_ns"] for r in records)


def test_hook_rejects_a_request_without_id(tmp_path):
    with pytest.raises(subprocess.CalledProcessError):
        _talk("verifier", [{"statement": "s"}], tmp_path / "ver.jsonl")


def test_hooked_pipeline_matches_builtin_output(loft, tmp_path):
    entries = loft.load_corpus(corpus.BUNDLED_CORPUS)
    dist = loft.build_distribution(run.read_forms(loft))
    builtin = tmp_path / "builtin.jsonl"
    hooked = tmp_path / "hooked.jsonl"
    loft.run_pipeline(entries[:3], builtin, dist, strategy="stratified")
    report = loft.run_pipeline(
        entries[:3], hooked, dist, strategy="stratified",
        generator=loft.HookConfig(run.hook_command("generator", tmp_path / "g.jsonl")),
        verifier=loft.HookConfig(run.hook_command("verifier", tmp_path / "v.jsonl")),
    )
    assert report.verified == report.candidates
    assert hooked.read_bytes() == builtin.read_bytes()
    gaps = run.hook_gaps_us([tmp_path / "g.jsonl", tmp_path / "v.jsonl"])
    assert len(gaps) == 2 * (report.candidates - 1)


# -- gate ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def one_iteration(tmp_path_factory):
    work = tmp_path_factory.mktemp("gate")
    corpus_path = corpus.write_corpus("hooked", 0, work / "corpus.jsonl")
    workload = replace(corpus.WORKLOADS["hooked"], hooked=False)
    _, ctx = run.set_up(corpus_path, workload.shards)
    it = run.iterate(ctx, workload, work, 0, 1)
    return ctx, it


def test_shards_deal_every_entry_once(one_iteration):
    ctx, _ = one_iteration
    dealt = [entry for shard in ctx.shards for entry in shard]
    assert len(ctx.shards) == corpus.WORKLOADS["hooked"].shards
    assert sorted(id(e) for e in dealt) == sorted(id(e) for e in ctx.entries)


def test_gate_accepts_an_unchanged_output(one_iteration):
    ctx, it = one_iteration
    assert it.problems == []
    assert gate.check_output(ctx.loft, it.output, ctx.shards[1], run.K) == []
    checker = gate.Gate(ctx.loft, "none", 0, ctx.shards, run.K)
    assert checker.check(it) == []
    assert checker.check(it) == []
    assert checker.candidates([0, 1]) == it.items


def test_gate_rejects_a_one_byte_change(one_iteration, tmp_path):
    ctx, it = one_iteration
    data = bytearray(it.output.read_bytes())
    at = data.index(b'"text": "') + len(b'"text": "')
    data[at] = ord("X") if data[at] != ord("X") else ord("Y")
    changed = tmp_path / "changed.jsonl"
    changed.write_bytes(bytes(data))
    expected = it.fingerprint
    actual = dict(expected, output_sha256=gate.sha256_bytes(bytes(data)))
    assert gate.compare(expected, actual)
    assert gate.check_output(ctx.loft, changed, ctx.shards[1], run.K)


def test_recorded_goldens_cover_every_workload():
    recorded = gate.load_golden()
    assert set(recorded) == set(corpus.WORKLOADS)
    for seeds in recorded.values():
        assert {"0", "1"} <= set(seeds)


def test_recorded_golden_matches_a_fresh_run(loft, tmp_path):
    expected = gate.load_golden()["hooked"]["0"]
    workload = corpus.WORKLOADS["hooked"]
    assert len(expected) == workload.shards
    corpus_path = corpus.write_corpus("hooked", 0, tmp_path / "corpus.jsonl")
    _, ctx = run.set_up(corpus_path, workload.shards)
    it = run.iterate(ctx, workload, tmp_path, 0, 0)
    assert gate.compare(expected[0], it.fingerprint) == []


def test_timings_sum_each_shards_fastest_round():
    def it(shard, seconds):
        return run.Iteration(shard, seconds, 0.0, 0, 0, Path(), {}, 1.0, [], ())

    rounds = [[it(0, 3.0), it(1, 1.0)], [it(0, 2.0), it(1, 4.0)], [it(0, 5.0), it(1, 1.5)]]
    assert run.fastest_sum(rounds, "pipeline_s") == 3.0
    assert run.round_totals(rounds, "pipeline_s") == [4.0, 6.0, 6.5]


# -- tracing ------------------------------------------------------------------


def test_self_times_add_up_to_the_root_spans():
    spans = [
        tracing.Span("pipeline.run_pipeline", 0, 100, -1, 1),
        tracing.Span("synthesizer.synthesize_candidates", 10, 60, 0, 1),
        tracing.Span("executor.verify", 20, 30, 1, 1),
        tracing.Span("metrics.score_output", 100, 130, -1, 1),
    ]
    own = tracing.self_times(spans)
    assert own == [50 * tracing.NS, 40 * tracing.NS, 10 * tracing.NS, 30 * tracing.NS]
    assert sum(own) == pytest.approx(130 * tracing.NS)


def test_tracer_restores_every_patched_binding(loft):
    before = (loft.pipeline.verify, loft.executor.execute, loft.pipeline._HookProcess.request)
    tracer = tracing.Tracer()
    tracer.install()
    assert loft.pipeline.verify is not before[0]
    tracer.remove()
    assert (loft.pipeline.verify, loft.executor.execute, loft.pipeline._HookProcess.request) == before


def test_traced_run_reports_every_declared_per_layer_metric(capsys):
    cpus = os.sched_getaffinity(0)
    assert run.main(["--workload", "hooked", "--seed", "0", "--seconds", "0", "--trace", "1"]) == 0
    assert os.sched_getaffinity(0) == cpus
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads(run.SPEC.read_text())
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["hook.requests"] > 0 and metrics["hook.dropped"] == 0
    assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.traced_s"], rel=0.05)


def test_a_crash_still_reports_its_items_as_failed(monkeypatch, capsys):
    def crash(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(run, "iterate", crash)
    assert run.main(["--workload", "hooked", "--seed", "0", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] > 0
    assert result["metrics"]["delivered_share"]["value"] == 0
    assert result["metrics"]["pipeline_s"]["value"] is None


# -- BENCHMARK.json -----------------------------------------------------------


def test_spec_follows_the_benchmark_file_format():
    import re

    spec = json.loads(run.SPEC.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
