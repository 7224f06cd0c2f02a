#!/usr/bin/env python3
"""Smoke test of the serve benchmark itself.

    python3 servebench/smoke_test.py [--seconds 2] [--workload <name> ...]

Runs every workload very briefly, untraced and traced, through
`run.py`, and asserts three things:

1. every metric `BENCHMARK.json` names is reported, with its unit
   (end-to-end metrics untraced, per-layer metrics traced);
2. nothing failed: `failed` is 0 (so `failed_ratio` is 0) and the run
   says `correct`;
3. the traced run writes spans that carry op ids: one `request` span
   per traced request and one `replay` span per replayed op, each layer
   span pointing at a parent in the same op.

It also asserts that the line before the result is the run record,
with the validity verdict and the provenance stamp. Runs this short
are expected to be marked invalid (too few samples beyond a p99).

Exits 0 when all hold, 1 otherwise.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload} trace={trace}: no output (exit {out.returncode}): {out.stderr[-2000:]}")
    return out.returncode, lines, json.loads(lines[-1])


RECORD_KEYS = {"valid", "invalid", "workload", "seed", "nproc", "commit", "rustc",
               "leader_workers", "follower_poll_wait_ms"}


def check_record(tag, lines):
    assert len(lines) >= 2, f"{tag}: no run record"
    record = json.loads(lines[-2])
    missing = RECORD_KEYS - set(record)
    assert not missing, f"{tag}: run record lacks {sorted(missing)}"
    assert isinstance(record["valid"], bool), f"{tag}: valid is not a boolean"
    assert record["valid"] == (not record["invalid"]), f"{tag}: valid disagrees with the reasons"


def check_metrics(tag, result, wanted):
    got = result["metrics"]
    for m in wanted:
        assert m["name"] in got, f"{tag}: metric {m['name']} missing"
        assert got[m["name"]]["unit"] == m["unit"], f"{tag}: {m['name']} unit {got[m['name']]['unit']} != {m['unit']}"
        assert isinstance(got[m["name"]]["value"], (int, float)), f"{tag}: {m['name']} is not a number"
    extra = set(got) - {m["name"] for m in wanted}
    assert not extra, f"{tag}: unexpected metrics {sorted(extra)}"


def check_spans(tag, lines):
    paths = [m.group(1) for line in lines if (m := re.search(r"written to (\S+)$", line))]
    assert paths, f"{tag}: no span file reported"
    spans = [json.loads(line) for line in (ROOT / paths[0]).read_text().splitlines()]
    by_id = {s["id"]: s for s in spans}
    requests = [s for s in spans if s["name"] == "request"]
    replays = [s for s in spans if s["name"] == "replay"]
    assert requests and all(s["op"] > 0 for s in requests), f"{tag}: no request spans with op ids"
    assert replays and all(s["op"] > 0 for s in replays), f"{tag}: no replay spans with op ids"
    for s in spans:
        if s["parent"]:
            parent = by_id.get(s["parent"])
            assert parent is not None, f"{tag}: span {s['id']} has a dangling parent"
            assert parent["op"] == s["op"], f"{tag}: span {s['id']} and its parent disagree on the op"
        assert s["end_ns"] >= s["start_ns"], f"{tag}: span {s['id']} ends before it starts"
    return len(spans)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seconds", type=int, default=2)
    p.add_argument("--workload", action="append")
    a = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    failures = 0
    for w in workloads:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            tag = f"{w} trace={trace}"
            try:
                code, lines, result = run(w, a.seconds, trace)
                check_metrics(tag, result, wanted)
                check_record(tag, lines)
                assert result["failed"] == 0 and result["correct"], f"{tag}: {result['failed']} failed"
                assert code == 0, f"{tag}: exit code {code}"
                note = f"{len(result['metrics'])} metrics, {result['attempted']} checked"
                if trace:
                    note += f", {check_spans(tag, lines)} spans"
                print(f"ok   {tag}: {note}")
            except AssertionError as e:
                failures += 1
                print(f"FAIL {e}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
