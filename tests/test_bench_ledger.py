"""The committed end-to-end trajectory: every ``BENCH_pr<N>.json`` at
the repo root holds the parent's and the change's ``--out`` summary of
the benchmark ``BENCHMARK.json`` declares (ROADMAP item 6(a))."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
LEDGER = sorted(ROOT.glob("BENCH_pr*.json"))


def test_ledger_is_not_empty():
    assert LEDGER


@pytest.mark.parametrize("path", LEDGER, ids=lambda p: p.name)
def test_ledger_point(path):
    doc = json.loads(path.read_text())
    assert {"pr", "parent_commit", "parent", "change"} <= set(doc)
    assert path.name == f"BENCH_pr{doc['pr']}.json"
    for side in ("parent", "change"):
        workloads = doc[side]["workloads"]
        assert set(workloads) == WORKLOADS, side
        for name, result in workloads.items():
            assert END_TO_END <= set(result["end_to_end"]), (side, name)
            assert result["failed"] == 0, (side, name)
