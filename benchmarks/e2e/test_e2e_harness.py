"""Self-tests of the end-to-end benchmark harness (no workload runs).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402


def _record(pid, spans, main_thread=1, started_at=0.0, flushed_at=0.0,
            counters=None):
    return {"pid": pid, "forked": False, "main_thread": main_thread,
            "started_at": started_at, "flushed_at": flushed_at,
            "spans": spans, "counters": counters or {}}


# -- span arithmetic ---------------------------------------------------


def test_nested_self_time():
    # root [0,10] > a [1,4] > leaf [2,3]; root > b [5,6]
    spans = [[3, 2, "leaf", 2.0, 3.0, 1], [2, 1, "a", 1.0, 4.0, 1],
             [4, 1, "b", 5.0, 6.0, 1], [1, 0, "root", 0.0, 10.0, 1]]
    times = traced.layer_times([_record(7, spans)])
    assert times["root"]["self_s"] == 6.0
    assert times["a"]["self_s"] == 2.0
    assert times["leaf"]["self_s"] == 1.0
    assert times["root"]["total_s"] == 10.0


def test_span_ids_are_per_process():
    # The same span id in two processes must not share children.
    first = _record(1, [[1, 0, "x", 0.0, 4.0, 1], [2, 1, "y", 0.0, 1.0, 1]])
    second = _record(2, [[1, 0, "x", 0.0, 4.0, 1]])
    times = traced.layer_times([first, second])
    assert times["x"] == {"calls": 2, "total_s": 8.0, "self_s": 7.0}


def test_process_times_split_wall():
    spans = [[1, 0, "import", 1.0, 2.0, 1], [2, 0, "work", 2.5, 8.0, 1],
             [3, 2, "inner", 3.0, 4.0, 1], [4, 0, "other", 2.0, 3.0, 9]]
    record = _record(5, spans, started_at=0.5, flushed_at=8.5)
    times = traced.process_times([record], 5, spawned=0.0, exited=10.0)
    assert times["startup_s"] == 0.5
    assert times["exit_s"] == 1.5
    # 10 - 0.5 - 1.5 - (1 + 5.5); the other thread's span is ignored.
    assert abs(times["unattributed_s"] - 1.5) < 1e-9


def test_recorder_round_trip(tmp_path):
    recorder = traced.SpanRecorder(str(tmp_path))

    def leaf():
        return 1

    wrapped_leaf = recorder.wrap("leaf", leaf)
    outer = recorder.wrap("outer", lambda: wrapped_leaf() + 1)
    counted = recorder.wrap("n", lambda: None, span=False,
                            hook=lambda rec, *_: rec.add("calls"))
    assert outer() == 2
    counted()
    recorder.flush()
    records = traced.read_records(str(tmp_path))
    times = traced.layer_times(records)
    assert times["outer"]["calls"] == times["leaf"]["calls"] == 1
    assert times["outer"]["self_s"] < times["outer"]["total_s"]
    assert "n" not in times
    assert traced.counters(records) == {"calls": 1}


def test_forked_recorder_flushes_at_root(tmp_path):
    recorder = traced.SpanRecorder(str(tmp_path))
    recorder.after_fork()
    root = recorder.wrap("root", lambda: recorder.wrap("cell", int)())
    root()
    lines = (tmp_path / f"spans-{recorder.pid}.jsonl").read_text().split("\n")
    # One flush when the cell ends (stack back at the root), one at root.
    assert [len(json.loads(line)["spans"]) for line in lines if line] == [1, 1]


# -- percentiles -------------------------------------------------------


def test_tail_percentile_needs_ten_beyond():
    assert run.tail_percentile(6000) == 99
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(999) == 95
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(19) is None


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 99) == 99
    assert run.percentile([3.0], 99) == 3.0


# -- golden normalisation ----------------------------------------------

_STDOUT = """\
[fabric] resuming: journal holds 3 completed cell(s) at /x
{rule}
fig4  (repro of the paper's Figure 4)
{rule}
benchmark   overhead
needle      92.9%
[fig4 done in {t}s]

{rule}
fig12  (repro of the paper's Figure 12)
{rule}
lmi: mean overhead 0.41%
[fig12 done in 8.6s]

[metrics written to {path}]
[fabric] total=224 executed={n} skipped=0 stolen=0 redispatched=0
"""


def _stdout(**kwargs):
    values = dict(rule="=" * 72, t="0.0", path="/tmp/a.json", n="224")
    values.update(kwargs)
    return _STDOUT.format(**values)


def test_blocks_drop_volatile_lines():
    blocks = run.artefact_blocks(_stdout())
    assert blocks == {
        "fig4": "benchmark   overhead\nneedle      92.9%\n",
        "fig12": "lmi: mean overhead 0.41%\n",
    }
    other = run.artefact_blocks(_stdout(t="3.2", path="/y/b.json", n="0"))
    assert other == blocks


def test_one_byte_flip_fails_the_golden_check(tmp_path):
    path = tmp_path / "golden.json"
    recorder = run.Golden(path, record=True)
    blocks = run.artefact_blocks(_stdout())
    for name, text in blocks.items():
        assert recorder.check("artefacts", name, run.sha256(text))
    cells = {"a/lmi/8/1000/0": "x"}
    recorder.doc["serve"] = {"cells": cells, "digest": run.serve_digest(cells)}
    path.write_text(json.dumps(recorder.doc))
    golden = run.Golden(path, record=False)
    assert golden.check("artefacts", "fig4", run.sha256(blocks["fig4"]))
    flipped = run.artefact_blocks(_stdout().replace("92.9%", "92.8%"))
    assert not golden.check("artefacts", "fig4", run.sha256(flipped["fig4"]))
    assert not golden.check("artefacts", "fig1", run.sha256("anything"))


def test_tampered_serve_table_is_refused(tmp_path):
    path = tmp_path / "golden.json"
    cells = {"a/lmi/8/1000/0": "x"}
    path.write_text(json.dumps({
        "artefacts": {}, "exports": {},
        "serve": {"cells": dict(cells, **{"a/lmi/8/1000/0": "y"}),
                  "digest": run.serve_digest(cells)},
    }))
    with pytest.raises(RuntimeError):
        run.Golden(path, record=False)


def test_serve_digest_is_order_free():
    cells = {"b/lmi/8/1000/0": "x", "a/lmi/8/1000/0": "y"}
    assert run.serve_digest(cells) == run.serve_digest(
        dict(reversed(list(cells.items())))
    )
    body = {"cycles": 10, "stats": {"instructions": 4}, "elapsed_ms": 1.0}
    assert run.response_digest(body) == run.response_digest(
        dict(body, elapsed_ms=9.0, source="memory")
    )


# -- compare.py verdicts -----------------------------------------------

_BASE = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]


def test_verdict_unchanged_on_same_distribution():
    assert compare.verdict(_BASE, list(reversed(_BASE)), "lower", 0.1)[0] \
        == "unchanged"


def test_verdict_better_needs_nine_in_ten_wins():
    faster = [v * 0.8 for v in _BASE]
    assert compare.verdict(_BASE, faster, "lower", 0.1) == ("better", 1.0)
    mixed = faster[:8] + [v * 1.1 for v in _BASE[8:]]
    assert compare.verdict(_BASE, mixed, "lower", 0.1)[0] != "better"
    assert compare.verdict(_BASE, faster, "higher", 0.1)[0] == "worse"


def test_verdict_worse_beyond_bound():
    slower = [v * 1.2 for v in _BASE]
    assert compare.verdict(_BASE, slower, "lower", 0.1)[0] == "worse"
    assert compare.verdict(_BASE, slower, "lower", 0.25)[0] == "unchanged"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    worse = [v * 1.05 for v in noisy]
    assert compare.verdict(noisy, worse, "lower", 0.1)[0] == "unresolved"


def test_compare_exits_one_on_failed_increase(tmp_path):
    def doc(failed):
        return {"workloads": {"cold": {"runs": [
            {"attempted": 8, "failed": failed,
             "metrics": {"wall_s": {"value": 10.0}}}]}}}

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(doc(0)))
    b.write_text(json.dumps({"sets": [doc(0), doc(1)]}))
    assert compare.main([str(a), f"{b}:0"]) == 0
    assert compare.main([str(a), f"{b}:1"]) == 1


# -- environment -------------------------------------------------------


def test_child_env_scrubs_repro_variables(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_BATCH", "1")
    monkeypatch.setenv("REPRO_CELL_CACHE", "/elsewhere")
    monkeypatch.setenv("KEEP_ME", "yes")
    env = run.child_env(tmp_path / "tmp", tmp_path / "native")
    assert [k for k in env if k.startswith("REPRO_")] == ["REPRO_NATIVE_CACHE"]
    assert env["REPRO_NATIVE_CACHE"] == str(tmp_path / "native")
    assert env["TMPDIR"] == str(tmp_path / "tmp")
    assert env["PYTHONPATH"] == str(run.ROOT / "src")
    assert env["KEEP_ME"] == "yes"
    assert (tmp_path / "tmp").is_dir()
