"""Self-test of the performance benchmark's harness, on a tiny network.

Not a performance test: it runs every workload at ``--smoke`` size and
checks the benchmark's own contract — every name in ``BENCHMARK.json``
is emitted with its unit, the seed decides the inputs, the oracle bites,
and nothing is left behind.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(HERE.parent)):
    if entry not in sys.path:
        sys.path.append(entry)

from perf import harness, layers, run as perf_run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}\Z")


def smoke(capsys, out, workload, *extra):
    """Run one workload in-process; returns (exit code, result object)."""
    code = perf_run.main(
        ["--workload", workload, "--smoke", "--seconds", "0.15",
         "--out", str(out), *extra]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


def test_benchmark_json_keeps_its_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert WORKLOADS == list(harness.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ] == layers.PER_LAYER
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    # 4 + 22 x workloads runs must fit the driver's cap
    assert 1 <= SPEC["run_seconds"] <= 60


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_emits_every_metric(workload, capsys, tmp_path):
    before = perf_run.shm_entries()
    code, result, lines = smoke(capsys, tmp_path, workload)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(expected)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == expected[name]
        assert entry["value"] > 0, name  # an end-to-end metric is never 0
    # printed by name, with unit and sample count
    assert any(
        line.startswith("similar_p50_ms") and " ms " in line and "n=" in line
        for line in lines
    )
    assert perf_run.shm_entries() == before
    assert not list(tmp_path.glob("work-*"))  # temp dirs removed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload, capsys, tmp_path):
    code, result, _lines = smoke(capsys, tmp_path, workload, "--trace", "1")
    assert code == 0 and result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == set(expected)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == expected[name]
        assert isinstance(entry["value"], float), name
    assert result["metrics"]["shm.leaked_segments"]["value"] == 0
    assert result["metrics"]["trace.overhead_share"]["value"] != 0
    spans = (tmp_path / f"trace-{workload}.jsonl").read_text().splitlines()
    assert spans
    assert set(json.loads(spans[0])) == {
        "name", "start_ns", "end_ns", "parent", "request"
    }


def test_the_command_outlives_every_process_it_started(tmp_path):
    """As the driver runs it: when the script returns, nothing it started
    (workers, ``multiprocessing``'s resource tracker) is left, not even
    as a zombie."""
    # A sub-reaper of its own adopts whatever the command orphans, so
    # "a descendant is left" is one waitpid away.
    probe = (
        "import ctypes, os, subprocess, sys\n"
        "ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)\n"
        "code = subprocess.call(sys.argv[1:])\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    left = 1\n"
        "except ChildProcessError:\n"
        "    left = 0\n"
        "print(f'[{code}, {left}]')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, sys.executable, str(HERE / "run.py"),
         "--workload", "scaleout_read", "--smoke", "--seconds", "0.15",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    lines = done.stdout.strip().splitlines()
    assert json.loads(lines[-1]) == [0, 0], done.stderr[-2000:]
    assert json.loads(lines[-2])["correct"] is True


def test_the_seed_decides_the_inputs(tmp_path):
    def digests(seed, label):
        ctx = harness.Context(harness.SMOKE, seed, 1.0, tmp_path / label)
        return {name: cls(ctx).digest for name, cls in harness.WORKLOADS.items()}

    first, again, other = digests(11, "a"), digests(11, "b"), digests(12, "c")
    assert first == again
    assert all(first[name] != other[name] for name in first)


@pytest.mark.parametrize("workload", ["hot_read", "live_update", "bulk_ingest"])
def test_a_wrong_answer_fails_the_run(workload, capsys, tmp_path):
    code, result, _lines = smoke(capsys, tmp_path, workload, "--inject-wrong")
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_ladder_self_times_telescope():
    from perf.trace import Tracer, ladder_self_times

    tracer = Tracer()
    for request in range(3):
        tracer.spans.append(("engine", 0, 2_000_000, "query", request))
        tracer.spans.append(("query", 0, 3_000_000, "service", request))
        tracer.spans.append(("service", 0, 7_000_000, None, request))
    ladder = ladder_self_times(tracer, ["engine", "query", "service"])
    assert ladder["self_s"] == pytest.approx(
        {"engine": 0.006, "query": 0.003, "service": 0.012}
    )
    assert ladder["top_s"] == pytest.approx(0.021)
    assert ladder["unaccounted_share"] == pytest.approx(0.0)


def test_compare_calls_worse_same_and_unresolved(capsys, tmp_path):
    def results(qps, spread):
        summary = {
            m["name"]: {"median": 1.0, "spread": 0.01} for m in SPEC["end_to_end"]
        }
        summary["qps"] = {"median": qps, "spread": spread}
        return {"workloads": {"hot_read": {"summary": summary}}}

    paths = []
    for i, (qps, spread) in enumerate([(100.0, 0.01), (60.0, 0.01), (60.0, 0.5)]):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(json.dumps(results(qps, spread)))
    assert perf_run.main(["--compare", str(paths[0]), str(paths[0])]) == 0
    assert "WORSE" not in capsys.readouterr().out
    assert perf_run.main(["--compare", str(paths[0]), str(paths[1])]) == 1
    assert "WORSE" in capsys.readouterr().out
    assert perf_run.main(["--compare", str(paths[0]), str(paths[2])]) == 0
    assert "unresolved" in capsys.readouterr().out
