"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q      # from the root of the checkout
"""

import filecmp
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def work(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = os.path.join(ROOT, ".perfbench_work", "tests", request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield pathlib.Path(path)
    shutil.rmtree(path, ignore_errors=True)


def keys(ops):
    return [call.key for op in ops for call in op]


def prepare(workload, seed, directory):
    subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"), workload, str(seed),
                    str(directory)], cwd=ROOT, check=True)
    return workloads.read_manifest(str(directory))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, work):
    first = prepare(workload, 5, work / "a")
    second = prepare(workload, 5, work / "b")
    assert keys(first) == keys(second)
    names = sorted(n for n in os.listdir(work / "a") if n != "manifest.json")
    assert names == sorted(n for n in os.listdir(work / "b") if n != "manifest.json")
    _, mismatch, errors = filecmp.cmpfiles(work / "a", work / "b", names,
                                           shallow=False)
    assert not mismatch and not errors


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seed_gives_different_inputs(workload, work):
    first = prepare(workload, 5, work / "a")
    second = prepare(workload, 6, work / "b")
    assert keys(first) != keys(second)


def test_every_selectable_op_has_a_golden_entry():
    for workload in workloads.WORKLOADS:
        golden = gate.load_golden(workload)
        universe = workloads.ops_for(workload, workloads.universe(workload), "d")
        assert set(keys(universe)) == set(golden)
        for seed in range(40):
            selection = workloads.select(workload, seed)
            assert set(keys(workloads.ops_for(workload, selection, "d"))) <= set(golden)


def one_pass(ops):
    checker = gate.Gate(gate.load_golden("dim4-classify"))
    runner = run.InProcessRunner(ROOT)
    phase = run.Phase()
    digests = []
    for op in ops:
        outcomes = []
        for call in op:
            rc, out = runner.run(call)
            digests.append(gate.digest(rc, out))
            outcomes.append(checker.judge(call, rc, out))
        phase.outcomes.append(gate.worst(outcomes))
    return digests, phase.failed, checker.wrong


def test_same_seed_gives_identical_digests_and_failures(work, monkeypatch):
    monkeypatch.chdir(ROOT)
    ops = prepare("dim4-classify", 3, work / "a")
    first = one_pass(ops)
    second = one_pass(prepare("dim4-classify", 3, work / "b"))
    assert first[0] == second[0]
    assert first[1] == second[1] == len(ops) // 3   # classify on kinds 0 and 3
    assert first[2] == second[2] == []


def test_zero_ops_is_an_error():
    with pytest.raises(run.BenchmarkError):
        run.measure([], 1, 1.0, runner=None, gate=None)


def test_without_package_source_exits_nonzero_and_prints_no_result(work):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           "dim4-classify", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=work, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)


def test_an_op_is_as_bad_as_its_worst_call():
    assert gate.worst([gate.OK, gate.FAILED]) == gate.FAILED
    assert gate.worst([gate.WRONG, gate.FAILED, gate.OK]) == gate.WRONG
    assert gate.worst([gate.OK, gate.OK]) == gate.OK


def test_gate_verdicts():
    op = workloads.Call("k.check", ("check", "x"), "k")
    checker = gate.Gate({"k.check": gate.digest(0, "out"), "k.classify": "fail:X"})
    assert checker.judge(op, 0, "out") == gate.OK
    assert checker.judge(op, 0, "other") == gate.WRONG
    failing = workloads.Call("k.classify", ("classify", "x"), "k", kind=0)
    assert checker.judge(failing, 2, '{"error": {"class": "X"}}') == gate.FAILED
    assert checker.judge(failing, 2, '{"error": {"class": "Y"}}') == gate.WRONG
    assert checker.judge(failing, "raised TypeError", "") == gate.WRONG
    suite = workloads.Call("s.4.1", ("verify", "s"), "s")
    assert gate.Gate({"s.4.1": gate.digest(0, '{"checks": 0}')}).judge(
        suite, 0, '{"checks": 0}') == gate.WRONG


def test_oracle_agrees_with_package_and_catches_a_change(work, monkeypatch):
    monkeypatch.chdir(ROOT)
    from antikahler.cli.textio import format_structure

    path = work / "s.txt"
    text = format_structure(workloads.dim4_structure(4))
    path.write_text(text)
    runner = run.InProcessRunner(ROOT)
    rc, out = runner.run(workloads.Call("c", ("curvature", str(path), "--output", "machine"),
                                        "c"))
    document = json.loads(out)
    assert rc == 0 and oracle.compare(text, document) == []
    assert document["gamma"][0][1][2] != "1/12345"
    document["gamma"][0][1][2] = "1/12345"
    assert oracle.compare(text, document) == ["gamma[0][1][2]"]


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    t.enter("outer")
    t.enter("inner")
    inner = t.exit()
    outer = t.exit()
    assert t.self_ns["outer"] == outer - inner
    assert t.self_ns["inner"] == inner
    assert [s[2] for s in t.spans] == ["inner", "outer"]
    assert t.spans[0][1] == t.spans[1][0]          # inner's parent is outer


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    from antikahler.verifier import list_suites

    assert metrics.SUITES == tuple(list_suites())
