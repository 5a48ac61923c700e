"""Self-tests of the benchmark, at the smoke sizes.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def declared():
    with open(run.BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args, "--seed", "11",
                           "--seconds", "1", "--smoke"],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def test_workloads_match_benchmark_json():
    names = sorted(w["name"] for w in declared()["workloads"])
    assert names == sorted(run.SIZES) == sorted(run.SMOKE_SIZES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.SIZES))
def test_smoke_prints_the_declared_metrics(workload, trace):
    rc, lines = bench("--workload", workload, "--trace", str(trace))
    result = json.loads(lines[-1])
    assert rc == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = declared()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
    elif workload == "closed-form":
        assert values["analytic.pair_correlation_limit_curve.s"] > 0
        assert values["roots.real_roots_sampled.s"] == 0
    else:
        assert values["roots.real_roots_sampled.s"] > 0
        assert values["roots.oracle.checked"] >= 1
        assert values["ensemble.parallel_eff"] > 0


def test_corrupted_output_csv_fails(monkeypatch, capsys):
    real_invoke = run.invoke

    def corrupting_invoke(*args, **kwargs):
        child = real_invoke(*args, **kwargs)
        for out in child["outdirs"]:
            path = os.path.join(out, "paircorr_empirical.csv")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    header, *rows = fh.read().splitlines()
                doubled = []
                for row in rows:
                    left, right, value = row.split(",")
                    doubled.append(f"{left},{right},{2 * float(value)!r}")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("\n".join([header, *doubled]) + "\n")
        return child

    monkeypatch.setattr(run, "invoke", corrupting_invoke)
    rc = run.main(["--workload", "mc-pair-n64-p0", "--seed", "11", "--seconds", "1",
                   "--trace", "0", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc != 0
    assert not result["correct"] and result["failed"] == 1


def test_fails_without_the_program():
    # a directory holding only BENCHMARK.json and the benchmark's own files
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(run.BENCHMARK_JSON, bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    rc, lines = bench("--workload", "closed-form", "--trace", "0", cwd=bare)
    assert rc != 0
    assert not any(line.startswith("{") for line in lines)
