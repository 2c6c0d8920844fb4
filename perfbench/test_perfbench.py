"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts src/ on the path)
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize(
    "workload,trace",
    [("open-loop", 0), ("open-loop", 1), ("po-baseline", 0), ("po-baseline", 1)],
)
def test_short_run_emits_every_metric_with_its_unit(workload, trace):
    done = _bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0.0, m["name"]
    if trace:
        calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
        assert calls["pvmodel.string_current.calls"] == 0
        assert (calls["converter.step_ode.calls"] > 0) == (workload == "open-loop")
        assert (calls["harness.run_closed_loop.calls"] > 0) == (workload != "open-loop")


def test_scaled_oracle_is_counted_as_failed():
    b = run.Bench("psc-onset", 7)
    real = b.book.report
    b.book.report = lambda scn, report: [(c, 1.02 * p) for c, p in real(scn, report)]
    run.measured_pass(b)
    attempted, failed = b.tally()
    assert attempted == len(wl.PSC_FILES)
    assert failed == attempted
    assert all(any("99%" in msg for msg in r["failures"]) for r in b.records)


def test_unscaled_oracle_passes():
    b = run.Bench("psc-onset", 7)
    b.inp.items = b.inp.items[:1]
    run.measured_pass(b)
    run.measured_pass(b)
    assert b.tally() == (2, 0)


def test_tracer_self_time_runs_and_restore():
    ns = types.SimpleNamespace()
    ns.inner = lambda: time.sleep(0.01)

    def outer():
        ns.inner()
        ns.inner()
        time.sleep(0.01)

    ns.outer = outer
    original = ns.inner
    tracer = tracing.Tracer([(ns, "inner", "pvmodel.string_current"),
                             (ns, "outer", "harness.run_closed_loop")])
    with tracer.installed():
        ns.outer()
        ns.outer()
    assert ns.inner is original
    agg = tracing.aggregate(tracer, 0, len(tracer))
    assert agg["layers"]["pvmodel.string_current"]["calls"] == 4
    outer_agg = agg["layers"]["harness.run_closed_loop"]
    assert outer_agg["calls"] == 2
    assert 0.015 < outer_agg["self_s"] < outer_agg["s"] - 0.035
    assert len(agg["runs"]) == 2
    for r in agg["runs"]:
        assert r["root"] == "harness.run_closed_loop"
        assert r["accounted_s"] == pytest.approx(r["traced_s"])
        assert r["layers"]["pvmodel.string_current"][0] == 2


def test_fails_without_the_program():
    bare = wl.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    done = _bench(bare, "psc-onset", 0)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
