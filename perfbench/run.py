"""pvmppt benchmark: host time per simulated second, checked against the oracle.

    python3 perfbench/run.py --workload psc-onset --seed 2026 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each is here):

  psc-onset    the five benchmark_psc*.json files, default ramp controller,
               trace.csv and report.json written as ``pvmppt run`` does
  po-baseline  the same five plus uniform_stc.json, P&O-only controller
  corpus       run_corpus over random_scenario(seed, i), i < 56, jobs=min(2, nproc)
  open-loop    converter.run over the step and ramp commands of acceptance
               criterion 3, fed by a swept-curve current source

``--seed`` makes the inputs: it orders the files and commands, and it is the
corpus seed (2026 by default; 4051 is held out for confirming claims).
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
Every run is checked (see checks.py); the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
results, with provenance and report digests, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_WARMUP = 1  # first fresh process compiles the package's bytecode
SETUP_SAMPLES = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _preflight() -> None:
    """The benchmark builds nothing: it needs the package source and inputs."""
    needed = (ROOT / "BENCHMARK.json", SRC / "pvmppt" / "harness.py", ROOT / "scenarios")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: not a pvmppt checkout, missing {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)


_preflight()
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from pvmppt import converter, harness  # noqa: E402

_trapz = getattr(np, "trapezoid", None) or np.trapz


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail_percentile(samples: list[float]) -> dict:
    """Median plus the highest of p90/p95/p99/p99.9 with >= 10 samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"n": n, "median_s": median(xs), "p": None, "value_s": None}
    for p in (99.9, 99.0, 95.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            out["p"] = p
            out["value_s"] = xs[min(n - 1, int(np.ceil(p / 100.0 * n)) - 1)]
            break
    return out


def setup_probes(workload: str, seed: int, trace: int) -> list[dict]:
    """Fresh-process set-up samples: wall seconds from spawn to exit, plus
    what the probe reports about itself."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    samples = []
    for k in range(SETUP_WARMUP + SETUP_SAMPLES):
        t0 = perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        wall = perf_counter() - t0
        if k >= SETUP_WARMUP:
            probe = json.loads(done.stdout.strip().splitlines()[-1])
            samples.append({"wall_s": wall, "speed": probe["ref_s"] / wl.REFERENCE_S, **probe})
    return samples


def peak_rss_mib(jobs: int) -> float:
    """This process's peak RSS plus, when a pool runs, ``jobs`` times the
    largest peak among its finished children (the pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs > 1 else 0
    return (own + jobs * kids) / 1024.0


def provenance(args, inp, runs: int) -> dict:
    git = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git = done.stdout.strip() or None
    src = b"".join(p.read_bytes() for p in sorted((SRC / "pvmppt").glob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": wl.HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": wl.nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git,
        "source_sha256": wl.sha256(src),
        "inputs": [name for name, _ in inp.items],
        "input_count": len(inp.items),
        "jobs": inp.jobs,
        "runs": runs,
    }


# ---------------------------------------------------------------------------
# passes, checks and simulated statistics
# ---------------------------------------------------------------------------


class Bench:
    """One workload: its inputs, the oracle book, and every checked record."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.inp = wl.prepare(workload, seed)
        self.scn = dict(self.inp.items)
        self.book = checks.OracleBook()
        self.first_seen: dict[str, dict] = {}
        self.records: list[dict] = []
        self.errors: list[str] = []
        if workload == "open-loop":
            self.p_star = harness.oracle_gmpp(self.inp.curve)[1]

    def check(self, records: list[dict]) -> list[dict]:
        for rec in records:
            rec["failures"] = []
            if self.workload == "open-loop":
                rec["stats"] = checks.open_loop_stats(rec["name"], rec["trace"])
                rec["stats"].update(self._power_stats(rec.pop("trace")))
                rec["failures"] += checks.open_loop_failures(rec["name"], rec["stats"])
            else:
                scn = self.scn[rec["name"]]
                rec["oracles"] = self.book.report(scn, rec["report"])
                rec["failures"] += checks.closed_loop_failures(
                    self.workload, rec["report"], rec["oracles"]
                )
        checks.digest_failures(records, self.first_seen)
        self.records += records
        return records

    def tally(self) -> tuple[int, int]:
        """(attempted, failed) runs; a pass that raised fails every input it held."""
        lost = len(self.inp.items) if self.errors else 0
        return len(self.records) + lost, sum(bool(r["failures"]) for r in self.records) + lost

    def guarded(self, fn, *args):
        """Run one pass; a pass that raises counts every input it held as failed."""
        try:
            return fn(*args)
        except Exception:
            self.errors.append(traceback.format_exc())
            print(self.errors[-1], file=sys.stderr)
            return None

    def _power_stats(self, rows: list[tuple]) -> dict:
        """Open-loop command against the source's GMPP, as the harness scores
        an event window: energy efficiency and the mean power of the tail."""
        ts = np.array([r[0] for r in rows])
        ps = np.array([r[5] for r in rows])
        horizon = ts[-1]
        tail = ts >= horizon - min(0.06, 0.5 * horizon)
        return {
            "efficiency": float(_trapz(ps, ts) / (self.p_star * horizon)),
            "oracle_ratio": float(ps[tail].mean()) / self.p_star,
        }

    def event_stats(self, records: list[dict]) -> dict:
        """Simulated statistics of one pass over the inputs (deterministic)."""
        effs, ratios, scans = [], [], []
        ramp_err = settle = 0.0
        for rec in records:
            if self.workload == "open-loop":
                effs.append(rec["stats"]["efficiency"])
                ratios.append(rec["stats"]["oracle_ratio"])
                ramp_err = max(ramp_err, rec["stats"].get("ramp_err_v", 0.0))
                settle = max(settle, rec["stats"].get("settle_s", 0.0))
                continue
            for e, (_, p_star) in zip(rec["report"]["events"], rec["oracles"]):
                effs.append(e["efficiency"])
                ratios.append(e["final_power_w"] / p_star)
                if e["scan_duration_s"] is not None:
                    scans.append(e["scan_duration_s"])
        return {
            "events": len(ratios),
            "tracking_eff": float(np.mean(effs)),
            "within_1pct_frac": float(np.mean([r >= checks.ORACLE_FRACTION for r in ratios])),
            "oracle_ratio_min": float(min(ratios)),
            "scan_ms_max": 1000.0 * max(scans, default=0.0),
            "ramp_err_v": ramp_err,
            "settle_ms": 1000.0 * settle,
        }


def _round(records: list[dict], wall_s: float | None = None) -> dict:
    """A pass's totals.  ``norm_s`` is its host time at nominal speed: the
    runs' own times each divided by its speed factor, or for a corpus pass
    its wall time divided by the workers' busy-time-weighted speed."""
    busy = sum(r["host_s"] for r in records)
    norm = sum(r["host_s"] / r["speed"] for r in records)
    host_s, norm_s = (busy, norm) if wall_s is None else (wall_s, wall_s * norm / busy)
    return {
        "host_s": host_s,
        "norm_s": norm_s,
        "sim_s": sum(r["sim_s"] for r in records),
        "runs": len(records),
        "records": records,
    }


def measured_pass(b: Bench, tracer=None, count: int | None = None, jobs: int | None = None):
    """One checked pass over the workload's inputs, or None if it raised.

    The corpus goes through ``run_corpus`` over its first ``count`` scenarios
    with ``jobs`` workers; the other workloads run their inputs one by one."""
    inp = b.inp
    if b.workload == "corpus":
        count = count or wl.CORPUS_COUNT
        got = b.guarded(wl.corpus_pass, inp, count, jobs or inp.jobs)
        if got is None:
            return None
        return _round(b.check(got[1]), got[0])
    if b.workload == "open-loop":
        records = b.guarded(wl.open_loop_pass, inp)
    else:
        records = b.guarded(wl.closed_loop_pass, inp, tracer)
    return None if records is None else _round(b.check(records))


def per_sim_s(rounds: list[dict]) -> float:
    return median(r["norm_s"] / r["sim_s"] for r in rounds)


def _strip(rounds: list[dict]) -> list[dict]:
    return [{k: v for k, v in r.items() if k != "records"} for r in rounds]


# ---------------------------------------------------------------------------
# trace 0: end-to-end metrics
# ---------------------------------------------------------------------------


def end_to_end(args, b: Bench) -> tuple[dict, dict]:
    min_rounds = 1 if b.workload == "corpus" else 2
    rounds = []
    t0 = perf_counter()
    while True:
        r0 = perf_counter()
        rnd = measured_pass(b)
        if rnd is None:
            break
        rounds.append(rnd)
        if len(rounds) >= min_rounds and 2 * perf_counter() - t0 - r0 > args.seconds:
            break
    if b.workload == "corpus" and rounds:
        # the first scenarios once more, serially: reports must be byte-identical
        rerun = b.guarded(wl.serial_corpus_pass, b.inp, wl.CORPUS_RERUN)
        if rerun is not None:
            b.check(rerun)
    setup = setup_probes(b.workload, args.seed, 0)
    stats = b.event_stats(rounds[0]["records"]) if rounds else {}
    metrics = {
        "host_s_per_sim_s": per_sim_s(rounds),
        "scenarios_per_s": median(r["runs"] / r["norm_s"] for r in rounds),
        "setup_s": median(s["wall_s"] / s["speed"] for s in setup),
        "peak_rss_mb": peak_rss_mib(b.inp.jobs),
        "tracking_eff": stats.get("tracking_eff", 0.0),
        "within_1pct_frac": stats.get("within_1pct_frac", 0.0),
    }
    walls = [rec["host_s"] for r in rounds for rec in r["records"]]
    extra = {
        "stats": stats,
        "rounds": _strip(rounds),
        "raw_host_s_per_sim_s": median(r["host_s"] / r["sim_s"] for r in rounds),
        "raw_setup_s": median(s["wall_s"] for s in setup),
        "per_run_wall": tail_percentile(walls),
        "setup_samples": setup,
    }
    return metrics, extra


# ---------------------------------------------------------------------------
# trace 1: per-layer metrics
# ---------------------------------------------------------------------------


def _substeps(b: Bench, names) -> int:
    return sum(round(b.scn[n].horizon_s / b.scn[n].dt_s) for n in names)


def per_layer(args, b: Bench) -> tuple[dict, dict]:
    """Alternate untraced and traced passes until the time is spent.

    The corpus is traced serially (jobs=1) over its first scenarios, since
    pool workers are separate processes; its untraced twin is the same
    scenarios run one by one, plus a pooled pass for the pool efficiency."""
    tracer = tracing.Tracer(tracing.library_wrap_points(harness, converter, wl))
    untraced, traced, aggs, pool = [], [], [], []
    corpus_n = wl.TRACED_CORPUS_COUNT
    t0 = perf_counter()
    while True:
        r0 = perf_counter()
        if b.workload == "corpus":
            serial = b.guarded(wl.serial_corpus_pass, b.inp, corpus_n)
            pooled = measured_pass(b, count=corpus_n)
            if serial is None or pooled is None:
                break
            untraced.append(_round(b.check(serial)))
            pool.append(untraced[-1]["host_s"] / (b.inp.jobs * pooled["host_s"]))
            lo = len(tracer)
            with tracer.installed():
                rnd = measured_pass(b, count=corpus_n, jobs=1)
            if rnd is not None:  # like the serial twin: the runs' own times
                rnd = _round(rnd["records"])
        else:
            rnd = measured_pass(b)
            if rnd is None:
                break
            untraced.append(rnd)
            lo = len(tracer)
            with tracer.installed():
                rnd = measured_pass(b, tracer)
        if rnd is None:
            break
        traced.append(rnd)
        aggs.append(tracing.aggregate(tracer, lo, len(tracer)))
        if 2 * perf_counter() - t0 - r0 > args.seconds:
            break
    setup = setup_probes(b.workload, args.seed, 1)
    tracer.save(wl.OUT_DIR / f"{b.workload}-seed{args.seed}-spans.npz")
    counted = untraced[0]["records"] if untraced else []

    def layer(name, key):
        vals = [a["layers"].get(name, {}).get(key, 0) for a in aggs]
        return vals[0] if key == "calls" else median(vals)

    def setup_layer(name, key):
        vals = [s["layers"].get(name, {}).get(key, 0) for s in setup]
        return vals[0] if key == "calls" else median(vals)

    def per_call(name):
        calls = layer(name, "calls")
        return 1e6 * layer(name, "s") / calls if calls else 0.0

    m: dict[str, float] = {}
    for name in ("pvmodel.string_current", "pvmodel.module_voltage", "pvmodel.sweep_curve",
                 "pvmodel.oracle_gmpp", "control.controller_tick", "converter.run",
                 "converter.step_ode", "harness.build_reference_model", "harness.run_closed_loop"):
        m[f"{name}.calls"] = layer(name, "calls")
        m[f"{name}.s"] = layer(name, "s")
    for name in ("pvmodel.string_current", "control.controller_tick", "converter.step_ode"):
        m[f"{name}.us_per_call"] = per_call(name)
    m["harness.build_reference_model.self_s"] = layer("harness.build_reference_model", "self_s")
    m["harness.run_closed_loop.self_s"] = layer("harness.run_closed_loop", "self_s")
    steps = _substeps(b, [r["name"] for r in counted]) if b.workload != "open-loop" else 0
    m["harness.run_closed_loop.self_us_per_substep"] = (
        1e6 * m["harness.run_closed_loop.self_s"] / steps if steps else 0.0
    )
    for name in ("harness.emit_trace", "harness.emit_report", "harness.run_corpus"):
        m[f"{name}.s"] = layer(name, "s")
    m["harness.run_corpus.pool_eff"] = median(pool)
    m["harness.load_scenario.s"] = setup_layer("harness.load_scenario", "s")
    m["pvmodel.calibrate_module.calls"] = setup_layer("pvmodel.calibrate_module", "calls")
    m["pvmodel.calibrate_module.s"] = setup_layer("pvmodel.calibrate_module", "s")
    m["cli.import_s"] = median(s["import_s"] for s in setup)

    modes: Counter = Counter()
    events = []
    for rec in counted:
        modes.update(rec.get("modes", {}))
        events += rec.get("report", {}).get("events", [])
    m["control.ticks.po"] = modes["po"]
    m["control.ticks.detect"] = modes["detect_settle"] + modes["detect_probe"]
    m["control.ticks.scan"] = modes["scan_up"] + modes["scan_down"]
    m["control.ticks.settle_best"] = modes["settle_best"]
    m["control.detections"] = sum(e["detected"] is not None for e in events)
    m["control.psc_verdicts"] = sum(e["detected"] is True for e in events)
    m["control.verdict_ratio"] = (
        m["control.psc_verdicts"] / m["control.detections"] if m["control.detections"] else 0.0
    )
    m["control.scan_ticks"] = sum(e["scan_ticks_up"] + e["scan_ticks_down"] for e in events)
    m["control.prunes"] = sum(len(e["prunes"]) for e in events)
    stats = b.event_stats(counted) if counted else {}
    m["control.scan_ms_max"] = stats.get("scan_ms_max", 0.0)
    m["converter.ramp_err_v"] = stats.get("ramp_err_v", 0.0)
    m["harness.oracle_ratio_min"] = stats.get("oracle_ratio_min", 0.0)

    u, t = per_sim_s(untraced), per_sim_s(traced)
    m["trace.untraced_host_s_per_sim_s"] = u
    m["trace.traced_host_s_per_sim_s"] = t
    m["trace.overhead_frac"] = t / u - 1.0 if u else 0.0
    runs = aggs[0]["runs"] if aggs else []
    m["trace.accounted_frac_min"] = min(
        (r["accounted_s"] / r["traced_s"] for r in runs if r["traced_s"] > 0), default=0.0
    )
    untraced_s = {rec["name"]: rec["host_s"] for rec in counted}
    names = [rec["name"] for rec in traced[0]["records"]] if traced else []
    extra = {
        "stats": stats,
        "untraced_rounds": _strip(untraced),
        "traced_rounds": _strip(traced),
        "layers_per_round": [a["layers"] for a in aggs],
        "runs_first_traced_round": [
            {**r, "name": n, "untraced_s": untraced_s.get(n)} for r, n in zip(runs, names)
        ],
        "setup_samples": setup,
    }
    return m, extra


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl.OUT_DIR.mkdir(parents=True, exist_ok=True)

    b = Bench(args.workload, args.seed)
    values, extra = (per_layer if args.trace else end_to_end)(args, b)

    attempted, failed = b.tally()
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    failures = [f"{r['name']}: {msg}" for r in b.records for msg in r["failures"]]
    doc = {
        "result": result,
        "failed_frac": result["failed"] / result["attempted"],
        "provenance": provenance(args, b.inp, len(b.records)),
        "failures": failures,
        "errors": b.errors,
        "digests": b.first_seen,
        **extra,
    }
    out = wl.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n")

    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    width = max(len(k) for k in metrics)
    for name, mv in metrics.items():
        print(f"{name:<{width}}  {mv['value']:.6g} {mv['unit']}")
    if not args.trace:
        for key, unit in (("oracle_ratio_min", "frac"), ("scan_ms_max", "ms"),
                          ("ramp_err_v", "V"), ("settle_ms", "ms")):
            print(f"{key:<{width}}  {extra['stats'].get(key, 0.0):.6g} {unit}")
        w = extra["per_run_wall"]
        tail = f", p{w['p']:g} {w['value_s']:.4g} s" if w["p"] else ""
        print(f"{'per_run_wall':<{width}}  median {w['median_s']:.4g} s{tail} over n={w['n']}")
    print(f"{'failed_frac':<{width}}  {doc['failed_frac']:.6g} ({result['failed']}/{result['attempted']})")
    print(f"results: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
