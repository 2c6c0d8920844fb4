"""Correctness gate: every run is checked against an oracle recomputed here
and against the repository's own acceptance bounds.

A run fails when it raises, when its results break a bound below, or when
a repeat of the same input in one invocation gives different bytes.
"""

from __future__ import annotations

import numpy as np

from pvmppt import harness
from pvmppt.pvmodel import ArraySpec, oracle_gmpp, sweep_curve

SCAN_MAX_S = 0.070  # criterion 5
ORACLE_FRACTION = 0.99  # criterion 5: final power within 1% of the oracle
B_RAMP_V = 3.2  # criterion 3: ramp-tracking error and overshoot
SETTLE_S = (0.010, 0.025)  # criterion 3: step settle time
ORACLE_REL_TOL = 1e-9  # the run's own oracle must match the one recomputed here


class OracleBook:
    """Sweep curve and GMPP of every event window, computed once per pattern."""

    def __init__(self):
        self._cache: dict = {}

    def event(self, scn, event: dict):
        key = (scn.datasheet, scn.params, scn.n_series, scn.n_parallel,
               tuple(event["pattern"]), tuple(map(tuple, event["levels"])))
        if key not in self._cache:
            pattern = harness.ShadingPattern.parse(event["pattern"], event["levels"])
            spec = ArraySpec(
                scn.n_series,
                scn.n_parallel,
                harness.resolve_module(scn),
                pattern.expand(scn.n_series),
                sample_module=scn.sample_module,
            )
            curve = sweep_curve(spec, 0.01)
            self._cache[key] = (curve, oracle_gmpp(curve)[1])
        return self._cache[key]

    def report(self, scn, report: dict) -> list[tuple[object, float]]:
        return [self.event(scn, e) for e in report["events"]]


def closed_loop_failures(kind: str, report: dict, oracles: list[tuple[object, float]]) -> list[str]:
    """Broken bounds of one closed-loop report; ``kind`` is the workload.

    Every event: the run's oracle equals the recomputed one, no prune skipped
    power above the incumbent, and a finished scan took under 70 ms.
    ``psc-onset``: the shading event is detected and ends within 1% of the
    oracle.  ``po-baseline``: detection never runs."""
    bad = []
    events = report["events"]
    for e, (curve, p_star) in zip(events, oracles):
        tag = f"event {e['index']}"
        if abs(e["oracle_power_w"] - p_star) > ORACLE_REL_TOL * p_star:
            bad.append(f"{tag}: run oracle {e['oracle_power_w']} W != {p_star} W")
        for v in harness.prune_violations(curve, e["prunes"]):
            bad.append(f"{tag}: prune at {v['v_v']:.2f} V skipped {v['skipped_max_w']:.1f} W")
        scan = e["scan_duration_s"]
        if scan is not None and scan >= SCAN_MAX_S:
            bad.append(f"{tag}: scan {1000 * scan:.1f} ms >= {1000 * SCAN_MAX_S:.0f} ms")
    if kind == "psc-onset":
        last, (_, p_star) = events[-1], oracles[-1]
        if last["detected"] is not True:
            bad.append("shading event not detected")
        if last["scan_duration_s"] is None:
            bad.append("shading event: scan never reached its best voltage")
        if last["final_power_w"] < ORACLE_FRACTION * p_star:
            bad.append(f"shading event: final {last['final_power_w']:.1f} W < 99% of {p_star:.1f} W")
    elif kind == "po-baseline":
        if any(e["detected"] is not None for e in events):
            bad.append("detection ran under the P&O-only controller")
    return bad


def open_loop_stats(name: str, rows: list[tuple]) -> dict:
    """Criterion-3 figures of one open-loop command trace (t, v_ref, duty, v_pv, i_pv, p)."""
    ts = np.array([r[0] for r in rows])
    v_ref = np.array([r[1] for r in rows])
    vs = np.array([r[3] for r in rows])
    if name == "step":
        after = ts > 0.02
        outside = np.where(np.abs(vs[after] - vs[-1]) > 0.02 * 30.0)[0]
        if not len(outside):
            return {"settle_s": 0.0}
        if outside[-1] + 1 == after.sum():
            return {"settle_s": float("inf")}
        return {"settle_s": float(ts[after][outside[-1] + 1] - 0.02)}
    hold = ts >= 0.005
    return {
        "ramp_err_v": float(np.max(np.abs(vs[hold] - v_ref[hold]))),
        "overshoot_v": float(np.max(vs) - 100.0),
    }


def open_loop_failures(name: str, stats: dict) -> list[str]:
    bad = []
    if name == "step" and not SETTLE_S[0] <= stats["settle_s"] <= SETTLE_S[1]:
        bad.append(f"step settle {1000 * stats['settle_s']:.1f} ms outside 10-25 ms")
    if name == "ramp":
        for key in ("ramp_err_v", "overshoot_v"):
            if stats[key] >= B_RAMP_V:
                bad.append(f"{key} {stats[key]:.2f} V >= {B_RAMP_V} V")
    return bad


def digest_failures(records: list[dict], first_seen: dict[str, dict]) -> None:
    """Mark a record failed when its output bytes differ from the first run
    of the same input in this invocation."""
    for rec in records:
        ref = first_seen.setdefault(rec["name"], rec["digest"])
        for key, value in rec["digest"].items():
            if ref.get(key, value) != value:
                rec["failures"].append(f"{key} differs from the first run of {rec['name']}")
