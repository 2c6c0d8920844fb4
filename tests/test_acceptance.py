"""Acceptance suite: one test per criterion, printed pass lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Tolerances are fixed here, not calibrated elsewhere.
"""

import random
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pvmppt.control import DetectorConfig, compute_psi
from pvmppt.converter import (
    CommandSegment,
    CommandSignal,
    ConverterParams,
    run as run_converter,
)
from pvmppt.harness import (
    ShadingPattern,
    BENCHMARK_SAMPLE,
    base_array_spec,
    detect_pattern,
    load_scenario,
    prune_violations,
    random_scenario,
    run_closed_loop,
    run_corpus,
)
from pvmppt.pvmodel import (
    ArraySpec,
    ModuleCondition,
    ModuleDatasheet,
    STC,
    calibrate_module,
    module_current,
    module_open_circuit_voltage,
    string_current,
    sweep_curve,
)

from oracles import local_maxima, module_mpp

B_RAMP_V = 3.2  # frozen ramp-tracking bound, see test_converter.py
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# expected detection-criteria magnitudes per benchmark pattern:
# (PSI [1/V], |dV_arr|/V_arr, dV_mod/V_mod)
BENCHMARK_CRITERIA = {
    1: (0.008, 0.09, 0.3),
    2: (0.0036, 0.04, 0.0),
    3: (0.002, 0.022, 0.03),
    4: (0.003, 0.03, 0.08),
    5: (4.0e-4, 0.003, -0.08),
}
THRESHOLDS = (0.001, 0.02, 0.02)


def _passes_band(ours: float, table: float, threshold: float) -> bool:
    """Magnitude within +-50% when the table value fires its criterion;
    sub-threshold table values only demand a sub-threshold measurement."""
    if abs(table) > threshold:
        return 0.5 * abs(table) <= abs(ours) <= 1.5 * abs(table)
    if table == 0.0:
        return abs(ours) < 0.005
    return abs(ours) <= threshold


def psc_onset(k: int):
    """``benchmark_psc{k}.json`` with its onset at 0.25 s and a 0.7 s horizon."""
    scn = load_scenario(SCENARIO_DIR / f"benchmark_psc{k}.json")
    start, onset = scn.events
    return replace(scn, horizon_s=0.7, events=(start, replace(onset, t=0.25)))


@pytest.fixture(scope="module")
def benchmark_runs(nd_module):
    runs = {}
    for k in range(1, 6):
        scn = psc_onset(k)
        runs[k] = (scn, *run_closed_loop(scn))
    return runs


@pytest.fixture(scope="module")
def corpus(nd_module):
    return run_corpus(seed=2026, count=100, jobs=2)


def test_criterion_1_datasheet_fidelity():
    t0 = time.time()
    params = calibrate_module(
        ModuleDatasheet(
            p_max=195.0,
            v_oc=29.7,
            i_sc=8.68,
            v_mpp=23.6,
            i_mpp=8.27,
            pmax_thermal_coeff=-0.0044,
            rho_mod=-0.00329,
            n_cells=42,
        )
    )
    elapsed = time.time() - t0
    i_sc = module_current(params, STC, 0.0)
    i_oc = module_current(params, STC, 29.7)
    p_mp = 23.6 * module_current(params, STC, 23.6)
    assert abs(i_sc - 8.68) <= 0.005 * 8.68
    assert abs(i_oc) <= 0.04
    assert abs(p_mp - 195.0) <= 0.02 * 195.0
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1 datasheet fidelity: I(0)={i_sc:.4f} A, "
        f"I(29.7)={i_oc:.4f} A, P(23.6)={p_mp:.2f} W, {1000 * elapsed:.0f} ms -> PASS"
    )


def test_criterion_2_multi_peak_structure(nd_module):
    hs = ModuleCondition(1.0, 25.0)
    voc_hs = module_open_circuit_voltage(nd_module, hs)

    def check(ns, n_sh, ir):
        ls = ModuleCondition(1.0 / ir, 25.0)
        spec = ArraySpec(ns, 1, nd_module, (tuple([hs] * (ns - n_sh) + [ls] * n_sh),))
        peaks = sorted(local_maxima(sweep_curve(spec, 0.01)))
        if len(peaks) != 2:
            return f"ns={ns} n_sh={n_sh} ir={ir:.2f}: {len(peaks)} peaks"
        v_mpp_sh, _ = module_mpp(nd_module, ls)
        v_mpp_hs, _ = module_mpp(nd_module, hs)
        v2 = peaks[1][0]
        if not (ns * v_mpp_sh < v2 < n_sh * v_mpp_sh + (ns - n_sh) * voc_hs):
            return f"ns={ns} n_sh={n_sh} ir={ir:.2f}: bound violated (v2={v2:.2f})"
        if peaks[1][0] - peaks[0][0] <= v_mpp_hs:
            return f"ns={ns} n_sh={n_sh} ir={ir:.2f}: separation too small"
        return None

    assert check(4, 2, 2.0) is None  # the reference two-peak instance

    rnd = random.Random(20260810)
    violations = []
    for _ in range(200):
        ns = rnd.randint(2, 8)
        n_sh = rnd.randint(1, ns - 1)
        ir = rnd.uniform(1.2, 10.0)
        msg = check(ns, n_sh, ir)
        if msg:
            violations.append(msg)
    assert violations == []
    print("\nACCEPTANCE 2 multi-peak structure: 200/200 grid points clean -> PASS")


def test_criterion_3_converter_dynamics():
    ds = ModuleDatasheet(
        p_max=156.0,
        v_oc=26.0,
        i_sc=8.0,
        v_mpp=20.8,
        i_mpp=7.5,
        pmax_thermal_coeff=-0.0044,
        rho_mod=-0.0033,
        n_cells=42,
    )
    curve = sweep_curve(ArraySpec.uniform(calibrate_module(ds), 5, 1), 0.01)
    i_of_v = lambda v: float(curve.current_at(max(v, 0.0)))
    plant = ConverterParams()

    step = CommandSignal(
        (
            CommandSegment("hold", 30.0, duration_s=0.02),
            CommandSegment("hold", 60.0, duration_s=0.1),
        ),
        v_start=30.0,
    )
    trace = run_converter(step, i_of_v, plant, sample_period=5e-5)
    ts = np.array([r.t for r in trace])
    vs = np.array([r.v_pv for r in trace])
    final = vs[-1]
    outside = np.where(np.abs(vs[ts > 0.02] - final) > 0.02 * 30.0)[0]
    settle = ts[ts > 0.02][outside[-1] + 1] - 0.02

    ramp = CommandSignal(
        (
            CommandSegment("hold", 60.0, duration_s=0.005),
            CommandSegment("ramp", 100.0, rate_v_per_s=4000.0),
            CommandSegment("hold", 100.0, duration_s=0.01),
        ),
        v_start=60.0,
    )
    rtrace = run_converter(ramp, i_of_v, plant, sample_period=5e-5)
    max_err = max(abs(r.v_pv - r.v_ref) for r in rtrace if r.t >= 0.005)
    overshoot = max(r.v_pv for r in rtrace) - 100.0

    assert 0.010 <= settle <= 0.025
    assert max_err < B_RAMP_V
    assert overshoot < B_RAMP_V
    print(
        f"\nACCEPTANCE 3 converter dynamics: settle={1000 * settle:.1f} ms, "
        f"ramp err={max_err:.2f} V (bound {B_RAMP_V}) -> PASS"
    )


def test_criterion_4_detection_verdicts(nd_module, ref_3x5):
    cfg = DetectorConfig()
    lines = []
    for k in range(1, 6):
        spec = base_array_spec(load_scenario(SCENARIO_DIR / f"benchmark_psc{k}.json"), 1)
        det = detect_pattern(spec, ref_3x5, cfg, s_prior=1.0)
        assert det.is_psc is True, f"PSC{k} verdict"
        ours = (det.psi, det.dv_arr_ratio, det.dv_mod_ratio)
        for ours_v, table_v, thr in zip(ours, BENCHMARK_CRITERIA[k], THRESHOLDS):
            assert _passes_band(ours_v, table_v, thr), (
                f"PSC{k}: {ours_v:+.4f} vs table {table_v:+.4f}"
            )
        lines.append(f"PSC{k} psi={det.psi:+.4f} fired={det.fired}")
        if k == 2:
            assert abs(det.dv_mod_ratio) < 0.005  # criterion-3 value ~ 0
            assert det.fired == (True, True, False)
        if k == 5:
            assert det.fired == (False, False, True)  # only criterion 3

    false_pos = 0
    for s in np.linspace(0.1, 1.0, 10):
        for t in np.linspace(0.0, 60.0, 5):
            cond = ModuleCondition(float(s), float(t))
            spec = ArraySpec.uniform(nd_module, 5, 3, cond, sample_module=BENCHMARK_SAMPLE)
            if detect_pattern(spec, ref_3x5, cfg).is_psc:
                false_pos += 1
    assert false_pos == 0
    print(
        "\nACCEPTANCE 4 detection verdicts: "
        + "; ".join(lines)
        + f"; uniform grid false positives {false_pos}/50 -> PASS"
    )


def test_criterion_5_gmppt_accuracy_and_speed(benchmark_runs, corpus):
    for k, (scn, trace, report) in benchmark_runs.items():
        e = report.events[-1]
        assert e["detected"] is True, f"PSC{k} not detected"
        assert e["scan_duration_s"] is not None and e["scan_duration_s"] < 0.070, (
            f"PSC{k} scan {e['scan_duration_s']}"
        )
        assert e["final_power_w"] >= 0.99 * e["oracle_power_w"], f"PSC{k} accuracy"

    frac = corpus["fraction_within_1pct"]
    assert frac >= 0.99
    scans = [
        (k, 1000 * r[2].events[-1]["scan_duration_s"]) for k, r in benchmark_runs.items()
    ]
    print(
        f"\nACCEPTANCE 5 gmppt: scans {['%d:%.0fms' % s for s in scans]}, "
        f"corpus {corpus['events_within_1pct']}/{corpus['events_total']} "
        f"({100 * frac:.1f}%) within 1% -> PASS"
    )


def test_criterion_6_pruning_safety(nd_module, benchmark_runs, corpus):
    checked = violations = 0

    def replay(events):
        nonlocal checked, violations
        for e in events:
            prunes = e["prunes"]
            if not prunes:
                continue
            pat = ShadingPattern.parse(e["pattern"], e["levels"])
            spec = ArraySpec(5, 3, nd_module, pat.expand(5), sample_module=BENCHMARK_SAMPLE)
            curve = sweep_curve(spec, 0.01)
            bad = prune_violations(curve, prunes)
            checked += len(prunes)
            violations += len(bad)

    for _, (scn, trace, report) in benchmark_runs.items():
        replay(report.events)
    for rep in corpus["reports"]:
        replay(rep["events"])

    assert checked > 0
    assert violations == 0
    print(
        f"\nACCEPTANCE 6 pruning safety: {checked} prune decisions replayed, "
        f"0 violations -> PASS"
    )


def test_criterion_7_psi_weighted_average(nd_module, ref_3x5):
    rnd = random.Random(77)
    v0 = ref_3x5.v_mpp_arr_sc
    dv = 0.01 * v0
    worst = 0.0
    for _ in range(50):
        levels = tuple(
            (max(rnd.uniform(0.15, 1.0), 0.1), rnd.uniform(15.0, 45.0)) for _ in range(3)
        )
        strings = []
        for _ in range(3):
            n1 = rnd.randint(0, 5)
            n2 = rnd.randint(0, 5 - n1)
            strings.append(f"{n1}-{n2}-{5 - n1 - n2}")
        pat = ShadingPattern.parse(strings, levels)
        spec = ArraySpec(5, 3, nd_module, pat.expand(5), sample_module=BENCHMARK_SAMPLE)
        string_probes = []
        for s in range(3):
            p1 = (v0 - dv) * string_current(spec, s, v0 - dv)
            p2 = (v0 + dv) * string_current(spec, s, v0 + dv)
            string_probes.append((p1, p2))
        p_lo = sum(p for p, _ in string_probes)
        p_hi = sum(p for _, p in string_probes)
        psi_arr = compute_psi((v0 - dv, p_lo), (v0 + dv, p_hi))
        num = den = 0.0
        for p1, p2 in string_probes:
            p_mid = 0.5 * (p1 + p2)
            if p_mid <= 0.0:
                continue
            num += compute_psi((v0 - dv, p1), (v0 + dv, p2)) * p_mid
            den += p_mid
        rel = abs(psi_arr - num / den) / max(abs(psi_arr), 1e-12)
        worst = max(worst, rel)
        assert rel < 1e-3
    print(f"\nACCEPTANCE 7 weighted-average identity: worst rel err {worst:.2e} -> PASS")


def test_criterion_8_detector_miss_fallback(nd_module, ref_3x5):
    # four of five modules per string barely shaded: high count ratio,
    # irradiance ratio close to one; all criteria stay quiet but the
    # global maximum remains at the near-reference peak
    ir = 1.08
    levels = ((1.0, 25.0), (1.0 / ir, 25.0), (0.3, 25.0))
    pat = ShadingPattern.parse(["1-4-0"] * 3, levels)
    spec = ArraySpec(5, 3, nd_module, pat.expand(5), sample_module=BENCHMARK_SAMPLE)
    det = detect_pattern(spec, ref_3x5, DetectorConfig(), s_prior=1.0)
    assert det.is_psc is False, "construction must evade all three criteria"

    scn = psc_onset(1)
    events = list(scn.events)
    events[1] = replace(events[1], pattern=pat)
    scn = replace(scn, events=tuple(events), name="detector-miss")
    trace, report = run_closed_loop(scn)
    assert all(r.mode not in ("scan_up", "scan_down") for r in trace)
    e = report.events[1]
    assert e["detected"] is False  # detection ran and correctly stayed quiet
    assert e["final_power_w"] >= 0.99 * e["oracle_power_w"]
    print(
        f"\nACCEPTANCE 8 miss fallback: criteria quiet, P&O kept "
        f"{100 * e['final_power_w'] / e['oracle_power_w']:.2f}% of oracle -> PASS"
    )


def test_criterion_9_po_baseline_failure(nd_module):
    # pattern found by search over the five: the pure P&O tracker rests
    # on the high-voltage local peak of pattern 1 and forfeits >= 10%
    scn = psc_onset(1)
    scn = replace(scn, controller=replace(scn.controller, po_only=True))
    trace, report = run_closed_loop(scn)
    e = report.events[-1]
    deficit = 1.0 - e["final_power_w"] / e["oracle_power_w"]
    assert all(r.mode == "po" for r in trace)
    assert deficit >= 0.10
    print(
        f"\nACCEPTANCE 9 P&O baseline failure: deficit "
        f"{100 * deficit:.1f}% on pattern 1 -> PASS"
    )


STRETCHED_WINDOW_S = 6.0  # longer than the detector's 5 s periodic trigger


def _stretched(seed: int, index: int):
    """``random_scenario(seed, index)`` with the same patterns, every shading
    window stretched from the corpus's 0.45 s to ``STRETCHED_WINDOW_S``."""
    scn = random_scenario(seed, index)
    n_shading = len(scn.events) - 1
    starts = [0.0] + [scn.events[1].t + STRETCHED_WINDOW_S * k for k in range(n_shading)]
    events = tuple(replace(e, t=t) for e, t in zip(scn.events, starts))
    return replace(scn, events=events, horizon_s=starts[-1] + STRETCHED_WINDOW_S)


def _final_ratio(e: dict) -> float:
    return e["final_power_w"] / e["oracle_power_w"]


# corpus events that end under 0.99 of the oracle in their 0.45 s window:
# (seed, index, event) -> what a window past the periodic trigger gives
RECOVERED_AT_PAPER_SCALE = [(2026, 21, 1), (10, 97, 2), (4, 61, 2), (7, 75, 1)]
KNOWN_MISSES = {
    (9, 76, 1): "negative verdict",
    (10, 75, 1): "negative verdict",
    (8, 31, 2): "negative verdict",
    (8, 97, 1): "scan bound",
}


def test_two_stage_claim_at_the_papers_time_scale():
    """The paper's periodic trigger catches a shading change that barely
    moves the local peak, but it never falls due inside a corpus window.
    With windows longer than it, four corpus misses recover to >= 0.99 of
    the oracle; four stay misses, of the kind named: every verdict in the
    window negative, so no scan ran, or a scan whose samples all lay above
    the oracle voltage."""
    assert STRETCHED_WINDOW_S > DetectorConfig().periodic_trigger_s
    lines = []
    for seed, index, k in RECOVERED_AT_PAPER_SCALE:
        short = run_closed_loop(random_scenario(seed, index))[1].events[k]
        e = run_closed_loop(_stretched(seed, index))[1].events[k]
        assert e["t_end_s"] - e["t_start_s"] == pytest.approx(STRETCHED_WINDOW_S)
        assert _final_ratio(short) < 0.99 <= _final_ratio(e), (seed, index, k)
        lines.append(
            f"({seed}, {index}) event {k} {_final_ratio(short):.3f} -> {_final_ratio(e):.4f}"
        )
    for (seed, index, k), kind in KNOWN_MISSES.items():
        trace, report = run_closed_loop(_stretched(seed, index))
        e = report.events[k]
        assert _final_ratio(e) < 0.99, (seed, index, k)
        scan_v = [
            r.v_pv for r in trace
            if r.mode in ("scan_up", "scan_down") and e["t_start_s"] <= r.t < e["t_end_s"]
        ]
        if kind == "negative verdict":
            assert e["detected"] is False and e["p_e_w"] is None and not scan_v
        else:
            assert e["detected"] is True and min(scan_v) > e["oracle_voltage_v"]
        lines.append(f"({seed}, {index}) event {k} stays at {_final_ratio(e):.3f} ({kind})")
    print("\nACCEPTANCE two-stage at 6 s windows: " + "; ".join(lines) + " -> PASS")
