"""Harness tests: scenario files, closed loop, reports, emitters, CLI."""

import concurrent.futures
import contextlib
import copy
import functools
import io
import json
import math
import operator
import os
import random
import struct
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvmppt.cli import main as cli_main
from pvmppt.control import Detection, Mode, controller_tick
from pvmppt.converter import (
    PlantCurve,
    _grid_source,
    duty_for_voltage,
    step_ode,
)
from pvmppt import control, harness
from pvmppt.harness import (
    ScenarioError,
    ShadingPattern,
    TRACE_HEADER,
    base_array_spec,
    build_reference_model,
    detect_pattern,
    emit_report,
    emit_trace,
    load_scenario,
    prune_violations,
    random_scenario,
    run_closed_loop,
    run_corpus,
    scenario_from_dict,
)
from pvmppt.pvmodel import (
    ND195R1S,
    ArraySpec,
    ModuleCondition,
    ValidationError,
    calibrate_module,
    module_open_circuit_voltage,
    oracle_gmpp,
    string_current,
    sweep_curve,
)

from oracles import scalar_string_current

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
# benchmark_psc1.json's shading levels and onset pattern
PSC1_LEVELS = ((0.9, 35.0), (0.6, 30.0), (0.3, 25.0))
PSC1_PATTERN = ["2-2-1", "1-3-1", "3-2-0"]
# the five benchmark onset patterns of the paper, all over PSC1_LEVELS,
# each after a uniform start on the first of START_LEVELS
BENCHMARK_PATTERNS = {
    1: PSC1_PATTERN,
    2: ["5-0-0", "3-1-1", "3-2-0"],
    3: ["0-1-4", "0-0-5", "1-1-3"],
    4: ["1-1-3", "1-1-3", "1-0-4"],
    5: ["1-1-3", "5-0-0", "4-0-1"],
}
START_LEVELS = ((1.0, 25.0), (0.6, 25.0), (0.3, 25.0))


def short_psc1(**overrides):
    """benchmark_psc1 with its onset at 0.25 s and a 0.7 s horizon."""
    scn = load_scenario(SCENARIO_DIR / "benchmark_psc1.json")
    start, onset = scn.events
    return replace(scn, horizon_s=0.7, events=(start, replace(onset, t=0.25)), **overrides)


@pytest.fixture(scope="module")
def psc1_run():
    return run_closed_loop(short_psc1())


class TestShadingPattern:
    def test_parse_and_expand(self):
        pat = ShadingPattern.parse(PSC1_PATTERN, PSC1_LEVELS)
        grid = pat.expand(5)
        assert len(grid) == 3 and all(len(row) == 5 for row in grid)
        assert grid[0][0].irradiance == 0.9
        assert grid[0][2].irradiance == 0.6
        assert grid[0][4].irradiance == 0.3

    def test_degenerate_uniform_string(self):
        pat = ShadingPattern.parse(["5-0-0"], PSC1_LEVELS)
        grid = pat.expand(5)
        assert all(c == ModuleCondition(0.9, 35.0) for c in grid[0])

    def test_count_sum_mismatch(self):
        pat = ShadingPattern.parse(["2-2-2"], PSC1_LEVELS)
        with pytest.raises(ScenarioError, match="sum"):
            pat.expand(5)

    def test_bad_token(self):
        with pytest.raises(ScenarioError, match="dash-separated"):
            ShadingPattern.parse(["2-x-1"], PSC1_LEVELS)

    def test_level_arity_mismatch(self):
        with pytest.raises(ScenarioError, match="levels"):
            ShadingPattern.parse(["2-3"], PSC1_LEVELS)


class TestScenarioFiles:
    def test_load_benchmark_psc1(self):
        scn = load_scenario(SCENARIO_DIR / "benchmark_psc1.json")
        assert scn.n_series == 5 and scn.n_parallel == 3
        assert scn.sample_module == (0, 2)
        assert len(scn.events) == 2
        assert scn.events[1].pattern.as_strings() == PSC1_PATTERN

    @pytest.mark.parametrize("k", range(1, 6))
    def test_benchmark_file_holds_the_paper_pattern(self, k):
        scn = load_scenario(SCENARIO_DIR / f"benchmark_psc{k}.json")
        assert scn.name == f"benchmark-psc{k}"
        assert (scn.n_series, scn.n_parallel, scn.sample_module) == (5, 3, (0, 2))
        assert scn.datasheet == ND195R1S
        start, onset = scn.events
        assert (start.t, onset.t, scn.horizon_s) == (0.0, 0.3, 0.9)
        assert start.pattern == ShadingPattern.parse(["5-0-0"] * 3, START_LEVELS)
        assert onset.pattern == ShadingPattern.parse(BENCHMARK_PATTERNS[k], PSC1_LEVELS)

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(SCENARIO_DIR / "nope.json")

    def test_empty_timeline_rejected(self):
        doc = json.loads((SCENARIO_DIR / "benchmark_psc1.json").read_text())
        doc["timeline"] = []
        with pytest.raises(ScenarioError, match="timeline"):
            scenario_from_dict(doc)

    def test_unsorted_timeline_rejected(self):
        doc = json.loads((SCENARIO_DIR / "benchmark_psc1.json").read_text())
        doc["timeline"] = list(reversed(doc["timeline"]))
        with pytest.raises(ScenarioError, match="sorted"):
            scenario_from_dict(doc)

    def test_missing_field_names_path(self):
        doc = json.loads((SCENARIO_DIR / "benchmark_psc1.json").read_text())
        del doc["array"]["n_series"]
        with pytest.raises(ScenarioError, match="array.n_series"):
            scenario_from_dict(doc)

    def test_bad_counts_rejected(self):
        doc = json.loads((SCENARIO_DIR / "benchmark_psc1.json").read_text())
        doc["timeline"][1]["pattern"] = ["2-2-2", "1-3-1", "3-2-0"]
        with pytest.raises(ScenarioError, match="sum"):
            scenario_from_dict(doc)

    def test_readme_example_loads(self):
        readme = (SCENARIO_DIR.parent / "README.md").read_text()
        section = readme.split("\n## Scenario files\n", 1)[1]
        example = section.split("```json\n", 1)[1].split("\n```", 1)[0]
        assert scenario_from_dict(json.loads(example)).name == "benchmark-psc1"


class TestReferenceModel:
    def test_homogeneous_identity(self, ref_3x5):
        assert ref_3x5.v_mpp_arr_sc == pytest.approx(5 * ref_3x5.v_mpp_mod_sc, rel=1e-12)

    def test_rho_negative_and_plausible(self, ref_3x5):
        assert -0.005 < ref_3x5.rho < -0.002

    def test_rated_limits(self, ref_3x5):
        assert ref_3x5.v_oc_arr_rated == pytest.approx(5 * 29.7, rel=0.01)
        assert ref_3x5.i_sc_rated == pytest.approx(3 * 8.68, rel=0.01)


class TestCommissioningCache:
    def test_equal_arrays_share_one_model(self, nd_module, ref_3x5):
        assert build_reference_model(nd_module, 5, 3) is ref_3x5
        assert build_reference_model(replace(nd_module), 5, 3) is ref_3x5

    def test_distinct_arrays_get_their_own_model(self, nd_module, ref_3x5):
        other_module = replace(nd_module, r_s=nd_module.r_s * 1.05)
        models = [
            build_reference_model(nd_module, 4, 3),
            build_reference_model(nd_module, 5, 2),
            build_reference_model(other_module, 5, 3),
        ]
        for m in models:
            assert m != ref_3x5
        assert models[0].v_mpp_arr_sc == pytest.approx(0.8 * ref_3x5.v_mpp_arr_sc, rel=1e-9)
        assert models[1].i_mpp_arr_sc == pytest.approx(2 / 3 * ref_3x5.i_mpp_arr_sc, rel=1e-9)

    def test_each_commissioning_condition_is_swept_once(self, nd_module, ref_3x5, monkeypatch):
        swept = []

        def counted(spec, v_step):
            swept.append(spec.conditions[0][0])
            return sweep_curve(spec, v_step)

        monkeypatch.setattr(harness, "sweep_curve", counted)
        assert build_reference_model.__wrapped__(nd_module, 5, 3) == ref_3x5
        assert len(swept) == len(set(swept)) == 29

    def test_cold_cache_run_is_byte_identical(self, tmp_path):
        scn = load_scenario(SCENARIO_DIR / "benchmark_psc1.json")
        warm = _emitted_bytes(scn, tmp_path, "warm")
        build_reference_model.cache_clear()
        assert _emitted_bytes(scn, tmp_path, "cold") == warm
        assert build_reference_model.cache_info().misses == 1


class TestStaticDetection:
    def test_uniform_not_psc(self, nd_module, ref_3x5):
        spec = ArraySpec.uniform(nd_module, 5, 3, sample_module=(0, 2))
        det = detect_pattern(spec, ref_3x5)
        assert det.is_psc is False

    def test_static_verdict_is_the_controllers_record_judged(self, ref_3x5):
        """``detect_pattern`` builds and judges the record the controller
        keeps per detection; ``detect.json`` keeps its eight keys."""
        spec = base_array_spec(load_scenario(SCENARIO_DIR / "benchmark_psc1.json"), 1)
        det = detect_pattern(spec, ref_3x5, s_prior=1.0)
        assert type(det) is Detection
        assert det.psi is not None and det.is_psc and math.isnan(det.t)
        assert list(det.to_dict()) == [
            "psi_per_v", "dv_arr_ratio", "dv_mod_ratio", "criteria_fired", "psc",
            "v_rest_v", "v_mpp_arr_updated_v", "v_mpp_mod_updated_v",
        ]

    def test_benchmark_patterns_all_detected(self, nd_module, ref_3x5):
        for k in range(1, 6):
            spec = base_array_spec(load_scenario(SCENARIO_DIR / f"benchmark_psc{k}.json"), 1)
            det = detect_pattern(spec, ref_3x5, s_prior=1.0)
            assert det.is_psc is True, f"pattern {k} missed"

    @pytest.mark.parametrize("s_prior", [math.nan, math.inf, -math.inf, -2.0, -1e-300, 1.0 + 1e-15])
    def test_prior_irradiance_off_the_scale_is_rejected(self, ref_3x5, s_prior):
        spec = base_array_spec(load_scenario(SCENARIO_DIR / "benchmark_psc1.json"), 1)
        with pytest.raises(ValidationError, match="prior irradiance") as err:
            detect_pattern(spec, ref_3x5, s_prior=s_prior)
        assert err.value.field == "s_prior"

    @pytest.mark.parametrize("s_prior", [0.0, 1.0])
    def test_prior_irradiance_at_the_ends_of_the_scale_is_accepted(self, ref_3x5, s_prior):
        spec = base_array_spec(load_scenario(SCENARIO_DIR / "benchmark_psc1.json"), 1)
        assert detect_pattern(spec, ref_3x5, s_prior=s_prior).psi is not None

    @pytest.mark.parametrize("index", [2, -1, -3])
    def test_event_index_outside_the_timeline_is_rejected(self, index):
        scn = load_scenario(SCENARIO_DIR / "benchmark_psc1.json")
        with pytest.raises(ScenarioError, match=rf"event index {index} outside \[0, 2\)"):
            base_array_spec(scn, index)


class TestClosedLoop:
    def test_uniform_only_scenario(self):
        scn = load_scenario(SCENARIO_DIR / "benchmark_psc1.json")
        scn = replace(scn, events=scn.events[:1], horizon_s=0.5, name="uniform")
        trace, report = run_closed_loop(scn)
        assert all(r.mode not in ("scan_up", "scan_down") for r in trace)
        e = report.events[0]
        assert e["detected"] is None  # no trigger ever fired
        # efficiency after P&O convergence (second half of the window)
        ts = np.array([r.t for r in trace])
        ps = np.array([r.p for r in trace])
        half = ts >= 0.25
        eff = np.trapezoid(ps[half], ts[half]) / (e["oracle_power_w"] * (ts[-1] - 0.25))
        assert eff > 0.99
        assert e["final_power_w"] <= e["oracle_power_w"] * 1.001

    def test_two_tick_window_reports_its_last_row(self):
        # events at ticks 0, 18 and 20: event 1's one-tick tail starts an ulp
        # after its last row at tick 19
        scn = load_scenario(SCENARIO_DIR / "benchmark_psc1.json")
        start, onset = scn.events
        events = (start, replace(onset, t=0.009), replace(start, t=0.01))
        trace, report = run_closed_loop(replace(scn, events=events, horizon_s=0.05))
        assert report.events[1]["final_power_w"] == list(trace)[19].p

    def test_psc_onset_detects_scans_and_converges(self, psc1_run):
        trace, report = psc1_run
        e = report.events[1]
        assert e["detected"] is True
        assert e["detection_latency_s"] < 0.15
        assert e["scan_duration_s"] is not None and e["scan_duration_s"] < 0.07
        assert e["final_power_w"] >= 0.99 * e["oracle_power_w"]
        assert e["final_power_w"] <= e["oracle_power_w"] * 1.001
        assert 0.0 <= e["efficiency"] <= 1.02

    def test_pruning_replay_clean(self, nd_module, psc1_run):
        trace, report = psc1_run
        e = report.events[1]
        assert e["prunes"]  # the scan did prune
        spec = base_array_spec(short_psc1(), 1)
        curve = sweep_curve(spec, 0.01)
        assert prune_violations(curve, e["prunes"]) == []

    def test_scan_command_is_pure_ramp(self, psc1_run):
        # no hidden steps: consecutive scan-mode commands move by exactly
        # ramp_rate * adc_period
        rows = list(psc1_run[0])
        scn = short_psc1()
        dv = scn.controller.ramp_rate_v_per_s * scn.controller.adc_period_s
        deltas = []
        for a, b in zip(rows, rows[1:]):
            if a.mode in ("scan_up", "scan_down") and b.mode in ("scan_up", "scan_down"):
                deltas.append(abs(b.v_ref - a.v_ref))
        assert deltas
        moving = [d for d in deltas if d > 0.0]
        assert all(abs(d - dv) < 1e-9 for d in moving)

    def test_trace_cadence_and_modes(self, psc1_run):
        trace, _ = psc1_run
        scn = short_psc1()
        expected_rows = round(scn.horizon_s / scn.controller.adc_period_s)
        assert abs(len(trace) - expected_rows) <= 1
        assert {r.mode for r in trace} >= {"po", "scan_up", "scan_down"}

    def test_best_power_in_scan_rows(self, psc1_run):
        trace, _ = psc1_run
        scan_rows = [r for r in trace if r.mode == "scan_down"]
        assert scan_rows
        assert all(math.isfinite(r.p_e) and math.isfinite(r.v_e) for r in scan_rows)

    def test_determinism_bytes(self, tmp_path):
        traces, reports = [], []
        for run_idx in (0, 1):
            trace, report = run_closed_loop(short_psc1())
            tp = tmp_path / f"t{run_idx}.csv"
            rp = tmp_path / f"r{run_idx}.json"
            emit_trace(trace, tp)
            emit_report(report, rp)
            traces.append(tp.read_bytes())
            reports.append(rp.read_bytes())
        assert traces[0] == traces[1]
        assert reports[0] == reports[1]

    def test_seed_only_labels_the_report(self, psc1_run):
        trace, report = psc1_run
        trace_b, report_b = run_closed_loop(short_psc1(seed=4051))
        assert list(trace_b) == list(trace)
        assert report_b.seed == 4051 and report.seed != 4051
        assert replace(report_b, seed=report.seed) == report

    def test_misaligned_adc_rejected(self):
        with pytest.raises(ScenarioError, match="multiple"):
            short_psc1(dt_s=3e-5)  # 5e-4 / 3e-5 is not an integer

    def test_inline_integrator_matches_step_ode(self, nd_module):
        # one ADC interval of the fast loop equals a step_ode sequence
        scn = short_psc1()
        spec = base_array_spec(scn, 0)
        plant = PlantCurve(sweep_curve(spec, 0.01))
        rows = list(run_closed_loop(scn)[0])
        v0 = rows[0].v_pv
        cmd = rows[0].v_ref
        v, il = v0, plant(v0)
        duty = duty_for_voltage(cmd, scn.converter.v_out)
        for _ in range(round(scn.controller.adc_period_s / scn.dt_s)):
            v, il = step_ode(v, il, duty, scn.dt_s, plant, scn.converter)
        assert rows[1].v_pv == pytest.approx(v, abs=1e-9)

    @pytest.mark.parametrize("k, v_out", [(3, 100.0), (4, 110.0)])
    def test_link_capped_event_priced_at_the_holdable_gmpp(self, k, v_out):
        """Behind a link below the GMPP's voltage the event is priced against
        the best point the converter can hold, ``v - r_L*i <= v_out``, and
        the run ends on it."""
        scn = _with_link(load_scenario(SCENARIO_DIR / f"benchmark_psc{k}.json"), v_out)
        _, report = run_closed_loop(scn)
        e = report.events[1]
        curve = sweep_curve(base_array_spec(scn, 1), 0.01)
        assert e["oracle_power_w"] < 0.97 * oracle_gmpp(curve)[1]  # the cap binds
        v_star = e["oracle_voltage_v"]
        assert v_star - scn.converter.r_l * float(curve.current_at(v_star)) <= v_out
        assert 0.99 <= e["final_power_w"] / e["oracle_power_w"] <= 1.001


def _emitted_bytes(scn, tmp_path, tag):
    trace, report = run_closed_loop(scn)
    emit_trace(trace, tmp_path / f"{tag}.csv")
    emit_report(report, tmp_path / f"{tag}.json")
    return (tmp_path / f"{tag}.csv").read_bytes(), (tmp_path / f"{tag}.json").read_bytes()


class TestGatedReadout:
    @pytest.mark.parametrize(
        "scn",
        [
            load_scenario(SCENARIO_DIR / "benchmark_psc1.json"),
            *(random_scenario(2026, i) for i in (0, 3, 5, 9)),
        ],
        ids=lambda scn: scn.name,
    )
    def test_readout_only_on_trim_ticks(self, scn, monkeypatch):
        read_ticks = []

        def tick(state, k, m, cfg, ref, read_sample_module):
            def reader():
                read_ticks.append(k)
                return read_sample_module()

            return controller_tick(state, k, m, cfg, ref, reader)

        monkeypatch.setattr(harness, "controller_tick", tick)
        trace, report = run_closed_loop(scn)
        assert report.events[-1]["detected"] is True
        rows = list(trace)
        trims = [
            k
            for k in range(1, len(rows))
            if rows[k - 1].mode == Mode.DETECT_SETTLE.value
            and rows[k].mode == Mode.DETECT_PROBE.value
        ]
        assert read_ticks == trims

    @pytest.mark.parametrize(
        "scn",
        [load_scenario(SCENARIO_DIR / "benchmark_psc1.json"), random_scenario(2026, 3)],
        ids=lambda scn: scn.name,
    )
    def test_one_readout_per_detection(self, scn, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return string_current(*args)

        monkeypatch.setattr(harness, "string_current", counting)
        trace, report = run_closed_loop(scn)
        rows = list(trace)
        trims = sum(
            1
            for a, b in zip(rows, rows[1:])
            if a.mode == Mode.DETECT_SETTLE.value and b.mode == Mode.DETECT_PROBE.value
        )
        assert trims == sum(e["detected"] is not None for e in report.events) >= 1
        assert len(calls) == trims

    @pytest.mark.parametrize(
        "scn",
        [
            *(load_scenario(SCENARIO_DIR / f"benchmark_psc{k}.json") for k in range(1, 6)),
            *(random_scenario(2026, i) for i in range(12)),
        ],
        ids=lambda scn: scn.name,
    )
    def test_sampled_readout_matches_scalar_oracle(self, scn, monkeypatch):
        """The readout interpolates the string's swept samples; with the
        bisection oracle in its place every trace row is the same and each
        ``dv_mod_ratio`` moves by at most 5e-6 (1.46e-6 measured over the
        scenario files and 112 corpus draws; the verdict threshold is 0.02
        and no ratio lies within 5e-4 of it)."""
        trace, report = run_closed_loop(scn)
        monkeypatch.setattr(harness, "string_current", scalar_string_current)
        trace_o, report_o = run_closed_loop(scn)
        assert list(map(repr, trace)) == list(map(repr, trace_o))
        for e, e_o in zip(report.events, report_o.events, strict=True):
            assert e["detected"] == e_o["detected"]
            if e["detected"] is not None:
                assert abs(e["dv_mod_ratio"] - e_o["dv_mod_ratio"]) <= 5e-6
            rest = ("detected", "dv_mod_ratio")
            assert {k: v for k, v in e.items() if k not in rest} == {
                k: v for k, v in e_o.items() if k not in rest
            }


def _with_link(scn, v_out):
    """``scn`` behind a DC link of ``v_out`` volts, which caps the command."""
    return replace(scn, converter=replace(scn.converter, v_out=v_out))


# the shipped files, psc3 behind two links below its 118 V start command,
# and corpus draws
IDLE_CASES = [
    *(load_scenario(SCENARIO_DIR / f"benchmark_psc{k}.json") for k in range(1, 6)),
    load_scenario(SCENARIO_DIR / "dark_onset.json"),
    load_scenario(SCENARIO_DIR / "uniform_stc.json"),
    *(_with_link(load_scenario(SCENARIO_DIR / "benchmark_psc3.json"), v) for v in (100.0, 110.0)),
    *(random_scenario(2026, i) for i in range(12)),
]
IDLE_IDS = [f"{scn.name}-{scn.converter.v_out:g}V" for scn in IDLE_CASES]


def _error(fn, *args):
    """The type and message of what ``fn(*args)`` raised."""
    with pytest.raises(Exception) as err:
        fn(*args)
    return type(err.value), str(err.value)


def _spy_on_blocks(monkeypatch, seen) -> None:
    """Call ``seen(*args)`` before each ``harness.advance`` call, that is,
    each block of the trace: a held stretch, a P&O step with the hold after
    it, or one acting tick of a slew or scan."""
    advance = harness.advance

    def spy(*args):
        seen(*args)
        return advance(*args)

    monkeypatch.setattr(harness, "advance", spy)


@pytest.fixture
def tick_by_tick(monkeypatch):
    """Switches the held stretches off: every tick goes through
    ``controller_tick``, which holds on the ticks before its own
    ``resume_tick``, one tick at a time."""
    return lambda: monkeypatch.setattr(harness, "resume_tick", lambda state: 0)


class TestIdleStretches:
    """The closed loop runs the ticks before the controller's
    ``resume_tick`` as one ``advance`` call that samples each tick start, a
    P&O step with the ticks before its next as one such call, and each
    other acting tick as one such call of one tick."""

    @pytest.mark.parametrize("scn", IDLE_CASES, ids=IDLE_IDS)
    def test_held_stretches_give_the_tick_by_tick_bytes(self, scn, tmp_path, tick_by_tick):
        held = _emitted_bytes(scn, tmp_path, "held")
        tick_by_tick()
        assert _emitted_bytes(scn, tmp_path, "ticks") == held

    def test_negative_source_inside_a_stretch(self, monkeypatch, tick_by_tick):
        """A table source negative from 125.2 V up: the first sample there
        raises what a ``Measurement`` raises, in the middle of a stretch."""

        def poisoned(curve):
            vals, h, _, _ = PlantCurve(curve).table
            vals = vals.copy()
            vals[int(125.2 / h):] = -1.0
            return _grid_source(vals, h)

        monkeypatch.setattr(harness, "PlantCurve", poisoned)
        block_starts, samples, run_end = [], [], []
        check_sample, check_samples = control.check_sample, harness.check_samples
        _spy_on_blocks(monkeypatch, lambda *a: block_starts.append(len(a[-1][0])))
        # every sample check, the acting ticks' Measurements among them; the
        # run-end check's are those from len(samples) at its start
        monkeypatch.setattr(
            control, "check_sample", lambda v, i: samples.append(i) or check_sample(v, i)
        )
        monkeypatch.setattr(
            harness,
            "check_samples",
            lambda v_at, i_at: run_end.append(len(samples)) or check_samples(v_at, i_at),
        )
        scn = load_scenario(SCENARIO_DIR / "benchmark_psc1.json")
        got = _error(run_closed_loop, scn)
        assert got == (ValidationError, "array current cannot be negative")
        # the run's rows are checked from the first: the last checked is the bad
        # row, and it is not the first row of a block
        checked = samples[run_end[0]:]
        assert checked[-1] < 0.0 and len(checked) - 1 not in block_starts
        tick_by_tick()
        assert _error(run_closed_loop, scn) == got

    @pytest.mark.parametrize(
        "bad, message",
        [
            (-1.0, "array current cannot be negative"),
            (math.inf, "measurements must be finite"),
            (math.nan, "measurements must be finite"),
        ],
    )
    def test_bad_sample_wins_over_a_later_error(self, monkeypatch, tick_by_tick, bad, message):
        """A source (no table: the Python loops) whose sample at tick 5, inside
        the first stretch, is bad, and which fails on the next call: one tick
        at a time never makes that call, and the held stretch, which does,
        still raises the sample's error."""
        scn = load_scenario(SCENARIO_DIR / "benchmark_psc1.json")
        rk4_calls = 4 * round(scn.controller.adc_period_s / scn.dt_s)
        # call 0 sets the inductor current; a held tick reads its sample, then
        # runs its sub-steps
        bad_call = 1 + 5 * (1 + rk4_calls)
        calls = []

        def source_of(curve):
            plant = PlantCurve(curve)

            def source(v):
                calls.append(v)
                if len(calls) == bad_call + 1:
                    return bad
                if len(calls) == bad_call + 2:
                    raise RuntimeError("the call after the bad sample")
                return plant(v)

            return source

        monkeypatch.setattr(harness, "PlantCurve", source_of)
        stretches = []
        _spy_on_blocks(monkeypatch, lambda *a: stretches.append(a[4]))
        assert _error(run_closed_loop, scn) == (ValidationError, message)
        assert len(calls) == bad_call + 2 and stretches[0] > 5
        calls.clear()
        tick_by_tick()
        # an acting tick reads its Measurement, then its sample: the bad value
        # is tick 5's Measurement, which raises before the sample is read
        bad_call = 1 + 5 * (2 + rk4_calls)
        assert _error(run_closed_loop, scn) == (ValidationError, message)
        assert len(calls) == bad_call + 1

    def test_one_sampled_advance_call_per_block(self, monkeypatch):
        """On the five psc files each block of the trace is one ``advance``
        call that samples into the trace's columns, and the calls' ticks are
        the trace's rows."""
        calls = []
        _spy_on_blocks(monkeypatch, lambda *a: calls.append((a[4], a[-1])))
        for k in range(1, 6):
            calls.clear()
            trace, _ = run_closed_loop(load_scenario(SCENARIO_DIR / f"benchmark_psc{k}.json"))
            assert len(calls) == len(list(trace.blocks()))
            assert all(s[0] is trace.v_pv and s[1] is trace.i_pv for _, s in calls)
            assert sum(n for n, _ in calls) == len(trace)

    @pytest.mark.parametrize("po_only, blocks", [(False, 697), (True, 225)])
    def test_each_po_step_is_one_block(self, monkeypatch, po_only, blocks):
        """A P&O step and the hold after it are one block and one ``advance``
        call: two adjacent P&O calls never hold the same command at
        ``dw = 0``, but where an event starts and the plant changes under
        the command.  (A slew that arrives and the settle after it are two
        blocks.)"""
        calls = []
        _spy_on_blocks(monkeypatch, lambda *a: calls.append((a[2], a[3])))
        total = 0
        for k in range(1, 6):
            scn = load_scenario(SCENARIO_DIR / f"benchmark_psc{k}.json")
            calls.clear()
            trace, _ = run_closed_loop(_po_only(scn) if po_only else scn)
            event_rows = {round(e.t / scn.controller.adc_period_s) for e in scn.events}
            held = [
                (start, w0) if mode == Mode.PO.value and dw == 0.0 else None
                for (start, _, (_, _, mode, _, _)), (w0, dw) in zip(trace.blocks(), calls)
            ]
            for a, b in zip(held, held[1:]):
                assert not (a and b and a[1] == b[1]) or b[0] in event_rows
            total += len(calls)
        assert total == blocks


def _po_only(scn):
    return replace(scn, name=f"{scn.name}-po", controller=replace(scn.controller, po_only=True))


# a detection and a scan, P&O alone (nearly all held ticks), a corpus draw at dt_s 2e-5
TRACE_CASES = [
    load_scenario(SCENARIO_DIR / "benchmark_psc1.json"),
    _po_only(load_scenario(SCENARIO_DIR / "benchmark_psc1.json")),
    random_scenario(2026, 3),
]


def _row_bits(r) -> tuple:
    """A trace row with each float as its IEEE bytes."""
    fields = (r.t, r.v_ref, r.duty, r.v_pv, r.i_pv, r.p, r.p_e, r.v_e)
    return struct.pack("<8d", *fields), r.mode


class TestTrace:
    @pytest.mark.parametrize("scn", TRACE_CASES, ids=lambda scn: scn.name)
    def test_rows_are_the_tick_by_tick_rows(self, scn, tick_by_tick):
        """The held run's ``Trace`` (a block per held stretch) and the
        tick-by-tick run's (a block per tick) give the same rows by length
        and iteration."""
        trace, _ = run_closed_loop(scn)
        tick_by_tick()
        ticks, _ = run_closed_loop(scn)
        n = round(scn.horizon_s / scn.controller.adc_period_s)
        assert len(trace) == len(ticks) == n
        assert list(trace) == list(ticks)
        want = [_row_bits(r) for r in ticks]
        assert [_row_bits(r) for r in trace] == want
        assert [r.t for r in trace] == [k * scn.controller.adc_period_s for k in range(n)]


def _old_trace_row(r) -> str:
    """A trace row as ``emit_trace`` wrote it field by field."""
    fields = (r.t, r.v_ref, r.duty, r.v_pv, r.i_pv, r.p)
    return ",".join((*map(harness._fmt, fields), r.mode, harness._fmt(r.p_e), harness._fmt(r.v_e)))


class TestEmitters:
    def test_percent_format_is_format_g10(self):
        rnd = random.Random(17)
        xs = [rnd.uniform(-1e3, 1e3) for _ in range(100_000)]
        xs += [struct.unpack("<d", rnd.getrandbits(64).to_bytes(8, "little"))[0] for _ in range(100_000)]
        xs += [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e16, 1e-16, 0, 7, -3, 10**12]
        assert [("%.10g" % x) for x in xs] == [format(x, ".10g") for x in xs]

    @pytest.mark.parametrize("scn", TRACE_CASES, ids=lambda scn: scn.name)
    def test_rows_match_the_field_by_field_writer(self, scn, tmp_path):
        trace, _ = run_closed_loop(scn)
        path = tmp_path / "trace.csv"
        emit_trace(trace, path)
        want = "".join(f"{line}\n" for line in [TRACE_HEADER, *map(_old_trace_row, trace)])
        assert path.read_bytes() == want.encode()

    def test_header_and_rows(self, tmp_path, psc1_run):
        trace, _ = psc1_run
        path = tmp_path / "trace.csv"
        emit_trace(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == len(trace) + 1

    def test_empty_trace_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_trace(harness.Trace(5e-4), path)
        assert path.read_text() == TRACE_HEADER + "\n"

    def test_nan_best_serialized_empty(self, tmp_path, psc1_run):
        trace, _ = psc1_run
        path = tmp_path / "trace.csv"
        emit_trace(trace, path)
        first = path.read_text().splitlines()[1]
        assert first.endswith(",,")  # p_e and v_e empty in P&O mode

    def test_report_roundtrip(self, tmp_path, psc1_run):
        _, report = psc1_run
        path = tmp_path / "report.json"
        emit_report(report, path)
        doc = json.loads(path.read_text())
        assert doc["scenario"] == report.scenario
        assert len(doc["events"]) == 2
        e = doc["events"][1]
        for key in (
            "oracle_power_w",
            "final_power_w",
            "efficiency",
            "detected",
            "detection_latency_s",
            "scan_duration_s",
            "prunes",
        ):
            assert key in e
        assert 0.0 <= e["efficiency"] <= 1.02

    def test_unwritable_path_raises_with_context(self, psc1_run):
        trace, _ = psc1_run
        with pytest.raises(OSError, match="trace"):
            emit_trace(trace, "/nonexistent-dir/trace.csv")


class TestCorpusScenario:
    def test_random_scenarios_valid_and_deterministic(self):
        a = random_scenario(42, 3)
        b = random_scenario(42, 3)
        assert a == b
        assert a.events[0].pattern.as_strings() == ["5-0-0"] * 3

    def test_worst_events_name_rerunnable_scenarios(self):
        agg = run_corpus(2026, 3)
        by_name = {r["name"]: r for r in agg["reports"]}
        assert len(agg["worst_events"]) == 5
        for w in agg["worst_events"]:
            seed, index = w["random_scenario_args"]
            assert seed == 2026
            assert random_scenario(seed, index).name == w["scenario"]
            event = by_name[w["scenario"]]["events"][w["event_index"]]
            assert event["index"] == w["event_index"]
            assert event["pattern"] == w["pattern"]
            assert event["final_power_w"] / event["oracle_power_w"] == w["ratio"]

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The pool sizes run_corpus asks for; each pool maps in this process."""
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return sizes

    def test_pool_never_larger_than_jobs_count_or_cores(self, monkeypatch, pool_sizes):
        # a platform with no affinity set: the cores os.cpu_count() gives
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        for cores, count, jobs in ((8, 2, 16), (8, 3, 2), (2, 3, 8), (None, 2, 8), (8, 2, 1)):
            monkeypatch.setattr(harness.os, "cpu_count", lambda: cores)
            assert run_corpus(2026, count, jobs)["count"] == count
        assert pool_sizes == [2, 2, 2]

    def test_pool_never_larger_than_the_affinity_set(self, monkeypatch, pool_sizes):
        """Under ``taskset -c 0`` a 2-core machine leaves the process one CPU:
        ``--jobs 2`` runs serially, not as two workers on that CPU."""
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        for cpus, count, jobs in (({0}, 2, 2), ({0, 3}, 3, 8), ({0, 1, 2}, 3, 8)):
            monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: cpus, raising=False)
            assert run_corpus(2026, count, jobs)["count"] == count
        assert pool_sizes == [2, 3]

    def test_pool_and_serial_reports_agree(self):
        assert run_corpus(2026, 2, jobs=2) == run_corpus(2026, 2, jobs=1)

    @pytest.mark.parametrize("index", range(12))
    def test_drawn_scenario_trace_keeps_controller_invariants(self, tmp_path, index):
        scn = random_scenario(2026, index)
        trace, report = run_closed_loop(scn)
        emit_trace(trace, tmp_path / "trace.csv")
        assert _trace_violations(tmp_path / "trace.csv", scn.converter.v_out) == []
        for k, e in enumerate(report.events):
            curve = sweep_curve(base_array_spec(scn, k), 0.01)
            assert prune_violations(curve, e["prunes"]) == []
            # criterion 5: a scan that arrives takes under 70 ms
            assert e["scan_duration_s"] is None or e["scan_duration_s"] < 0.070


# benchmark_psc1's two events, to build timelines with extra events
_PSC1_START = {
    "t_s": 0.0, "pattern": ["5-0-0"] * 3, "levels": [[1.0, 25.0], [0.6, 25.0], [0.3, 25.0]],
}


def _psc1_onset(t_s):
    return {"t_s": t_s, "pattern": list(PSC1_PATTERN)}


# mode -> the modes the next trace row may show
_NEXT_MODES = {
    "po": {"po", "detect_settle"},
    "detect_settle": {"detect_settle", "detect_probe"},
    "detect_probe": {"detect_probe", "scan_up", "po"},
    "scan_up": {"scan_up", "scan_down"},
    "scan_down": {"scan_down", "settle_best"},
    "settle_best": {"settle_best", "po"},
}


def _trace_violations(path: Path, v_out: float) -> list[str]:
    """Rows of a ``trace.csv`` that break a controller invariant: the command
    leaves ``[0, v_out]``, the link voltage that caps it, the mode changes along an edge the state
    machine lacks, or the scan incumbent is not the running maximum of the
    sampled power."""
    lines = path.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    rows = [dict(zip(TRACE_HEADER.split(","), line.split(","))) for line in lines[1:]]
    bad = []
    prev = None
    for k, row in enumerate(rows, start=1):
        v_ref = float(row["v_ref"])
        if not 0.0 <= v_ref <= v_out:
            bad.append(f"row {k}: v_ref {v_ref} outside [0, {v_out}]")
        if prev is not None:
            if row["mode"] not in _NEXT_MODES[prev["mode"]]:
                bad.append(f"row {k}: {prev['mode']} -> {row['mode']}")
            scanning = ("scan_up", "scan_down")
            if prev["mode"] in scanning and row["mode"] in scanning:
                p_e = max(float(prev["p_e"]), float(row["p"]))
                if float(row["p_e"]) != p_e:
                    bad.append(f"row {k}: p_e {row['p_e']} is not the running max {p_e}")
        prev = row
    return bad


class TestCli:
    def test_run_subcommand(self, tmp_path):
        out = tmp_path / "out"
        rc = cli_main(
            [
                "run",
                "--scenario",
                str(SCENARIO_DIR / "uniform_stc.json"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert (out / "trace.csv").exists()
        assert (out / "report.json").exists()

    @pytest.mark.parametrize("run", [False, True], ids=["import", "run_psc1"])
    def test_cli_process_never_imports_scipy(self, tmp_path, run):
        # the built-in module is pinned and other datasheets are fitted
        # in-house, so neither a bare import nor a whole run loads scipy;
        # nor the process pool, which only run_corpus imports; nor numpy.ma
        # (np.unique imports it), unless numpy loads it itself (numpy<2 does)
        code = "import sys\nimport numpy\nma = 'numpy.ma' in sys.modules\nimport pvmppt.cli\n"
        if run:
            scenario = SCENARIO_DIR / "benchmark_psc1.json"
            argv = ["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]
            code += f"assert pvmppt.cli.main({argv!r}) == 0\n"
        code += "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules,\n"
        code += "      'numpy.ma' in sys.modules and not ma)\n"
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False False False"

    def test_run_po_baseline_flag(self, tmp_path):
        out = tmp_path / "po"
        rc = cli_main(
            [
                "run",
                "--scenario",
                str(SCENARIO_DIR / "uniform_stc.json"),
                "--out",
                str(out),
                "--controller",
                "po",
            ]
        )
        assert rc == 0

    @pytest.mark.parametrize(
        "extra, events",
        [
            (
                [],
                "event 0: oracle 2884.2 W @ 118.0 V, final 2883.1 W (99.96%), detected=None, scan=-\n"
                "event 1: oracle 1449.7 W @ 96.9 V, final 1448.6 W (99.92%), detected=True, "
                "scan=37.5 ms\n",
            ),
            (
                ["--controller", "po"],
                "event 0: oracle 2884.2 W @ 118.0 V, final 2883.1 W (99.96%), detected=None, scan=-\n"
                "event 1: oracle 1449.7 W @ 96.9 V, final 1260.6 W (86.96%), detected=None, scan=-\n",
            ),
        ],
        ids=["ramp", "po"],
    )
    def test_run_summary_lines(self, tmp_path, capsys, extra, events):
        out = tmp_path / "out"
        scenario = str(SCENARIO_DIR / "benchmark_psc1.json")
        assert cli_main(["run", "--scenario", scenario, "--out", str(out), *extra]) == 0
        assert capsys.readouterr().out == (
            f"{events}trace: {out / 'trace.csv'}\nreport: {out / 'report.json'}\n"
        )

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_report_is_strict_json(self, tmp_path, path):
        """Every shipped scenario runs to a strict-JSON report and a trace
        that keeps the controller invariants."""

        def reject(constant):
            raise ValueError(f"{constant} in report.json")

        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", str(path), "--out", str(out)]) == 0
        json.loads((out / "report.json").read_text(), parse_constant=reject)
        v_out = load_scenario(path).converter.v_out
        assert _trace_violations(out / "trace.csv", v_out) == []

    @pytest.mark.parametrize("v_out", [100.0, 110.0, 120.0])
    def test_low_link_voltage_still_scans_to_the_oracle(self, tmp_path, v_out):
        """A link below the rated V_oc caps every command at ``v_out``: the
        detection and the scan still finish and P&O resumes at the GMPP."""
        doc = json.loads((SCENARIO_DIR / "benchmark_psc1.json").read_text())
        doc["converter"]["v_out_v"] = v_out
        scenario = tmp_path / "psc1_low_link.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli_main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
        event = json.loads((out / "report.json").read_text())["events"][1]
        assert event["detected"] is True
        assert event["scan_duration_s"] is not None
        assert event["final_power_w"] >= 0.99 * event["oracle_power_w"]
        last = (out / "trace.csv").read_text().splitlines()[-1]
        assert dict(zip(TRACE_HEADER.split(","), last.split(",")))["mode"] == "po"
        assert _trace_violations(out / "trace.csv", v_out) == []

    def test_sweep_subcommand(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = cli_main(
            [
                "sweep",
                "--scenario",
                str(SCENARIO_DIR / "benchmark_psc1.json"),
                "--event-index",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "v,i,p"
        assert len(lines) > 1000

    def test_detect_subcommand(self, capsys):
        rc = cli_main(
            [
                "detect",
                "--scenario",
                str(SCENARIO_DIR / "benchmark_psc1.json"),
                "--event-index",
                "1",
                "--prior-irradiance",
                "1.0",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["psc"] is True

    def test_detect_dark_event_has_no_verdict(self, capsys):
        rc = cli_main(
            ["detect", "--scenario", str(SCENARIO_DIR / "dark_onset.json"), "--event-index", "1"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["psi_per_v"] is None
        assert doc["psc"] is False and doc["criteria_fired"] == [False, False, False]

    def test_run_dark_event_has_no_efficiency(self, tmp_path, capsys):
        # a dark array carries no current, so its oracle is exactly 0 W
        out = tmp_path / "out"
        scenario = str(SCENARIO_DIR / "dark_onset.json")
        assert cli_main(["run", "--scenario", scenario, "--out", str(out)]) == 0
        line = "event 1: oracle 0.0 W @ 0.0 V, final 0.0 W (-), detected=False, scan=-\n"
        assert line in capsys.readouterr().out
        event = json.loads((out / "report.json").read_text())["events"][1]
        assert event["oracle_power_w"] == 0.0 and event["efficiency"] is None

    def test_corpus_subcommand(self, tmp_path):
        out = tmp_path / "corpus.json"
        rc = cli_main(["corpus", "--count", "2", "--seed", "7", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["events_total"] >= 2

    @pytest.mark.parametrize(
        "argv, field",
        [(["--count", "-3"], "count"), (["--count", "0"], "count"), (["--jobs", "0"], "jobs")],
    )
    def test_corpus_rejects_empty_batch_or_pool(self, capsys, argv, field):
        assert cli_main(["corpus", "--count", "2", *argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field} must be at least 1")

    @pytest.mark.parametrize("command", ["sweep", "detect"])
    @pytest.mark.parametrize("index", ["5", "-1"])
    def test_event_index_outside_the_timeline(self, tmp_path, capsys, command, index):
        """psc1 has two events: 5 is past them and -1 would read the last."""
        argv = [command, "--scenario", str(SCENARIO_DIR / "benchmark_psc1.json"),
                "--event-index", index, "--out", str(tmp_path / "out")]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: event index {index} outside [0, 2): the timeline has 2 events\n"
        )
        assert not (tmp_path / "out").exists()

    def test_sweep_rejects_a_step_too_fine_to_allocate(self, tmp_path, capsys):
        """1e-7 V up to psc1's 148.5 V open-circuit voltage would be 1.5e9
        samples (11 GiB a column): refused before any is made."""
        out = tmp_path / "curve.csv"
        argv = ["sweep", "--scenario", str(SCENARIO_DIR / "benchmark_psc1.json"),
                "--v-step", "1e-7", "--out", str(out)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == (
            "error: v_step 1e-07 V gives 1484999690 samples up to the open-circuit voltage "
            "148.50 V, above the 2000000 maximum\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "detect"])
    def test_array_above_the_sweep_voltage_rejected(self, tmp_path, capsys, nd_module, command):
        """A psc1 copy with 700 modules a string (20.79 kV) passes validation;
        every command refuses it naming array.n_series, before any sweep."""
        doc = json.loads((SCENARIO_DIR / "benchmark_psc1.json").read_text())
        doc["array"]["n_series"] = 700
        doc["timeline"][0]["pattern"] = ["700-0-0"] * 3
        doc["timeline"][1]["pattern"] = ["280-280-140", "140-420-140", "420-280-0"]
        path = tmp_path / "tall.json"
        path.write_text(json.dumps(doc))
        load_scenario(path)
        out = tmp_path / "out"
        argv = [command, "--scenario", str(path), "--out", str(out)]
        assert cli_main(argv) == 2
        voc = 700 * module_open_circuit_voltage(nd_module, ModuleCondition(1.0, 25.0))
        assert capsys.readouterr().err == (
            f"error: array.n_series: 700 modules per string give timeline[0] an open-circuit "
            f"voltage of {voc:.2f} V, above the 20000 V maximum\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("prior", ["nan", "-2", "inf", "1.5"])
    def test_detect_rejects_a_prior_irradiance_off_the_scale(self, tmp_path, capsys, prior):
        out = tmp_path / "detect.json"
        argv = ["detect", "--scenario", str(SCENARIO_DIR / "benchmark_psc1.json"),
                "--event-index", "1", "--prior-irradiance", prior, "--out", str(out)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: prior irradiance s_prior {float(prior)} outside [0, 1.0]\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "edits, field",
        [
            ({("controller", "adc_period_s"): 0}, "controller.adc_period_s"),
            ({("controller", "adc_period_s"): 1e-300}, "controller.adc_period_s"),
            ({("horizon_s",): float("nan")}, "horizon_s"),
            ({("dt_s",): 1e-4}, "dt_s"),
            ({("timeline", 1, "t_s"): float("nan")}, "timeline[1].t_s"),
            ({("levels",): [1, 2, 3]}, "levels[0]"),
            ({("converter",): "x"}, "converter"),
            ({("seed",): "abc"}, "seed"),
            ({("levels", 0, 0): float("nan")}, "levels[0]"),
            ({("levels", 0, 0): 5.0}, "timeline[1].levels[0]"),
            ({("v_ref_start_v",): 300}, "v_ref_start_v"),
            ({("horizon_s",): 61.0}, "horizon_s"),
            ({("converter", "r_l_ohm"): 1e300}, "converter.r_l_ohm"),
            ({("converter", "l_h"): 1e-6}, "converter.l_h"),
            ({("converter", "c_pv_f"): 1e-6}, "converter.c_pv_f"),
            ({("converter", "v_out_v"): 1e308}, "converter.v_out_v"),
            ({("converter", "r_l_ohm"): -0.3}, "converter.r_l_ohm"),
            ({("controller", "po_step_v"): -1.0}, "controller.po_step_v"),
            ({("controller", "settle_s"): -0.02}, "controller.settle_s"),
            (
                {("controller", "detector", "periodic_trigger_s"): -5.0},
                "controller.detector.periodic_trigger_s",
            ),
            (
                {("controller", "detector", "power_change_trigger"): -0.03},
                "controller.detector.power_change_trigger",
            ),
            (
                {("controller", "detector", "psi_probe_frac"): -0.01},
                "controller.detector.psi_probe_frac",
            ),
            (
                {("controller", "detector", "psi_probe_frac"): 0.0},
                "controller.detector.psi_probe_frac",
            ),
            (
                {("controller", "detector", "periodic_trigger_s"): 0.0},
                "controller.detector.periodic_trigger_s",
            ),
            (
                {("controller", "detector", "power_change_trigger"): 0.0},
                "controller.detector.power_change_trigger",
            ),
            ({("array", "sample_module"): [9, 9]}, "array.sample_module"),
            ({("array", "n_series"): 0}, "array.n_series"),
            ({("array", "n_parallel"): 0}, "array.n_parallel"),
            (
                {("controller", "detector", "psi_probe_frac"): 1e-12},
                "controller.detector.psi_probe_frac",
            ),
            (
                {("controller", "detector", "psi_probe_frac"): 1e-300},
                "controller.detector.psi_probe_frac",
            ),
            ({("timeline", 1, "pattern"): ["2-2-2", "1-3-1", "3-2-0"]}, "timeline[1].pattern[0]"),
            ({("module", "params"): {"n_cells": 42}}, "module"),
            (
                {
                    ("array", "n_parallel"): 100,
                    ("timeline", 0, "pattern"): ["5-0-0"] * 100,
                    ("timeline", 1, "pattern"): (["2-2-1", "1-3-1", "3-2-0"] * 34)[:100],
                },
                "array.n_parallel",
            ),
            (
                {
                    ("horizon_s",): 0.5,
                    ("timeline",): [_PSC1_START, _psc1_onset(0.3), _psc1_onset(0.3005)],
                },
                "timeline[1].t_s",
            ),
            (
                {
                    ("horizon_s",): 0.5,
                    ("timeline",): [_PSC1_START, _psc1_onset(0.2999), _psc1_onset(0.3)],
                },
                "timeline[1].t_s",
            ),
            ({("horizon_s",): 0.30024}, "timeline[1].t_s"),
            ({("noise",): {"v_amplitude_v": 0.0, "i_amplitude_a": 0.0}}, "noise"),
            ({("module", "datasheet", "p_max_w"): -5.0}, "module.datasheet.p_max_w"),
            ({("module", "datasheet", "v_mpp_v"): 40.0}, "module.datasheet.v_mpp_v"),
            ({("module", "datasheet", "v_oc_v"): 1e300}, "module.datasheet"),
            ({("name",): [1, 2]}, "name"),
        ],
        ids=(
            "adc_period_zero",
            "adc_period_below_dt",
            "horizon_nan",
            "dt_above_max",
            "event_time_nan",
            "levels_not_pairs",
            "converter_not_object",
            "seed_not_integer",
            "irradiance_nan",
            "irradiance_above_stc",
            "v_ref_start_unknown",
            "horizon_above_max",
            "inductor_resistance_huge",
            "inductance_below_envelope",
            "capacitance_below_envelope",
            "link_voltage_above_envelope",
            "inductor_resistance_negative",
            "po_step_negative",
            "settle_negative",
            "periodic_trigger_negative",
            "power_change_trigger_negative",
            "probe_fraction_negative",
            "probe_fraction_zero",
            "periodic_trigger_zero",
            "power_change_trigger_zero",
            "sample_module_outside",
            "series_count_zero",
            "parallel_count_zero",
            "probe_fraction_below_floor",
            "probe_fraction_tiny",
            "pattern_counts_off_sum",
            "module_datasheet_and_params",
            "strings_beyond_integrator_slope",
            "one_tick_window",
            "same_tick_events",
            "last_window_before_horizon",
            "noise_section",
            "datasheet_power_negative",
            "datasheet_mpp_voltage_above_voc",
            "datasheet_not_calibratable",
            "name_not_string",
        ),
    )
    def test_out_of_range_timing_rejected(self, tmp_path, capsys, edits, field):
        doc = json.loads((SCENARIO_DIR / "benchmark_psc1.json").read_text())
        for path, value in edits.items():
            node = doc
            for key in path[:-1]:
                node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
            node[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = cli_main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    def test_invalid_scenario_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"name\": \"x\"}")
        rc = cli_main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2


def _json_paths(node, prefix=()):
    """Every key/index path below ``node`` (its root excluded)."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


_PSC1_DOC = json.loads((SCENARIO_DIR / "benchmark_psc1.json").read_text())
_MUTATIONS = ("drop", "nan", "negate", "huge", "string", "list", "object", "bool", "null")


def _spelled(path) -> str:
    """A key path as the loader spells it: ``a.b[1].c``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _nameable_paths(*docs) -> set[str]:
    """The paths an error about ``docs`` may name: each key path of a
    document, each prefix of one, and ``timeline[k].levels[j]`` for each root
    level that an event without levels of its own inherits."""
    paths = set()
    for doc in docs:
        paths.update(_json_paths(doc))
        levels, timeline = doc.get("levels"), doc.get("timeline")
        if isinstance(levels, list) and isinstance(timeline, list):
            for k, ev in enumerate(timeline):
                if isinstance(ev, dict) and "levels" not in ev:
                    paths.update(("timeline", k, "levels", j) for j in range(len(levels)))
    return {_spelled(p[:n]) for p in paths for n in range(1, len(p) + 1)}


def _cli_names_a_path(argv, *docs) -> int:
    """``cli_main(argv)``'s exit code, asserting that an exit 2 prints
    ``error: <path>: ...`` with a path :func:`_nameable_paths` allows."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli_main(argv)
    if rc == 2:
        text = err.getvalue()
        assert text.startswith("error: ") and ": " in text[7:], text
        assert text[7:].split(": ", 1)[0] in _nameable_paths(*docs), text
    return rc


def _mutate(node, key, how):
    if how == "drop":
        del node[key]
    elif how == "negate":
        x = node[key]
        node[key] = -x if isinstance(x, (int, float)) and not isinstance(x, bool) else -1
    else:
        node[key] = {
            "nan": math.nan, "huge": 1e300, "string": "abc", "list": [1, 2, 3],
            "object": {}, "bool": True, "null": None,
        }[how]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.sampled_from(list(_json_paths(_PSC1_DOC))), st.sampled_from(_MUTATIONS)),
        min_size=1,
        max_size=3,
    )
)
@example([(("module", "datasheet", "v_oc_v"), "huge")])  # a datasheet the fit cannot meet
def test_mutated_scenario_exits_cleanly(mutations):
    """A mangled scenario file is swept (exit 0) or rejected (exit 2) naming a
    path of the file, never a traceback."""
    doc = copy.deepcopy(_PSC1_DOC)
    for path, how in mutations:
        try:
            _mutate(functools.reduce(operator.getitem, path[:-1], doc), path[-1], how)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or replaced this path
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(doc))
        argv = ["sweep", "--scenario", str(scenario), "--out", str(Path(tmp) / "c.csv")]
        rc = _cli_names_a_path(argv, _PSC1_DOC, doc)
    assert rc in (0, 2)


# psc1 on a short horizon, with the optional controller section written
# out at its defaults so that the fuzzer mutates its fields too
_PSC1_RUN_DOC = {
    **_PSC1_DOC,
    "horizon_s": 0.32,
    "controller": {
        "po_period_s": 0.02,
        "adc_period_s": 5e-4,
        "settle_s": 0.02,
        "ramp_rate_v_per_s": 4000.0,
        "po_step_v": 1.0,
        "po_only": False,
        "detector": {
            "psi_threshold": 0.001,
            "dv_arr_threshold": 0.02,
            "dv_mod_threshold": 0.02,
            "power_change_trigger": 0.03,
            "periodic_trigger_s": 5.0,
            "psi_probe_frac": 0.01,
        },
    },
}


def test_run_fuzz_document_is_psc1_with_defaults_spelled_out():
    # psc1 at the fuzz horizon with every optional key left out
    minimal = copy.deepcopy(_PSC1_DOC)
    for key in ("converter", "seed", "dt_s"):
        del minimal[key]
    del minimal["module"]["datasheet"]["pmax_thermal_coeff_frac_per_c"]
    minimal["horizon_s"] = 0.32
    assert scenario_from_dict(copy.deepcopy(_PSC1_RUN_DOC)) == scenario_from_dict(
        {**minimal, "dt_s": 2e-5}
    )
    assert scenario_from_dict({**copy.deepcopy(_PSC1_RUN_DOC), "dt_s": 5e-6}) == scenario_from_dict(
        minimal
    )


@pytest.mark.parametrize(
    "horizon_s, dt_s, accepted",
    [(60.0, 5e-6, True), (30.0, 2.5e-6, True), (0.9, 1e-9, False), (60.0, 2.5e-6, False),
     (0.9, 5e-324, False)],
)
def test_sub_step_count_is_capped(horizon_s, dt_s, accepted):
    """A run takes at most the 1.2e7 RK4 sub-steps of a 60 s run at the
    default dt_s of 5e-6 s; a subnormal dt_s is rejected, not overflowed."""
    doc = {**copy.deepcopy(_PSC1_DOC), "horizon_s": horizon_s, "dt_s": dt_s}
    if accepted:
        assert scenario_from_dict(doc).dt_s == dt_s
    else:
        with pytest.raises(ScenarioError, match=r"^dt_s: .* above the 12000000 maximum$"):
            scenario_from_dict(doc)


# psc1 with its module given as the calibrated single-diode parameters (the
# repr of calibrate_module(ND195R1S)) instead of the datasheet
_PSC1_PARAMS_DOC = {
    **_PSC1_DOC,
    "module": {
        "params": {
            "i_pv_ref_a": 8.681265923739051,
            "i_o_ref_a": 5.544017603266658e-09,
            "ideality_a": 1.3,
            "r_s_ohm": 0.2684770425842948,
            "r_sh_ohm": 99999999.99999982,
            "n_cells": 42,
        }
    },
}


def test_module_params_run_matches_datasheet_twin(tmp_path):
    scn = scenario_from_dict(copy.deepcopy(_PSC1_PARAMS_DOC))
    assert scn.datasheet is None and scn.params == calibrate_module(ND195R1S)
    outputs = []
    for tag, doc in (("datasheet", _PSC1_DOC), ("params", _PSC1_PARAMS_DOC)):
        scenario = tmp_path / f"{tag}.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / tag
        assert cli_main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("report.json", "trace.csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("i_pv_ref", [-8.68, 0, 1e-9])
def test_non_positive_photocurrent_exits_naming_the_params(tmp_path, capsys, i_pv_ref):
    """A module with no photocurrent, or one too small to give any power at a
    commissioning condition, is an error of ``module.params``."""
    doc = copy.deepcopy(_PSC1_PARAMS_DOC)
    doc["module"]["params"]["i_pv_ref_a"] = i_pv_ref
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    for argv in (["run", "--out", str(tmp_path / "o")], ["detect", "--event-index", "1"]):
        assert cli_main([*argv, "--scenario", str(scenario)]) == 2
        assert capsys.readouterr().err.startswith("error: module.params")


@pytest.mark.parametrize("n_cells", [0, -3])
def test_cell_count_below_one_exits_naming_it(tmp_path, capsys, n_cells):
    doc = copy.deepcopy(_PSC1_PARAMS_DOC)
    doc["module"]["params"]["n_cells"] = n_cells
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    for argv in (["run", "--out", str(tmp_path / "o")], ["detect", "--event-index", "1"]):
        assert cli_main([*argv, "--scenario", str(scenario)]) == 2
        assert capsys.readouterr().err.startswith("error: module.params.n_cells: ")


@pytest.mark.parametrize(
    "key, value, field, command",
    [
        ("i_pv_ref_a", 1e6, "array.n_parallel", "run"),  # a slope the integrator cannot step
        ("i_o_ref_a", 1e-300, "module.params", "run"),  # no open-circuit root in the bracket
        ("r_s_ohm", 1e300, "module.params", "run"),  # no string sample above the bypass clamp
        ("r_s_ohm", 1e300, "module.params", "sweep"),  # likewise, with no commissioning
        ("i_pv_ref_a", 1e300, "array.n_series", "run"),  # an infinite open-circuit voltage
    ],
)
def test_module_the_model_cannot_solve_exits_naming_it(
    tmp_path, capsys, key, value, field, command
):
    doc = copy.deepcopy(_PSC1_PARAMS_DOC)
    doc["module"]["params"][key] = value
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    argv = [command, "--out", str(tmp_path / "o"), "--scenario", str(scenario)]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_module_with_a_steep_short_circuit_root_runs(tmp_path):
    """A 1000 ohm series resistance makes the short-circuit current a steep
    exponential root, which the solver's bisection fallback finds: the run
    writes a report whose numbers are all finite, every efficiency at most 1."""
    doc = copy.deepcopy(_PSC1_PARAMS_DOC)
    doc["module"]["params"]["r_s_ohm"] = 1000
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    assert cli_main(["run", "--out", str(tmp_path / "o"), "--scenario", str(scenario)]) == 0
    events = json.loads((tmp_path / "o" / "report.json").read_text())["events"]

    def numbers(x):
        if isinstance(x, dict):
            return [n for v in x.values() for n in numbers(v)]
        if isinstance(x, list):
            return [n for v in x for n in numbers(v)]
        return [x] if isinstance(x, (int, float)) and not isinstance(x, bool) else []

    assert len(events) == 2 and all(math.isfinite(n) for n in numbers(events))
    assert all(0.0 < e["efficiency"] <= 1.0 for e in events)
    # the string curves drop every fully clamped sample, so the array carries
    # no current above its rated short circuit for the down-leg prune to miss
    e = events[1]
    curve = sweep_curve(base_array_spec(load_scenario(scenario), 1), 0.01)
    assert prune_violations(curve, e["prunes"]) == []
    assert e["final_power_w"] >= 0.99 * e["oracle_power_w"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.sampled_from(list(_json_paths(_PSC1_RUN_DOC))), st.sampled_from(_MUTATIONS)),
        min_size=1,
        max_size=3,
    )
)
@example([(("converter", "r_l_ohm"), "huge")])
def test_mutated_scenario_runs_or_exits_cleanly(mutations):
    """A mangled scenario file runs the closed loop (exit 0) or is rejected
    (exit 2) naming a path of the file."""
    doc = copy.deepcopy(_PSC1_RUN_DOC)
    for path, how in mutations:
        try:
            _mutate(functools.reduce(operator.getitem, path[:-1], doc), path[-1], how)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or replaced this path
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(doc))
        argv = ["run", "--scenario", str(scenario), "--out", str(Path(tmp) / "o")]
        rc = _cli_names_a_path(argv, _PSC1_RUN_DOC, doc)
    assert rc in (0, 2)


def test_misspelled_key_exits_naming_its_path(tmp_path, capsys):
    """Every object key of the run and params documents, renamed with its last
    letter doubled, makes ``pvmppt run`` exit 2 with an error naming the key."""
    params_paths = [p for p in _json_paths(_PSC1_PARAMS_DOC) if p[0] == "module"]
    bad = []
    run_paths = list(_json_paths(_PSC1_RUN_DOC))
    for base, paths in ((_PSC1_RUN_DOC, run_paths), (_PSC1_PARAMS_DOC, params_paths)):
        for path in paths:
            if not isinstance(path[-1], str):
                continue
            doc = copy.deepcopy(base)
            node = functools.reduce(operator.getitem, path[:-1], doc)
            node[path[-1] + path[-1][-1]] = node.pop(path[-1])
            scenario = tmp_path / "scenario.json"
            scenario.write_text(json.dumps(doc))
            rc = cli_main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
            err = capsys.readouterr().err
            named = err.removeprefix("error: ").split(": ", 1)[0]
            if rc != 2 or not err.startswith("error: ") or path[-1] not in named:
                bad.append((path, rc, err))
    assert bad == []
