"""Controller tests: references, PSI, detector logic, P&O, ramp scan."""

import math
import random
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvmppt.control import (
    PSI_PROBE_FRAC_MIN,
    TICK_MAX,
    ControllerConfig,
    Detection,
    DetectorConfig,
    Measurement,
    Mode,
    ReferenceModel,
    ScanEpisode,
    check_samples,
    compute_psi,
    controller_tick,
    criteria_fired,
    deadline_tick,
    detection_verdict,
    make_controller_state,
    po_step,
    resume_tick,
    scan_step,
    update_references,
)
from pvmppt.converter import ConverterParams
from pvmppt.harness import (
    ShadingPattern,
    base_array_spec,
    load_scenario,
)
from pvmppt.pvmodel import (
    ND195R1S,
    ND195R1S_PARAMS,
    STC,
    ArraySpec,
    ModuleCondition,
    ValidationError,
    module_voltage,
    oracle_gmpp,
    string_current,
    sweep_curve,
)

from oracles import array_current, first_tick_over, scalar_string_current

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# the default link voltage, the command cap of the states built here
V_LINK = ConverterParams().v_out


def simple_ref(**overrides) -> ReferenceModel:
    fields = dict(
        v_mpp_arr_sc=118.0,
        v_mpp_mod_sc=23.6,
        rho=-0.00329,
        v_oc_arr_rated=148.5,
        i_sc_rated=26.04,
        i_mpp_arr_sc=24.44,
        # a neutral irradiance correction: no shift at any current or temperature
        irr_t_rows=(0.0, 50.0),
        irr_ln_ratio=((-1.0, 0.0),) * 2,
        irr_dv_arr=((0.0, 0.0),) * 2,
    )
    fields.update(overrides)
    return ReferenceModel(**fields)


def state_at(v_ref: float):
    s = make_controller_state(simple_ref(), ControllerConfig(), V_LINK)
    s.v_ref = v_ref
    return s


class TestUpdateReferences:
    def test_standard_temperature_is_identity(self):
        v_arr, v_mod = update_references(simple_ref(), 25.0)
        assert v_arr == 118.0
        assert v_mod == 23.6

    def test_hotter_module_lowers_references(self):
        v_arr, v_mod = update_references(simple_ref(), 35.0)
        assert v_mod == pytest.approx(23.6 * (1.0 - 0.00329 * 10.0))
        assert v_mod == pytest.approx(22.82, abs=0.01)
        assert v_arr == pytest.approx(118.0 * (1.0 - 0.00329 * 10.0))

    def test_zero_coefficient_keeps_sc_values(self):
        ref = simple_ref(rho=0.0)
        for t in (-10.0, 25.0, 60.0):
            assert update_references(ref, t) == (118.0, 23.6)

    def test_positive_coefficient_rejected(self):
        with pytest.raises(ValidationError):
            simple_ref(rho=0.001)

    @staticmethod
    def _table(rows, dvs):
        """A reference whose table shifts by ``dvs[k]`` at every current in row k."""
        flat = tuple((dv, dv) for dv in dvs)
        return simple_ref(rho=0.0, irr_t_rows=rows, irr_ln_ratio=((-1.0, 0.0),) * len(rows),
                          irr_dv_arr=flat)

    @pytest.mark.parametrize("t, dv", [(-30.0, 0.0), (0.0, 1.0), (15.0, 1.5), (30.0, 2.0),
                                       (45.0, 3.0), (60.0, 4.0), (90.0, 6.0)])
    def test_table_interpolates_between_its_two_nearest_rows(self, t, dv):
        """Inside the rows the two around ``t``; outside, the two end rows
        extrapolated."""
        ref = self._table((0.0, 30.0, 60.0), (1.0, 2.0, 4.0))
        assert update_references(ref, t, i_arr=ref.i_mpp_arr_sc)[0] == 118.0 + dv

    @pytest.mark.parametrize("rows", [(), (25.0,), (30.0, 0.0, 60.0), (0.0, 30.0, 30.0)])
    def test_table_needs_two_rising_rows(self, rows):
        with pytest.raises(ValidationError, match="two or more rows"):
            self._table(rows, (1.0,) * len(rows))

    def test_irradiance_correction_lowers_reference_at_low_current(self, ref_3x5):
        full_arr, full_mod = update_references(ref_3x5, 25.0, i_arr=ref_3x5.i_mpp_arr_sc)
        low_arr, low_mod = update_references(ref_3x5, 25.0, i_arr=0.1 * ref_3x5.i_mpp_arr_sc)
        assert low_arr < full_arr
        # the correction splits over the series modules
        assert (full_arr - low_arr) / (full_mod - low_mod) == pytest.approx(
            ref_3x5.v_mpp_arr_sc / ref_3x5.v_mpp_mod_sc, rel=1e-9
        )

    def test_correction_tracks_actual_mpp(self, nd_module, ref_3x5):
        # reference follows the model's true MPP within the detector margin
        for s in (0.15, 0.4, 0.8):
            for t in (5.0, 25.0, 50.0):
                spec = ArraySpec.uniform(nd_module, 5, 3, ModuleCondition(s, t))
                v_true, p_true = oracle_gmpp(sweep_curve(spec, 0.02))
                v_ref, _ = update_references(ref_3x5, t, i_arr=p_true / v_true)
                assert abs(v_ref - v_true) / v_true < 0.005


class TestComputePsi:
    def test_uniform_standard_conditions_near_zero(self, nd_module, ref_3x5):
        spec = ArraySpec.uniform(nd_module, 5, 3)
        curve = sweep_curve(spec, 0.01)
        v0 = ref_3x5.v_mpp_arr_sc
        dv = 0.01 * v0
        psi = compute_psi(
            (v0 - dv, float(curve.power_at(v0 - dv))),
            (v0 + dv, float(curve.power_at(v0 + dv))),
        )
        assert abs(psi) < 0.001

    def test_bypassed_minority_gives_negative_psi(self, nd_module, ref_3x5):
        # insolated majority in its constant-voltage region at the
        # reference: local MPP sits below, slope is negative
        hs = ModuleCondition(1.0, 25.0)
        for s_sh in (0.05, 0.02):
            ls = ModuleCondition(s_sh, 25.0)
            spec = ArraySpec(5, 1, nd_module, ((hs, hs, hs, hs, ls),))
            curve = sweep_curve(spec, 0.01)
            v0 = ref_3x5.v_mpp_arr_sc
            dv = 0.01 * v0
            psi = compute_psi(
                (v0 - dv, float(curve.power_at(v0 - dv))),
                (v0 + dv, float(curve.power_at(v0 + dv))),
            )
            assert psi < 0.0

    def test_dark_array_rejected(self):
        with pytest.raises(ValidationError):
            compute_psi((117.0, 0.0), (119.0, 0.0))

    def test_coincident_probes_rejected(self):
        with pytest.raises(ValidationError):
            compute_psi((118.0, 100.0), (118.0, 101.0))

    def test_matches_central_difference(self):
        psi = compute_psi((117.0, 1000.0), (119.0, 1010.0))
        assert psi == pytest.approx(10.0 / (2.0 * 1005.0))


class TestDetectPsc:
    def test_all_below_thresholds(self):
        assert not any(criteria_fired(0.0005, 0.01, 0.01, DetectorConfig()))

    @pytest.mark.parametrize(
        "psi,dv_arr,dv_mod",
        [(0.0011, 0.0, 0.0), (0.0, 0.021, 0.0), (0.0, 0.0, -0.021)],
    )
    def test_single_criterion_suffices(self, psi, dv_arr, dv_mod):
        assert any(criteria_fired(psi, dv_arr, dv_mod, DetectorConfig()))

    def test_fired_flags_match_thresholds(self):
        cfg = DetectorConfig()
        assert criteria_fired(0.002, 0.01, 0.05, cfg) == (True, False, True)

    def test_negative_values_use_magnitude(self):
        assert any(criteria_fired(-0.002, 0.0, 0.0, DetectorConfig()))


class TestDetectionVerdict:
    @pytest.mark.parametrize(
        "v_rest, v_sample_mod, p_hi",
        [
            (120.0, 24.0, 1000.0),  # nothing fires
            (120.0, 24.0, 1010.0),  # psi
            (110.0, 24.0, 1000.0),  # dv_arr
            (120.0, 30.0, 1000.0),  # dv_mod
            (110.0, 30.0, 900.0),  # all three
        ],
    )
    def test_verdict_from_readings(self, v_rest, v_sample_mod, p_hi):
        cfg = DetectorConfig()
        lo, hi = (118.8, 1000.0), (121.2, p_hi)
        out = Detection(v_rest, 120.0, 24.0, v_sample=v_sample_mod, lo=lo)
        assert detection_verdict(out, hi, cfg, t=0.5) is None  # completed in place
        assert (out.v_sample, out.lo) == (v_sample_mod, lo)
        assert out.psi == compute_psi(lo, hi)
        assert out.dv_arr_ratio == (v_rest - 120.0) / 120.0
        assert out.dv_mod_ratio == (v_sample_mod - 24.0) / 24.0
        assert out.fired == criteria_fired(out.psi, out.dv_arr_ratio, out.dv_mod_ratio, cfg)
        assert out.is_psc == any(out.fired)
        assert (out.t, out.v_rest, out.v_mpp_arr_updated, out.v_mpp_mod_updated) == (
            0.5, v_rest, 120.0, 24.0
        )

    def test_dark_probes_give_no_verdict(self):
        # readings that would fire dv_arr and dv_mod, but no probe power
        out = Detection(110.0, 120.0, 24.0, v_sample=0.0, lo=(118.8, 0.0))
        detection_verdict(out, (121.2, 0.0), DetectorConfig())
        assert out.psi is None
        assert out.fired == (False, False, False) and out.is_psc is False
        assert out.to_dict()["psi_per_v"] is None

    def test_static_verdict_has_no_time_and_prints_eight_keys(self):
        out = Detection(120.0, 120.0, 24.0, v_sample=24.0, lo=(118.8, 1.0))
        detection_verdict(out, (121.2, 1.0), DetectorConfig())
        assert math.isnan(out.t)
        assert list(out.to_dict()) == [
            "psi_per_v", "dv_arr_ratio", "dv_mod_ratio", "criteria_fired", "psc",
            "v_rest_v", "v_mpp_arr_updated_v", "v_mpp_mod_updated_v",
        ]


class TestPoStep:
    def make_state(self):
        s = state_at(100.0)
        s.last_power = 1000.0
        return s

    def test_rising_power_keeps_direction(self):
        s = self.make_state()
        m = Measurement(v=100.0, i=10.1, t=0.02)  # p = 1010 > 1000
        assert po_step(s, m, 1.0) is None  # the state is changed in place
        assert s.po_direction == 1
        assert s.v_ref == 101.0

    def test_falling_power_reverses(self):
        s = self.make_state()
        m = Measurement(v=100.0, i=9.9, t=0.02)  # p = 990 < 1000
        po_step(s, m, 1.0)
        assert s.po_direction == -1
        assert s.v_ref == 99.0

    def test_settles_within_two_steps_of_peak(self, nd_module):
        # ideal converter: the array sits exactly at the command
        spec = ArraySpec.uniform(nd_module, 5, 1)
        curve = sweep_curve(spec, 0.01)
        v_star, _ = oracle_gmpp(curve)
        s = state_at(105.0)
        step = 1.0
        visits = []
        for k in range(60):
            m = Measurement(v=s.v_ref, i=float(curve.current_at(s.v_ref)), t=0.02 * k)
            po_step(s, m, step)
            visits.append(s.v_ref)
        assert all(abs(v - v_star) <= 2.0 * step for v in visits[-8:])


class TestScanStep:
    def scan_state(self, mode=Mode.SCAN_UP):
        from pvmppt.control import ScanEpisode

        s = state_at(118.0)
        s.mode = mode
        s.episode = ScanEpisode(t_start=0.0, v_e=118.0, p_e=1500.0, floor_v=23.0)
        return s

    def test_best_updates_on_higher_power(self):
        s = self.scan_state()
        m = Measurement(v=120.0, i=14.0, t=0.0)
        assert scan_step(s, m, simple_ref(), ControllerConfig()) is None  # changed in place
        assert s.episode.p_e == pytest.approx(1680.0)
        assert s.episode.v_e == 120.0

    def test_up_ramp_advances_by_rate_times_period(self):
        s = self.scan_state()
        scan_step(s, Measurement(v=118.0, i=13.0, t=0.0), simple_ref(), ControllerConfig())
        assert s.v_ref == pytest.approx(120.0)
        assert s.mode is Mode.SCAN_UP

    def test_up_prune_when_ceiling_beats_nothing(self):
        # V_oc_rated * I < P_e: no higher voltage can beat the incumbent
        s = self.scan_state()
        m = Measurement(v=130.0, i=1500.0 / 148.5 * 0.99, t=0.0)
        scan_step(s, m, simple_ref(), ControllerConfig())
        assert s.mode is Mode.SCAN_DOWN
        assert s.episode.prunes and s.episode.prunes[0]["kind"] == "up"

    def test_up_terminates_at_rated_voc(self):
        s = self.scan_state()
        m = Measurement(v=148.6, i=12.0, t=0.0)
        scan_step(s, m, simple_ref(), ControllerConfig())
        assert s.mode is Mode.SCAN_DOWN
        assert not s.episode.prunes  # boundary stop, not a prune

    def test_up_turns_down_at_the_command_cap(self):
        # a 120 V command cap below the 148.5 V rated V_oc ends the up leg there
        s = self.scan_state()
        s.v_cmd_max = 120.0
        cfg = ControllerConfig()
        scan_step(s, Measurement(v=118.0, i=12.0, t=0.0), simple_ref(), cfg)
        assert s.v_ref == 120.0 and s.mode is Mode.SCAN_UP
        scan_step(s, Measurement(v=119.0, i=12.0, t=5e-4), simple_ref(), cfg)
        assert s.v_ref == 120.0 and s.mode is Mode.SCAN_DOWN
        assert not s.episode.prunes

    def test_down_prune_when_floor_current_beats_nothing(self):
        # V * I_sc_rated < P_e: no lower voltage can beat the incumbent
        s = self.scan_state(Mode.SCAN_DOWN)
        m = Measurement(v=1490.0 / 26.04, i=12.0, t=0.0)
        scan_step(s, m, simple_ref(), ControllerConfig())
        assert s.mode is Mode.SETTLE_TO_BEST
        assert s.episode.prunes and s.episode.prunes[0]["kind"] == "down"

    def test_down_stops_at_module_reference_floor(self):
        s = self.scan_state(Mode.SCAN_DOWN)
        s.episode.p_e = 100.0  # keep the current-bound prune quiet
        m = Measurement(v=22.9, i=5.0, t=0.0)
        scan_step(s, m, simple_ref(), ControllerConfig())
        assert s.mode is Mode.SETTLE_TO_BEST

    def test_best_power_never_decreases_within_episode(self):
        s = self.scan_state()
        rnd = random.Random(5)
        best = s.episode.p_e
        for k in range(200):
            m = Measurement(v=rnd.uniform(20, 148), i=rnd.uniform(0, 25), t=k * 5e-4)
            scan_step(s, m, simple_ref(), ControllerConfig())
            assert s.episode.p_e >= best
            best = s.episode.p_e
            if s.mode is Mode.SETTLE_TO_BEST:
                break


class IdealPlantDriver:
    """Ticks the controller against a static curve with perfect tracking."""

    def __init__(self, spec, ref, cfg):
        self.spec = spec
        self.curve = sweep_curve(spec, 0.01)
        self.ref = ref
        self.cfg = cfg
        self.state = make_controller_state(ref, cfg, V_LINK)
        self.tick = 0
        self.v = 0.0
        self.modes = []
        self.sample_reads = []  # (mode, trimmed, seed) at each sample-module read

    def measurement(self):
        self.v = self.state.v_ref
        i = float(self.curve.current_at(self.v))
        s_idx, pos = self.spec.sample_module
        t_samp = self.spec.conditions[s_idx][pos].temperature
        t = self.tick * self.cfg.adc_period_s
        return Measurement(v=self.v, i=i, t=t, t_sample_mod=t_samp)

    def read_sample_module(self):
        r = self.state.detection
        self.sample_reads.append((self.state.mode, r.trimmed, r.seed))
        s_idx, pos = self.spec.sample_module
        i_str = string_current(self.spec, s_idx, self.v)
        return module_voltage(self.spec.module, self.spec.conditions[s_idx][pos], i_str)

    def run(self, seconds):
        n = round(seconds / self.cfg.adc_period_s)
        for _ in range(n):
            controller_tick(
                self.state, self.tick, self.measurement(), self.cfg, self.ref,
                self.read_sample_module,
            )
            self.modes.append(self.state.mode)
            self.tick += 1
        return self.state


class TestControllerTick:
    def test_uniform_conditions_never_scan(self, nd_module, ref_3x5):
        spec = ArraySpec.uniform(nd_module, 5, 3, sample_module=(0, 2))
        drv = IdealPlantDriver(spec, ref_3x5, ControllerConfig())
        drv.run(1.0)
        assert Mode.SCAN_UP not in drv.modes
        assert Mode.SCAN_DOWN not in drv.modes

    def test_periodic_trigger_runs_detection_without_scan(self, nd_module, ref_3x5):
        cfg = ControllerConfig(detector=DetectorConfig(periodic_trigger_s=0.3))
        spec = ArraySpec.uniform(nd_module, 5, 3, sample_module=(0, 2))
        drv = IdealPlantDriver(spec, ref_3x5, cfg)
        drv.run(1.0)
        assert Mode.DETECT_PROBE in drv.modes
        assert Mode.SCAN_UP not in drv.modes
        assert all(not d.is_psc for d in drv.state.detections)

    def test_sample_module_read_once_per_detection(self, nd_module, ref_3x5):
        cfg = ControllerConfig(detector=DetectorConfig(periodic_trigger_s=0.3))
        spec = ArraySpec.uniform(nd_module, 5, 3, sample_module=(0, 2))
        drv = IdealPlantDriver(spec, ref_3x5, cfg)
        drv.run(1.0)
        assert len(drv.sample_reads) == len(drv.state.detections) >= 2
        assert set(drv.sample_reads) == {(Mode.DETECT_SETTLE, True, None)}

    def test_po_only_never_leaves_po(self, nd_module, ref_3x5):
        cfg = ControllerConfig(po_only=True, detector=DetectorConfig(periodic_trigger_s=0.1))
        spec = ArraySpec.uniform(nd_module, 5, 3, sample_module=(0, 2))
        drv = IdealPlantDriver(spec, ref_3x5, cfg)
        drv.run(0.5)
        assert set(drv.modes) == {Mode.PO}

    def test_shading_onset_full_mode_sequence(self, nd_module, ref_3x5):
        cfg = ControllerConfig()
        uniform = ArraySpec.uniform(nd_module, 5, 3, sample_module=(0, 2))
        drv = IdealPlantDriver(uniform, ref_3x5, cfg)
        drv.run(0.2)
        assert drv.state.mode is Mode.PO
        drv.spec = base_array_spec(load_scenario(SCENARIO_DIR / "benchmark_psc1.json"), 1)
        drv.curve = sweep_curve(drv.spec, 0.01)
        drv.run(0.5)

        modes = drv.modes
        order = [Mode.PO, Mode.DETECT_SETTLE, Mode.DETECT_PROBE, Mode.SCAN_UP,
                 Mode.SCAN_DOWN, Mode.SETTLE_TO_BEST, Mode.PO]
        positions = []
        start = 0
        for mode in order:
            idx = next((j for j in range(start, len(modes)) if modes[j] is mode), None)
            assert idx is not None, f"mode {mode} missing from sequence"
            positions.append(idx)
            start = idx
        assert positions == sorted(positions)

        # converged back near the true global MPP
        v_star, p_star = oracle_gmpp(drv.curve)
        final_p = float(drv.curve.power_at(drv.state.v_ref))
        assert final_p >= 0.99 * p_star

    def test_one_record_per_detection(self, nd_module, ref_3x5):
        """The record set on ``state.detection`` at a trigger is the one
        appended to ``state.detections`` at its verdict, and ``detection``
        is None on every tick outside a detection."""
        uniform = ArraySpec.uniform(nd_module, 5, 3, sample_module=(0, 2))
        drv = IdealPlantDriver(uniform, ref_3x5, ControllerConfig())
        drv.run(0.2)
        drv.spec = base_array_spec(load_scenario(SCENARIO_DIR / "benchmark_psc1.json"), 1)
        drv.curve = sweep_curve(drv.spec, 0.01)
        s = drv.state
        opened, judged = [], []
        for _ in range(round(0.5 / drv.cfg.adc_period_s)):
            before, n_before = s.detection, len(s.detections)
            drv.run(drv.cfg.adc_period_s)  # one tick
            detecting = s.mode in (Mode.DETECT_SETTLE, Mode.DETECT_PROBE)
            assert (s.detection is not None) == detecting
            if before is None and s.detection is not None:
                opened.append(s.detection)
                assert len(s.detections) == n_before and math.isnan(s.detection.t)
            elif before is not None:
                assert s.detection in (before, None)
                if s.detection is None:
                    judged.append(s.detections[-1])
                    assert len(s.detections) == n_before + 1
                else:
                    assert len(s.detections) == n_before
        assert len(opened) == len(judged) == 1 and opened[0] is judged[0]
        d = judged[0]
        assert d.is_psc and d.t == s.episodes[-1].t_start
        assert d.seed is not None and d.lo is not None and d.psi is not None

    def test_scan_episode_tick_budget(self, nd_module, ref_3x5):
        # liveness: both ramp legs fit in the worst-case tick budget
        cfg = ControllerConfig()
        uniform = ArraySpec.uniform(nd_module, 5, 3, sample_module=(0, 2))
        drv = IdealPlantDriver(uniform, ref_3x5, cfg)
        drv.run(0.2)
        drv.spec = base_array_spec(load_scenario(SCENARIO_DIR / "benchmark_psc4.json"), 1)
        drv.curve = sweep_curve(drv.spec, 0.01)
        drv.run(0.6)
        ep = drv.state.episodes[-1]
        v_mod_floor = update_references(ref_3x5, 25.0)[1]
        budget = 2.0 * (ref_3x5.v_oc_arr_rated - v_mod_floor) / cfg.ramp_rate_v_per_s
        assert (ep.ticks_up + ep.ticks_down) * cfg.adc_period_s <= budget + 2 * cfg.adc_period_s


class TestResumeTick:
    CFG = ControllerConfig()

    def _state(self, mode=Mode.PO, **fields):
        s = make_controller_state(simple_ref(), self.CFG, V_LINK)
        s.mode = mode
        for name, value in fields.items():
            setattr(s, name, value)
        return s

    def test_po_waits_for_its_next_step(self):
        s = self._state()
        assert s.deadline == resume_tick(s) == 40  # po_period_s 0.02 at adc_period_s 5e-4
        m = Measurement(v=118.0, i=24.0, t=39 * self.CFG.adc_period_s)
        assert controller_tick(s, 39, m, self.CFG, simple_ref(), None) == 118.0
        assert s.last_power != s.last_power and s.deadline == 40  # untouched
        controller_tick(s, 40, replace(m, t=0.02), self.CFG, simple_ref(), None)
        assert s.last_power == m.p and s.deadline == 80

    @pytest.mark.parametrize("mode", [Mode.DETECT_SETTLE, Mode.DETECT_PROBE, Mode.SETTLE_TO_BEST])
    def test_settle_waits_without_a_slew_target(self, mode):
        assert resume_tick(self._state(mode, deadline=200)) == 200
        assert resume_tick(self._state(mode, deadline=200, slew_target=90.0)) == 0

    @pytest.mark.parametrize("mode", [Mode.SCAN_UP, Mode.SCAN_DOWN])
    def test_scan_acts_on_every_tick(self, mode):
        assert resume_tick(self._state(mode, deadline=200)) == 0

    @pytest.mark.parametrize("v_cmd_max, v_start", [(100.0, 100.0), (250.0, 118.0)])
    def test_start_command_lies_inside_the_cap(self, v_cmd_max, v_start):
        """The start command is the reference MPP voltage, or the link below
        it, so the first P&O wait holds a command the tick's clamp keeps."""
        cfg = self.CFG
        s = make_controller_state(simple_ref(), cfg, v_cmd_max)
        assert s.v_ref == v_start
        assert 0 < resume_tick(s)
        cmd = controller_tick(s, 0, Measurement(v=50.0, i=5.0, t=0.0), cfg, simple_ref(), None)
        assert cmd == s.v_ref == v_start


_ADCS = st.one_of(
    st.sampled_from((5e-4, 1e-4, 2e-5, 1e-3, 3e-4, 7e-4, 0.0123456, 1e-3 / 3)),
    st.floats(1e-6, 0.05),
)


@st.composite
def _waits(draw, adc):
    """A wait of k ticks, within the 1e-12 s tolerance of it, between two
    ticks, one a scenario sets, or one past every run."""
    k = draw(st.integers(0, 300))
    return draw(st.one_of(
        st.sampled_from((0.0, -1e-12, 1e-12, -2e-12, 2e-12, -5e-13, 5e-13)).map(
            lambda off: k * adc + off
        ),
        st.sampled_from((0.3, -0.3, 0.5, 0.999)).map(lambda frac: (k + frac) * adc),
        st.sampled_from((0.0123456, 0.0077, 0.02, 1e300)),
    ))


_START_TICKS = st.one_of(st.just(0), st.integers(0, 2000), st.integers(0, 12_000_000))


def _oracle_limit(tick: int, wait_s: float, adc: float) -> int:
    """How far past ``tick`` the oracle looks: a few ticks past the wait, or
    2000 ticks for a wait longer than that."""
    return tick + min(int(wait_s / adc) + 5, 2000)


class TestDeadlineTick:
    """The stored deadline is the first tick on which the float wait rule
    (``oracles.float_wait_over``) is over."""

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(data=st.data(), tick=_START_TICKS)
    def test_first_tick_the_float_rule_acts_on(self, data, tick):
        adc = data.draw(_ADCS)
        wait = data.draw(_waits(adc))
        limit = _oracle_limit(tick, wait, adc)
        want = first_tick_over(tick, wait, adc, limit)
        got = deadline_tick(tick, wait, adc)
        if want is None:
            assert limit <= got <= TICK_MAX
        else:
            assert got == want

    def test_a_wait_past_every_run_holds_to_the_last_tick(self):
        assert deadline_tick(0, 1e300, 5e-4) == TICK_MAX
        assert deadline_tick(12_000_000, 1.7e308, 1e-300) == TICK_MAX

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), tick=_START_TICKS,
           mode=st.sampled_from((Mode.PO, Mode.DETECT_SETTLE, Mode.SETTLE_TO_BEST)))
    def test_each_wait_stores_its_rule(self, data, tick, mode):
        """A P&O step stores its next step, and arrival on a slew target
        stores the settle, by the one float rule: in a detection as in the
        settle to the best point."""
        adc = data.draw(_ADCS)
        wait = data.draw(_waits(adc))
        if mode is Mode.PO:
            cfg = ControllerConfig(adc_period_s=adc, po_period_s=max(wait, adc), po_only=True)
            wait, fields = cfg.po_period_s, {"deadline": tick}
        else:
            cfg = ControllerConfig(adc_period_s=adc, po_period_s=1e300, settle_s=max(wait, 0.0))
            wait, fields = cfg.settle_s, {"slew_target": 100.0, "v_ref": 100.0}
        s = make_controller_state(simple_ref(), cfg, V_LINK)
        s.mode = mode
        for name, value in fields.items():
            setattr(s, name, value)
        s.detection = Detection(118.0, 118.0, 23.6)
        s.episode = ScanEpisode(0.0, 100.0, 2000.0, floor_v=23.6)
        m = Measurement(v=100.0, i=20.0, t=tick * adc)
        controller_tick(s, tick, m, cfg, simple_ref(), None)
        limit = _oracle_limit(tick, wait, adc)
        want = first_tick_over(tick, wait, adc, limit)
        assert s.mode is mode and math.isnan(s.slew_target)
        if want is None:
            assert limit <= s.deadline <= TICK_MAX
        else:
            assert s.deadline == want

    @pytest.mark.parametrize("mode", [Mode.DETECT_SETTLE, Mode.SETTLE_TO_BEST])
    def test_a_default_settle_lasts_40_ticks_from_any_start_tick(self, mode):
        """At the defaults (a 20 ms settle, 0.5 ms ticks) a settle started on
        any tick of a 60 s run ends 40 ticks later.  Without the 1e-12 s
        tolerance, 25,320 of the 120,000 would end 41 ticks later."""
        cfg = ControllerConfig()
        s = make_controller_state(simple_ref(), cfg, V_LINK)
        s.mode = mode
        s.detection = Detection(118.0, 118.0, 23.6)
        s.episode = ScanEpisode(0.0, 100.0, 2000.0, floor_v=23.6)
        waits = set()
        for tick in range(round(60.0 / cfg.adc_period_s)):
            s.slew_target = s.v_ref
            m = Measurement(v=100.0, i=20.0, t=tick * cfg.adc_period_s)
            controller_tick(s, tick, m, cfg, simple_ref(), None)
            waits.add(s.deadline - tick)
        assert s.mode is mode and waits == {40}


class TestPsiWeightedAverage:
    def test_array_psi_is_power_weighted_string_psi(self, nd_module, ref_3x5):
        rnd = random.Random(11)
        v0 = ref_3x5.v_mpp_arr_sc
        dv = 0.01 * v0
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
            spec = ArraySpec(5, 3, nd_module, pat.expand(5), sample_module=(0, 2))

            def p_of(v):
                return v * array_current(spec, v)

            psi_arr = compute_psi((v0 - dv, p_of(v0 - dv)), (v0 + dv, p_of(v0 + dv)))
            num = den = 0.0
            for s in range(3):
                p1 = (v0 - dv) * scalar_string_current(spec, s, v0 - dv)
                p2 = (v0 + dv) * scalar_string_current(spec, s, v0 + dv)
                p_mid = 0.5 * (p1 + p2)
                if p_mid <= 0.0:
                    continue
                num += compute_psi((v0 - dv, p1), (v0 + dv, p2)) * p_mid
                den += p_mid
            assert psi_arr == pytest.approx(num / den, rel=1e-3)


def _float_fields(*instances):
    """``(instance, name)`` for every float field of each instance's class."""
    return [(x, f.name) for x in instances for f in fields(x) if f.type == "float"]


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestConfigValidation:
    # rho, a temperature coefficient, may be negative
    @pytest.mark.parametrize("value", [-1.0, *NON_FINITE])
    @pytest.mark.parametrize(
        "base, name",
        [
            (base, name)
            for base, name in _float_fields(DetectorConfig(), ControllerConfig(), simple_ref())
            if name != "rho"
        ],
    )
    def test_negative_or_non_finite_rejected_naming_field(self, base, name, value):
        with pytest.raises(ValidationError) as err:
            replace(base, **{name: value})
        assert err.value.field == name

    @pytest.mark.parametrize("value", [1e-3, *NON_FINITE])
    def test_positive_or_non_finite_rho_rejected(self, value):
        with pytest.raises(ValidationError) as err:
            simple_ref(rho=value)
        assert err.value.field == "rho"

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize(
        "base, name", _float_fields(ND195R1S, ND195R1S_PARAMS, STC, ConverterParams())
    )
    def test_non_finite_physics_field_rejected_naming_field(self, base, name, value):
        with pytest.raises(ValidationError) as err:
            replace(base, **{name: value})
        assert err.value.field == name

    @pytest.mark.parametrize("cls, name", [(ControllerConfig, "settle_s")])
    def test_zero_stays_legal(self, cls, name):
        cls(**{name: 0.0})

    @pytest.mark.parametrize("value", [0.0, 1e-12, 1e-300])
    def test_zero_probe_width_rejected_naming_field(self, value):
        # a zero width puts both PSI probes at the same command, and a width
        # below the floor lets rounding move or merge them
        with pytest.raises(ValidationError) as err:
            DetectorConfig(psi_probe_frac=value)
        assert err.value.field == "psi_probe_frac"
        DetectorConfig(psi_probe_frac=PSI_PROBE_FRAC_MIN)  # the floor itself stays legal

    @pytest.mark.parametrize("name", ["power_change_trigger", "periodic_trigger_s"])
    def test_zero_trigger_rejected_naming_field(self, name):
        # a zero trigger starts a detection on every P&O tick
        with pytest.raises(ValidationError) as err:
            DetectorConfig(**{name: 0.0})
        assert err.value.field == name
        DetectorConfig(**{name: 1e-3})  # small but positive stays legal

    @pytest.mark.parametrize(
        "cls, kwargs, name",
        [
            (DetectorConfig, {"dv_mod_threshold": 0.0}, "dv_mod_threshold"),
            (ControllerConfig, {"po_step_v": -1.0}, "po_step_v"),
            (ControllerConfig, {"po_period_s": 1e-4}, "po_period_s"),
        ],
    )
    def test_existing_rules_name_their_field(self, cls, kwargs, name):
        with pytest.raises(ValidationError) as err:
            cls(**kwargs)
        assert err.value.field == name


class TestMeasurementValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            Measurement(v=math.nan, i=1.0, t=0.0)

    def test_negative_current_rejected(self):
        with pytest.raises(ValidationError):
            Measurement(v=10.0, i=-1.0, t=0.0)

    @pytest.mark.parametrize(
        "v_at, i_at, message",
        [
            # the first bad sample's error is raised, not the one the sum sees
            ([10.0, 10.0, math.nan], [1.0, -1.0, 1.0], "array current cannot be negative"),
            ([10.0, math.inf, 10.0], [1.0, 1.0, -1.0], "measurements must be finite"),
            ([10.0, 10.0], [1.0, math.nan], "measurements must be finite"),
        ],
    )
    def test_columns_raise_their_first_bad_samples_error(self, v_at, i_at, message):
        with pytest.raises(ValidationError, match=message):
            check_samples(v_at, i_at)

    @pytest.mark.parametrize(
        "v_at, i_at",
        # empty; a current within the ADC's -1e-9 A floor; a sum that
        # overflows on finite samples
        [([], []), ([10.0], [-1e-9]), ([1e308, 1e308], [1.0, 1.0])],
    )
    def test_good_columns_pass(self, v_at, i_at):
        check_samples(v_at, i_at)
