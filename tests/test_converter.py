"""Averaged boost converter tests: statics, dynamics, command handling."""

import math
import shutil
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pvmppt.converter as converter
from pvmppt.converter import (
    CommandSegment,
    CommandSignal,
    ConverterParams,
    PlantCurve,
    TraceRecord,
    _command_profile,
    advance,
    command_value,
    duty_for_voltage,
    run,
    step_ode,
)
from pvmppt.harness import base_array_spec, load_scenario, random_scenario
from pvmppt.pvmodel import (
    ArraySpec,
    ModuleDatasheet,
    PvCurve,
    ValidationError,
    calibrate_module,
    sweep_curve,
)

from oracles import array_current, interpolated_plant, reference_advance

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIO_FILES = sorted(SCENARIO_DIR.glob("*.json"))

# tracking-error bound for a 4000 V/s ramp on the reference plant, frozen
# from a dt/10 (5e-7 s) integration of the same model: max|v_pv - v_ref|
# converged to 3.031 V (dominated by the r_L*i_L open-loop offset)
B_RAMP_V = 3.2

TABLE_PLANT = ConverterParams()  # r_l=0.3, L=600 uH, C=100 uF, 250 V link
W_FLOOR = (1.0 - converter.MAX_DUTY) * TABLE_PLANT.v_out  # 2.5 V


@pytest.fixture(scope="module")
def spec_130v_8a():
    """Synthetic test array: V_oc 130 V, I_sc 8 A (5 series modules)."""
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
    return ArraySpec.uniform(calibrate_module(ds), 5, 1)


@pytest.fixture(scope="module")
def array_130v_8a(spec_130v_8a):
    curve = sweep_curve(spec_130v_8a, 0.01)
    return lambda v: float(curve.current_at(max(v, 0.0)))


def settling_time(trace, t_step, v_step_size, band_frac=0.02):
    ts = np.array([r.t for r in trace])
    vs = np.array([r.v_pv for r in trace])
    final = vs[-1]
    mask = ts > t_step
    outside = np.where(np.abs(vs[mask] - final) > band_frac * v_step_size)[0]
    if len(outside) == 0:
        return 0.0
    return ts[mask][outside[-1] + 1] - t_step


class TestDutyCommand:
    def test_identity_point(self):
        assert duty_for_voltage(250.0, 250.0) == 0.0

    def test_plain_ratio(self):
        assert duty_for_voltage(100.0, 250.0) == pytest.approx(0.6)

    def test_zero_reference_clamps(self):
        assert duty_for_voltage(0.0, 250.0) == 0.99

    def test_reference_above_link_rejected(self):
        with pytest.raises(ValidationError):
            duty_for_voltage(260.0, 250.0)


class TestStepOde:
    def test_equilibrium_is_fixed_point(self):
        i_const = 6.0
        duty = 0.6
        v_eq = (1.0 - duty) * 250.0 + TABLE_PLANT.r_l * i_const
        v, il = step_ode(v_eq, i_const, duty, 5e-6, lambda v: i_const, TABLE_PLANT)
        assert v == pytest.approx(v_eq, rel=1e-6)
        assert il == pytest.approx(i_const, rel=1e-6)

    def test_dt_above_margin_rejected(self):
        with pytest.raises(ValidationError):
            step_ode(100.0, 5.0, 0.5, 5e-5, lambda v: 5.0, TABLE_PLANT)

    def test_inductor_current_clamped(self):
        # dark array, link voltage above v_pv: current would reverse
        v, il = 10.0, 0.0
        for _ in range(200):
            v, il = step_ode(v, il, 0.0, 5e-6, lambda v: 0.0, TABLE_PLANT)
        assert il == 0.0
        assert v >= 0.0

    def test_rk4_convergence_on_dt_halving(self, array_130v_8a):
        def simulate(dt):
            v, il = 60.0, array_130v_8a(60.0)
            duty = duty_for_voltage(80.0, 250.0)
            n = round(0.004 / dt)
            for _ in range(n):
                v, il = step_ode(v, il, duty, dt, array_130v_8a, TABLE_PLANT)
            return v

        v1 = simulate(4e-6)
        v2 = simulate(2e-6)
        assert abs(v1 - v2) / abs(v2) < 1e-4

    @pytest.mark.parametrize("duty", [-0.1, 1.0])
    def test_duty_outside_range_rejected(self, duty):
        with pytest.raises(ValidationError, match="duty"):
            step_ode(100.0, 5.0, duty, 5e-6, lambda v: 5.0, TABLE_PLANT)


class TestAdvance:
    @pytest.mark.parametrize(
        "v0, duty, source",
        [(60.0, 0.68, "array"), (10.0, 0.0, "dark")],
        ids=("lit", "dark_clamped"),
    )
    def test_fixed_command_equals_step_ode_sequence(self, array_130v_8a, v0, duty, source):
        i_of_v = array_130v_8a if source == "array" else (lambda v: 0.0)
        n, dt = 40, 5e-6
        v, il = v0, i_of_v(v0)
        states = []
        for _ in range(n):
            states.append(v)
            v, il = step_ode(v, il, duty, dt, i_of_v, TABLE_PLANT)
        w = (1.0 - duty) * TABLE_PLANT.v_out
        assert advance(v0, i_of_v(v0), w, 0.0, 1, n, dt, i_of_v, TABLE_PLANT, None) == (v, il)
        # as n ticks of one step, sampled where each step starts
        v_at, i_at = [], []
        end = advance(v0, i_of_v(v0), w, 0.0, n, 1, dt, i_of_v, TABLE_PLANT, (v_at, i_at))
        assert end == (v, il)
        assert v_at == states and i_at == [i_of_v(x) for x in states]
        if source == "dark":  # the link sits above v_pv: the clamp holds i_L at 0
            assert il == 0.0

    @staticmethod
    def _outcome(fn, case, source, sampled):
        """``fn``'s end state and samples as bits, or the type and message of
        what it raised with the samples taken before."""
        samples = ([], []) if sampled else None
        try:
            end = struct.pack("<2d", *fn(*case, source, TABLE_PLANT, samples))
        except Exception as exc:
            end = type(exc), str(exc)
        if samples is None:
            return end, None
        return end, struct.pack(f"<{len(samples[0]) + len(samples[1])}d", *samples[0], *samples[1])

    @settings(max_examples=400, deadline=None, derandomize=True)
    @example("plant_curve", 60.0, 5.0, 80.0, -0.5, 2, 8, 5e-6, True)  # slews down
    @example("bound_method", 60.0, 5.0, 80.0, 0.5, 3, 8, 2e-5, False)  # and up
    @example("plant_curve", 40.0, 2.0, W_FLOOR + 1.0, -0.3, 2, 8, 2e-5, True)  # to the floor
    @given(
        kind=st.sampled_from(["plant_curve", "bound_method"]),
        v=st.one_of(
            st.floats(-5.0, 140.0), st.sampled_from([-0.0, -1e300, math.nan, math.inf, -math.inf])
        ),
        il=st.one_of(st.floats(-2.0, 12.0), st.sampled_from([-0.0, -1.0, math.nan, math.inf])),
        w0=st.one_of(
            st.floats(0.0, 250.0),
            st.sampled_from([W_FLOOR, math.nextafter(W_FLOOR, 0.0), 0.0, -0.0, math.nan, math.inf]),
        ),
        dw=st.one_of(
            st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
            st.floats(-5.0, 5.0),
            st.integers(-500, 500).map(lambda k: k / 100),
        ),
        n_ticks=st.integers(0, 3),
        n_sub=st.integers(0, 8),
        dt=st.one_of(st.sampled_from([5e-6, 2e-5, 1e-4]), st.floats(1e-7, 2e-5)),
        sampled=st.booleans(),
    )
    def test_python_loop_keeps_the_reference_bits(
        self, spec_130v_8a, kind, v, il, w0, dw, n_ticks, n_sub, dt, sampled
    ):
        """The Python loop takes ``0.5 * dt``, ``dt / 6.0`` and a held
        command out of its sub-steps; the loop that computes them in every
        sub-step gives the same state, samples and exceptions."""
        curve = sweep_curve(spec_130v_8a, 0.01)
        source = PlantCurve(curve) if kind == "plant_curve" else curve.current_at
        case = (v, il, w0, dw, n_ticks, n_sub, dt)
        got = self._outcome(converter._python_advance, case, source, sampled)
        assert got == self._outcome(reference_advance, case, source, sampled)


class TestRun:
    def test_zero_length_command_empty_trace(self, array_130v_8a):
        cmd = CommandSignal((), v_start=60.0)
        assert run(cmd, array_130v_8a, TABLE_PLANT) == []

    def test_step_settling_time_in_band(self, array_130v_8a):
        # step within the constant-current region of the array
        cmd = CommandSignal(
            (
                CommandSegment("hold", 30.0, duration_s=0.02),
                CommandSegment("hold", 60.0, duration_s=0.1),
            ),
            v_start=30.0,
        )
        trace = run(cmd, array_130v_8a, TABLE_PLANT, sample_period=5e-5)
        st = settling_time(trace, 0.02, 30.0)
        assert 0.010 <= st <= 0.025

    def test_step_overshoot_and_oscillation_present(self, array_130v_8a):
        cmd = CommandSignal(
            (
                CommandSegment("hold", 60.0, duration_s=0.02),
                CommandSegment("hold", 100.0, duration_s=0.08),
            ),
            v_start=60.0,
        )
        trace = run(cmd, array_130v_8a, TABLE_PLANT, sample_period=5e-5)
        vs = np.array([r.v_pv for r in trace])
        final = vs[-1]
        assert vs.max() > final + 0.02 * 40.0  # overshoot beyond the 2% band
        # oscillation: the response crosses its final value more than once
        crossings = np.sum(np.diff(np.sign(vs[round(0.02 / 5e-5) :] - final)) != 0)
        assert crossings >= 3

    def test_ramp_tracking_error_below_frozen_bound(self, array_130v_8a):
        cmd = CommandSignal(
            (
                CommandSegment("hold", 60.0, duration_s=0.005),
                CommandSegment("ramp", 100.0, rate_v_per_s=4000.0),
                CommandSegment("hold", 100.0, duration_s=0.01),
            ),
            v_start=60.0,
        )
        trace = run(cmd, array_130v_8a, TABLE_PLANT, sample_period=5e-5)
        errs = [abs(r.v_pv - r.v_ref) for r in trace if r.t >= 0.005]
        assert max(errs) < B_RAMP_V
        # no overshoot beyond the bound either
        assert max(r.v_pv for r in trace) < 100.0 + B_RAMP_V

    def test_steady_state_error_matches_inductor_drop(self, array_130v_8a):
        cmd = CommandSignal((CommandSegment("hold", 60.0, duration_s=0.1),), v_start=60.0)
        trace = run(cmd, array_130v_8a, TABLE_PLANT, sample_period=1e-3)
        last = trace[-1]
        i_l = array_130v_8a(last.v_pv)
        err = last.v_pv - (1.0 - last.duty) * 250.0
        assert err > 0.0
        assert err < 2.0 * TABLE_PLANT.r_l * i_l

    def test_command_outside_link_range_rejected(self, array_130v_8a):
        cmd = CommandSignal((CommandSegment("hold", 260.0, duration_s=0.01),), v_start=60.0)
        with pytest.raises(ValidationError):
            run(cmd, array_130v_8a, TABLE_PLANT)

    def test_sample_period_below_dt_rejected(self, array_130v_8a):
        cmd = CommandSignal((CommandSegment("hold", 60.0, duration_s=0.01),), v_start=60.0)
        with pytest.raises(ValidationError):
            run(cmd, array_130v_8a, TABLE_PLANT, sample_period=1e-6)

    def test_constant_current_equilibrium_matches_algebra(self):
        i_const = 4.0
        cmd = CommandSignal((CommandSegment("hold", 100.0, duration_s=0.12),), v_start=100.0)
        trace = run(cmd, lambda v: i_const, TABLE_PLANT, sample_period=1e-3)
        last = trace[-1]
        v_expected = (1.0 - last.duty) * 250.0 + TABLE_PLANT.r_l * i_const
        assert last.v_pv == pytest.approx(v_expected, rel=1e-6)
        assert trace[-2].v_pv == pytest.approx(v_expected, rel=1e-6)

    def test_bad_segment_kinds_rejected(self):
        with pytest.raises(ValidationError):
            CommandSegment("jump", 10.0)
        with pytest.raises(ValidationError):
            CommandSegment("ramp", 10.0, rate_v_per_s=0.0)
        with pytest.raises(ValidationError):
            CommandSegment("hold", 10.0)

    @pytest.mark.parametrize(
        "segment, sample_period",
        [
            (dict(kind="ramp", rate_v_per_s=float("nan")), 5e-4),
            (dict(kind="ramp", rate_v_per_s=float("inf")), 5e-4),
            (dict(kind="ramp", rate_v_per_s=1e-320), 5e-4),  # 10 V / 1e-320 V/s overflows
            (dict(kind="ramp", rate_v_per_s=1e-300), 5e-4),  # 1e301 s: 2e306 steps
            (dict(kind="hold", duration_s=float("nan")), 5e-4),
            (dict(kind="hold", duration_s=float("inf")), 5e-4),
            (dict(kind="hold", duration_s=0.01), float("nan")),
            (dict(kind="hold", duration_s=0.01), float("inf")),
        ],
        ids=(
            "nan_rate",
            "inf_rate",
            "infinite_ramp_duration",
            "ramp_duration_past_step_index",
            "nan_hold",
            "inf_hold",
            "nan_sample_period",
            "inf_sample_period",
        ),
    )
    def test_non_finite_inputs_rejected(self, segment, sample_period):
        with pytest.raises(ValidationError):
            cmd = CommandSignal((CommandSegment(target_v=70.0, **segment),), v_start=60.0)
            run(cmd, lambda v: 5.0, TABLE_PLANT, sample_period=sample_period)


def _event_curves(scn):
    """Each event's 0.01 V sweep, as the closed loop draws its plant from it."""
    return [sweep_curve(base_array_spec(scn, k), 0.01) for k in range(len(scn.events))]


def _probe_voltages(curve, v_top, h=0.01):
    """Grid points, midpoints, the curve's own samples, voltages at or
    below 0 V, and both sides of the top of the table."""
    n = round(v_top / h) + 2
    return (
        [k * h for k in range(n)]
        + [(k + 0.5) * h for k in range(n)]
        + curve.v.tolist()
        + [-1e300, -1.0, -0.0, 0.0, 5e-324, v_top, float(np.nextafter(v_top, 0.0)), 1e300]
    )


def _assert_plant_is_oracle(curve):
    """``PlantCurve(curve)`` has the interpolated table's bytes and reads
    the list-backed lookup's bits at every probe voltage."""
    vals, lookup, v_top = interpolated_plant(curve)
    plant = PlantCurve(curve)
    assert plant.table[0].tobytes() == vals.tobytes()
    assert plant.table[2] == v_top
    voltages = _probe_voltages(curve, v_top)
    got = np.array([plant(v) for v in voltages])
    assert got.tobytes() == np.array([lookup(v) for v in voltages]).tobytes()


def _with_drawn_currents(draw, v):
    i = draw(arrays(np.float64, len(v), elements=st.floats(0.0, 20.0)))
    return PvCurve(v=v, i=i, p=v * i)


# V_oc on a 0.01 V grid point or one ulp either side of it
_VOC_AT_A_GRID_POINT = (
    st.integers(2, 300)
    .map(lambda m: m * 0.01)
    .flatmap(lambda g: st.sampled_from([g, np.nextafter(g, 0.0), np.nextafter(g, 1.0)]))
)


@st.composite
def _sweeps(draw, step, voc):
    """Samples every ``step`` volts from 0 V to a drawn V_oc, laid out as
    ``sweep_curve`` lays them out, with drawn currents."""
    voc = float(draw(voc))
    v = np.arange(0.0, voc, step)
    if v[-1] < voc:
        v = np.append(v, voc)
    return _with_drawn_currents(draw, v)


@st.composite
def _ascending_curves(draw):
    """Non-uniform ascending samples, some of them on the 0.01 V grid and
    some repeated."""
    knot = st.one_of(st.floats(0.0, 3.0), st.integers(0, 300).map(lambda m: m * 0.01))
    return _with_drawn_currents(draw, np.sort(draw(st.lists(knot, min_size=2, max_size=60))))


@st.composite
def _dark_curves(draw):
    """``sweep_curve``'s two-sample curve of an array with V_oc under one step."""
    v = np.array([0.0, max(draw(st.floats(0.0, 0.01)), 0.01)])
    return PvCurve(v=v, i=np.zeros(2), p=np.zeros(2))


class TestPlantCurve:
    def test_closure_equals_class_formula(self, spec_130v_8a):
        curve = sweep_curve(spec_130v_8a, 0.01)
        _, reference, v_top = interpolated_plant(curve)
        n_grid = round(v_top / 0.01) + 2
        voltages = (
            np.linspace(-2.0, v_top + 2.0, 40001).tolist()
            + [k * 0.01 for k in range(n_grid)]
            + [-1e300, -0.0, 0.0, 5e-324, v_top, np.nextafter(v_top, 0.0), 1e300]
        )
        plant = PlantCurve(curve)
        got = [plant(v) for v in voltages]
        assert got == [reference(v) for v in voltages]
        assert plant(0.0) == reference(0.0) > 7.0  # short-circuit end, not the zero tail
        assert plant(v_top) == 0.0

    @pytest.mark.parametrize("path", SCENARIO_FILES, ids=[p.stem for p in SCENARIO_FILES])
    def test_scenario_events_equal_the_interpolated_table(self, path):
        for curve in _event_curves(load_scenario(path)):
            _assert_plant_is_oracle(curve)

    @pytest.mark.parametrize("index", range(12))
    def test_random_scenario_events_equal_the_interpolated_table(self, index):
        for curve in _event_curves(random_scenario(2026, index)):
            _assert_plant_is_oracle(curve)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        curve=st.one_of(
            *(_sweeps(step, st.floats(2 * step, 3.0)) for step in (0.01, 0.005, 0.02, 0.037)),
            _sweeps(0.01, _VOC_AT_A_GRID_POINT),
            _ascending_curves(),
            _dark_curves(),
        )
    )
    def test_drawn_curves_equal_the_interpolated_table(self, curve):
        _assert_plant_is_oracle(curve)

    @pytest.mark.parametrize("path", SCENARIO_FILES, ids=[p.stem for p in SCENARIO_FILES])
    def test_a_sweep_interpolates_at_most_two_grid_points(self, path, monkeypatch):
        """The table copies the sweep's own samples: ``np.interp`` runs only
        on the grid points past the sweep's last sample."""
        curves = _event_curves(load_scenario(path))
        interp, points = np.interp, []

        def spy(x, *args, **kwargs):
            points.append(np.size(x))
            return interp(x, *args, **kwargs)

        monkeypatch.setattr(np, "interp", spy)
        for curve in curves:
            points.clear()
            PlantCurve(curve)
            assert len(points) == 1 and points[0] <= 2

    def test_table_is_read_only(self, spec_130v_8a):
        vals = PlantCurve(sweep_curve(spec_130v_8a, 0.01)).table[0]
        with pytest.raises(ValueError):
            vals[0] = 1.0


class TestSampledCurveSource:
    """A swept curve read through PlantCurve drives the plant like the scalar model."""

    CMD = CommandSignal(
        (
            CommandSegment("hold", 60.0, duration_s=2.5e-4),
            CommandSegment("ramp", 64.0, rate_v_per_s=4000.0),
            CommandSegment("hold", 64.0, duration_s=2.5e-4),
        ),
        v_start=60.0,
    )

    def test_sampled_curve_tracks_scalar_source(self, spec_130v_8a):
        plant = PlantCurve(sweep_curve(spec_130v_8a, 0.01))
        sampled = run(self.CMD, plant, TABLE_PLANT, sample_period=5e-5)
        scalar = run(
            self.CMD,
            lambda v: array_current(spec_130v_8a, max(v, 0.0)),
            TABLE_PLANT,
            sample_period=5e-5,
        )
        assert len(sampled) == len(scalar) == 31
        for a, b in zip(sampled, scalar):
            assert a.t == b.t
            assert abs(a.v_pv - b.v_pv) < 1e-6
            assert abs(a.i_pv - b.i_pv) < 1e-6


def _run_per_step(command, i_of_v, params, sample_period=5e-4):
    """The open-loop run as it was written before stretches: one ``step_ode``
    call per step."""
    dt = 5e-6
    pieces = _command_profile(command)
    horizon = sum(p[3] for p in pieces)
    n_steps = round(horizon / dt)
    per_sample = max(round(sample_period / dt), 1)
    v = command_value(pieces, 0.0)
    il = i_of_v(v)
    trace = []

    def record(n, v_meas, v_cmd, duty):
        i_meas = i_of_v(v_meas)
        trace.append(TraceRecord(n * dt, v_cmd, duty, v_meas, i_meas, v_meas * i_meas))

    for n in range(n_steps):
        t_mid = (n + 0.5) * dt
        v_cmd = command_value(pieces, t_mid)
        duty = duty_for_voltage(v_cmd, params.v_out)
        if n % per_sample == 0:
            record(n, v, command_value(pieces, n * dt), duty)
        v, il = step_ode(v, il, duty, dt, i_of_v, params)
    if n_steps > 0:
        v_cmd = command_value(pieces, horizon)
        record(n_steps, v, v_cmd, duty_for_voltage(v_cmd, params.v_out))
    return trace


SEG = CommandSegment
STEP_CMD = CommandSignal(  # the step and ramp of acceptance criterion 3
    (SEG("hold", 30.0, duration_s=0.02), SEG("hold", 60.0, duration_s=0.1)), v_start=30.0
)
RAMP_CMD = CommandSignal(
    (
        SEG("hold", 60.0, duration_s=0.005),
        SEG("ramp", 100.0, rate_v_per_s=4000.0),
        SEG("hold", 100.0, duration_s=0.01),
    ),
    v_start=60.0,
)
# a 35-step ramp that ends between two samples of ten steps
MID_SAMPLE_RAMP_CMD = CommandSignal(
    (
        SEG("hold", 60.0, duration_s=1e-4),
        SEG("ramp", 60.7, rate_v_per_s=4000.0),
        SEG("hold", 60.7, duration_s=3e-4),
    ),
    v_start=60.0,
)
# holds that end off the sample grid (14.6 steps per sample rounds to 15)
OFF_GRID_CMD = CommandSignal(
    (
        SEG("hold", 30.0, duration_s=1.23e-3),
        SEG("hold", 45.0, duration_s=7.7e-4),
        SEG("ramp", 40.0, rate_v_per_s=20000.0),
        SEG("hold", 50.0, duration_s=1.1e-3),
    ),
    v_start=30.0,
)


# holds that end off the sample grid and off the step grid
OFF_GRID_HOLDS_CMD = CommandSignal(
    (
        SEG("hold", 30.0, duration_s=1.23e-3),
        SEG("hold", 45.0, duration_s=7.7e-4),
        SEG("hold", 0.0, duration_s=0.0),
        SEG("hold", 1.0, duration_s=3.3e-4),
        SEG("hold", 50.0, duration_s=1.1e-3),
    ),
    v_start=30.0,
)

# holds that end on steps' midpoints: 4.25e-5 + 9e-5 sums to one ulp above
# 1.325e-4, where (26 + 0.5)*5e-6 rounds, so step 26 starts the third hold
MIDPOINT_HOLDS_CMD = CommandSignal(
    (
        SEG("hold", 30.0, duration_s=4.25e-5),
        SEG("hold", 45.0, duration_s=9e-5),
        SEG("hold", 50.0, duration_s=1e-4),
    ),
    v_start=30.0,
)


def _has_ramp(cmd):
    return any(v_from != v_to and dur > 0.0 for _, v_from, v_to, dur in _command_profile(cmd))


@st.composite
def _drawn_commands(draw):
    """Up to four pieces of at most ~2 ms each: zero-length holds, holds
    that end on the half-step grid (a step's midpoint) or off it, and ramps
    that end anywhere, some of them under the 2.5 V duty floor."""
    level = st.one_of(st.floats(0.0, 5.0), st.floats(0.0, 40.0))
    duration = st.one_of(
        st.just(0.0), st.integers(0, 400).map(lambda k: k * 2.5e-6), st.floats(0.0, 1e-3)
    )
    segs = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            segs.append(SEG("hold", draw(level), duration_s=draw(duration)))
        else:
            segs.append(SEG("ramp", draw(level), rate_v_per_s=draw(st.floats(2e4, 1e6))))
    return CommandSignal(tuple(segs), v_start=draw(level))


class TestRunStretches:
    """``run`` makes one plant call per piece and sample interval: a hold's
    records are bit for bit those of one ``step_ode`` call per step; a
    ramp slews the plant input with the command, within 1e-12 of them."""

    @staticmethod
    def same(a, b):
        assert [repr(r) for r in a] == [repr(r) for r in b]

    @staticmethod
    def close(a, b):
        """Same samples, commands and duties; states within 1e-12."""
        assert len(a) == len(b)
        assert [(r.t, r.v_ref, r.duty) for r in a] == [(r.t, r.v_ref, r.duty) for r in b]
        for x, y in zip(a, b):
            assert abs(x.v_pv - y.v_pv) <= 1e-12
            assert abs(x.i_pv - y.i_pv) <= 1e-12

    @pytest.mark.parametrize(
        "cmd, sample_period",
        [
            (STEP_CMD, 5e-5),
            (OFF_GRID_HOLDS_CMD, 7.3e-5),
            (OFF_GRID_HOLDS_CMD, 5e-6),
            (MIDPOINT_HOLDS_CMD, 5e-5),
            (CommandSignal((), v_start=60.0), 5e-4),
        ],
        ids=("step", "period_off_dt_grid", "sample_every_step", "ends_on_midpoints", "empty"),
    )
    def test_equals_per_step_loop(self, array_130v_8a, cmd, sample_period):
        self.same(
            run(cmd, array_130v_8a, TABLE_PLANT, sample_period=sample_period),
            _run_per_step(cmd, array_130v_8a, TABLE_PLANT, sample_period=sample_period),
        )

    @pytest.mark.parametrize(
        "cmd, sample_period",
        [
            (RAMP_CMD, 5e-5),
            (MID_SAMPLE_RAMP_CMD, 5e-5),
            (OFF_GRID_CMD, 7.3e-5),
            (OFF_GRID_CMD, 5e-6),
        ],
        ids=("ramp", "ramp_ends_mid_sample", "ramp_period_off_dt_grid", "ramp_sample_every_step"),
    )
    def test_ramp_within_1e12_of_per_step_loop(self, array_130v_8a, cmd, sample_period):
        self.close(
            run(cmd, array_130v_8a, TABLE_PLANT, sample_period=sample_period),
            _run_per_step(cmd, array_130v_8a, TABLE_PLANT, sample_period=sample_period),
        )

    def test_plant_curve_source_within_1e12_of_per_step_loop(self, spec_130v_8a):
        plant = PlantCurve(sweep_curve(spec_130v_8a, 0.01))
        self.close(
            run(MID_SAMPLE_RAMP_CMD, plant, TABLE_PLANT, sample_period=5e-5),
            _run_per_step(MID_SAMPLE_RAMP_CMD, plant, TABLE_PLANT, sample_period=5e-5),
        )

    @settings(max_examples=100, deadline=None)
    @given(cmd=_drawn_commands(), sample_period=st.floats(5e-6, 1e-3))
    def test_drawn_commands_match_per_step_loop(self, array_130v_8a, cmd, sample_period):
        got = run(cmd, array_130v_8a, TABLE_PLANT, sample_period=sample_period)
        ref = _run_per_step(cmd, array_130v_8a, TABLE_PLANT, sample_period=sample_period)
        if _has_ramp(cmd):
            self.close(got, ref)
        else:
            self.same(got, ref)

    @pytest.mark.parametrize(
        "cmd", [RAMP_CMD, MID_SAMPLE_RAMP_CMD], ids=("ramp", "ramp_ends_mid_sample")
    )
    def test_kernel_and_python_loop_give_same_records(self, spec_130v_8a, cmd, monkeypatch):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on the path")
        assert converter._native_rk4() is not None
        plant = PlantCurve(sweep_curve(spec_130v_8a, 0.01))
        native = run(cmd, plant, TABLE_PLANT, sample_period=5e-5)
        monkeypatch.setattr(converter, "_native_rk4", lambda: None)
        self.same(native, run(cmd, plant, TABLE_PLANT, sample_period=5e-5))

    def test_one_call_per_piece_and_sample(self, spec_130v_8a, monkeypatch):
        """The criterion-3 step and ramp at 5e-5 s sampling make one plant
        call per piece and sample: 2,700 ``step_ode`` holds and 200 slews,
        the calls the benchmark's open-loop workload traces.  Its source, a
        bound method over a ``PvCurve``, runs them all on the Python loop,
        and so does a callable object that carries a ``table``; a
        ``PlantCurve`` closure reaches the compiled kernel."""
        curve = sweep_curve(spec_130v_8a, 0.01)
        plant = PlantCurve(curve)
        native = converter._native_rk4() is not None  # its probe runs the Python loop
        holds, slews, calls = [], [], Counter()

        def counting_step_ode(v, il, duty, dt, i_of_v, params, n=1):
            holds.append(n)
            return step_ode(v, il, duty, dt, i_of_v, params, n)

        def counting_advance(v, il, w0, dw, n_ticks, n_sub, *rest):
            if dw != 0.0:
                slews.append((n_ticks, n_sub))
            return advance(v, il, w0, dw, n_ticks, n_sub, *rest)

        def counting(name):
            inner = getattr(converter, name)

            def counted(*args):
                calls[name] += 1
                return inner(*args)

            return counted

        monkeypatch.setattr(converter, "step_ode", counting_step_ode)
        monkeypatch.setattr(converter, "advance", counting_advance)
        for name in ("_python_advance", "_native_rk4"):
            monkeypatch.setattr(converter, name, counting(name))

        class Source:  # the shape of the benchmark's open-loop source
            def current(self, v):
                return float(curve.current_at(max(v, 0.0)))

        class Tabled:
            table = plant.table

            def __call__(self, v):
                return plant(v)

        for source in (Source().current, Tabled()):
            holds.clear()
            slews.clear()
            calls.clear()
            run(STEP_CMD, source, TABLE_PLANT, sample_period=5e-5)
            assert holds == [10] * 2400 and slews == []
            run(RAMP_CMD, source, TABLE_PLANT, sample_period=5e-5)
            # 100 hold samples, then 200 ramp samples, then 200 hold samples
            assert holds == [10] * 2700
            assert slews == [(1, 10)] * 200
            assert calls == Counter(_python_advance=2900)
        calls.clear()
        run(STEP_CMD, plant, TABLE_PLANT, sample_period=5e-5)
        assert native == (shutil.which("cc") is not None)
        assert calls == Counter(_native_rk4=2400, _python_advance=0 if native else 2400)

    def test_step_count_below_one_rejected(self):
        with pytest.raises(ValidationError, match="step count"):
            step_ode(100.0, 5.0, 0.5, 5e-6, lambda v: 5.0, TABLE_PLANT, 0)
