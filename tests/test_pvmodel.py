"""Electrical model tests: calibration, composition, sweep, oracle."""

import copy
import math
import pickle
import random
import struct
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvmppt import pvmodel
from pvmppt.harness import base_array_spec, load_scenario
from pvmppt.pvmodel import (
    ND195R1S,
    ArraySpec,
    CalibrationError,
    ModuleCondition,
    ModuleDatasheet,
    ModuleParams,
    ND195R1S_PARAMS,
    STC,
    ValidationError,
    array_open_circuit_voltage,
    calibrate_module,
    module_current,
    module_open_circuit_voltage,
    module_voltage,
    oracle_gmpp,
    string_current,
    sweep_curve,
)
from pvmppt.pvmodel import _check_contract, _datasheet_residuals, _fit_datasheet
from pvmppt.solver import bounded_lm

from oracles import (
    array_current,
    local_maxima,
    module_mpp,
    scalar_string_current,
    scipy_fit,
    uncached_array_open_circuit_voltage,
    uncached_string_curve,
    uncached_sweep_current,
    uniform_array_current,
)

HS = ModuleCondition(1.0, 25.0)
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def two_level_string(module, n_series, n_shaded, ir, t=25.0):
    ls = ModuleCondition(1.0 / ir, t)
    hs = ModuleCondition(1.0, t)
    grid = (tuple([hs] * (n_series - n_shaded) + [ls] * n_shaded),)
    return ArraySpec(n_series, 1, module, grid)


def round_trip_datasheet() -> ModuleDatasheet:
    """The datasheet read off the curve of a module with known parameters;
    its r_sh (400 ohm) lies inside the fit's bounds."""
    known = ModuleParams(
        i_pv_ref=8.0, i_o_ref=2e-8, ideality_a=1.3, r_s=0.25, r_sh=400.0, n_cells=42
    )
    v_mp, p_mp = module_mpp(known, STC)
    return ModuleDatasheet(
        p_max=p_mp,
        v_oc=module_open_circuit_voltage(known, STC),
        i_sc=module_current(known, STC, 0.0),
        v_mpp=v_mp,
        i_mpp=p_mp / v_mp,
        pmax_thermal_coeff=-0.0044,
        rho_mod=-0.0033,
        n_cells=42,
    )


# the 156 W module of acceptance criterion 3 and the converter tests
MODULE_156W = ModuleDatasheet(
    p_max=156.0,
    v_oc=26.0,
    i_sc=8.0,
    v_mpp=20.8,
    i_mpp=7.5,
    pmax_thermal_coeff=-0.0044,
    rho_mod=-0.0033,
    n_cells=42,
)
# a 3 W module whose v_oc/i_sc (400 ohm) puts the first start's r_sh (300 ohm)
# below its bound, so only the second start is fitted
MODULE_3W = ModuleDatasheet(
    p_max=3.04,
    v_oc=40.0,
    i_sc=0.1,
    v_mpp=32.0,
    i_mpp=0.095,
    pmax_thermal_coeff=-0.0044,
    rho_mod=-0.0033,
    n_cells=60,
)
_FITTED = ("i_pv_ref", "i_o_ref", "r_s", "r_sh")


class TestCalibration:
    def test_nd195r1s_reproduces_datasheet(self, nd_module):
        i0 = module_current(nd_module, STC, 0.0)
        assert abs(i0 - 8.68) <= 0.005 * 8.68
        assert abs(module_current(nd_module, STC, 29.7)) <= 0.005 * 8.68
        i_mp = module_current(nd_module, STC, 23.6)
        assert abs(23.6 * i_mp - 195.0) <= 0.02 * 195.0
        assert abs(i_mp - 8.27) <= 0.02 * 8.27

    def test_mpp_derivative_vanishes(self, nd_module):
        v, _ = module_mpp(nd_module, STC)
        # the fitted curve peaks at the datasheet MPP voltage
        assert abs(v - 23.6) < 0.1

    def test_calibration_runtime(self):
        t0 = time.time()
        _fit_datasheet(ND195R1S)  # the fit itself: calibrate_module returns the pinned one
        assert time.time() - t0 < 1.0

    def test_synthetic_round_trip(self):
        ds = round_trip_datasheet()
        isc, voc, v_mp, p_mp = ds.i_sc, ds.v_oc, ds.v_mpp, ds.p_max
        fitted = calibrate_module(ds)
        assert abs(module_current(fitted, STC, 0.0) - isc) <= 0.005 * isc
        assert abs(module_current(fitted, STC, voc)) <= 0.005 * isc
        assert abs(module_current(fitted, STC, v_mp) * v_mp - p_mp) <= 0.005 * p_mp
        assert abs(module_open_circuit_voltage(fitted, STC) - voc) <= 0.005 * voc

    def test_ideal_module_short_circuit_current_is_photocurrent(self):
        ideal = ModuleParams(
            i_pv_ref=8.5, i_o_ref=1e-8, ideality_a=1.2, r_s=0.0, r_sh=1e7, n_cells=42
        )
        assert module_current(ideal, STC, 0.0) == pytest.approx(8.5, rel=1e-9)

    def test_infeasible_datasheet_rejected(self):
        with pytest.raises(ValidationError):
            ModuleDatasheet(
                p_max=150.0,
                v_oc=29.7,
                i_sc=8.68,
                v_mpp=23.6,
                i_mpp=8.27,  # 195 W point on a 150 W plate
                pmax_thermal_coeff=-0.0044,
                rho_mod=-0.00329,
                n_cells=42,
            )

    def test_contract_accepts_the_pinned_fit(self):
        _check_contract(ND195R1S, ND195R1S_PARAMS)

    @pytest.mark.parametrize(
        "change",
        [
            dict(i_pv_ref=ND195R1S_PARAMS.i_pv_ref * 1.01),  # short circuit 1% high
            dict(r_s=ND195R1S_PARAMS.r_s + 0.005),  # dP/dV at the MPP 2.4%
            dict(i_o_ref=ND195R1S_PARAMS.i_o_ref * 1.1),  # open circuit 3.6% of i_sc
            dict(ideality_a=1.2),  # MPP power 18% low
        ],
        ids=["short_circuit", "mpp_slope", "open_circuit", "mpp_power"],
    )
    def test_contract_rejects_params_off_the_datasheet(self, change):
        params = replace(ND195R1S_PARAMS, **change)
        with pytest.raises(CalibrationError) as err:
            _check_contract(ND195R1S, params)
        assert err.value.residuals == tuple(_datasheet_residuals(ND195R1S, params))

    def test_unfittable_curve_shape_raises(self):
        bad = ModuleDatasheet(
            p_max=240.8,
            v_oc=29.7,
            i_sc=8.68,
            v_mpp=28.0,
            i_mpp=8.6,
            pmax_thermal_coeff=-0.0044,
            rho_mod=-0.00329,
            n_cells=42,
        )
        with pytest.raises(CalibrationError) as err:
            calibrate_module(bad)
        assert err.value.residuals  # diagnostics carried
        # both solvers end at the same point, on the i_o and r_s lower bounds
        want = _datasheet_residuals(bad, scipy_fit(bad))
        assert err.value.residuals == pytest.approx(tuple(want), rel=1e-6)

    def test_pinned_fit_matches_a_fresh_fit(self):
        assert calibrate_module(ND195R1S) is ND195R1S_PARAMS  # contract met
        fresh = _fit_datasheet(ND195R1S)
        for name in _FITTED:
            assert getattr(fresh, name) == pytest.approx(
                getattr(ND195R1S_PARAMS, name), rel=1e-9
            ), name

    @pytest.mark.parametrize(
        "ds",
        [ND195R1S, MODULE_156W, round_trip_datasheet(), MODULE_3W],
        ids=["ND195R1S", "156W", "round_trip", "3W"],
    )
    def test_fit_agrees_with_scipy(self, ds):
        # measured: 1.2e-11 relative or closer on each, with numpy 2.4 and scipy 1.17
        got, want = _fit_datasheet(ds), scipy_fit(ds)
        calibrate_module(ds)  # within contract
        for name in _FITTED:
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-9), name

    @pytest.mark.parametrize(
        "ds, fits",
        [(ND195R1S, 1), (MODULE_156W, 1), (MODULE_3W, 2)],
        ids=["ND195R1S", "156W", "3W"],
    )
    def test_fit_stops_at_the_first_start_within_contract(self, monkeypatch, ds, fits):
        # the 3 W module's first start lies outside the box, so it reaches start 2
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return bounded_lm(*args, **kwargs)

        monkeypatch.setattr(pvmodel, "bounded_lm", counting)
        _fit_datasheet(ds)
        assert len(calls) == fits

    @pytest.mark.parametrize(
        "field, value",
        [
            ("p_max", -5.0),
            ("v_mpp", 40.0),
            ("i_mpp", 9.0),
            ("p_max", 150.0),
            ("rho_mod", 0.001),
            ("pmax_thermal_coeff", 0.0),
            ("n_cells", 0),
        ],
    )
    def test_datasheet_rejects_at_construction_naming_field(self, field, value):
        with pytest.raises(ValidationError) as err:
            replace(ND195R1S, **{field: value})
        assert err.value.field == field


class TestModuleOperations:
    def test_voltage_below_bypass_rejected(self, nd_module):
        with pytest.raises(ValidationError):
            module_current(nd_module, STC, -1.5)

    def test_dark_module_current_is_zero(self, nd_module):
        dark = ModuleCondition(0.0, 25.0)
        assert abs(module_current(nd_module, dark, 0.0)) < 1e-9

    def test_open_circuit_voltage(self, nd_module):
        assert module_voltage(nd_module, STC, 0.0) == pytest.approx(29.7, abs=0.2)

    def test_bypass_clamp_above_short_circuit(self, nd_module):
        assert module_voltage(nd_module, STC, 10.0) == -0.7

    def test_voltage_at_mpp_current(self, nd_module):
        assert module_voltage(nd_module, STC, 8.27) == pytest.approx(23.6, rel=0.02)

    def test_negative_current_rejected(self, nd_module):
        with pytest.raises(ValidationError):
            module_voltage(nd_module, STC, -0.1)

    def test_voltage_non_increasing_and_continuous(self):
        # finite shunt resistance bounds the worst-case slope, so the
        # sampled differences must respect |dv| <= di * (r_sh + r_s)
        p = ModuleParams(
            i_pv_ref=8.0, i_o_ref=2e-8, ideality_a=1.3, r_s=0.25, r_sh=400.0, n_cells=42
        )
        currents = np.linspace(0.0, 10.0, 4000)
        volts = [module_voltage(p, STC, float(i)) for i in currents]
        diffs = np.diff(volts)
        di = currents[1] - currents[0]
        assert np.all(diffs <= 1e-12)
        assert np.min(diffs) >= -di * (p.r_sh + p.r_s) - 1e-9

    def test_current_voltage_inverse_pair(self, nd_module):
        # absolute tolerance reflects conditioning: dv/di ~ r_sh in the
        # constant-current region amplifies the current solver tolerance
        for v in (0.0, 5.0, 15.0, 22.0, 27.0):
            i = module_current(nd_module, STC, v)
            assert module_voltage(nd_module, STC, i) == pytest.approx(v, abs=5e-4)


class TestStringAndArray:
    def test_open_circuit_string_blocked(self):
        exact = ModuleParams(
            i_pv_ref=8.0, i_o_ref=2e-8, ideality_a=1.3, r_s=0.25, r_sh=400.0, n_cells=42
        )
        spec = ArraySpec.uniform(exact, 5, 1)
        voc = module_open_circuit_voltage(exact, STC)
        assert string_current(spec, 0, 5 * voc) == 0.0
        assert string_current(spec, 0, 5 * voc + 10.0) == 0.0

    def test_uniform_string_at_mpp(self, nd_module):
        spec = ArraySpec.uniform(nd_module, 5, 1)
        assert string_current(spec, 0, 5 * 23.6) == pytest.approx(8.27, rel=0.02)

    def test_shaded_string_bypass_range(self, nd_module):
        # two shaded of four at half sun: just below the insolated pair's
        # MPP voltage the bypass diodes conduct the full insolated current
        spec = two_level_string(nd_module, 4, 2, 2.0)
        v = 2 * 23.6 - 0.7 * 2 - 1.0
        i_shaded_sc = module_current(nd_module, ModuleCondition(0.5, 25.0), 0.0)
        assert string_current(spec, 0, v) > i_shaded_sc

    # the sampled string current against the bisection oracle: linear
    # interpolation between the string's samples is off by at most 1.7e-5 A
    # over psc1-5 and random_scenario(2026, 0..11), so 1e-4 A, the sweep's
    # own tolerance in test_batch_matches_scalar
    @pytest.mark.parametrize("case", ["exact_uniform", "nd_uniform", "nd_two_level"])
    def test_string_current_matches_scalar_oracle(self, nd_module, case):
        exact = ModuleParams(
            i_pv_ref=8.0, i_o_ref=2e-8, ideality_a=1.3, r_s=0.25, r_sh=400.0, n_cells=42
        )
        spec = {
            "exact_uniform": lambda: ArraySpec.uniform(exact, 5, 1),
            "nd_uniform": lambda: ArraySpec.uniform(nd_module, 5, 1),
            "nd_two_level": lambda: two_level_string(nd_module, 4, 2, 2.0),
        }[case]()
        voc = array_open_circuit_voltage(spec)
        for v in np.linspace(0.0, voc + 10.0, 97):
            assert abs(string_current(spec, 0, v) - scalar_string_current(spec, 0, v)) < 1e-4
        assert string_current(spec, 0, voc) == scalar_string_current(spec, 0, voc) == 0.0

    def test_string_voltage_must_be_non_negative(self, nd_module):
        spec = ArraySpec.uniform(nd_module, 5, 1)
        for read in (string_current, scalar_string_current):
            with pytest.raises(ValidationError):
                read(spec, 0, -1e-9)

    def test_uniform_array_at_mpp(self, nd_module):
        spec = ArraySpec.uniform(nd_module, 5, 3)
        assert array_current(spec, 5 * 23.6) == pytest.approx(3 * 8.27, rel=0.02)

    def test_short_circuit_scales_with_irradiance(self, nd_module):
        cond = ModuleCondition(0.7, 25.0)
        spec = ArraySpec.uniform(nd_module, 5, 3, cond)
        assert array_current(spec, 0.0) == pytest.approx(3 * 8.68 * 0.7, rel=0.01)

    def test_negative_voltage_rejected(self, nd_module):
        spec = ArraySpec.uniform(nd_module, 5, 3)
        with pytest.raises(ValidationError):
            array_current(spec, -1.0)

    def test_array_current_monotone(self, nd_module):
        rnd = random.Random(3)
        levels = [ModuleCondition(rnd.uniform(0.2, 1.0), rnd.uniform(15, 45)) for _ in range(3)]
        grid = tuple(
            tuple(levels[rnd.randrange(3)] for _ in range(5)) for _ in range(3)
        )
        spec = ArraySpec(5, 3, nd_module, grid)
        voc = array_open_circuit_voltage(spec)
        vs = np.linspace(0.0, voc, 240)
        cur = [array_current(spec, float(v)) for v in vs]
        assert np.all(np.diff(cur) <= 1e-7)

    def test_uniform_matches_lumped_equivalent(self, nd_module):
        for s, t in ((1.0, 25.0), (0.6, 35.0), (0.25, 10.0)):
            cond = ModuleCondition(s, t)
            spec = ArraySpec.uniform(nd_module, 5, 3, cond)
            voc = array_open_circuit_voltage(spec)
            for v in np.linspace(0.0, voc * 0.999, 17):
                direct = uniform_array_current(nd_module, cond, 5, 3, float(v))
                composed = array_current(spec, float(v))
                assert composed == pytest.approx(direct, rel=1e-6, abs=1e-6)

    def test_batch_matches_scalar(self, nd_module):
        spec = two_level_string(nd_module, 4, 2, 2.0)
        curve = sweep_curve(spec, 0.01)
        for j in np.linspace(0, len(curve) - 1, 37).round().astype(int):
            assert abs(array_current(spec, float(curve.v[j])) - curve.i[j]) < 1e-4


def _float_bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_memo_matches_uncached(spec: ArraySpec) -> None:
    """The sweep, the string readout and the open-circuit voltage of ``spec``
    carry the bits of strings built afresh, one per string index."""
    voc = array_open_circuit_voltage(spec)
    assert _float_bits(voc) == _float_bits(uncached_array_open_circuit_voltage(spec))
    curve = sweep_curve(spec, 0.01)
    if voc > 0.01:  # a dark array is swept without its strings
        want = np.maximum(uncached_sweep_current(spec, curve.v), 0.0)
        want[-1] = 0.0
        assert curve.i.tobytes() == want.tobytes()
    for s in range(spec.n_parallel):
        v_pts, i_pts = uncached_string_curve(spec, s)
        got_v, got_i = spec._strings.curve(s)
        assert got_v.tobytes() == v_pts.tobytes() and got_i.tobytes() == i_pts.tobytes()
        for v in (0.0, 0.5 * voc, float(v_pts[len(v_pts) // 3]), voc, voc + 1.0):
            want_i = float(np.interp(v, v_pts, i_pts, right=0.0))
            assert _float_bits(string_current(spec, s, v)) == _float_bits(want_i)


@pytest.fixture
def solves(monkeypatch):
    """The conditions ``_module_branch_samples`` and ``_diode_voltage_var``
    are called at, as ``{"branch": [c, ...], "x": [(c, i), ...]}``."""
    calls = {"branch": [], "x": []}
    branch, x = pvmodel._module_branch_samples, pvmodel._diode_voltage_var

    def spy_branch(p, c, x_oc):
        calls["branch"].append(c)
        return branch(p, c, x_oc)

    def spy_x(p, c, i):
        calls["x"].append((c, i))
        return x(p, c, i)

    monkeypatch.setattr(pvmodel, "_module_branch_samples", spy_branch)
    monkeypatch.setattr(pvmodel, "_diode_voltage_var", spy_x)
    return calls


A, B, C = ModuleCondition(0.8, 30.0), ModuleCondition(0.4, 27.0), ModuleCondition(0.15, 25.0)


class TestStringMemo:
    """Each ArraySpec builds each distinct condition and string once: the
    results keep the bits of the strings built one by one."""

    @pytest.mark.parametrize("name", [f"benchmark_psc{k}" for k in range(1, 6)])
    def test_psc_events_match_uncached_strings(self, name):
        scn = load_scenario(SCENARIO_DIR / f"{name}.json")
        for k in range(len(scn.events)):
            assert_memo_matches_uncached(base_array_spec(scn, k))

    def test_repeated_and_reordered_strings_match(self, nd_module):
        """Strings 0, 2 and 3 share one key (3 in another module order but
        the same first appearances), strings 1 and 5 sum the same groups in
        other orders, and string 4 holds equal conditions that are other
        objects.  Three groups: two would add in either order to one bit
        pattern."""
        a2 = ModuleCondition(A.irradiance, A.temperature)
        grid = (
            (A, A, B, C), (C, B, A, A), (A, A, B, C), (A, B, A, C), (a2, a2, B, C), (B, A, C, A),
        )
        spec = ArraySpec(4, 6, nd_module, grid)
        assert len(set(spec._strings.keys)) == 3
        assert_memo_matches_uncached(spec)

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(1, 5).flatmap(
            lambda n: st.lists(st.lists(st.sampled_from((A, B, C)), min_size=n, max_size=n),
                               min_size=1, max_size=4)
        )
    )
    def test_drawn_arrays_match_uncached_strings(self, rows):
        spec = ArraySpec(len(rows[0]), len(rows), ND195R1S_PARAMS, tuple(map(tuple, rows)))
        assert_memo_matches_uncached(spec)

    @pytest.mark.parametrize("event", [0, 1])
    def test_one_solve_per_distinct_condition(self, solves, event):
        """On psc1 (event 0 uniform, event 1 three levels over three strings)
        the open-circuit root and the branch samples run once per distinct
        condition, and the readouts after the sweep compute nothing new."""
        scn = load_scenario(SCENARIO_DIR / "benchmark_psc1.json")
        spec = base_array_spec(scn, event)
        distinct = {c for row in spec.conditions for c in row}
        assert len(distinct) == (1 if event == 0 else 3)
        sweep_curve(spec, 0.01)
        assert sorted(solves["x"], key=repr) == sorted(((c, 0.0) for c in distinct), key=repr)
        assert sorted(solves["branch"], key=repr) == sorted(distinct, key=repr)
        before = {k: list(v) for k, v in solves.items()}
        for s in range(spec.n_parallel):
            for v in (0.0, 60.0, 110.0, 200.0):
                string_current(spec, s, v)
        array_open_circuit_voltage(spec)
        assert solves == before

    def test_fresh_spec_with_equal_fields_recomputes(self, solves, nd_module):
        spec = ArraySpec(4, 2, nd_module, ((A, A, B, B), (A, A, B, B)))
        twin = ArraySpec(spec.n_series, spec.n_parallel, spec.module, spec.conditions)
        assert twin != spec
        curve = sweep_curve(spec, 0.01)
        assert len(solves["branch"]) == 2
        twin_curve = sweep_curve(twin, 0.01)
        assert len(solves["branch"]) == 4 and len(solves["x"]) == 4
        assert twin._strings is not spec._strings
        assert twin_curve.i.tobytes() == curve.i.tobytes()

    def test_no_kept_sample_on_the_summed_clamp(self):
        """psc1's event 1 on a 1000 ohm module: a fully clamped sample of a
        string with two groups sums to -3.4999999999999996 V, above
        ``n_series*v_bypass``; no string keeps a sample at or below the clamp
        summed group by group."""
        base = base_array_spec(load_scenario(SCENARIO_DIR / "benchmark_psc1.json"), 1)
        spec = replace(base, module=replace(base.module, r_s=1000.0))
        assert any(len(key) > 1 for key in spec._strings.keys)
        for s, key in enumerate(spec._strings.keys):
            v_pts, _ = spec._strings.curve(s)
            assert v_pts.min() > sum(n * spec.module.v_bypass for _, n in key)

    def test_shared_arrays_are_read_only(self, nd_module):
        spec = two_level_string(nd_module, 4, 2, 2.0)
        v_pts, i_pts = spec._strings.curve(0)
        for arr in (v_pts, i_pts, *pvmodel._module_branch_samples(nd_module, HS, 30.0)):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert spec._strings.curve(0)[0] is v_pts


class TestSweepAndOracle:
    def test_uniform_curve_single_peak(self, nd_module):
        spec = ArraySpec.uniform(nd_module, 5, 3)
        curve = sweep_curve(spec, 0.01)
        peaks = local_maxima(curve)
        assert len(peaks) == 1
        v_star, p_star = oracle_gmpp(curve)
        assert v_star == pytest.approx(5 * 23.6, abs=2.5)
        assert p_star == pytest.approx(15 * 195.0, rel=0.02)

    def test_curve_invariants(self, nd_module):
        spec = two_level_string(nd_module, 4, 2, 2.0)
        curve = sweep_curve(spec, 0.01)
        assert np.all(np.diff(curve.v) > 0)
        assert curve.v[0] == 0.0
        assert curve.v[-1] == pytest.approx(array_open_circuit_voltage(spec), abs=1e-9)
        assert np.all(np.diff(curve.i) <= 1e-9)
        np.testing.assert_array_equal(curve.p, curve.v * curve.i)

    def test_two_level_string_has_two_peaks(self, nd_module):
        curve = sweep_curve(two_level_string(nd_module, 4, 2, 2.0), 0.01)
        assert len(local_maxima(curve)) == 2

    def test_dark_array_has_no_power(self, nd_module):
        dark = ModuleCondition(0.0, 25.0)
        curve = sweep_curve(ArraySpec.uniform(nd_module, 5, 3, dark), 0.01)
        assert curve.p.max() == 0.0

    def test_v_step_validated(self, nd_module):
        spec = ArraySpec.uniform(nd_module, 5, 1)
        with pytest.raises(ValidationError):
            sweep_curve(spec, 0.06)
        with pytest.raises(ValidationError):
            sweep_curve(spec, 0.0)

    def test_low_ir_dominance_picks_upper_peak(self, nd_module):
        # three of four modules lightly shaded: the high-voltage peak wins
        curve = sweep_curve(two_level_string(nd_module, 4, 3, 1.3), 0.01)
        peaks = sorted(local_maxima(curve))
        assert len(peaks) == 2
        v_star, p_star = oracle_gmpp(curve)
        assert v_star == pytest.approx(peaks[1][0], abs=0.05)

    def test_oracle_golden_benchmark_psc3(self, nd_module):
        # frozen output of this oracle at 0.01 V resolution (determinism guard)
        spec = base_array_spec(load_scenario(SCENARIO_DIR / "benchmark_psc3.json"), 1)
        v_star, p_star = oracle_gmpp(sweep_curve(spec, 0.01))
        assert v_star == pytest.approx(119.450000, abs=1e-5)
        assert p_star == pytest.approx(886.675119, rel=1e-6)

    def test_oracle_empty_curve_rejected(self, nd_module):
        from pvmppt.pvmodel import PvCurve

        empty = PvCurve(np.array([]), np.array([]), np.array([]))
        with pytest.raises(ValidationError):
            oracle_gmpp(empty)

    def test_current_at_matches_np_interp(self, nd_module):
        """Every query gives np.interp's bits: the float queries that the
        sample lists answer and the ones that go to the compiled kernel, as
        a Python float, and numpy scalars, ints and arrays in np.interp's
        own type."""
        from pvmppt.pvmodel import PvCurve

        def same(got, want, v):
            if type(v) is float:
                return type(got) is float and np.float64(got).tobytes() == want.tobytes()
            return type(got) is type(want) and got.tobytes() == want.tobytes()

        spec = two_level_string(nd_module, 4, 2, 2.0)
        curve = sweep_curve(spec, 0.01)
        v_s, i_s = spec._strings.curve(0)  # the string's own, non-uniform samples
        k = len(curve) // 3
        v_rep = np.insert(curve.v, k, curve.v[k])
        i_rep = np.insert(curve.i, k, curve.i[k] + 0.5)
        n = len(curve) // 2
        curves = {
            "sweep": curve,
            "non-uniform": PvCurve(v_s, i_s, v_s * i_s),
            "repeated sample": PvCurve(v_rep, i_rep, v_rep * i_rep),
            "prefix view": PvCurve(curve.v[:n], curve.i[:n], curve.p[:n]),
            # a NaN on one side of a segment makes numpy retry from the other
            "non-finite currents": PvCurve(
                np.arange(6.0), np.array([1.0, math.inf, 2.0, math.nan, math.inf, math.inf]),
                np.zeros(6),
            ),
        }
        rnd = random.Random(5)
        for name, c in curves.items():
            samples = c.v.tolist()
            scalars = [rnd.uniform(-1.0, samples[-1] + 1.0) for _ in range(2000)]
            for x in samples:
                scalars += [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
            scalars += [0.0, -0.0, math.inf, -math.inf, math.nan]
            others = [np.float64(x) for x in scalars[:500:7]] + [0, 5, 100, -3, 10**6]
            for v in scalars + others:
                got = c.current_at(v)
                want = np.interp(v, c.v, c.i, right=0.0)
                assert same(got, want, v), (name, v)
            assert c._lists[0], name  # the float queries were answered from the lists
            # numpy's kernel copies a read-only argument on every call
            assert c._xp.flags.writeable and c._fp.flags.writeable, name
            with np.errstate(invalid="ignore"):  # inf * 0.0, on both sides
                for v in scalars[:2000] + scalars[-5:] + others:
                    got = c.power_at(v)
                    want = v * np.interp(v, c.v, c.i, right=0.0)
                    assert type(got) is type(want) and got.tobytes() == want.tobytes(), (name, v)
                arr = np.array(scalars)
                for method, want in (
                    (c.current_at, np.interp(arr, c.v, c.i, right=0.0)),
                    (c.power_at, arr * np.interp(arr, c.v, c.i, right=0.0)),
                ):
                    got = method(arr)
                    assert type(got) is type(want) and got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()
        # curves the lists cannot answer: every query goes to the kernel
        for v_k in ([1.0], [1.0, 1.0], [0.0, 2.0, 1.0, 3.0], [0.0, math.nan, 2.0], [0.0, math.inf]):
            c = PvCurve(np.array(v_k), np.arange(len(v_k), dtype=float), np.zeros(len(v_k)))
            for v in (0.5, 1.0, 1.5, 2.5):
                got, want = c.current_at(v), np.interp(v, c.v, c.i, right=0.0)
                assert same(got, want, v), (v_k, v)
            assert not c._lists[0], v_k
        with pytest.raises(ValueError, match="same length"):  # as np.interp
            PvCurve(np.arange(3.0), np.arange(2.0), np.zeros(3)).current_at(0.5)
        for a in (curve.v, curve.i, curve.p):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        # copies of a curve that has answered float queries: read-only, same answers
        queries = [0.37, 51.234, float(curve.v[100]), float(curve.v[-1]) - 1e-9]
        answers = [np.float64(curve.current_at(v)).tobytes() for v in queries]
        for twin in (pickle.loads(pickle.dumps(curve)), copy.deepcopy(curve)):
            assert all(getattr(twin, f).tobytes() == getattr(curve, f).tobytes() for f in "vip")
            assert not any(getattr(twin, f).flags.writeable for f in "vip")
            assert [np.float64(twin.current_at(v)).tobytes() for v in queries] == answers


@pytest.fixture(scope="module")
def grid_results(nd_module):
    rnd = random.Random(7)
    rows = []
    for _ in range(60):
        ns = rnd.randint(2, 8)
        n_sh = rnd.randint(1, ns - 1)
        ir = rnd.uniform(1.2, 10.0)
        spec = two_level_string(nd_module, ns, n_sh, ir)
        peaks = sorted(local_maxima(sweep_curve(spec, 0.01)))
        rows.append((ns, n_sh, ir, peaks))
    return rows


class TestPeakStructureProperties:
    """Randomized two-level grid: peak locations, bounds, separation."""

    def test_exactly_two_local_maxima(self, grid_results):
        assert all(len(p) == 2 for *_, p in grid_results)

    def test_upper_peak_location_bound(self, nd_module, grid_results):
        voc_hs = module_open_circuit_voltage(nd_module, HS)
        for ns, n_sh, ir, peaks in grid_results:
            v_mpp_sh, _ = module_mpp(nd_module, ModuleCondition(1.0 / ir, 25.0))
            v2 = peaks[1][0]
            n_in = ns - n_sh
            assert ns * v_mpp_sh < v2 < n_sh * v_mpp_sh + n_in * voc_hs

    def test_lower_peak_location(self, nd_module, grid_results):
        v_mpp_hs, _ = module_mpp(nd_module, HS)
        for ns, n_sh, ir, peaks in grid_results:
            predicted = (ns - n_sh) * v_mpp_hs - 0.7 * n_sh
            assert peaks[0][0] == pytest.approx(predicted, rel=0.05)

    def test_peak_separation_exceeds_module_mpp_voltage(self, nd_module, grid_results):
        v_mpp_hs, _ = module_mpp(nd_module, HS)
        for *_, peaks in grid_results:
            assert peaks[1][0] - peaks[0][0] > v_mpp_hs

    def test_dominance_high_k_low_ir(self, nd_module):
        # whenever the shaded/insolated ratio is high and the irradiance
        # ratio low, the upper-voltage peak is the global maximum
        for ns, n_sh in ((4, 3), (5, 4), (8, 6)):
            for ir in (1.2, 1.35, 1.5):
                curve = sweep_curve(two_level_string(nd_module, ns, n_sh, ir), 0.01)
                peaks = sorted(local_maxima(curve))
                v_star, _ = oracle_gmpp(curve)
                assert v_star == pytest.approx(peaks[-1][0], abs=0.05)
