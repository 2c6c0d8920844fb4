"""Independent physics and solvers used only to cross-check the package in
the tests.

None of these runs in the simulator:

- the module MPP is found by a golden-section search over the scalar
  single-diode solution;
- the string current bisects on the shared current over the scalar
  module voltages instead of reading the string's swept samples, and the
  array current sums those strings;
- the uncached sweep builds every string afresh from its own module
  groups, where the package builds each distinct string and condition of
  an array once and keeps it;
- the uniform array current collapses the whole array into one lumped
  diode instead of composing strings;
- the local maxima refine every peak of a swept curve, not only the
  global one;
- the plant table interpolates the curve over the whole 0.01 V grid and
  its lookup reads a list, where ``PlantCurve`` copies the samples that
  fall on the grid and reads them through a ``memoryview``;
- the datasheet fit is solved by scipy instead of the package's own
  Levenberg–Marquardt;
- a controller wait is a float time compared with each tick's time, where
  the controller stores the first tick on which the wait is over;
- the Python RK4 loop computes every sub-step's command and step factors
  inside the loop, where ``converter._python_advance`` takes the ones
  that do not change out of it.
"""

import math

import numpy as np
from scipy.optimize import least_squares

from pvmppt.converter import ConverterParams, _plant_constants
from pvmppt.pvmodel import (
    ArraySpec,
    CalibrationError,
    ModuleCondition,
    ModuleDatasheet,
    ModuleParams,
    PvCurve,
    ValidationError,
    _bracket,
    _check_contract,
    _diode_voltage_var,
    _env,
    _exp,
    _fit_problem,
    _module_branch_samples,
    module_current,
    module_open_circuit_voltage,
    module_voltage,
)
from pvmppt.solver import SolverError, golden_section_max, solve_decreasing


def module_mpp(p: ModuleParams, c: ModuleCondition) -> tuple[float, float]:
    """(v, p) of the module maximum power point at condition ``c``."""
    voc = module_open_circuit_voltage(p, c)
    v, pw = golden_section_max(lambda v: v * module_current(p, c, v), 0.0, voc, xtol=1e-5)
    return v, pw


def string_groups(
    spec: ArraySpec, string_idx: int
) -> list[tuple[ModuleParams, ModuleCondition, int]]:
    """Distinct (params, condition) groups of one string with counts, in the
    order the conditions first appear."""
    groups: dict[ModuleCondition, int] = {}
    for c in spec.conditions[string_idx]:
        groups[c] = groups.get(c, 0) + 1
    return [(spec.module, c, n) for c, n in groups.items()]


def uncached_string_curve(spec: ArraySpec, string_idx: int) -> tuple[np.ndarray, np.ndarray]:
    """(v ascending, i) samples of one string, built afresh: one
    open-circuit root and one set of branch samples per module group."""
    branches = []
    for p, c, n in string_groups(spec, string_idx):
        branches.append((_module_branch_samples(p, c, _diode_voltage_var(p, c, 0.0)), n))
    # a fully clamped sample sums the clamp group by group, in this order
    v_clamped = sum(n * spec.module.v_bypass for _, n in branches)
    i_top = max(i_asc[-1] for (i_asc, _), _ in branches)
    master = np.unique(
        np.concatenate([i_asc for (i_asc, _), _ in branches] + [np.linspace(0.0, i_top, 1025)])
    )
    v_str = np.zeros_like(master)
    for (i_asc, v_asc), n in branches:
        v_str += n * np.interp(master, i_asc, v_asc)
    v_sorted = v_str[::-1]
    i_sorted = master[::-1]
    keep = np.concatenate(([True], np.diff(v_sorted) > 0.0))
    keep &= v_sorted > v_clamped
    return v_sorted[keep], i_sorted[keep]


def uncached_array_open_circuit_voltage(spec: ArraySpec) -> float:
    """The highest string open-circuit voltage, each module solved afresh."""
    return max(
        sum(n * module_open_circuit_voltage(p, c) for p, c, n in string_groups(spec, s))
        for s in range(spec.n_parallel)
    )


def uncached_sweep_current(spec: ArraySpec, v: np.ndarray) -> np.ndarray:
    """The array current ``sweep_curve`` sums at the voltages ``v`` (before
    its clip and its zero at the last sample): every string interpolated
    afresh, added in string order."""
    i = np.zeros_like(v)
    for s in range(spec.n_parallel):
        i += np.interp(v, *uncached_string_curve(spec, s), right=0.0)
    return i


def scalar_string_current(spec: ArraySpec, string_idx: int, v: float) -> float:
    """Current of one series string held at terminal voltage ``v``.

    The sum of module voltages is strictly decreasing in the shared
    current, so plain bisection over [0, max module short-circuit
    current] always converges.  A blocking diode forces the current to
    zero at and above the string open-circuit voltage.
    """
    if v < 0.0:
        raise ValidationError("string voltage must be >= 0")
    groups = string_groups(spec, string_idx)
    if v >= sum(n * module_open_circuit_voltage(p, c) for p, c, n in groups):
        return 0.0
    hi = max(module_current(p, c, 0.0) for p, c, _ in groups) + 1e-9
    hi += 0.7 / min(p.r_sh for p, _, _ in groups)  # clamp region headroom
    lo = 0.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        vsum = sum(n * module_voltage(p, c, mid) for p, c, n in groups)
        if vsum > v:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)


def array_current(spec: ArraySpec, v: float) -> float:
    """Total array current: the sum of independent scalar string currents."""
    if v < 0.0:
        raise ValidationError("array voltage must be >= 0")
    return sum(scalar_string_current(spec, s, v) for s in range(spec.n_parallel))


def local_maxima(curve: PvCurve) -> list[tuple[float, float]]:
    """All interior local maxima above 1e-6 W of the swept P-V curve, refined."""
    p = curve.p
    peaks = []
    for j in range(1, len(p) - 1):
        if p[j] > p[j - 1] and p[j] >= p[j + 1] and p[j] > 1e-6:
            v_star, p_star = golden_section_max(
                lambda v: float(curve.power_at(v)), curve.v[j - 1], curve.v[j + 1], xtol=1e-3
            )
            peaks.append((v_star, max(p_star, float(p[j]))))
    return peaks


def interpolated_plant(curve: PvCurve, h: float = 0.01):
    """``(vals, lookup, v_top)``: the plant table as ``PlantCurve`` built it
    before it read the curve's own samples, ``np.interp`` over the whole
    grid, zero from V_oc up, and the lookup over that table as a list."""
    voc = float(curve.v[-1])
    grid = np.arange(0.0, voc + 2 * h, h)
    vals = np.interp(grid, curve.v, curve.i, right=0.0)
    vals[grid >= voc] = 0.0
    ilist = vals.tolist()
    v_top = (len(ilist) - 2) * h

    def lookup(v):
        if v <= 0.0:
            return ilist[0]
        if v >= v_top:
            return 0.0
        x = v / h
        j = int(x)
        fr = x - j
        return ilist[j] + (ilist[j + 1] - ilist[j]) * fr

    return vals, lookup, v_top


def uniform_array_current(
    p: ModuleParams,
    c: ModuleCondition,
    n_series: int,
    n_parallel: int,
    v: float,
) -> float:
    """Array current under uniform conditions via the lumped equivalent.

    Collapses the whole array into one equivalent diode with scaled
    series/shunt resistances; cross-checks the per-string composition
    under uniform conditions.
    """
    a, i_pv, i_o = _env(p, c)
    a_arr = a * n_series
    r_s = p.r_s * n_series / n_parallel
    r_sh = p.r_sh * n_series / n_parallel
    ipv_arr = i_pv * n_parallel
    io_arr = i_o * n_parallel

    def f(i: float) -> float:
        x = v + r_s * i
        return ipv_arr - io_arr * (_exp(x / a_arr) - 1.0) - x / r_sh - i

    def fprime(i: float) -> float:
        x = v + r_s * i
        return -io_arr * r_s / a_arr * _exp(x / a_arr) - r_s / r_sh - 1.0

    lo, hi = _bracket(f, ipv_arr - io_arr * math.expm1(v / a_arr) - v / r_sh)
    return max(solve_decreasing(f, lo, hi, fprime, ftol=1e-12 * max(ipv_arr, 1.0)), 0.0)


def scipy_fit(ds: ModuleDatasheet) -> ModuleParams:
    """The datasheet fit of ``pvmodel._fit_problem`` solved by scipy's
    trust-region ``least_squares``, under the same rule: the fit from the
    first start that meets the calibration contract, else the last fit."""
    residuals, make, starts, lower, upper = _fit_problem(ds)
    for x0 in starts:
        try:
            sol = least_squares(
                residuals, x0, bounds=(lower, upper), xtol=1e-14, ftol=1e-14, gtol=1e-14
            )
        except (SolverError, ValueError):  # ValidationError, or x0 outside the bounds
            continue
        params = make(sol.x)
        try:
            _check_contract(ds, params)
            return params
        except CalibrationError:
            pass
    return params


def float_wait_over(t: float, due: float) -> bool:
    """The float wait rule: a wait that falls due at ``due`` (the time it
    started plus its length) is over at tick time ``t`` when
    ``t + 1e-12 >= due``.  P&O's next step and every settle wait by it."""
    return t + 1e-12 >= due


def first_tick_over(tick: int, wait_s: float, adc: float, limit: int) -> int | None:
    """The first tick in ``[tick, limit)`` on which a wait of ``wait_s``
    started on tick ``tick`` is over by :func:`float_wait_over`, each tick
    ``j`` taken at ``j * adc``; None if there is none."""
    due = tick * adc + wait_s
    return next((j for j in range(tick, limit) if float_wait_over(j * adc, due)), None)


def reference_advance(
    v: float, il: float, w0: float, dw: float, n_ticks: int, n_sub: int, dt: float, i_of_v,
    params: ConverterParams, samples: tuple[list, list] | None,
) -> tuple[float, float]:
    """``converter._python_advance`` with nothing taken out of its loop:
    every sub-step computes its command ``w`` and the products
    ``0.5 * dt * k`` and ``dt / 6.0 * s`` afresh."""
    inv_c, inv_l, r_l, w_floor = _plant_constants(params)
    for t in range(n_ticks):
        if samples is not None:
            samples[0].append(v)
            samples[1].append(i_of_v(v))
        for k in range(t * n_sub, (t + 1) * n_sub):
            x = w0 + dw * (k + 0.5)
            w = x if x > w_floor else w_floor
            k1v = (i_of_v(v) - il) * inv_c
            k1i = (v - r_l * il - w) * inv_l
            v2, i2 = v + 0.5 * dt * k1v, il + 0.5 * dt * k1i
            k2v = (i_of_v(v2) - i2) * inv_c
            k2i = (v2 - r_l * i2 - w) * inv_l
            v3, i3 = v + 0.5 * dt * k2v, il + 0.5 * dt * k2i
            k3v = (i_of_v(v3) - i3) * inv_c
            k3i = (v3 - r_l * i3 - w) * inv_l
            v4, i4 = v + dt * k3v, il + dt * k3i
            k4v = (i_of_v(v4) - i4) * inv_c
            k4i = (v4 - r_l * i4 - w) * inv_l
            v += dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            il += dt / 6.0 * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
            if il < 0.0:
                il = 0.0
            if v < 0.0:
                v = 0.0
    return v, il
