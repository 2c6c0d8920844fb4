"""Single-diode PV module, string, and array electrical model.

Evaluates I-V/P-V characteristics of a series/parallel module array under
arbitrary per-module irradiance and temperature, including bypass-diode
clamping and ideal blocking diodes, and provides a brute-force P-V sweep
with a global-maximum refinement used as the ground-truth oracle by the
rest of the package.

The module equation is the classic five-parameter single-diode form

    I = I_pv - I_o * (exp((V + Rs*I) / (A*Vt)) - 1) - (V + Rs*I) / Rsh

with Vt = n_cells*k*T/q the module thermal voltage.  Photocurrent scales
linearly with irradiance; the saturation current follows the standard
cubic/exponential temperature law with a 1.12 eV band gap.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

try:
    from numpy._core.multiarray import interp as _interp
except ImportError:  # numpy < 2
    from numpy.core.multiarray import interp as _interp

from .solver import SolverError, bounded_lm, golden_section_max, solve_decreasing

BOLTZMANN_J_PER_K = 1.380649e-23
ELECTRON_CHARGE_C = 1.602176634e-19
BAND_GAP_EV = 1.12
T_REF_C = 25.0
KELVIN_OFFSET = 273.15
STC_IRRADIANCE = 1.0  # kW/m^2
A_FIXED = 1.3  # diode ideality factor of every datasheet fit


class ValidationError(ValueError):
    """Input data violates a documented invariant; ``field`` names the
    constructor argument at fault, where there is one."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def check_field(name: str, value: float, ok: bool, envelope: str) -> None:
    """Raise a :class:`ValidationError` naming field ``name`` unless ``value``
    is finite and ``ok``, the caller's bound; ``envelope`` says both in words."""
    if not (math.isfinite(value) and ok):
        raise ValidationError(f"{name} must be {envelope}, got {value}", name)


class CalibrationError(RuntimeError):
    """Datasheet fit did not reach the required fidelity."""

    def __init__(self, message: str, residuals: tuple[float, ...]):
        super().__init__(f"{message}; scaled residuals={residuals!r}")
        self.residuals = residuals


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModuleDatasheet:
    """Nameplate electrical data of one module at STC."""

    p_max: float
    v_oc: float
    i_sc: float
    v_mpp: float
    i_mpp: float
    rho_mod: float  # fraction per degC for V_mpp, negative
    n_cells: int
    pmax_thermal_coeff: float = -0.0044  # fraction per degC, negative

    def __post_init__(self) -> None:
        # v_oc and i_sc are bounded by the MPP checks that follow them
        check_field("p_max", self.p_max, self.p_max > 0.0, "finite and positive")
        check_field("v_oc", self.v_oc, True, "finite")
        check_field("i_sc", self.i_sc, True, "finite")
        check_field("v_mpp", self.v_mpp, 0.0 < self.v_mpp < self.v_oc, f"in (0, v_oc {self.v_oc})")
        check_field("i_mpp", self.i_mpp, 0.0 < self.i_mpp < self.i_sc, f"in (0, i_sc {self.i_sc})")
        if abs(self.p_max - self.v_mpp * self.i_mpp) / self.p_max >= 0.02:
            raise ValidationError("p_max inconsistent with v_mpp*i_mpp (>2%)", "p_max")
        for name in ("rho_mod", "pmax_thermal_coeff"):
            value = getattr(self, name)
            check_field(name, value, value < 0.0, "finite and negative")
        if self.n_cells < 1:
            raise ValidationError("n_cells must be positive", "n_cells")


@dataclass(frozen=True)
class ModuleParams:
    """Calibrated single-diode parameters of one module."""

    i_pv_ref: float  # photocurrent at STC [A]
    i_o_ref: float  # diode saturation current at STC [A]
    ideality_a: float
    r_s: float  # ohm
    r_sh: float  # ohm
    n_cells: int
    v_bypass: float = -0.7  # conducting bypass-diode clamp [V]

    def __post_init__(self) -> None:
        for name in ("i_pv_ref", "i_o_ref", "r_sh"):
            value = getattr(self, name)
            check_field(name, value, value > 0.0, "finite and positive")
        check_field("ideality_a", self.ideality_a, 1.0 <= self.ideality_a <= 2.0, "in [1, 2]")
        check_field("r_s", self.r_s, self.r_s >= 0.0, "finite and non-negative")
        check_field("v_bypass", self.v_bypass, -1.0 <= self.v_bypass <= -0.5, "in [-1.0, -0.5] V")
        if self.n_cells < 1:
            raise ValidationError("n_cells must be positive", "n_cells")


@dataclass(frozen=True)
class ModuleCondition:
    """Operating environment of one module."""

    irradiance: float  # kW/m^2
    temperature: float  # degC

    def __post_init__(self) -> None:
        check_field("irradiance", self.irradiance, self.irradiance >= 0.0, "finite and >= 0")
        t = self.temperature
        check_field("temperature", t, -40.0 <= t <= 90.0, "in [-40, 90] C")


STC = ModuleCondition(irradiance=STC_IRRADIANCE, temperature=T_REF_C)


@dataclass(frozen=True, eq=False)
class ArraySpec:
    """Ns x Np array topology with per-module conditions.

    ``conditions[s][j]`` is the condition of module ``j`` (front to back)
    in string ``s``; every module has the electrical parameters ``module``.
    """

    n_series: int
    n_parallel: int
    module: ModuleParams
    conditions: tuple[tuple[ModuleCondition, ...], ...]
    sample_module: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        if self.n_series < 1 or self.n_parallel < 1:
            raise ValidationError("array dimensions must be positive")
        if len(self.conditions) != self.n_parallel or any(
            len(row) != self.n_series for row in self.conditions
        ):
            raise ValidationError("conditions grid must be n_parallel x n_series")
        s, j = self.sample_module
        if not (0 <= s < self.n_parallel and 0 <= j < self.n_series):
            raise ValidationError("sample_module index outside the array")

    @cached_property
    def _strings(self) -> "_StringCurves":
        """This spec's string curves, computed on first use and kept for its
        life: a spec is identity-hashed, so an equal new one starts afresh."""
        return _StringCurves(self)

    @classmethod
    def uniform(
        cls,
        module: ModuleParams,
        n_series: int,
        n_parallel: int,
        condition: ModuleCondition = STC,
        sample_module: tuple[int, int] = (0, 0),
    ) -> "ArraySpec":
        grid = tuple(tuple(condition for _ in range(n_series)) for _ in range(n_parallel))
        return cls(n_series, n_parallel, module, grid, sample_module)


@dataclass(frozen=True)
class PvCurve:
    """Dense P-V/I-V samples of one array under fixed conditions.

    The curve shows its samples as read-only views, so the sample lists
    that :meth:`current_at` keeps cannot go stale through them.  The
    compiled kernel is handed writeable views of the same memory
    (``_xp``, ``_fp``): ``np.interp`` copies a read-only argument on every
    call, ~7 us for a 13,001-sample curve.  Memory that is itself
    read-only is copied once, when the curve is built."""

    v: np.ndarray
    i: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        for name, private in (("v", "_xp"), ("i", "_fp"), ("p", None)):
            a = np.asarray(getattr(self, name), dtype=np.float64)
            w = a.view()
            try:
                w.flags.writeable = True
            except ValueError:  # the memory is read-only
                w = a.copy()
            object.__setattr__(self, name, _read_only(w.view()))
            if private:
                object.__setattr__(self, private, w)

    def __reduce__(self):
        # rebuilt through __init__: the copy's arrays are read-only too, and
        # the sample lists are not carried along
        return PvCurve, (self.v, self.i, self.p)

    def __len__(self) -> int:
        return len(self.v)

    @cached_property
    def _lists(self) -> tuple[list[float], list[float], float, float, float]:
        """``(v, i)`` as Python lists, ``v[0]``, ``v[-1]`` and the samples per
        volt, built on the first float query.  For fewer than two samples,
        currents of another length, or voltages that are not ascending (NaN
        fails) over a finite, positive span, the range is empty and every
        query goes to the kernel."""
        v = self.v
        if len(v) >= 2 and len(self.i) == len(v) and (v[1:] >= v[:-1]).all():
            xs = v.tolist()
            x0, x_end = xs[0], xs[-1]
            scale = (len(xs) - 1) / (x_end - x0) if x_end > x0 else 0.0
            if 0.0 < scale < math.inf:  # also 0 for an infinite span
                xs.append(math.inf)  # brackets a guess rounded up to the last sample
                return xs, self.i.tolist(), x0, x_end, scale
        return [], [], math.inf, -math.inf, 0.0

    def current_at(self, v: float | np.ndarray):
        """``np.interp(v, self.v, self.i, right=0.0)``, bit for bit.

        A Python float query returns a Python float with those bits; numpy
        scalars, ints and arrays return what ``np.interp`` returns.  A float
        inside ``[v[0], v[-1])`` is answered from the sample lists with the
        compiled kernel's own arithmetic: the open-loop plant source calls
        this four times per RK4 step, and a kernel call pays numpy's array
        set-up for one float.  Everything else goes to the compiled kernel
        that ``np.interp`` forwards to."""
        if type(v) is float:
            xs, ys, x0, x_end, scale = self._lists
            if x0 <= v < x_end:  # NaN fails
                j = int((v - x0) * scale)
                x, x1 = xs[j], xs[j + 1]
                if not x <= v < x1:
                    j = bisect_right(xs, v) - 1
                    x, x1 = xs[j], xs[j + 1]
                y = ys[j]
                if v == x:
                    return y
                y1 = ys[j + 1]
                slope = (y1 - y) / (x1 - x)
                r = slope * (v - x) + y
                if r != r:  # NaN one way: numpy tries the other
                    r = slope * (v - x1) + y1
                    if r != r and y == y1:
                        r = y
                return r
            return float(_interp(v, self._xp, self._fp, None, 0.0))
        return _interp(v, self._xp, self._fp, None, 0.0)

    def power_at(self, v: float | np.ndarray):
        """``v * np.interp(v, ...)`` on the compiled kernel: the golden-section
        searches ask ~30 points of a curve, too few to repay its lists."""
        return v * _interp(v, self._xp, self._fp, None, 0.0)


# ---------------------------------------------------------------------------
# single-module evaluation
# ---------------------------------------------------------------------------


def thermal_voltage(n_cells: int, temperature_c: float) -> float:
    t_k = temperature_c + KELVIN_OFFSET
    return n_cells * BOLTZMANN_J_PER_K * t_k / ELECTRON_CHARGE_C


def _env(p: ModuleParams, c: ModuleCondition) -> tuple[float, float, float]:
    """(A*Vt, I_pv, I_o) of a module at its condition."""
    a = p.ideality_a * thermal_voltage(p.n_cells, c.temperature)
    i_pv = p.i_pv_ref * c.irradiance
    t_k = c.temperature + KELVIN_OFFSET
    t0_k = T_REF_C + KELVIN_OFFSET
    exponent = (BAND_GAP_EV * ELECTRON_CHARGE_C / (p.ideality_a * BOLTZMANN_J_PER_K)) * (
        1.0 / t0_k - 1.0 / t_k
    )
    i_o = p.i_o_ref * (t_k / t0_k) ** 3 * math.exp(exponent)
    return a, i_pv, i_o


def _exp(arg: float) -> float:
    return math.exp(min(arg, 500.0))


def _bracket(f, center: float) -> tuple[float, float]:
    """(lo, hi) with f(lo) >= 0 >= f(hi) for a decreasing ``f``, grown
    outward from ``center`` in doubling steps (80 at most each way)."""
    width = 1.0 + 0.1 * abs(center)
    lo, hi = center - width, center + width
    for _ in range(80):
        if f(lo) >= 0.0:
            break
        lo -= width
        width *= 2.0
    width = 1.0 + 0.1 * abs(center)
    for _ in range(80):
        if f(hi) <= 0.0:
            break
        hi += width
        width *= 2.0
    return lo, hi


def module_current(p: ModuleParams, c: ModuleCondition, v: float) -> float:
    """Terminal current of the diode branch at voltage ``v``.

    Solves the implicit single-diode equation by Newton iteration inside
    an expanding bisection bracket (relative residual < 1e-9).
    """
    if v < p.v_bypass - 1e-12:
        raise ValidationError(f"module voltage {v} below bypass clamp {p.v_bypass}")
    a, i_pv, i_o = _env(p, c)
    if p.r_s == 0.0:
        return i_pv - i_o * math.expm1(v / a) - v / p.r_sh

    def f(i: float) -> float:
        x = v + p.r_s * i
        return i_pv - i_o * (_exp(x / a) - 1.0) - x / p.r_sh - i

    def fprime(i: float) -> float:
        x = v + p.r_s * i
        return -i_o * p.r_s / a * _exp(x / a) - p.r_s / p.r_sh - 1.0

    center = i_pv - i_o * math.expm1(v / a) - v / p.r_sh  # Rs=0 solution
    lo, hi = _bracket(f, center)
    scale = max(i_pv, abs(center), 1e-12)
    return solve_decreasing(f, lo, hi, fprime, ftol=1e-12 * scale)


def _diode_voltage_var(p: ModuleParams, c: ModuleCondition, i: float) -> float:
    """Solve for x = V + Rs*I at current ``i`` on the diode branch."""
    a, i_pv, i_o = _env(p, c)
    rhs = i_pv + i_o - i

    def h(x: float) -> float:
        return rhs - i_o * _exp(x / a) - x / p.r_sh

    def hprime(x: float) -> float:
        return -i_o / a * _exp(x / a) - 1.0 / p.r_sh

    if rhs > 0.0:
        x_lo = -1.0
        x_hi = a * math.log(rhs / i_o + 1.0)
    else:
        x_lo = rhs * p.r_sh - 1.0
        x_hi = 0.0
    step = 1.0
    for _ in range(80):
        if h(x_lo) >= 0.0:
            break
        x_lo -= step
        step *= 2.0
    scale = max(i_pv, abs(i), 1e-12)
    return solve_decreasing(h, x_lo, x_hi, hprime, ftol=1e-12 * scale)


def module_voltage(p: ModuleParams, c: ModuleCondition, i: float) -> float:
    """Terminal voltage at string current ``i``, bypass diode included.

    Returns the diode-branch voltage while it exceeds the bypass clamp,
    and ``v_bypass`` once the bypass diode carries the excess current.
    Continuous and non-increasing in ``i``.
    """
    if i < 0.0:
        raise ValidationError("module current must be >= 0")
    x = _diode_voltage_var(p, c, i)
    return max(x - p.r_s * i, p.v_bypass)


def module_open_circuit_voltage(p: ModuleParams, c: ModuleCondition) -> float:
    return module_voltage(p, c, 0.0)


# ---------------------------------------------------------------------------
# string and array composition
# ---------------------------------------------------------------------------


def string_current(spec: ArraySpec, string_idx: int, v: float) -> float:
    """Current of one series string held at terminal voltage ``v``.

    Reads the string's swept samples (``spec._strings.curve``, the ones
    :func:`sweep_curve` sums) by linear interpolation.  A blocking diode
    forces the current to zero at and above the string open-circuit voltage.
    """
    if v < 0.0:
        raise ValidationError("string voltage must be >= 0")
    v_pts, i_pts = spec._strings.curve(string_idx)
    return float(_interp(v, v_pts, i_pts, None, 0.0))


def array_open_circuit_voltage(spec: ArraySpec) -> float:
    return max(spec._strings.open_circuit_voltage(s) for s in range(spec.n_parallel))


# ---------------------------------------------------------------------------
# vectorized sweep
# ---------------------------------------------------------------------------

_N_BRANCH_SAMPLES = 3001


def _module_branch_samples(
    p: ModuleParams, c: ModuleCondition, x_oc: float
) -> tuple[np.ndarray, np.ndarray]:
    """Composite module curve sampled as (current ascending, voltage), both
    read-only; ``x_oc`` is ``_diode_voltage_var(p, c, 0.0)``.

    The diode branch is an explicit parametric curve in x = V + Rs*I:
    I(x) and V(x) need no root finding.  Voltages below the bypass clamp
    are flattened to ``v_bypass`` (ideal bypass diode)."""
    a, i_pv, i_o = _env(p, c)
    xs = np.linspace(p.v_bypass, x_oc, _N_BRANCH_SAMPLES)
    i_x = i_pv + i_o - i_o * np.exp(xs / a) - xs / p.r_sh
    v_x = np.maximum(xs - p.r_s * i_x, p.v_bypass)
    return _read_only(i_x[::-1].copy()), _read_only(v_x[::-1].copy())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _StringCurves:
    """The strings of one :class:`ArraySpec` (its ``_strings``), each part
    computed on first use and kept.

    A string is keyed by its ``(condition, count)`` groups in the order the
    conditions first appear in it, the order its module voltages are summed
    in; strings with equal keys share one curve and one open-circuit voltage.
    The open-circuit root and the branch samples are computed once per
    distinct condition.  The arrays handed out are read-only."""

    def __init__(self, spec: ArraySpec):
        self.module = spec.module
        self.keys = [self._key(row) for row in spec.conditions]
        self._x_oc: dict[ModuleCondition, float] = {}
        self._branches: dict[ModuleCondition, tuple[np.ndarray, np.ndarray]] = {}
        self._voc: dict[tuple, float] = {}
        self._curves: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    @staticmethod
    def _key(row: tuple[ModuleCondition, ...]) -> tuple[tuple[ModuleCondition, int], ...]:
        groups: dict[ModuleCondition, int] = {}
        for c in row:
            groups[c] = groups.get(c, 0) + 1
        return tuple(groups.items())

    def x_oc(self, c: ModuleCondition) -> float:
        """``x = V + Rs*I`` of a module at ``c`` in open circuit."""
        if c not in self._x_oc:
            self._x_oc[c] = _diode_voltage_var(self.module, c, 0.0)
        return self._x_oc[c]

    def open_circuit_voltage(self, string_idx: int) -> float:
        """The string's summed module open-circuit voltages,
        :func:`module_open_circuit_voltage` of each group."""
        key = self.keys[string_idx]
        if key not in self._voc:
            p = self.module
            self._voc[key] = sum(n * max(self.x_oc(c) - p.r_s * 0.0, p.v_bypass) for c, n in key)
        return self._voc[key]

    def _branch(self, c: ModuleCondition) -> tuple[np.ndarray, np.ndarray]:
        if c not in self._branches:
            self._branches[c] = _module_branch_samples(self.module, c, self.x_oc(c))
        return self._branches[c]

    def curve(self, string_idx: int) -> tuple[np.ndarray, np.ndarray]:
        """(v ascending, i) samples of the string, blocking diode applied."""
        key = self.keys[string_idx]
        if key in self._curves:
            return self._curves[key]
        branches = [(self._branch(c), n) for c, n in key]
        # beyond a branch's own short-circuit region np.interp right-fills the
        # bypass clamp voltage, so the master grid runs to the largest current
        i_top = max(i_asc[-1] for (i_asc, _), _ in branches)
        master = np.sort(
            np.concatenate(
                [i_asc for (i_asc, _), _ in branches] + [np.linspace(0.0, i_top, 1025)]
            )
        )
        # np.unique's values (the currents hold no NaN), without the numpy.ma
        # import it makes
        master = master[np.concatenate(([True], master[1:] != master[:-1]))]
        v_str = np.zeros_like(master)
        for (i_asc, v_asc), n in branches:
            v_str += n * np.interp(master, i_asc, v_asc)
        # ascending in voltage; drop the fully clamped tail (never queried at
        # v>=0), whose voltage is the clamp summed group by group as above
        v_sorted = v_str[::-1]
        i_sorted = master[::-1]
        keep = np.concatenate(([True], np.diff(v_sorted) > 0.0))
        keep &= v_sorted > sum(n * self.module.v_bypass for _, n in key)
        if not keep.any():
            raise ValidationError("every string sample lies on the bypass clamp: nothing to sweep")
        self._curves[key] = _read_only(v_sorted[keep]), _read_only(i_sorted[keep])
        return self._curves[key]


# the voltage step of the closed loop's sweeps and of the plant table read
# off them (:func:`pvmppt.converter.PlantCurve`)
V_GRID = 0.01  # V
# most samples one sweep takes, 16 MB per array: an open-circuit voltage
# of 20 kV at the V_GRID step
SWEEP_SAMPLES_MAX = 2_000_000


def sweep_curve(spec: ArraySpec, v_step: float = V_GRID) -> PvCurve:
    """Dense P-V sweep from 0 to the array open-circuit voltage."""
    if not (0.0 < v_step <= 0.05):
        raise ValidationError("v_step must lie in (0, 0.05] V")
    voc = array_open_circuit_voltage(spec)
    n = math.ceil(voc / v_step)
    if n > SWEEP_SAMPLES_MAX:
        raise ValidationError(
            f"v_step {v_step} V gives {n} samples up to the open-circuit voltage "
            f"{voc:.2f} V, above the {SWEEP_SAMPLES_MAX} maximum",
            "v_step",
        )
    if voc <= v_step:
        # dark array: an open-circuit voltage this low means a photocurrent of
        # the order of the bisection residue, so the curve carries no current
        v = np.array([0.0, max(voc, v_step)])
        return PvCurve(v=v, i=np.zeros(2), p=np.zeros(2))
    v = np.arange(0.0, voc, v_step)
    if v[-1] < voc:
        v = np.append(v, voc)
    # one interpolation per distinct string, added in string order and
    # dropped after its last string
    i = np.zeros_like(v)
    left = Counter(spec._strings.keys)
    rows: dict[tuple, np.ndarray] = {}
    for s, key in enumerate(spec._strings.keys):
        if key not in rows:
            rows[key] = np.interp(v, *spec._strings.curve(s), right=0.0)
        left[key] -= 1
        i += rows[key] if left[key] else rows.pop(key)
    i = np.maximum(i, 0.0)
    i[-1] = 0.0
    return PvCurve(v=v, i=i, p=v * i)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def oracle_gmpp(curve: PvCurve) -> tuple[float, float]:
    """Global maximum power point of a swept curve.

    Brute-force argmax over the samples, refined by golden-section
    search between the neighbouring samples to 1e-3 V resolution.
    """
    if len(curve) == 0:
        raise ValidationError("empty curve")
    j = int(np.argmax(curve.p))
    lo = curve.v[max(j - 1, 0)]
    hi = curve.v[min(j + 1, len(curve) - 1)]
    if hi <= lo:
        return float(curve.v[j]), float(curve.p[j])
    v_star, p_star = golden_section_max(lambda v: float(curve.power_at(v)), lo, hi, xtol=1e-3)
    if curve.p[j] > p_star:
        return float(curve.v[j]), float(curve.p[j])
    return float(v_star), float(p_star)


# ---------------------------------------------------------------------------
# datasheet calibration
# ---------------------------------------------------------------------------


def _dp_dv(p: ModuleParams, c: ModuleCondition, v: float) -> float:
    i = module_current(p, c, v)
    a, _, i_o = _env(p, c)
    g = i_o / a * _exp((v + p.r_s * i) / a) + 1.0 / p.r_sh
    didv = -g / (1.0 + p.r_s * g)
    return i + v * didv


def _datasheet_residuals(ds: ModuleDatasheet, p: ModuleParams) -> np.ndarray:
    """Short-circuit, open-circuit and MPP current errors of ``p`` against
    ``ds`` as fractions, and dP/dV at the MPP scaled by v_mpp/p_max."""
    return np.array(
        [
            (module_current(p, STC, 0.0) - ds.i_sc) / ds.i_sc,
            module_current(p, STC, ds.v_oc) / ds.i_sc,
            (module_current(p, STC, ds.v_mpp) - ds.i_mpp) / ds.i_mpp,
            _dp_dv(p, STC, ds.v_mpp) * ds.v_mpp / ds.p_max,
        ]
    )


# A fixed ideality can make the four conditions jointly unattainable;
# weights push the unavoidable residual into the loosest contract term
# (module power, 2%) and keep the tight ones (0.5%) honest.
_FIT_WEIGHTS = np.array([10.0, 10.0, 1.0, 3.0])


def _fit_problem(ds: ModuleDatasheet):
    """``(residuals, make, starts, lower, upper)`` of the datasheet fit.

    The unknowns are ``x = (I_pv, log I_o, Rs, log Rsh)`` in the box
    ``[lower, upper]``; ``make(x)`` builds the module and ``residuals(x)``
    weighs its :func:`_datasheet_residuals`.  The starts are tried in order.
    """
    a = A_FIXED * thermal_voltage(ds.n_cells, T_REF_C)

    def make(x: np.ndarray) -> ModuleParams:
        ipv, log_io, rs, log_rsh = x
        return ModuleParams(
            i_pv_ref=float(ipv),
            i_o_ref=float(math.exp(log_io)),
            ideality_a=A_FIXED,
            r_s=float(rs),
            r_sh=float(math.exp(log_rsh)),
            n_cells=ds.n_cells,
        )

    def residuals(x: np.ndarray) -> np.ndarray:
        return _FIT_WEIGHTS * _datasheet_residuals(ds, make(x))

    io0 = ds.i_sc * math.exp(-ds.v_oc / a)
    if not (1e-16 <= io0 <= 1e-3):
        raise CalibrationError(f"datasheet implies a saturation current {io0:.3g} A", ())
    rs_max = 5.0 * (ds.v_oc - ds.v_mpp) / ds.i_mpp
    starts = [
        [ds.i_sc * 1.001, math.log(io0), 0.3 * (ds.v_oc - ds.v_mpp) / ds.i_mpp, math.log(300.0)],
        [ds.i_sc * 1.001, math.log(io0), 1e-4, math.log(3000.0)],
    ]
    lower = [0.8 * ds.i_sc, math.log(1e-16), 0.0, math.log(ds.v_oc / ds.i_sc)]
    upper = [1.3 * ds.i_sc, math.log(1e-3), rs_max, math.log(1e8)]
    return residuals, make, starts, lower, upper


def _check_contract(ds: ModuleDatasheet, params: ModuleParams) -> None:
    """Raise :class:`CalibrationError` unless ``params`` meets the datasheet
    within the calibration contract: short- and open-circuit current within
    0.5% of ``i_sc``, MPP power within 2%, and dP/dV at the MPP within 1% of
    ``p_max / v_mpp``."""
    res = _datasheet_residuals(ds, params)
    ok = (
        abs(res[0]) < 0.005
        and abs(res[1]) < 0.005
        and abs(module_current(params, STC, ds.v_mpp) * ds.v_mpp - ds.p_max) < 0.02 * ds.p_max
        and abs(_dp_dv(params, STC, ds.v_mpp)) < 0.01 * ds.p_max / ds.v_mpp
    )
    if not ok:
        raise CalibrationError("fit converged outside tolerance", tuple(float(r) for r in res))


def _fit_datasheet(ds: ModuleDatasheet) -> ModuleParams:
    """Least-squares fit of :func:`_fit_problem` by :func:`bounded_lm`: the
    fit from the first start that meets :func:`_check_contract`.  When none
    does, raises the contract failure of the last start fitted."""
    residuals, make, starts, lower, upper = _fit_problem(ds)
    failure = CalibrationError("all fit attempts failed", ())
    for x0 in starts:
        try:
            x, _ = bounded_lm(residuals, x0, lower, upper)
        except (SolverError, ValueError):  # ValidationError, or x0 outside the bounds
            continue
        params = make(x)
        try:
            _check_contract(ds, params)
            return params
        except CalibrationError as exc:
            failure = exc
    raise failure


@lru_cache(maxsize=None)
def calibrate_module(ds: ModuleDatasheet) -> ModuleParams:
    """Fit {I_pv, I_o, Rs, Rsh} to the datasheet at the fixed ideality ``A_FIXED``.

    Enforces the short-circuit, open-circuit and maximum-power points
    plus a vanishing power derivative at the MPP.  The built-in
    ``ND195R1S`` returns its pinned fit ``ND195R1S_PARAMS``; any other
    datasheet is fitted by :func:`_fit_datasheet`.  Raises
    :class:`CalibrationError` when the result does not meet the contract
    (``ModuleDatasheet`` rejects an infeasible datasheet).  A result is
    cached per datasheet for the life of the process.
    """
    if ds == ND195R1S:
        _check_contract(ds, ND195R1S_PARAMS)
        return ND195R1S_PARAMS
    return _fit_datasheet(ds)


ND195R1S = ModuleDatasheet(
    p_max=195.0,
    v_oc=29.7,
    i_sc=8.68,
    v_mpp=23.6,
    i_mpp=8.27,
    pmax_thermal_coeff=-0.0044,
    rho_mod=-0.00329,
    n_cells=42,
)

# The fit of ND195R1S as ``repr`` literals (recorded from scipy's
# ``least_squares``), so that every scenario on the built-in module runs on
# the same bits in every environment; a fresh ``_fit_datasheet(ND195R1S)``
# agrees to within 1e-9 relative.
ND195R1S_PARAMS = ModuleParams(
    i_pv_ref=8.681265923739051,
    i_o_ref=5.544017603266658e-09,
    ideality_a=A_FIXED,
    r_s=0.2684770425842948,
    r_sh=99999999.99999982,
    n_cells=42,
)
