"""Scenario ingestion, closed-loop simulation, metrics, and reports.

Couples the controller to the averaged converter and the array model,
recomputes the brute-force oracle at every shading event, and reduces
each run to per-event metrics (detection verdict and latency, scan
duration, final power vs. oracle, energy efficiency).
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .control import (
    ControllerConfig,
    ControllerState,
    Detection,
    DetectorConfig,
    Measurement,
    Mode,
    ReferenceModel,
    check_samples,
    controller_tick,
    detection_verdict,
    make_controller_state,
    resume_tick,
    update_references,
)
from .converter import (
    DT,
    MAX_DT,
    STEP_NUMBER_MAX,
    ConverterParams,
    PlantCurve,
    TraceRecord,
    advance,
    duty_for_voltage,
)
from .pvmodel import (
    ND195R1S,
    STC_IRRADIANCE,
    SWEEP_SAMPLES_MAX,
    V_GRID,
    ArraySpec,
    CalibrationError,
    ModuleCondition,
    ModuleDatasheet,
    ModuleParams,
    PvCurve,
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
from .solver import SolverError, golden_section_max

TRACE_HEADER = "t,v_ref,duty,v_pv,i_pv,p,mode,p_e,v_e"

_trapz = getattr(np, "trapezoid", None) or np.trapz

# sample module of the 3x5 reference array: mid first string
BENCHMARK_SAMPLE = (0, 2)

# longest accepted run: 46x the longest corpus horizon (1.3 s) and 12
# periodic detections at the default 5 s trigger; a 60 s trace at the
# 0.5 ms ADC cadence is 120k rows
MAX_HORIZON_S = 60.0
# most RK4 sub-steps a run may take: MAX_HORIZON_S at the default dt_s
MAX_SUBSTEPS = round(MAX_HORIZON_S / DT)


class ScenarioError(ValueError):
    """Scenario file failed validation; message carries the field path."""


# ---------------------------------------------------------------------------
# scenario model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShadingPattern:
    """Per-string module counts over declared (irradiance, temperature) levels.

    ``counts[s][k]`` modules of string ``s`` sit at ``levels[k]``; levels
    are assigned to positions front to back in declared order."""

    counts: tuple[tuple[int, ...], ...]
    levels: tuple[ModuleCondition, ...]

    @classmethod
    def parse(
        cls, strings: list[str] | tuple[str, ...], levels, *, where: str = "pattern"
    ) -> "ShadingPattern":
        lv = tuple(
            c if isinstance(c, ModuleCondition) else ModuleCondition(float(c[0]), float(c[1]))
            for c in levels
        )
        counts = []
        for s, text in enumerate(strings):
            try:
                if not isinstance(text, str):
                    raise ValueError(text)
                row = tuple(int(tok) for tok in text.split("-"))
            except ValueError as exc:
                raise ScenarioError(f"{where}[{s}]: not a dash-separated count string") from exc
            if len(row) != len(lv):
                raise ScenarioError(
                    f"{where}[{s}]: {len(row)} counts for {len(lv)} levels"
                )
            if any(n < 0 for n in row):
                raise ScenarioError(f"{where}[{s}]: negative count")
            counts.append(row)
        return cls(tuple(counts), lv)

    def expand(
        self, n_series: int, *, where: str = "pattern"
    ) -> tuple[tuple[ModuleCondition, ...], ...]:
        grid = []
        for s, row in enumerate(self.counts):
            if sum(row) != n_series:
                raise ScenarioError(
                    f"{where}[{s}]: counts sum to {sum(row)}, expected {n_series}"
                )
            positions: list[ModuleCondition] = []
            for level, n in zip(self.levels, row):
                positions.extend([level] * n)
            grid.append(tuple(positions))
        return tuple(grid)

    def as_strings(self) -> list[str]:
        return ["-".join(str(n) for n in row) for row in self.counts]


@dataclass(frozen=True)
class TimelineEvent:
    t: float
    pattern: ShadingPattern


@dataclass(frozen=True)
class Scenario:
    """A scenario file's content, checked when built: each error names its path."""

    name: str
    n_series: int
    n_parallel: int
    sample_module: tuple[int, int]
    events: tuple[TimelineEvent, ...]
    horizon_s: float
    datasheet: ModuleDatasheet | None = None
    params: ModuleParams | None = None
    converter: ConverterParams = ConverterParams()
    controller: ControllerConfig = ControllerConfig()
    seed: int = 0  # a label copied to report.json; the run draws nothing
    dt_s: float = DT

    def __post_init__(self) -> None:
        adc = self.controller.adc_period_s
        for where, value in (("horizon_s", self.horizon_s), ("dt_s", self.dt_s)):
            if not (math.isfinite(value) and value > 0.0):
                raise ScenarioError(f"{where}: must be positive and finite, got {value}")
        if self.horizon_s > MAX_HORIZON_S:
            raise ScenarioError(
                f"horizon_s: {self.horizon_s} s above the {MAX_HORIZON_S} s maximum"
            )
        n_sub = self.horizon_s / self.dt_s
        if n_sub > MAX_SUBSTEPS + 0.5:  # round(n_sub) > MAX_SUBSTEPS, with no overflow at inf
            raise ScenarioError(
                f"dt_s: {self.dt_s} s gives {n_sub:.3g} sub-steps, above the {MAX_SUBSTEPS} maximum"
            )
        if round(adc / self.dt_s) < 1:
            raise ScenarioError(
                f"controller.adc_period_s: {adc} s is shorter than one dt_s of {self.dt_s} s"
            )
        if abs(round(adc / self.dt_s) * self.dt_s - adc) > 1e-12:
            raise ScenarioError("controller.adc_period_s: must be a multiple of dt_s")
        if self.dt_s > MAX_DT:
            raise ScenarioError(
                f"dt_s: {self.dt_s} above the integrator stability limit {MAX_DT}"
            )
        if not self.events:
            raise ScenarioError("timeline: must contain at least one event")
        times = [e.t for e in self.events]
        for k, t in enumerate(times):
            if not math.isfinite(t):
                raise ScenarioError(f"timeline[{k}].t_s: must be finite, got {t}")
        if times != sorted(times):
            raise ScenarioError("timeline: events must be time-sorted")
        if times[0] != 0.0:
            raise ScenarioError("timeline: first event must be at t = 0")
        if times[-1] >= self.horizon_s:
            raise ScenarioError("timeline: events must end before the horizon")
        # each event window needs two ADC ticks: one row has no energy integral
        ticks = [round(t / adc) for t in times] + [round(self.horizon_s / adc)]
        for k in range(len(times)):
            if ticks[k + 1] - ticks[k] < 2:
                until = f"timeline[{k + 1}]" if k + 1 < len(times) else "horizon_s"
                raise ScenarioError(
                    f"timeline[{k}].t_s: window until {until} spans {ticks[k + 1] - ticks[k]} "
                    f"x {adc} s ADC ticks, at least 2 needed"
                )
        if self.datasheet is None and self.params is None:
            raise ScenarioError("module: datasheet or params required")
        for where, value in (("n_series", self.n_series), ("n_parallel", self.n_parallel)):
            if value < 1:
                raise ScenarioError(f"array.{where}: must be at least 1, got {value}")
        s, j = self.sample_module
        if not (0 <= s < self.n_parallel and 0 <= j < self.n_series):
            raise ScenarioError(
                f"array.sample_module: [{s}, {j}] outside the array of {self.n_parallel} "
                f"strings x {self.n_series} modules"
            )
        for k, e in enumerate(self.events):
            for j, level in enumerate(e.pattern.levels):
                if not (0.0 <= level.irradiance <= STC_IRRADIANCE):
                    raise ScenarioError(
                        f"timeline[{k}].levels[{j}]: irradiance {level.irradiance} kW/m^2 "
                        f"outside [0, {STC_IRRADIANCE}]"
                    )
            if len(e.pattern.counts) != self.n_parallel:
                raise ScenarioError(
                    f"timeline[{k}].pattern: {len(e.pattern.counts)} strings, "
                    f"expected {self.n_parallel}"
                )
            e.pattern.expand(self.n_series, where=f"timeline[{k}].pattern")


def _module_section(scn: Scenario) -> str:
    """The section of the scenario file the module comes from."""
    return "module.params" if scn.params is not None else "module.datasheet"


def resolve_module(scn: Scenario) -> ModuleParams:
    """The scenario's module: its params, or the calibration of its datasheet."""
    if scn.params is not None:
        return scn.params
    try:
        return calibrate_module(scn.datasheet)
    except CalibrationError as exc:
        raise ScenarioError(f"module.datasheet: {exc}") from exc


# highest array open-circuit voltage a scenario may reach: the V_GRID sweep
# of the closed loop and of detection takes at most SWEEP_SAMPLES_MAX samples
V_OC_MAX = SWEEP_SAMPLES_MAX * V_GRID


def base_array_spec(scn: Scenario, event_idx: int = 0) -> ArraySpec:
    """The array of timeline event ``event_idx``.  Rejects an array whose
    open-circuit voltage is above ``V_OC_MAX``, a module whose open-circuit
    root the model cannot find, or one whose strings have no sample above
    the bypass clamp.  The spec keeps that voltage and its string curves, so
    its sweep reuses them."""
    n = len(scn.events)
    if not 0 <= event_idx < n:
        raise ScenarioError(
            f"event index {event_idx} outside [0, {n}): the timeline has {n} events"
        )
    module = resolve_module(scn)
    grid = scn.events[event_idx].pattern.expand(scn.n_series)
    spec = ArraySpec(
        n_series=scn.n_series,
        n_parallel=scn.n_parallel,
        module=module,
        conditions=grid,
        sample_module=scn.sample_module,
    )
    try:
        voc = array_open_circuit_voltage(spec)
    except SolverError as exc:
        raise ScenarioError(f"{_module_section(scn)}: open-circuit voltage: {exc}") from exc
    if voc / V_GRID > SWEEP_SAMPLES_MAX:  # ceil(voc/V_GRID) above it, with no overflow at inf
        raise ScenarioError(
            f"array.n_series: {scn.n_series} modules per string give timeline[{event_idx}] "
            f"an open-circuit voltage of {voc:.2f} V, above the {V_OC_MAX:.0f} V maximum"
        )
    try:
        for s in range(spec.n_parallel):
            spec._strings.curve(s)
    except ValidationError as exc:
        raise ScenarioError(f"{_module_section(scn)}: {exc}") from exc
    return spec


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------


_REQUIRED = object()


def _typed(kind: type, what: str):
    def coerce(value, path: str):
        if not isinstance(value, kind):
            raise ScenarioError(f"{path}: expected {what}")
        return value

    return coerce


_object = _typed(dict, "an object")
_list = _typed(list, "a list")
_flag = _typed(bool, "true or false")
_text = _typed(str, "a string")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ScenarioError(f"{path}: not a finite number")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}: not an integer")
    return value


def _levels(value, path: str) -> tuple[ModuleCondition, ...]:
    levels = []
    for j, pair in enumerate(_list(value, path)):
        where = f"{path}[{j}]"
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ScenarioError(f"{where}: expected an [irradiance, temperature] pair")
        try:
            levels.append(ModuleCondition(*(_number(x, where) for x in pair)))
        except ValidationError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
    return tuple(levels)


def _path(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _get(d: dict, key: str, where: str, coerce, default=_REQUIRED):
    """``d[key]`` through ``coerce``, which raises a ScenarioError naming the
    field path; ``default`` is returned as is when the key is absent."""
    path = _path(where, key)
    if key not in d:
        if default is _REQUIRED:
            raise ScenarioError(f"{path}: missing required field")
        return default
    return coerce(d[key], path)


def _only(d: dict, where: str, keys) -> None:
    """Reject the first key of ``d`` outside ``keys``, naming its path."""
    for key in d:
        if key not in keys:
            raise ScenarioError(f"{_path(where, key)}: unknown field")


# coercion by field annotation (a string: the package postpones annotations)
_COERCE = {"float": _number, "int": _integer, "bool": _flag}


def _section(doc, where: str, cls, keys: dict[str, str] | None = None, known=(), **given):
    """``cls(**given, ...)`` with every other field read from the scenario
    object ``doc`` at path ``where``.

    A field's scenario key is its name, or ``keys[name]`` where the file
    adds a unit.  An absent key keeps the dataclass default; a key outside
    these and ``known`` is an error.  A ValidationError from ``cls`` is
    re-raised as a ScenarioError naming the scenario key."""
    doc = _object(doc, where or "root")
    keys = keys or {}
    read = [f for f in fields(cls) if f.name not in given]
    _only(doc, where, [keys.get(f.name, f.name) for f in read] + list(known))
    for f in read:
        key = keys.get(f.name, f.name)
        if key in doc or f.default is MISSING:
            given[f.name] = _get(doc, key, where, _COERCE[f.type])
    try:
        return cls(**given)
    except ValidationError as exc:
        key = keys.get(exc.field, exc.field)
        raise ScenarioError(f"{_path(where, key) if key else where}: {exc}") from exc


def scenario_from_dict(doc: dict, name: str = "scenario") -> Scenario:
    doc = _object(doc, "root")
    arr = _get(doc, "array", "", _object)
    _only(arr, "array", ("n_series", "n_parallel", "sample_module"))
    n_series = _get(arr, "n_series", "array", _integer)
    n_parallel = _get(arr, "n_parallel", "array", _integer)
    sample = _get(arr, "sample_module", "array", _list, [0, 0])
    if len(sample) != 2:
        raise ScenarioError("array.sample_module: expected [string, position]")
    sample = tuple(_integer(x, f"array.sample_module[{j}]") for j, x in enumerate(sample))

    mod = _get(doc, "module", "", _object)
    _only(mod, "module", ("datasheet", "params"))
    if len(mod) != 1:
        raise ScenarioError("module: needs exactly one of 'datasheet' or 'params'")
    datasheet = params = None
    if "datasheet" in mod:
        datasheet = _section(mod["datasheet"], "module.datasheet", ModuleDatasheet, {
            "p_max": "p_max_w", "v_oc": "v_oc_v", "i_sc": "i_sc_a", "v_mpp": "v_mpp_v",
            "i_mpp": "i_mpp_a", "rho_mod": "rho_mod_frac_per_c",
            "pmax_thermal_coeff": "pmax_thermal_coeff_frac_per_c",
        })
    else:
        params = _section(mod["params"], "module.params", ModuleParams, {
            "i_pv_ref": "i_pv_ref_a", "i_o_ref": "i_o_ref_a", "r_s": "r_s_ohm",
            "r_sh": "r_sh_ohm", "v_bypass": "v_bypass_v",
        })

    default_levels = _get(doc, "levels", "", _levels, None)
    timeline = _get(doc, "timeline", "", _list)
    if not timeline:
        raise ScenarioError("timeline: must be a non-empty list")
    events = []
    for k, ev in enumerate(timeline):
        where = f"timeline[{k}]"
        ev = _object(ev, where)
        _only(ev, where, ("t_s", "levels", "pattern"))
        t = _get(ev, "t_s", where, _number)
        levels = _get(ev, "levels", where, _levels, default_levels)
        if levels is None:
            raise ScenarioError(f"{where}.levels: no levels declared here or at root")
        pattern = ShadingPattern.parse(
            _get(ev, "pattern", where, _list), levels, where=f"{where}.pattern"
        )
        events.append(TimelineEvent(t=t, pattern=pattern))

    converter = _section(doc.get("converter", {}), "converter", ConverterParams, {
        "r_l": "r_l_ohm", "l": "l_h", "c_pv": "c_pv_f", "v_out": "v_out_v",
    })
    ctl_doc = _object(doc.get("controller", {}), "controller")
    detector = _section(ctl_doc.get("detector", {}), "controller.detector", DetectorConfig)
    controller = _section(
        ctl_doc, "controller", ControllerConfig, known=("detector",), detector=detector
    )
    return _section(
        doc, "", Scenario,
        known=("name", "array", "module", "levels", "timeline", "converter", "controller"),
        name=_get(doc, "name", "", _text, name), n_series=n_series, n_parallel=n_parallel,
        sample_module=sample, events=tuple(events), datasheet=datasheet, params=params,
        converter=converter, controller=controller,
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON ({exc})") from exc
    return scenario_from_dict(doc, name=path.stem)


# ---------------------------------------------------------------------------
# reference model construction
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def build_reference_model(
    module: ModuleParams, n_series: int, n_parallel: int
) -> ReferenceModel:
    """Commission the controller references from the calibrated model.

    Probes the healthy array for its standard-condition MPP, the
    temperature slope of the MPP voltage, and the irradiance-correction
    table keyed by the MPP current ratio.  The result depends on nothing
    else, so it is computed once per ``(module, n_series, n_parallel)``
    per process and shared (``ReferenceModel`` is frozen)."""

    mpps: dict[tuple[float, float], tuple[float, float]] = {}

    def mpp_at(s: float, t: float) -> tuple[float, float]:
        """(V, P) of the MPP at irradiance ``s`` and temperature ``t``, swept once."""
        if (s, t) not in mpps:
            spec = ArraySpec.uniform(module, n_series, n_parallel, ModuleCondition(s, t))
            v, p = oracle_gmpp(sweep_curve(spec, 0.02))
            if not p > 0.0:
                raise ValidationError(f"no positive MPP power at commissioning ({s} kW/m^2, {t} C)")
            mpps[s, t] = v, p
        return mpps[s, t]

    v_sc, p_sc = mpp_at(1.0, 25.0)
    i_mpp_sc = p_sc / v_sc

    temps = (0.0, 25.0, 55.0)
    v_at_t = [mpp_at(1.0, t)[0] for t in temps]
    slope = np.polyfit(temps, v_at_t, 1)[0]
    rho = float(slope / v_sc)

    # residual-after-rho irradiance correction, one row per temperature
    t_rows = (0.0, 30.0, 60.0)
    s_grid = (0.07, 0.1, 0.14, 0.2, 0.3, 0.45, 0.65, 0.85, 1.0)
    ln_rows, dv_rows = [], []
    for t_row in t_rows:
        ln_ratios, dvs = [], []
        base = v_sc * (1.0 - abs(rho) * (t_row - 25.0))
        for s in s_grid:
            v_s, p_s = mpp_at(s, t_row)
            ln_ratios.append(math.log((p_s / v_s) / i_mpp_sc))
            dvs.append(v_s - base)
        order = np.argsort(ln_ratios)
        ln_rows.append(tuple(float(ln_ratios[j]) for j in order))
        dv_rows.append(tuple(float(dvs[j]) for j in order))

    stc = ModuleCondition(1.0, 25.0)
    return ReferenceModel(
        v_mpp_arr_sc=v_sc,
        v_mpp_mod_sc=v_sc / n_series,
        rho=rho,
        v_oc_arr_rated=n_series * module_open_circuit_voltage(module, stc),
        i_sc_rated=n_parallel * module_current(module, stc, 0.0),
        i_mpp_arr_sc=i_mpp_sc,
        irr_t_rows=t_rows,
        irr_ln_ratio=tuple(ln_rows),
        irr_dv_arr=tuple(dv_rows),
    )


def commission(scn: Scenario, module: ModuleParams) -> ReferenceModel:
    """:func:`build_reference_model` of the scenario's array on its resolved
    ``module``; a module commissioning rejects, or one whose equations the
    model cannot solve, is an error of its section."""
    try:
        return build_reference_model(module, scn.n_series, scn.n_parallel)
    except (ValidationError, SolverError) as exc:
        raise ScenarioError(f"{_module_section(scn)}: {exc}") from exc


# ---------------------------------------------------------------------------
# static detection (criteria snapshot on the exact curve)
# ---------------------------------------------------------------------------


def _hill_climb(curve: PvCurve, v_start: float) -> float:
    """Local MPP voltage a P&O tracker starting at ``v_start`` settles on."""
    j = int(np.clip(np.searchsorted(curve.v, v_start), 1, len(curve.v) - 2))
    p = curve.p
    while 0 < j < len(p) - 1:
        if p[j + 1] > p[j]:
            j += 1
        elif p[j - 1] > p[j]:
            j -= 1
        else:
            break
    lo = curve.v[max(j - 1, 0)]
    hi = curve.v[min(j + 1, len(p) - 1)]
    v_rest, _ = golden_section_max(lambda v: float(curve.power_at(v)), lo, hi, xtol=1e-3)
    return v_rest


def _sample_module_voltage(spec: ArraySpec, v: float) -> float:
    """Voltage of ``spec.sample_module`` with its string held at ``v``."""
    s_idx, pos = spec.sample_module
    i_str = string_current(spec, s_idx, v)
    return module_voltage(spec.module, spec.conditions[s_idx][pos], i_str)


def detect_pattern(
    spec: ArraySpec,
    ref: ReferenceModel,
    cfg: DetectorConfig = DetectorConfig(),
    s_prior: float | None = None,
) -> Detection:
    """Evaluate the three detection criteria on the exact array curve.

    ``s_prior`` is the last known uniform irradiance fraction used for
    the reference irradiance correction (1.0 reproduces a shading onset
    from standard conditions); ``None`` assumes steady operation at the
    given pattern and reads the correction current off the curve itself.
    """
    if s_prior is not None and not 0.0 <= s_prior <= STC_IRRADIANCE:  # NaN fails too
        raise ValidationError(
            f"prior irradiance s_prior {s_prior} outside [0, {STC_IRRADIANCE}]", "s_prior"
        )
    curve = sweep_curve(spec, V_GRID)
    s_idx, pos = spec.sample_module
    t_s = spec.conditions[s_idx][pos].temperature

    v_start, _ = update_references(ref, t_s)
    v_rest = _hill_climb(curve, v_start)
    if s_prior is None:
        i_corr = float(curve.current_at(v_rest))
    else:
        i_corr = s_prior * ref.i_mpp_arr_sc
    v_arr_u, v_mod_u = update_references(ref, t_s, i_arr=i_corr)

    dv = cfg.probe_dv(v_arr_u)
    v_samp = float(_sample_module_voltage(spec, v_arr_u))
    lo, hi = ((v, float(curve.power_at(v))) for v in (v_arr_u - dv, v_arr_u + dv))
    d = Detection(float(v_rest), v_arr_u, v_mod_u, v_sample=v_samp, lo=lo)
    detection_verdict(d, hi, cfg)
    return d


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


class Trace:
    """The closed loop's trace as columns: row ``k`` is ADC tick ``k``, at
    ``t = k*adc``.

    ``v_pv`` and ``i_pv`` hold one value per row, and ``p`` is their
    product.  The command, duty, mode and scan incumbent are held once per
    block of rows (a P&O step and the hold after it, a held wait, or one
    acting tick of a slew or scan): :meth:`block` opens one, and the rows
    that the block's one sampled :func:`advance` call appends to ``v_pv``
    and ``i_pv`` hold its values.  Iteration gives :class:`TraceRecord`
    rows."""

    def __init__(self, adc: float):
        self.adc = adc
        self.v_pv: list[float] = []
        self.i_pv: list[float] = []
        self._starts: list[int] = []  # first row of each block
        self._held: list[tuple[float, float, str, float, float]] = []

    def block(self, v_ref: float, duty: float, mode: str, p_e: float, v_e: float) -> None:
        self._starts.append(len(self.v_pv))
        self._held.append((v_ref, duty, mode, p_e, v_e))

    def blocks(self):
        """``(first row, end row, (v_ref, duty, mode, p_e, v_e))`` per block."""
        return zip(self._starts, self._starts[1:] + [len(self.v_pv)], self._held)

    def t_and_p(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``t`` and ``p`` columns, with the bits of each row's fields."""
        return np.arange(len(self.v_pv)) * self.adc, np.multiply(self.v_pv, self.i_pv)

    def __len__(self) -> int:
        return len(self.v_pv)

    def __iter__(self):
        for start, end, (v_ref, duty, mode, p_e, v_e) in self.blocks():
            for k in range(start, end):
                v, i = self.v_pv[k], self.i_pv[k]
                yield TraceRecord(k * self.adc, v_ref, duty, v, i, v * i, mode, p_e, v_e)


@dataclass
class RunReport:
    """One run as ``report.json`` holds it: ``events`` are the per-event
    dicts ``_build_report`` writes, keyed as in the file."""

    scenario: str
    seed: int
    events: list[dict]

    def to_dict(self) -> dict:
        return {"scenario": self.scenario, "seed": self.seed, "events": self.events}


def run_closed_loop(scn: Scenario) -> tuple[Trace, RunReport]:
    """Simulate the full controller/converter/array loop over a scenario.

    Deterministic given the scenario.  The trace is sampled at the
    ADC cadence; the report is computed per shading-event window against
    the brute-force oracle of the part of that window's curve the
    converter can hold behind its link.

    Each block of the trace is one :func:`advance` call, sampled at each
    tick start, with the same bits as one tick at a time: the ticks before
    the controller's ``resume_tick``, on which it holds its command; a P&O
    step and the ticks up to P&O's next, which hold the new command; or
    one tick of a slew or scan, on which the command moves.  The run's
    samples are checked by :func:`check_samples` at the end, also when the
    run fails: one tick at a time would have raised at the first bad
    sample, so a bad sample among those taken wins over a later error."""
    # every event's array is checked before anything is swept
    specs = [base_array_spec(scn, k) for k in range(len(scn.events))]
    ref = commission(scn, specs[0].module)
    cfg = scn.controller
    conv = scn.converter
    dt = scn.dt_s
    adc = cfg.adc_period_s
    sub_per_tick = round(adc / dt)
    n_ticks = round(scn.horizon_s / adc)

    # per-event plant data
    event_ticks = [round(e.t / adc) for e in scn.events]
    windows = []
    s_idx, pos = scn.sample_module
    for k, (e, spec) in enumerate(zip(scn.events, specs)):
        curve = sweep_curve(spec, V_GRID)
        slope = float(np.max(np.abs(np.diff(curve.i) / np.diff(curve.v))))
        if slope * dt / conv.c_pv > STEP_NUMBER_MAX:
            raise ScenarioError(
                f"array.n_parallel: {scn.n_parallel} strings give timeline[{k}] a slope of "
                f"{slope:.3g} A/V, and slope*dt_s/c_pv_f = {slope * dt / conv.c_pv:.3g} is "
                f"above the integrator's {STEP_NUMBER_MAX}; lower dt_s"
            )
        # the converter holds v_pv = v_ref + r_L*i_L with v_ref <= v_out, and
        # v - r_L*i rises with v: the event's oracle is the best of that prefix
        n = int(np.count_nonzero(curve.v - conv.r_l * curve.i <= conv.v_out))
        v_star, p_star = oracle_gmpp(PvCurve(curve.v[:n], curve.i[:n], curve.p[:n]))
        windows.append(
            {
                "event": e,
                "spec": spec,
                "plant": PlantCurve(curve),
                "oracle": (v_star, p_star),
                "t_sample": spec.conditions[s_idx][pos].temperature,
                "tick_start": event_ticks[k],
                "tick_end": event_ticks[k + 1] if k + 1 < len(scn.events) else n_ticks,
            }
        )

    state = make_controller_state(ref, cfg, conv.v_out)
    v = ref.v_mpp_arr_sc  # the plant starts there, even above a lower link
    il = windows[0]["plant"](v)
    trace = Trace(adc)

    def read_sample_module() -> float:
        return _sample_module_voltage(w["spec"], v)

    samples = (trace.v_pv, trace.i_pv)
    try:
        for w in windows:
            cur = w["plant"]
            tick, tick_end = w["tick_start"], w["tick_end"]
            while tick < tick_end:
                n = min(resume_tick(state), tick_end) - tick
                w0, dw = state.v_ref, 0.0
                if n < 1:
                    m = Measurement(v=v, i=cur(v), t=tick * adc, t_sample_mod=w["t_sample"])
                    new_ref = controller_tick(state, tick, m, cfg, ref, read_sample_module)
                    # P&O steps the command and holds it until its next
                    # step; in every other mode the command slews linearly
                    # over [t, t+adc)
                    if state.mode is Mode.PO:
                        w0 = new_ref
                        n = max(min(resume_tick(state), tick_end) - tick, 1)
                    else:
                        n = 1
                        dw = (new_ref - w0) / sub_per_tick
                _open_block(trace, state, conv.v_out)
                v, il = advance(v, il, w0, dw, n, sub_per_tick, dt, cur, conv, samples)
                tick += n
    finally:
        check_samples(*samples)

    report = _build_report(scn, windows, trace, state, adc)
    return trace, report


def _open_block(trace: Trace, state: ControllerState, v_out: float) -> None:
    """Open a block of ``trace`` at the controller's command, mode and scan
    incumbent (``state.episode``, set in scan_up, scan_down and settle_best)."""
    ep = state.episode
    trace.block(
        state.v_ref,
        duty_for_voltage(state.v_ref, v_out),
        state.mode.value,
        ep.p_e if ep else math.nan,
        ep.v_e if ep else math.nan,
    )


def _build_report(scn, windows, trace: Trace, state: ControllerState, adc: float) -> RunReport:
    events = []
    t_col, p_col = trace.t_and_p()
    for k, w in enumerate(windows):
        t0 = w["tick_start"] * adc
        t1 = w["tick_end"] * adc
        ts = t_col[w["tick_start"] : w["tick_end"]]
        ps = p_col[w["tick_start"] : w["tick_end"]]
        v_star, p_star = w["oracle"]
        # a dark window has no oracle power to measure against
        eff = float(_trapz(ps, ts) / (p_star * (t1 - t0))) if p_star > 0.0 else None

        tail = max(3 * scn.controller.po_period_s, 0.06)
        tail = min(tail, 0.5 * (t1 - t0))
        tail_mask = ts >= t1 - tail
        # a one-tick tail can miss the last row by an ulp of t1 - tail
        final_power = float(ps[tail_mask].mean()) if tail_mask.any() else float(ps[-1])

        det = next((d for d in state.detections if t0 <= d.t < t1), None)
        ep = next((e for e in state.episodes if t0 <= e.t_start < t1), None)
        events.append(
            {
                "index": k,
                "t_start_s": t0,
                "t_end_s": t1,
                "pattern": w["event"].pattern.as_strings(),
                "levels": [[c.irradiance, c.temperature] for c in w["event"].pattern.levels],
                "oracle_voltage_v": v_star,
                "oracle_power_w": p_star,
                "final_power_w": final_power,
                "efficiency": eff,
                "detected": det.is_psc if det else None,
                "detection_latency_s": det.t - t0 if det else None,
                "psi_per_v": det.psi if det else None,
                "dv_arr_ratio": det.dv_arr_ratio if det else None,
                "dv_mod_ratio": det.dv_mod_ratio if det else None,
                "scan_duration_s": (
                    ep.t_arrived - ep.t_start if ep and math.isfinite(ep.t_arrived) else None
                ),
                "scan_ticks_up": ep.ticks_up if ep else 0,
                "scan_ticks_down": ep.ticks_down if ep else 0,
                "prunes": ep.prunes if ep else [],
                "v_e_v": ep.v_e if ep else None,
                "p_e_w": ep.p_e if ep else None,
            }
        )
    return RunReport(scenario=scn.name, seed=scn.seed, events=events)


def prune_violations(curve: PvCurve, prunes: list[dict]) -> list[dict]:
    """Replay pruning decisions against the oracle curve.

    Returns the prune events whose skipped voltage region contains a
    true power more than 1e-6 relative above the incumbent best at prune
    time."""
    bad = []
    for p in prunes:
        if p["kind"] == "up":
            mask = curve.v > p["v_v"]
        else:
            mask = curve.v < p["v_v"]
        if not mask.any():
            continue
        skipped_max = float(curve.p[mask].max())
        if skipped_max > p["p_e_w"] * (1.0 + 1e-6):
            bad.append({**p, "skipped_max_w": skipped_max})
    return bad


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    """A trace field: ``x`` to 10 significant digits, empty for NaN."""
    if isinstance(x, float) and math.isnan(x):
        return ""
    return format(x, ".10g")


# rows formatted per write: ~100 kB of text, so a long trace is never held
# as one string
_EMIT_ROWS = 1024


def emit_trace(trace: Trace, path: str | Path) -> None:
    """Write ``trace`` as CSV.  Only ``p_e`` and ``v_e`` may be NaN, outside
    a scan; they are written empty.

    Each block's held fields are formatted once, into a row template
    repeated over its rows; the templates of up to ``_EMIT_ROWS`` rows are
    filled with their rows' ``t, v_pv, i_pv, p`` in one ``%``.
    ``"%.10g" % x`` is ``format(x, ".10g")`` for every float and int, and
    neither it nor a mode name holds a ``%``."""
    path = Path(path)
    t, p = (col.tolist() for col in trace.t_and_p())
    values = chain.from_iterable(zip(t, trace.v_pv, trace.i_pv, p))
    try:
        with path.open("w", newline="") as fh:
            fh.write(TRACE_HEADER + "\n")
            templates, n = [], 0
            for start, end, (v_ref, duty, mode, p_e, v_e) in trace.blocks():
                row = (f"%.10g,{v_ref:.10g},{duty:.10g},%.10g,%.10g,%.10g,"
                       f"{mode},{_fmt(p_e)},{_fmt(v_e)}\n")
                templates.append(row * (end - start))
                n += end - start
                if n >= _EMIT_ROWS or end == len(trace):
                    fh.write("".join(templates) % tuple(islice(values, 4 * n)))
                    templates, n = [], 0
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


def emit_report(report: RunReport, path: str | Path) -> None:
    path = Path(path)
    try:
        path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# randomized corpus
# ---------------------------------------------------------------------------


def random_scenario(seed: int, index: int) -> Scenario:
    """One randomized corpus scenario on the 3x5 reference array."""
    rnd = random.Random((seed << 20) ^ index)
    s0 = rnd.uniform(0.5, 1.0)
    t0 = rnd.uniform(15.0, 45.0)
    start = ShadingPattern.parse(
        ["5-0-0"] * 3, ((s0, t0), (s0, t0), (s0, t0))
    )
    events = [TimelineEvent(0.0, start)]
    n_psc = rnd.choice((1, 1, 2))
    t = 0.4
    for _ in range(n_psc):
        s1 = rnd.uniform(0.55, 1.0)
        s2 = max(s1 * rnd.uniform(0.35, 0.9), 0.1)
        s3 = max(s1 * rnd.uniform(0.1, 0.6), 0.1)
        levels = (
            (s1, t0 + rnd.uniform(0.0, 10.0)),
            (s2, t0 + rnd.uniform(0.0, 6.0)),
            (s3, t0),
        )
        strings = []
        for _s in range(3):
            n1 = rnd.randint(0, 5)
            n2 = rnd.randint(0, 5 - n1)
            n3 = 5 - n1 - n2
            strings.append(f"{n1}-{n2}-{n3}")
        events.append(TimelineEvent(round(t, 4), ShadingPattern.parse(strings, levels)))
        t += 0.45
    return Scenario(
        name=f"corpus-{index:04d}",
        n_series=5,
        n_parallel=3,
        sample_module=BENCHMARK_SAMPLE,
        events=tuple(events),
        horizon_s=round(t, 4),
        datasheet=ND195R1S,
        seed=seed + index,
        dt_s=2e-5,
    )


def _corpus_worker(args: tuple[int, int]) -> dict:
    seed, index = args
    scn = random_scenario(seed, index)
    _, report = run_closed_loop(scn)
    out = report.to_dict()
    out["name"] = scn.name
    return out


def run_corpus(seed: int, count: int, jobs: int = 1) -> dict:
    """Run a seeded randomized scenario batch and aggregate the metrics.

    At most ``min(jobs, count, cpus)`` worker processes run, where ``cpus``
    counts the CPUs this process may run on (its affinity set where the
    platform has one, else ``os.cpu_count()``): a pool forks all its workers
    at once, so more would only cost memory."""
    for where, value in (("count", count), ("jobs", jobs)):
        if value < 1:
            raise ValidationError(f"{where} must be at least 1, got {value}", where)
    args = [(seed, i) for i in range(count)]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(jobs, count, cpus)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~16 ms no other command pays

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_corpus_worker, args))
    else:
        reports = [_corpus_worker(a) for a in args]

    located = [(a, r, e) for a, r in zip(args, reports) for e in r["events"]]
    events = [e for _, _, e in located]
    within = [
        e for e in events if e["final_power_w"] >= 0.99 * e["oracle_power_w"]
    ]
    worst = sorted(located, key=lambda x: x[2]["final_power_w"] / x[2]["oracle_power_w"])[:5]
    return {
        "seed": seed,
        "count": count,
        "events_total": len(events),
        "events_within_1pct": len(within),
        "fraction_within_1pct": len(within) / len(events) if events else 0.0,
        "worst_events": [
            {
                "scenario": r["name"],
                "event_index": e["index"],
                "random_scenario_args": list(a),
                "ratio": e["final_power_w"] / e["oracle_power_w"],
                "pattern": e["pattern"],
            }
            for a, r, e in worst
        ],
        "reports": reports,
    }
