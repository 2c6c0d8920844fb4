"""MPPT controller: P&O tracking, shading detection, ramp-scan search.

The controller is a sampled-time state machine emitting open-loop voltage
commands.  Under uniform irradiance it perturb-and-observes around the
maximum power point.  Detection is entered on a noticeable power change
or periodically, and evaluates three criteria against reference values
updated from the sample-module temperature (and the last known uniform
operating current):

  1. |PSI| > psi_threshold, where PSI is the normalized power derivative
     measured at the updated array MPP reference voltage,
  2. relative distance between the P&O resting voltage and the updated
     array reference,
  3. relative distance between the sample-module voltage (with the array
     held at the updated reference) and the updated module reference.

A positive verdict starts the global search: a constant-rate ramp sweep
up to the rated open-circuit voltage and back down to the updated module
MPP voltage, continuously sampling and keeping the best (V_e, P_e).
Both legs terminate early when no unexplored voltage can beat P_e
(V_oc*I < P_e going up, V*I_sc_rated < P_e going down).  The command then
ramps to V_e and P&O resumes.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .pvmodel import ValidationError, check_field


class Mode(str, Enum):
    PO = "po"
    DETECT_SETTLE = "detect_settle"
    DETECT_PROBE = "detect_probe"
    SCAN_UP = "scan_up"
    SCAN_DOWN = "scan_down"
    SETTLE_TO_BEST = "settle_best"


# smallest probe half-width, as a fraction of V_mpp-arr: at 1e-9 of ~100 V the
# two probes still lie ~1e7 float steps apart; near 1e-15 rounding moves PSI
# by several percent, and below ~1e-16 both probes fall on one voltage
PSI_PROBE_FRAC_MIN = 1e-9

TICK_MAX = 2**50  # where waits end at the latest: a Scenario takes at most 1.2e7 sub-steps


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds and probe geometry of the shading detector."""

    psi_threshold: float = 0.001  # 1/V
    dv_arr_threshold: float = 0.02
    dv_mod_threshold: float = 0.02
    power_change_trigger: float = 0.03  # fraction of last power
    periodic_trigger_s: float = 5.0
    psi_probe_frac: float = 0.01  # probe half-width as fraction of V_mpp-arr

    def probe_dv(self, v_mpp_arr: float) -> float:
        return self.psi_probe_frac * v_mpp_arr

    def __post_init__(self) -> None:
        # a zero trigger detects on every P&O tick and never lets P&O settle;
        # a zero probe width puts both PSI probes at one voltage
        for name in ("psi_threshold", "dv_arr_threshold", "dv_mod_threshold",
                     "power_change_trigger", "periodic_trigger_s"):
            value = getattr(self, name)
            check_field(name, value, value > 0.0, "finite and positive")
        check_field("psi_probe_frac", self.psi_probe_frac,
                    self.psi_probe_frac >= PSI_PROBE_FRAC_MIN,
                    f"finite and at least {PSI_PROBE_FRAC_MIN}")


@dataclass(frozen=True)
class ControllerConfig:
    detector: DetectorConfig = DetectorConfig()
    po_period_s: float = 0.02  # >= converter settling time
    adc_period_s: float = 5e-4  # measurement conversion time
    settle_s: float = 0.02  # wait before trusting a probe measurement
    ramp_rate_v_per_s: float = 4000.0
    po_step_v: float = 1.0
    po_only: bool = False  # baseline: never detect, never scan

    def __post_init__(self) -> None:
        for name in ("adc_period_s", "ramp_rate_v_per_s", "po_step_v"):
            value = getattr(self, name)
            check_field(name, value, value > 0.0, "finite and positive")
        check_field("po_period_s", self.po_period_s, self.po_period_s >= self.adc_period_s,
                    f"finite and at least adc_period_s ({self.adc_period_s})")
        check_field("settle_s", self.settle_s, self.settle_s >= 0.0, "finite and non-negative")


@dataclass(frozen=True)
class ReferenceModel:
    """Controller-side knowledge of the healthy (uniform) array.

    Built once from the calibrated plant model at commissioning time:
    standard-condition MPP voltages, their shared temperature coefficient, the
    rated open-circuit voltage and short-circuit current used by the
    scan pruning rules, and the irradiance-correction table.
    The table rows (one per commissioning temperature) map the measured
    MPP current ratio ln(I/I_mpp_sc) to the residual array MPP voltage
    shift left after the temperature update; lookups interpolate
    linearly between two rows, so a table has two or more, in rising order.
    """

    v_mpp_arr_sc: float
    v_mpp_mod_sc: float
    rho: float  # MPP voltage fraction per degC, negative
    v_oc_arr_rated: float
    i_sc_rated: float
    i_mpp_arr_sc: float
    irr_t_rows: tuple[float, ...]
    irr_ln_ratio: tuple[tuple[float, ...], ...]
    irr_dv_arr: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        for name in ("v_mpp_arr_sc", "v_mpp_mod_sc", "v_oc_arr_rated", "i_sc_rated",
                     "i_mpp_arr_sc"):
            value = getattr(self, name)
            check_field(name, value, value > 0.0, "finite and positive")
        check_field("rho", self.rho, self.rho <= 0.0, "finite and <= 0")
        if not (len(self.irr_t_rows) == len(self.irr_ln_ratio) == len(self.irr_dv_arr)):
            raise ValidationError("irradiance table rows must match")
        if len(self.irr_t_rows) < 2 or list(self.irr_t_rows) != sorted(set(self.irr_t_rows)):
            raise ValidationError("irradiance table: two or more rows, in rising temperature")


def check_sample(v: float, i: float) -> None:
    """Reject an ADC sample that :class:`Measurement` cannot hold: a
    non-finite voltage or current, or a negative current."""
    if not (math.isfinite(v) and math.isfinite(i)):
        raise ValidationError("measurements must be finite")
    if i < -1e-9:
        raise ValidationError("array current cannot be negative")


def check_samples(v_at: Sequence[float], i_at: Sequence[float]) -> None:
    """:func:`check_sample` over paired columns, in one pass: only columns
    that fail it are checked sample by sample, so the first bad sample's
    error is the one raised.  A NaN or an infinity makes the sum non-finite;
    a finite sum that overflows only costs the sample-by-sample check."""
    if i_at and not (math.isfinite(sum(v_at) + sum(i_at)) and min(i_at) >= -1e-9):
        for v, i in zip(v_at, i_at):
            check_sample(v, i)


@dataclass(frozen=True)
class Measurement:
    """One ADC conversion: array terminals plus the sample-module temperature."""

    v: float
    i: float
    t: float
    t_sample_mod: float = 25.0

    def __post_init__(self) -> None:
        check_sample(self.v, self.i)

    @property
    def p(self) -> float:
        return self.v * self.i


def update_references(
    ref: ReferenceModel, t_sample_c: float, i_arr: float | None = None
) -> tuple[float, float]:
    """Temperature-updated MPP references (array, module).

    Hotter modules have lower MPP voltages.  When the last known uniform
    operating current is supplied, the slight irradiance dependence of
    the references is corrected through the commissioning table (the
    shift scales with absolute temperature like the diode voltage).
    """
    k = 1.0 - abs(ref.rho) * (t_sample_c - 25.0)
    v_arr = ref.v_mpp_arr_sc * k
    v_mod = ref.v_mpp_mod_sc * k
    if i_arr is not None:
        ratio = max(i_arr, 1e-6 * ref.i_mpp_arr_sc) / ref.i_mpp_arr_sc
        ln_r = math.log(ratio)

        def row_dv(k: int) -> float:
            return float(np.interp(ln_r, ref.irr_ln_ratio[k], ref.irr_dv_arr[k]))

        rows = ref.irr_t_rows
        j1 = min(max(bisect_left(rows, t_sample_c), 1), len(rows) - 1)
        j0 = j1 - 1
        frac = (t_sample_c - rows[j0]) / (rows[j1] - rows[j0])
        dv = row_dv(j0) + frac * (row_dv(j1) - row_dv(j0))
        v_arr += dv
        v_mod += dv * ref.v_mpp_mod_sc / ref.v_mpp_arr_sc
    return v_arr, v_mod


def compute_psi(p_minus: tuple[float, float], p_plus: tuple[float, float]) -> float:
    """Normalized power slope from two probe points straddling the reference.

    PSI = dP / (dV * P) with P the mean probe power; units 1/V."""
    v1, pw1 = p_minus
    v2, pw2 = p_plus
    p_mid = 0.5 * (pw1 + pw2)
    if p_mid <= 0.0:
        raise ValidationError("array dark: probe power is not positive")
    if v2 == v1:
        raise ValidationError("probe points must differ in voltage")
    return (pw2 - pw1) / ((v2 - v1) * p_mid)


def criteria_fired(
    psi: float, v_local_err: float, v_mod_err: float, cfg: DetectorConfig
) -> tuple[bool, bool, bool]:
    return (
        bool(abs(psi) > cfg.psi_threshold),
        bool(abs(v_local_err) > cfg.dv_arr_threshold),
        bool(abs(v_mod_err) > cfg.dv_mod_threshold),
    )


@dataclass
class Detection:
    """One detection's readings and verdict, filled in as its sequence runs:
    at the trigger, the P&O rest voltage and the updated (array, module) MPP
    references; once the open-loop trim has landed the array on the array
    reference, the command there, the sample-module voltage and the (v, p)
    reading that seeds a scan; then the low (v, p) PSI probe.
    :func:`detection_verdict` completes it with the verdict."""

    v_rest: float
    v_mpp_arr_updated: float
    v_mpp_mod_updated: float
    trimmed: bool = False
    center_cmd: float = math.nan
    v_sample: float = math.nan
    seed: tuple[float, float] | None = None
    lo: tuple[float, float] | None = None
    psi: float | None = None  # None: the array was dark at the probes, no verdict
    dv_arr_ratio: float = math.nan  # signed
    dv_mod_ratio: float = math.nan  # signed
    fired: tuple[bool, bool, bool] = (False, False, False)
    t: float = math.nan  # controller time of the verdict; NaN for a static one

    @property
    def is_psc(self) -> bool:
        return any(self.fired)

    def to_dict(self) -> dict:
        return {
            "psi_per_v": self.psi,
            "dv_arr_ratio": self.dv_arr_ratio,
            "dv_mod_ratio": self.dv_mod_ratio,
            "criteria_fired": list(self.fired),
            "psc": self.is_psc,
            "v_rest_v": self.v_rest,
            "v_mpp_arr_updated_v": self.v_mpp_arr_updated,
            "v_mpp_mod_updated_v": self.v_mpp_mod_updated,
        }


def detection_verdict(
    d: Detection, probe_hi: tuple[float, float], cfg: DetectorConfig, t: float = math.nan
) -> None:
    """Complete ``d`` in place with its verdict, from its readings and the
    high (v, p) PSI probe, judged at controller time ``t``.

    A dark array (mean probe power not positive) has no slope to judge: it
    gets no verdict, ``psi`` None and no criterion fired, so P&O resumes."""
    d.t = t
    d.dv_arr_ratio = (d.v_rest - d.v_mpp_arr_updated) / d.v_mpp_arr_updated
    d.dv_mod_ratio = (d.v_sample - d.v_mpp_mod_updated) / d.v_mpp_mod_updated
    if 0.5 * (d.lo[1] + probe_hi[1]) > 0.0:
        d.psi = compute_psi(d.lo, probe_hi)
        d.fired = criteria_fired(d.psi, d.dv_arr_ratio, d.dv_mod_ratio, cfg)


@dataclass
class ScanEpisode:
    """One global search, from a positive verdict until P&O resumes: the
    incumbent (V_e, P_e), seeded by the detection's reference reading, the
    down-leg floor, and each prune as its ``report.json`` dict."""

    t_start: float
    v_e: float
    p_e: float
    floor_v: float  # updated module MPP voltage
    t_arrived: float = math.nan  # command reached V_e
    ticks_up: int = 0
    ticks_down: int = 0
    prunes: list[dict] = field(default_factory=list)

    def prune(self, kind: str, m: Measurement) -> None:
        """Record a leg ended by its bound: "up" (V_oc*I < P_e) or "down" (V*I_sc < P_e)."""
        self.prunes.append({"kind": kind, "t_s": m.t, "v_v": m.v, "i_a": m.i, "p_e_w": self.p_e})


@dataclass
class ControllerState:
    """Mutable controller memory; one instance per plant.  ``detection`` is
    set from a trigger until its verdict, ``episode`` from a positive verdict
    until P&O resumes; each record is then appended to its list."""

    v_cmd_max: float  # the link voltage: between ticks the command is in [0, v_cmd_max]
    mode: Mode = Mode.PO
    v_ref: float = 0.0
    po_direction: int = 1
    last_power: float = math.nan
    # the tick on which P&O's next step or a settle (from _slew) is due
    deadline: int = 0
    # P&O rest estimation (one oscillation cycle)
    rest_v: deque = field(default_factory=lambda: deque(maxlen=4))
    rest_i: deque = field(default_factory=lambda: deque(maxlen=4))
    uic_current: float = math.nan
    slew_target: float = math.nan  # _slew holds it in [0, v_cmd_max]
    detection: Detection | None = None
    detections: list[Detection] = field(default_factory=list)
    episode: ScanEpisode | None = None
    episodes: list[ScanEpisode] = field(default_factory=list)


def make_controller_state(
    ref: ReferenceModel, cfg: ControllerConfig, v_cmd_max: float
) -> ControllerState:
    return ControllerState(v_cmd_max, v_ref=min(ref.v_mpp_arr_sc, v_cmd_max),
                           deadline=deadline_tick(0, cfg.po_period_s, cfg.adc_period_s),
                           uic_current=ref.i_mpp_arr_sc)


def deadline_tick(tick: int, wait_s: float, adc: float) -> int:
    """Where a wait of ``wait_s`` from tick ``tick`` ends: the first ``j >= tick``
    with ``j*adc + 1e-12 >= tick*adc + wait_s``, at most ``TICK_MAX``.  Every
    wait (P&O's next step and each settle) ends by this rule, so a wait that
    falls due a rounding error past a tick ends on it: at the defaults each
    settle lasts 40 ticks from any start tick.  The comparison decides: below
    ``TICK_MAX`` ``j*adc`` rises by over ``adc/2`` a tick, so a guess from
    ``wait_s / adc`` is a step or two from ``j``."""
    tol = 1e-12
    due = tick * adc + wait_s
    j = min(tick + int(min(max(wait_s - tol, 0.0) / adc, TICK_MAX)), TICK_MAX)
    while j > tick and (j - 1) * adc + tol >= due:
        j -= 1
    while j < TICK_MAX and j * adc + tol < due:
        j += 1
    return j


def po_step(state: ControllerState, m: Measurement, step_v: float) -> None:
    """One perturb-and-observe update at the P&O cadence."""
    p = m.p
    if math.isfinite(state.last_power) and p < state.last_power:
        state.po_direction = -state.po_direction
    state.v_ref += state.po_direction * step_v
    state.last_power = p
    state.rest_v.append(m.v)
    state.rest_i.append(m.i)


def scan_step(
    state: ControllerState, m: Measurement, ref: ReferenceModel, cfg: ControllerConfig
) -> None:
    """One ramp-scan update at the ADC cadence.

    Updates the incumbent (V_e, P_e), advances the ramp command, and
    applies the search-pruning terminations.  The up leg ends at the rated
    open-circuit voltage, or at ``v_cmd_max`` where the link caps the
    command below it."""
    p_s = m.p
    ep = state.episode
    if p_s > ep.p_e:
        ep.v_e, ep.p_e = m.v, p_s

    dv = cfg.ramp_rate_v_per_s * cfg.adc_period_s
    if state.mode is Mode.SCAN_UP:
        ep.ticks_up += 1
        ceiling = min(ref.v_oc_arr_rated, state.v_cmd_max)
        at_ceiling = m.v >= ceiling or state.v_ref >= ceiling
        pruned = ref.v_oc_arr_rated * m.i < ep.p_e
        if at_ceiling or pruned:
            if pruned and not at_ceiling:
                ep.prune("up", m)
            state.mode = Mode.SCAN_DOWN
        else:
            state.v_ref = min(state.v_ref + dv, ceiling)
    elif state.mode is Mode.SCAN_DOWN:
        ep.ticks_down += 1
        at_floor = m.v <= ep.floor_v or state.v_ref <= ep.floor_v
        pruned = m.v * ref.i_sc_rated < ep.p_e
        if at_floor or pruned:
            if pruned and not at_floor:
                ep.prune("down", m)
            state.mode = Mode.SETTLE_TO_BEST
            cmd_offset = min(max(m.v - state.v_ref, -20.0), 20.0)
            state.slew_target = ep.v_e - cmd_offset
        else:
            state.v_ref -= dv


def _begin_detection(state: ControllerState, m: Measurement, ref: ReferenceModel) -> None:
    v_rest = sum(state.rest_v) / len(state.rest_v) if state.rest_v else m.v
    i_corr = state.uic_current if math.isfinite(state.uic_current) else None
    v_arr_u, v_mod_u = update_references(ref, m.t_sample_mod, i_arr=i_corr)
    state.detection = Detection(v_rest, v_arr_u, v_mod_u)
    state.slew_target = v_arr_u
    state.mode = Mode.DETECT_SETTLE


def _finish_detection(
    state: ControllerState, m: Measurement, cfg: ControllerConfig, probe_hi: tuple[float, float]
) -> None:
    d, state.detection = state.detection, None
    detection_verdict(d, probe_hi, cfg.detector, t=m.t)
    state.detections.append(d)
    if d.is_psc:
        state.episode = ScanEpisode(m.t, *d.seed, floor_v=d.v_mpp_mod_updated)
        state.mode = Mode.SCAN_UP
    else:
        state.v_ref = d.center_cmd
        state.mode = Mode.PO
        state.last_power = m.p


def _slew(state: ControllerState, tick: int, cfg: ControllerConfig) -> bool:
    """Move the command one ramp step toward ``slew_target``, held in
    ``[0, v_cmd_max]``.  On arrival, clear the target, start the settle
    time, the same wait in every mode, and return True."""
    target = min(max(state.slew_target, 0.0), state.v_cmd_max)
    dv_cmd = cfg.ramp_rate_v_per_s * cfg.adc_period_s
    delta = target - state.v_ref
    if abs(delta) > dv_cmd:
        state.v_ref += math.copysign(dv_cmd, delta)
        return False
    state.v_ref = target
    state.slew_target = math.nan
    state.deadline = deadline_tick(tick, cfg.settle_s, cfg.adc_period_s)
    return True


def _detect_tick(
    state: ControllerState, tick: int, m: Measurement, cfg: ControllerConfig,
    read_sample_module: Callable[[], float],
) -> None:
    """Advance the detection sequence: reach the reference, trim the
    open-loop offset, read the sample module, probe PSI on both sides.
    The next step is the first reading still missing."""
    if not math.isnan(state.slew_target):
        _slew(state, tick, cfg)
        return
    d = state.detection
    probe_dv = cfg.detector.probe_dv(d.v_mpp_arr_updated)
    if not d.trimmed:
        # one open-loop trim so the measured array voltage lands on the
        # reference despite the r_L*i_L steady-state offset
        d.trimmed = True
        state.slew_target = state.v_ref + (d.v_mpp_arr_updated - m.v)
    elif d.seed is None:
        d.center_cmd = state.v_ref
        d.v_sample = read_sample_module()
        d.seed = (m.v, m.p)
        state.mode = Mode.DETECT_PROBE
        state.slew_target = d.center_cmd - probe_dv
    elif d.lo is None:
        d.lo = (m.v, m.p)
        state.slew_target = d.center_cmd + probe_dv
    else:
        _finish_detection(state, m, cfg, (m.v, m.p))


def resume_tick(state: ControllerState) -> int:
    """The controller's only wait rule: on a tick before this one
    :func:`controller_tick` holds its command and leaves ``state`` as it is,
    whatever the measurement, and the closed loop runs those ticks as one
    block (after a P&O step, the block of the step).  It is
    ``state.deadline`` while P&O waits for its next step, or
    a detection or the settle to the best point waits out its settle with no
    slew target; 0 while a scan or a slew acts on every tick.  Holding is
    exact: between ticks the command lies in ``[0, v_cmd_max]``, where
    :func:`make_controller_state` starts it and each acting tick clamps it."""
    mode = state.mode
    if mode is Mode.SCAN_UP or mode is Mode.SCAN_DOWN or not math.isnan(state.slew_target):
        return 0
    return state.deadline


def controller_tick(
    state: ControllerState,
    tick: int,
    m: Measurement,
    cfg: ControllerConfig,
    ref: ReferenceModel,
    read_sample_module: Callable[[], float],
) -> float:
    """Advance the controller by ``m``, the ADC sample of tick ``tick``; returns the new command.

    P&O acts at its own (slower) cadence; detection and scanning act on
    every sample.  Detection is entered from P&O on a noticeable power
    change or periodically.  ``read_sample_module()`` returns the sample
    module's voltage at the present array voltage; it is called once per
    detection, on the trim tick that holds the array at its reference."""
    if tick < resume_tick(state):
        return state.v_ref
    mode = state.mode
    if mode is Mode.PO:
        last = state.detections[-1] if state.detections else None
        trigger = not cfg.po_only and (
            (
                math.isfinite(state.last_power)
                and abs(m.p - state.last_power)
                > cfg.detector.power_change_trigger * max(state.last_power, 1e-9)
            )
            or m.t - (last.t if last else 0.0) >= cfg.detector.periodic_trigger_s
        )
        if trigger:
            _begin_detection(state, m, ref)
        else:
            po_step(state, m, cfg.po_step_v)
            # the rest current is a uniform operating current unless the
            # last verdict found partial shading
            if not (last and last.is_psc) and len(state.rest_i) == state.rest_i.maxlen:
                state.uic_current = sum(state.rest_i) / len(state.rest_i)
    elif mode in (Mode.DETECT_SETTLE, Mode.DETECT_PROBE):
        _detect_tick(state, tick, m, cfg, read_sample_module)
    elif mode in (Mode.SCAN_UP, Mode.SCAN_DOWN):
        scan_step(state, m, ref, cfg)
    elif mode is Mode.SETTLE_TO_BEST:
        if not math.isnan(state.slew_target):
            if _slew(state, tick, cfg):
                state.episode.t_arrived = m.t
        else:
            state.episodes.append(state.episode)
            state.episode = None
            state.mode = Mode.PO
            state.last_power = m.p
            state.po_direction = 1
            state.rest_v.clear()
            state.rest_i.clear()

    if state.mode is Mode.PO:  # P&O stepped or resumes: its next step is due
        state.deadline = deadline_tick(tick, cfg.po_period_s, cfg.adc_period_s)
    state.v_ref = min(max(state.v_ref, 0.0), state.v_cmd_max)
    return state.v_ref
