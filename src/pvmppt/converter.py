"""Averaged state-space model of the PV-side boost converter.

The converter couples the array to a stiff DC-link voltage and is driven
open loop by a voltage command translated to a duty cycle.  The averaged
(ripple-free) equations are

    C_pv * dv_pv/dt = i_array(v_pv) - i_L
    L    * di_L/dt  = v_pv - r_L*i_L - (1 - D)*v_out

integrated with fixed-step RK4 (:func:`advance`, shared by the open-loop
runs and the closed loop).  The inductor current is clamped at zero
(ideal diode, discontinuous-conduction guard).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pvmodel import PvCurve, ValidationError

MAX_DT = 2e-5  # stability margin at the reference plant parameters
MAX_DUTY = 0.99
DT = 5e-6  # s, the open-loop RK4 step of :func:`run`

# Plant envelope in which RK4 at MAX_DT is stable.  Linearised, the plant's
# inductor pole and LC resonance give the step numbers r_l*MAX_DT/l and
# MAX_DT/sqrt(l*c_pv); every corner of this box keeps both at most
# STEP_NUMBER_MAX, inside the RK4 limits of 2.79 (real axis) and 2.83
# (imaginary axis).  The reference plant (0.3 ohm, 600 uH, 100 uF) sits at
# 0.01 and 0.08.  The capacitor pole g*dt/c_pv also depends on the array's
# slope g = |di/dv|, so the closed loop checks it per swept curve.
STEP_NUMBER_MAX = 1.0
R_L_MAX = 3.0  # ohm
L_MIN = 60e-6  # H
C_PV_MIN = MAX_DT**2 / L_MIN  # F (6.7 uF)
# v_out only moves the equilibrium, so its cap is practical: the 1500 V DC
# ceiling PV plants are built to, which keeps the duty floor
# (1 - MAX_DUTY)*v_out at most 15 V and every RK4 stage finite.
V_OUT_MAX = 1500.0  # V


@dataclass(frozen=True)
class ConverterParams:
    """Boost plant: inductor branch, PV-side capacitor, stiff output."""

    r_l: float = 0.3  # ohm
    l: float = 600e-6  # H
    c_pv: float = 100e-6  # F
    v_out: float = 250.0  # V, held constant

    def __post_init__(self) -> None:
        for name in ("r_l", "l", "c_pv", "v_out"):
            if getattr(self, name) <= 0.0:
                raise ValidationError("converter parameters must be strictly positive", name)


@dataclass(frozen=True)
class ConverterState:
    v_pv: float
    i_l: float


@dataclass(frozen=True)
class CommandSegment:
    """One piece of the open-loop voltage command.

    ``hold`` jumps to ``target_v`` and stays there for ``duration_s``;
    ``ramp`` slews from the previous level to ``target_v`` at
    ``rate_v_per_s`` (duration implied).
    """

    kind: str  # "hold" | "ramp"
    target_v: float
    rate_v_per_s: float = 0.0
    duration_s: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("hold", "ramp"):
            raise ValidationError(f"unknown segment kind {self.kind!r}")
        if not math.isfinite(self.target_v):
            raise ValidationError("segment target must be finite")
        if self.kind == "ramp" and self.rate_v_per_s <= 0.0:
            raise ValidationError("ramp segments need a positive rate")
        if self.kind == "hold" and (self.duration_s is None or self.duration_s < 0.0):
            raise ValidationError("hold segments need a non-negative duration")


@dataclass(frozen=True)
class CommandSignal:
    segments: tuple[CommandSegment, ...]
    v_start: float = 0.0

    def validate_against(self, v_out: float) -> None:
        for seg in self.segments:
            if not (0.0 <= seg.target_v <= v_out):
                raise ValidationError(
                    f"command target {seg.target_v} outside [0, {v_out}]"
                )
        if not (0.0 <= self.v_start <= v_out):
            raise ValidationError("command start voltage outside [0, v_out]")


@dataclass
class TraceRecord:
    """One sampling instant of the simulated plant."""

    t: float
    v_ref: float
    duty: float
    v_pv: float
    i_pv: float
    p: float
    mode: str = ""
    p_e: float = math.nan
    v_e: float = math.nan


def duty_for_voltage(v_ref: float, v_out: float) -> float:
    """Duty command for a wanted input voltage: D = 1 - v_ref/v_out."""
    if not (0.0 <= v_ref <= v_out):
        raise ValidationError(f"v_ref {v_ref} outside [0, {v_out}]")
    return min(1.0 - v_ref / v_out, MAX_DUTY)


def PlantCurve(curve: PvCurve) -> Callable[[float], float]:
    """Uniform-grid current lookup of a swept curve: the plant's current source.

    The grid step is 0.01 V, the step the closed loop sweeps at.  Returns
    a plain closure ``i(v)`` over the grid list: the RK4 kernel calls it
    four times per sub-step, so it holds its state in cells, not
    attributes."""
    h = 0.01
    voc = float(curve.v[-1])
    grid = np.arange(0.0, voc + 2 * h, h)
    vals = np.interp(grid, curve.v, curve.i, right=0.0)
    vals[grid >= voc] = 0.0
    il = vals.tolist()
    v_top = (len(il) - 2) * h
    i_short = il[0]

    def plant_current(v: float) -> float:
        if v <= 0.0:
            return i_short
        if v >= v_top:
            return 0.0
        x = v / h
        j = int(x)
        fr = x - j
        return il[j] + (il[j + 1] - il[j]) * fr

    return plant_current


def advance(
    v: float, il: float, w0: float, dw: float, n_sub: int, dt: float, i_of_v, params: ConverterParams
) -> tuple[float, float]:
    """Integrate ``n_sub`` fixed RK4 steps of the averaged plant; returns ``(v_pv, i_L)``.

    The output-side voltage ``w = (1 - D)*v_out`` slews linearly: step ``k``
    holds ``w0 + dw*(k + 0.5)``, floored at ``(1 - MAX_DUTY)*v_out`` (a NaN
    goes to the floor).  Both states are clamped at zero after every step.
    """
    inv_c = 1.0 / params.c_pv
    inv_l = 1.0 / params.l
    r_l = params.r_l
    w_floor = (1.0 - MAX_DUTY) * params.v_out
    for k in range(n_sub):
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


def step_ode(
    s: ConverterState,
    duty: float,
    dt: float,
    i_of_v: Callable[[float], float],
    params: ConverterParams = ConverterParams(),
    n: int = 1,
) -> ConverterState:
    """``n`` RK4 steps of the averaged plant at a fixed duty.

    ``i_of_v`` is the PV source's current at a voltage, e.g.
    ``PlantCurve(sweep_curve(spec, 0.01))``.  The duty is held exactly, so
    one call of ``n`` steps gives the same ``v_pv`` and ``i_l`` bits as
    ``n`` calls of one step.
    """
    if dt > MAX_DT:
        raise ValidationError(f"dt {dt} above stability margin {MAX_DT}")
    if not (0.0 <= duty <= MAX_DUTY):
        raise ValidationError(f"duty {duty} outside [0, {MAX_DUTY}]")
    if n < 1:
        raise ValidationError(f"step count {n} below 1")
    v, il = advance(s.v_pv, s.i_l, (1.0 - duty) * params.v_out, 0.0, n, dt, i_of_v, params)
    return ConverterState(v_pv=v, i_l=il)


def _command_profile(
    command: CommandSignal,
) -> list[tuple[float, float, float, float]]:
    """Expand segments to (t_start, v_from, v_to, duration) pieces."""
    pieces = []
    t = 0.0
    v = command.v_start
    for seg in command.segments:
        if seg.kind == "hold":
            pieces.append((t, seg.target_v, seg.target_v, seg.duration_s))
            t += seg.duration_s
        else:
            dur = abs(seg.target_v - v) / seg.rate_v_per_s
            pieces.append((t, v, seg.target_v, dur))
            t += dur
        v = seg.target_v
    return pieces


def command_value(pieces, t: float) -> float:
    v = pieces[0][1] if pieces else 0.0
    for t0, v_from, v_to, dur in pieces:
        if t < t0:
            break
        if dur > 0.0 and t < t0 + dur:
            return v_from + (v_to - v_from) * (t - t0) / dur
        v = v_to
    return v


def _held_until(pieces, t: float) -> float:
    """Time up to which :func:`command_value` keeps its value at ``t``: the
    end of the hold piece containing ``t``, infinity past the last piece,
    and ``t`` itself inside a ramp (no later instant is guaranteed equal)."""
    for t0, v_from, v_to, dur in pieces:
        if dur > 0.0 and t0 <= t < t0 + dur:
            return t0 + dur if v_from == v_to else t
    return math.inf


def run(
    command: CommandSignal,
    i_of_v: Callable[[float], float],
    params: ConverterParams = ConverterParams(),
    sample_period: float = 5e-4,
) -> list[TraceRecord]:
    """Integrate the plant over an open-loop command and sample it.

    The plant starts at the command's value at ``t = 0`` with the
    source's current in the inductor.  Step ``n`` covers
    ``[n*DT, (n+1)*DT)`` at the duty of the command at its midpoint; a
    stretch of steps that share one duty up to the next sample is one
    :func:`step_ode` call.  Sample ``n`` is stamped ``n*DT``.
    Measurements are instantaneous state reads.
    """
    if sample_period < DT:
        raise ValidationError(f"sample_period must be >= the {DT} s step")
    command.validate_against(params.v_out)
    pieces = _command_profile(command)
    horizon = sum(p[3] for p in pieces)
    n_steps = round(horizon / DT)
    per_sample = max(round(sample_period / DT), 1)

    v0 = command_value(pieces, 0.0)
    s = ConverterState(v_pv=v0, i_l=i_of_v(v0))

    trace: list[TraceRecord] = []

    def record(n: int, v_pv: float, v_cmd: float, duty: float) -> None:
        i_pv = i_of_v(v_pv)
        trace.append(
            TraceRecord(t=n * DT, v_ref=v_cmd, duty=duty, v_pv=v_pv, i_pv=i_pv, p=v_pv * i_pv)
        )

    n = 0
    while n < n_steps:
        t_mid = (n + 0.5) * DT
        duty = duty_for_voltage(command_value(pieces, t_mid), params.v_out)
        if n % per_sample == 0:
            record(n, s.v_pv, command_value(pieces, n * DT), duty)
        # extend the stretch over the steps up to the next sample whose
        # midpoints the command holds at this duty
        end = min(n - n % per_sample + per_sample, n_steps)
        t_held = _held_until(pieces, t_mid)
        m = n + 1
        while m < end and (m + 0.5) * DT < t_held:
            m += 1
        s = step_ode(s, duty, DT, i_of_v, params, m - n)
        n = m
    if n_steps > 0:
        v_cmd = command_value(pieces, horizon)
        record(n_steps, s.v_pv, v_cmd, duty_for_voltage(v_cmd, params.v_out))
    return trace
