"""Averaged state-space model of the PV-side boost converter.

The converter couples the array to a stiff DC-link voltage and is driven
open loop by a voltage command translated to a duty cycle.  The averaged
(ripple-free) equations are

    C_pv * dv_pv/dt = i_array(v_pv) - i_L
    L    * di_L/dt  = v_pv - r_L*i_L - (1 - D)*v_out

integrated with fixed-step RK4 by :func:`advance`, the one integrator of
the open-loop runs and the closed loop.  The inductor current is clamped
at zero (ideal diode, discontinuous-conduction guard).  An open-loop
:func:`run` makes one call per command piece and sample interval.

When the current source is a :func:`PlantCurve` table, it runs its
sub-steps in ``_rk4.c``, plain C that performs the Python loop's
operations in the same order.  The first such call compiles it with
``cc`` into the user's cache (``$XDG_CACHE_HOME/pvmppt``, by default
``~/.cache/pvmppt``) and accepts it only if it gives the Python loop's
bits on a fixed probe.  Without a compiler, or if anything in that
fails, the Python loop runs, silently and with the same results.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
import random
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from types import FunctionType
from typing import Callable

import numpy as np

from .pvmodel import V_GRID, PvCurve, ValidationError, check_field

MAX_DT = 2e-5  # stability margin at the reference plant parameters
MAX_DUTY = 0.99
DT = 5e-6  # s, the open-loop RK4 step of :func:`run` and a scenario's default dt_s

# Plant envelope in which RK4 at MAX_DT is stable.  Linearised, the plant's
# inductor pole and LC resonance give the step numbers r_l*MAX_DT/l and
# MAX_DT/sqrt(l*c_pv); every corner of this box keeps both at most
# STEP_NUMBER_MAX, inside the RK4 limits of 2.79 (real axis) and 2.83
# (imaginary axis).  The reference plant (0.3 ohm, 600 uH, 100 uF) sits at
# 0.01 and 0.08.  The capacitor pole g*dt/c_pv also depends on the array's
# slope g = |di/dv|, so the closed loop checks it per swept curve.
# :class:`ConverterParams` rejects a plant outside the box.
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
        for name, value, ok, envelope in (
            ("r_l", self.r_l, 0.0 < self.r_l <= R_L_MAX, f"(0, {R_L_MAX}] ohm"),
            ("l", self.l, self.l >= L_MIN, f"[{L_MIN}, inf) H"),
            ("c_pv", self.c_pv, self.c_pv >= C_PV_MIN, f"[{C_PV_MIN:.3g}, inf) F"),
            ("v_out", self.v_out, 0.0 < self.v_out <= V_OUT_MAX, f"(0, {V_OUT_MAX}] V"),
        ):
            check_field(name, value, ok, f"in the plant envelope {envelope}")


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
        if self.kind == "ramp" and not (0.0 < self.rate_v_per_s < math.inf):
            raise ValidationError("ramp segments need a finite positive rate")
        if self.kind == "hold" and (
            self.duration_s is None or not 0.0 <= self.duration_s < math.inf
        ):
            raise ValidationError("hold segments need a finite non-negative duration")


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

    The grid step is ``V_GRID``, the step the closed loop sweeps at, so the
    table is read off the curve's own samples: a grid point equal to the
    curve's sample of the same index takes that sample's current, which is
    what ``np.interp`` returns there.  Only the grid points past that
    prefix are interpolated: 1-2 at the top of a ``V_GRID`` sweep, most of
    the grid for a curve sampled on another grid.  The table is zero from
    V_oc up."""
    h = V_GRID
    v = curve.v
    voc = float(v[-1])
    grid = np.arange(0.0, voc + 2 * h, h)
    n = min(len(grid), len(v))
    differ = np.flatnonzero(grid[:n] != v[:n])
    k = int(differ[0]) if len(differ) else n
    if 0 < k < len(v) and v[k] == v[k - 1]:
        k -= 1  # np.interp reads a repeated sample's last current
    vals = np.concatenate((curve.i[:k], np.interp(grid[k:], v, curve.i, right=0.0)))
    vals[grid >= voc] = 0.0
    return _grid_source(vals, h)


def _grid_source(vals: np.ndarray, h: float) -> Callable[[float], float]:
    """Linear interpolation in ``vals``, sampled every ``h`` volts from 0 V:
    ``vals[0]`` at or below 0 V and zero from the next-to-last sample up.

    Returns a plain closure ``i(v)``: the Python RK4 loop calls it four
    times per sub-step, so it holds its state in cells and reads the
    samples through a ``memoryview``.  Its one attribute,
    ``table = (vals, h, v_top, i_short)``, is what the compiled kernel
    reads.  A contiguous float64 array is taken over, not copied: it is
    made read-only, so a later write to it raises instead of changing the
    table."""
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    vals.flags.writeable = False
    il = memoryview(vals)
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

    plant_current.table = (vals, h, v_top, i_short)
    return plant_current


def _plant_constants(params: ConverterParams) -> tuple[float, float, float, float]:
    """``(1/c_pv, 1/l, r_l, w_floor)``, as both RK4 kernels take them."""
    return 1.0 / params.c_pv, 1.0 / params.l, params.r_l, (1.0 - MAX_DUTY) * params.v_out


def advance(
    v: float, il: float, w0: float, dw: float, n_ticks: int, n_sub: int, dt: float, i_of_v,
    params: ConverterParams, samples: tuple[list, list] | None,
) -> tuple[float, float]:
    """Integrate ``n_ticks`` ticks of ``n_sub`` fixed RK4 steps each of the
    averaged plant; returns ``(v_pv, i_L)`` at the end.

    The output-side voltage ``w = (1 - D)*v_out`` slews linearly: step ``k``
    of the call holds ``w0 + dw*(k + 0.5)``, floored at
    ``(1 - MAX_DUTY)*v_out`` (a NaN goes to the floor).  Both states are
    clamped at zero after every step.  When ``samples`` is a pair of lists
    ``(v_at, i_at)``, the start of each tick appends ``v_pv`` to ``v_at`` and
    the source's current there to ``i_at``; the Python loop appends them as
    it goes, so after an exception the lists hold the ticks begun.

    A :func:`PlantCurve` source runs in the compiled kernel when it loads;
    every other source, and any call the kernel declines, runs the Python
    loop, which gives the same bits.  ``table`` is read only off a plain
    function, as :func:`PlantCurve` returns: on a bound method the lookup
    would fail, at a cost, on every call.
    """
    if type(i_of_v) is FunctionType:
        table = getattr(i_of_v, "table", None)
        if table is not None:
            kernel = _native_rk4()
            if kernel is not None:
                out = kernel(v, il, w0, dw, n_ticks, n_sub, dt, table, params, samples)
                if out is not None:
                    return out
    return _python_advance(v, il, w0, dw, n_ticks, n_sub, dt, i_of_v, params, samples)


def _python_advance(
    v: float, il: float, w0: float, dw: float, n_ticks: int, n_sub: int, dt: float, i_of_v,
    params: ConverterParams, samples: tuple[list, list] | None,
) -> tuple[float, float]:
    """The RK4 loop of :func:`advance` in Python: the reference whose
    operations ``_rk4.c`` performs in the same order, and the fallback.

    Python groups ``0.5 * dt * k`` as ``(0.5 * dt) * k``, so ``half_dt``
    and ``sixth_dt`` are taken out of the loop with the same bits.  At a
    held command (``dw == 0.0``, either sign) ``w0 + dw * (k + 0.5)`` is
    ``w0 + dw * 0.5`` for every ``k >= 0``, so the floored ``w`` is taken
    once per call."""
    inv_c, inv_l, r_l, w_floor = _plant_constants(params)
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    held = dw == 0.0
    if held:
        x = w0 + dw * 0.5
        w = x if x > w_floor else w_floor
    for t in range(n_ticks):
        if samples is not None:
            samples[0].append(v)
            samples[1].append(i_of_v(v))
        for k in range(t * n_sub, (t + 1) * n_sub):
            if not held:
                x = w0 + dw * (k + 0.5)
                w = x if x > w_floor else w_floor
            k1v = (i_of_v(v) - il) * inv_c
            k1i = (v - r_l * il - w) * inv_l
            v2, i2 = v + half_dt * k1v, il + half_dt * k1i
            k2v = (i_of_v(v2) - i2) * inv_c
            k2i = (v2 - r_l * i2 - w) * inv_l
            v3, i3 = v + half_dt * k2v, il + half_dt * k2i
            k3v = (i_of_v(v3) - i3) * inv_c
            k3i = (v3 - r_l * i3 - w) * inv_l
            v4, i4 = v + dt * k3v, il + dt * k3i
            k4v = (i_of_v(v4) - i4) * inv_c
            k4i = (v4 - r_l * i4 - w) * inv_l
            v += sixth_dt * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            il += sixth_dt * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
            if il < 0.0:
                il = 0.0
            if v < 0.0:
                v = 0.0
    return v, il


# ---------------------------------------------------------------------------
# the compiled kernel: built on first use, checked against the Python loop
# ---------------------------------------------------------------------------

_RK4_SOURCE = Path(__file__).with_name("_rk4.c")
# -ffp-contract=off keeps a*b + c from fusing into one FMA (GCC's default on
# aarch64), which rounds once instead of twice; -ffast-math would reorder.
_CC_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

# The fixed probe a loaded kernel must match bit for bit: 100 seeded cases
# on a 14-sample table (v_top 8.4 V) and the reference plant (duty floor
# 2.5 V).  They reach v <= 0, v >= v_top and w at the
# floor, and their 0.1 ms steps move the state so far per step that one
# rounding changed in the loop (a fused multiply-add, a reordered sum) shows
# in the bits.  Each case runs as one tick without samples and as
# _PROBE_TICKS ticks with them.
_PROBE_TABLE = (tuple(8.0 - 0.6 * k / 7 - 0.05 * (k % 3) for k in range(12)) + (0.0, 0.0), 0.7)
_PROBE_TICKS = 3


def _probe_cases() -> list[tuple[float, float, float, float, int, float]]:
    """``(v, il, w0, dw, n_sub, dt)`` of the probe."""
    rnd = random.Random(2018)
    return [
        (
            rnd.uniform(-0.5, 9.5),
            rnd.uniform(0.0, 12.0),
            rnd.uniform(0.0, 20.0),
            rnd.uniform(-0.5, 0.5),
            rnd.randint(1, 8),
            1e-4,
        )
        for _ in range(100)
    ]


def _cache_dir() -> Path | None:
    """``$XDG_CACHE_HOME/pvmppt`` (``~/.cache/pvmppt`` by default), created
    with mode 0700; None if it cannot be made or others can write to it."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    try:
        root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
        d = root / "pvmppt"
        d.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = d.stat()
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        return None
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        return None
    return d


def _compile(cc: str, source: bytes, out: Path) -> None:
    """Compile ``source`` to the shared object ``out``: into a temporary name
    in the same directory, then renamed over ``out`` in one step, so that
    processes building at once never load a half-written file."""
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(prefix=out.name + ".", suffix=".tmp", dir=out.parent)
    os.close(fd)
    try:
        subprocess.run(
            [cc, *_CC_FLAGS, "-x", "c", "-", "-o", tmp],
            input=source,
            capture_output=True,
            check=True,
            timeout=120,
        )
        os.replace(tmp, out)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _object_name(source: bytes, flags: tuple[str, ...], machine: str) -> str:
    """The cached object's file name: the CRC-32 and Adler-32 of the source,
    flags and machine, and their length.  zlib is loaded with numpy already,
    where hashlib would map OpenSSL; the probe, not the name, is the guard."""
    key = source + " ".join(flags).encode() + b"\0" + machine.encode()
    return f"_rk4-{zlib.crc32(key):08x}{zlib.adler32(key):08x}{len(key):x}.so"


# a cached kernel object not built or loaded for this long is deleted by the
# next process that loads another one: one per source edit piles up
# otherwise.  Each load stamps its own object's mtime, so two checkouts used
# in turn never delete each other's.
STALE_OBJECT_S = 30 * 86400


def _remove_stale(cache: Path, current: str) -> None:
    """Stamp ``cache/current`` as used now and delete its ``_rk4-*.so``
    siblings whose mtime is older than ``STALE_OBJECT_S``."""
    cutoff = time.time() - STALE_OBJECT_S
    try:
        os.utime(cache / current)
        siblings = [p for p in cache.glob("_rk4-*.so") if p.name != current]
    except OSError:
        return
    for p in siblings:
        try:
            if p.stat().st_mtime < cutoff:
                p.unlink()
        except OSError:
            pass


@functools.cache
def _native_rk4():
    """The compiled kernel as ``kernel(v, il, w0, dw, n_ticks, n_sub, dt,
    table, params, samples) -> (v, il) | None``, :func:`advance` with the
    source's table; or None when it cannot be had.

    Built once per source, flags and machine, named by
    :func:`_object_name`, and kept in :func:`_cache_dir`; a warm cache runs
    no compiler, and :func:`_remove_stale` clears out old objects.  When
    that directory cannot be used, the kernel is built in a private
    temporary directory for this process alone.  A kernel that
    does not give the Python loop's bits on the probe is refused."""
    import ctypes
    import platform
    import shutil
    import subprocess
    import tempfile

    cc = shutil.which("cc") if os.name == "posix" else None
    if cc is None:
        return None
    try:
        source = _RK4_SOURCE.read_bytes()
    except OSError:
        return None
    name = _object_name(source, _CC_FLAGS, platform.machine())
    try:
        cache = _cache_dir()
        if cache is not None:
            path = cache / name
            if not path.exists():
                _compile(cc, source, path)
            lib = ctypes.CDLL(str(path))
            _remove_stale(cache, name)
        else:
            with tempfile.TemporaryDirectory(prefix="pvmppt-") as private:
                path = Path(private) / name
                _compile(cc, source, path)
                lib = ctypes.CDLL(str(path))
        fn = lib.pvmppt_rk4_advance
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None

    class Plant(ctypes.Structure):  # struct plant in _rk4.c
        _fields_ = [("tab", ctypes.c_void_p), ("n", ctypes.c_long)] + [
            (f, ctypes.c_double) for f in ("h", "v_top", "i_short", "inv_c", "inv_l", "r_l", "w_floor")
        ]

    state_t = ctypes.c_double * 2
    samples_t = ctypes.POINTER(ctypes.c_double)
    fn.restype = ctypes.c_int
    fn.argtypes = (state_t, ctypes.c_double, ctypes.c_double, ctypes.c_long, ctypes.c_long,
                   ctypes.c_double, ctypes.POINTER(Plant), samples_t, samples_t)
    # The closed loop calls with one table and one plant for a whole window,
    # so the struct is built once per pair; the tuple holds the table, and
    # with it the samples the struct points at, alive.
    last = [(None, None, None)]
    # the (v, i) samples' output, grown to the most ticks sampled at once
    out = [0, None, None]

    def plant_of(table, params):
        seen_table, seen_params, plant = last[0]
        if table is not seen_table or params is not seen_params:
            vals, h, v_top, i_short = table
            plant = Plant(vals.ctypes.data, len(vals), h, v_top, i_short, *_plant_constants(params))
            last[0] = (table, params, plant)
        return plant

    def kernel(v, il, w0, dw, n_ticks, n_sub, dt, table, params, samples):
        if samples is None:
            v_at = i_at = None
        elif type(n_ticks) is not int or n_ticks < 1:  # the Python loop decides
            return None
        else:
            if n_ticks > out[0]:
                out[:] = n_ticks, (ctypes.c_double * n_ticks)(), (ctypes.c_double * n_ticks)()
            v_at, i_at = out[1], out[2]
        state = state_t(v, il)
        try:
            declined = fn(state, w0, dw, n_ticks, n_sub, dt, plant_of(table, params), v_at, i_at)
        except ctypes.ArgumentError:  # let the Python loop reject it in its own words
            return None
        if declined:
            return None
        if samples is not None:
            samples[0].extend(v_at[:n_ticks])
            samples[1].extend(i_at[:n_ticks])
        return state[0], state[1]

    params = ConverterParams()
    plant = _grid_source(*_PROBE_TABLE)
    for v, il, w0, dw, n_sub, dt in _probe_cases():
        for n_ticks, native, python in ((1, None, None), (_PROBE_TICKS, ([], []), ([], []))):
            end = kernel(v, il, w0, dw, n_ticks, n_sub, dt, plant.table, params, native)
            ref = _python_advance(v, il, w0, dw, n_ticks, n_sub, dt, plant, params, python)
            if end != ref or native != python:
                return None
    return kernel


def step_ode(
    v: float,
    il: float,
    duty: float,
    dt: float,
    i_of_v: Callable[[float], float],
    params: ConverterParams = ConverterParams(),
    n: int = 1,
) -> tuple[float, float]:
    """``n`` RK4 steps of the averaged plant at a fixed duty from ``v_pv = v``
    and ``i_L = il``; returns ``(v_pv, i_L)`` at the end, as :func:`advance` does.

    ``i_of_v`` is the PV source's current at a voltage, e.g.
    ``PlantCurve(sweep_curve(spec))``.  The duty is held exactly, so
    one call of ``n`` steps gives the same bits as ``n`` calls of one step.
    """
    if dt > MAX_DT:
        raise ValidationError(f"dt {dt} above stability margin {MAX_DT}")
    if not (0.0 <= duty <= MAX_DUTY):
        raise ValidationError(f"duty {duty} outside [0, {MAX_DUTY}]")
    if n < 1:
        raise ValidationError(f"step count {n} below 1")
    return advance(v, il, (1.0 - duty) * params.v_out, 0.0, 1, n, dt, i_of_v, params, None)


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


def run(
    command: CommandSignal,
    i_of_v: Callable[[float], float],
    params: ConverterParams = ConverterParams(),
    sample_period: float = 5e-4,
) -> list[TraceRecord]:
    """Integrate the plant over an open-loop command and sample it.

    The plant state is the two floats ``(v_pv, i_L)`` that :func:`step_ode`
    and :func:`advance` return and take; it starts at the command's value
    at ``t = 0`` with the source's current in the inductor.  Step ``n`` covers
    ``[n*DT, (n+1)*DT)`` in the command piece that holds its midpoint (past
    the last piece, a hold at the final value).  A piece's steps up to
    each sample are one call: a hold's one :func:`step_ode` call at its
    duty, a ramp's one :func:`advance` call that slews the plant input
    with the command, as the closed loop's slews do.  Sample ``n`` is
    stamped ``n*DT`` and records the command then and the duty of step
    ``n``'s midpoint.  Measurements are instantaneous state reads.
    """
    if not (math.isfinite(sample_period) and sample_period >= DT):
        raise ValidationError(f"sample_period must be finite and >= the {DT} s step")
    command.validate_against(params.v_out)
    pieces = _command_profile(command)
    horizon = sum(p[3] for p in pieces)
    if not horizon < DT * sys.maxsize:  # past this, range(n_steps) has no len()
        raise ValidationError(f"command duration {horizon} s above {DT * sys.maxsize:.3g} s")
    n_steps = round(horizon / DT)
    per_sample = max(round(sample_period / DT), 1)

    v = command_value(pieces, 0.0)
    il = i_of_v(v)
    v_end = command_value(pieces, horizon)

    trace: list[TraceRecord] = []

    def record(n: int, v_pv: float, v_cmd: float, duty: float) -> None:
        i_pv = i_of_v(v_pv)
        trace.append(
            TraceRecord(t=n * DT, v_ref=v_cmd, duty=duty, v_pv=v_pv, i_pv=i_pv, p=v_pv * i_pv)
        )

    n = 0
    for t0, v_from, v_to, dur in pieces + [(horizon, v_end, v_end, math.inf)]:
        # this piece's steps: those from n whose midpoints lie before its
        # end, compared as command_value compares them
        end = bisect.bisect_left(range(n_steps), t0 + dur, lo=n, key=lambda k: (k + 0.5) * DT)
        hold = v_from == v_to
        if hold and n < end:
            # a hold's command is one value in [t0, t0 + dur), which holds
            # these steps' midpoints and their sample times from t0 on
            v_hold = command_value(pieces, (n + 0.5) * DT)
            duty = duty_for_voltage(v_hold, params.v_out)
        while n < end:
            m = min(n - n % per_sample + per_sample, end)
            if not hold:
                duty = duty_for_voltage(command_value(pieces, (n + 0.5) * DT), params.v_out)
            if n % per_sample == 0:
                v_cmd = v_hold if hold and n * DT >= t0 else command_value(pieces, n * DT)
                record(n, v, v_cmd, duty)
            if hold:
                v, il = step_ode(v, il, duty, DT, i_of_v, params, m - n)
            else:
                slope = (v_to - v_from) / dur
                w0 = v_from + slope * (n * DT - t0)
                v, il = advance(v, il, w0, slope * DT, 1, m - n, DT, i_of_v, params, None)
            n = m
    if n_steps > 0:
        record(n_steps, v, v_end, duty_for_voltage(v_end, params.v_out))
    return trace
