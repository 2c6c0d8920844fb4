"""The compiled RK4 kernel (``src/pvmppt/_rk4.c``) against the Python loop.

The kernel must give the Python loop's bits, or decline so that the Python
loop runs.  These tests skip only when no C compiler is on the path; with
one, a kernel that does not load is a failure.
"""

import math
import os
import re
import shutil
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pvmppt.converter as converter
from pvmppt.converter import ConverterParams, PlantCurve, _grid_source, _python_advance, advance
from pvmppt.pvmodel import ArraySpec, ModuleDatasheet, calibrate_module, sweep_curve

HAVE_CC = shutil.which("cc") is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler on the path")
PLANT = ConverterParams()  # w_floor 2.5 V
W_FLOOR = (1.0 - converter.MAX_DUTY) * PLANT.v_out
SRC = Path(converter.__file__).resolve().parent.parent
# v_top is 6 V; the samples above it are not zero, so reading them would show
EDGE_PLANT = [8.0, 7.9, 7.7, 7.2, 6.0, 3.5, 1.0, 0.5]


def _bits(pair) -> bytes:
    """The exact bits of ``(v, il)``: tells -0.0 from 0.0 and compares NaNs."""
    return struct.pack("<2d", *pair)


def _run_bits(fn, case, source, sampled):
    """``fn(*case, source, PLANT, samples)``'s end state, and its samples
    when ``sampled``, as bits; None when it declined."""
    samples = ([], []) if sampled else None
    end = fn(*case, source, PLANT, samples)
    if end is None:
        return None
    if not sampled:
        return _bits(end)
    v_at, i_at = samples
    return _bits(end) + struct.pack(f"<{len(v_at) + len(i_at)}d", *v_at, *i_at)


def _outcome(fn, case, source, sampled):
    """:func:`_run_bits`, or the type and message of what ``fn`` raised."""
    try:
        return _run_bits(fn, case, source, sampled)
    except Exception as exc:  # the two paths must raise the same thing
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def kernel():
    if not HAVE_CC:
        pytest.skip("no C compiler on the path")
    got = converter._native_rk4()
    assert got is not None, "a C compiler is present but the kernel did not load"
    return got


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty user cache for the undecorated loader."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return tmp_path / "pvmppt"


@pytest.fixture(scope="module")
def psc_like_plant():
    """A swept 5x1 string of the 156 W module, as the closed loop builds its plant."""
    module = calibrate_module(
        ModuleDatasheet(
            p_max=156.0,
            v_oc=26.0,
            i_sc=8.0,
            v_mpp=20.8,
            i_mpp=7.5,
            pmax_thermal_coeff=-0.0044,
            rho_mod=-0.0033,
            n_cells=42,
        )
    )
    return PlantCurve(sweep_curve(ArraySpec.uniform(module, 5, 1), 0.01))


# (v, il, w0, dw, n_ticks, n_sub): one tick of a slewing command ...
ONE_TICK_EDGES = [
    (0.0, 0.0, 50.0, 0.0, 1, 25),  # v <= 0: the short-circuit current
    (-0.0, 1.0, 50.0, 0.0, 1, 25),
    (-5.0, 0.0, 200.0, 0.0, 1, 25),
    (-1e300, 0.0, 200.0, 0.0, 1, 1),
    (6.0, 0.5, 7.0, 0.0, 1, 25),  # v == v_top and above: zero current
    (7.5, 0.5, 7.0, 0.01, 1, 25),
    (1e300, 0.0, 7.0, 0.0, 1, 1),
    (math.nextafter(6.0, 0.0), 0.1, 5.9, 0.0, 1, 25),  # the last table cell
    (5.5, 0.1, 5.4, 0.0, 1, 25),
    (4.3, 6.0, W_FLOOR + 0.5, -0.05, 1, 40),  # w ramps down across the duty floor
    (4.3, 6.0, W_FLOOR - 0.5, 0.05, 1, 40),  # and up out of it
    (4.3, 6.0, W_FLOOR, 0.0, 1, 10),
    (4.3, 6.0, 3.0, 0.0, 1, 0),  # no sub-steps
    (4.3, 6.0, 3.0, 0.0, 1, -3),
    (4.3, 6.0, math.inf, 0.0, 1, 25),  # infinities
    (4.3, 6.0, -math.inf, 0.0, 1, 25),
    (4.3, 6.0, 3.0, math.inf, 1, 25),
    (4.3, math.inf, 3.0, 0.0, 1, 25),
    (math.inf, 0.0, 3.0, 0.0, 1, 25),
    (-math.inf, 0.0, 3.0, 0.0, 1, 25),
    (math.inf, 0.0, 3.0, 0.0, 1, 0),
    (4.3, 6.0, math.nan, 0.0, 1, 25),  # a NaN w goes to the floor
    (4.3, 6.0, 3.0, 0.0, 1, 2.5),  # not a count: ctypes rejects it, Python raises
]
# ... and ticks at one held command
HELD_EDGES = [
    (0.0, 0.0, 50.0, 0.0, 3, 25),  # v <= 0: the short-circuit current
    (-0.0, 1.0, 50.0, 0.0, 3, 25),
    (-5.0, 0.0, 200.0, 0.0, 2, 25),
    (6.0, 0.5, 7.0, 0.0, 3, 25),  # v == v_top and above: zero current
    (7.5, 0.5, 7.0, 0.0, 3, 25),
    (1e300, 0.0, 7.0, 0.0, 2, 1),
    (math.nextafter(6.0, 0.0), 0.1, 5.9, 0.0, 3, 25),  # the last table cell
    (4.3, 6.0, W_FLOOR + 0.5, 0.0, 3, 40),  # just above the duty floor
    (4.3, 6.0, W_FLOOR, 0.0, 3, 10),  # at it, below it, and at signed zero
    (4.3, 6.0, 1.0, 0.0, 3, 10),
    (4.3, 6.0, -0.0, 0.0, 3, 10),
    (4.3, 6.0, 3.0, 0.0, 3, 0),  # no sub-steps: every tick samples one state
    (4.3, 6.0, 3.0, 0.0, 0, 25),  # no ticks, or not a count
    (4.3, 6.0, 3.0, 0.0, -2, 25),
    (4.3, 6.0, 3.0, 0.0, 2.5, 25),
    (4.3, 6.0, 3.0, 0.0, 3, 2.5),
    (4.3, 6.0, math.inf, 0.0, 3, 25),  # infinities
    (4.3, 6.0, -math.inf, 0.0, 3, 25),
    (4.3, math.inf, 3.0, 0.0, 3, 25),
    (math.inf, 0.0, 3.0, 0.0, 3, 25),
    (4.3, 6.0, math.nan, 0.0, 3, 25),  # a NaN command goes to the floor
    (math.nan, 1.0, 3.0, 0.0, 3, 25),  # a NaN voltage: declined, Python raises
]


class TestBitIdentity:
    """``advance``: ticks of sub-steps under a slewing command, sampled at
    each tick start or not, in the kernel and in the Python loop."""

    @needs_cc
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        vals=st.lists(st.floats(0.0, 20.0), min_size=2, max_size=40),
        h=st.sampled_from([0.01, 0.25, 1.0, 3.7]),
        v=st.floats(-5.0, 160.0),
        il=st.floats(0.0, 12.0),
        w0=st.floats(0.0, 250.0),
        dw=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
        n_ticks=st.integers(1, 12),
        n_sub=st.integers(0, 30),
        dt=st.sampled_from([1e-6, 5e-6, 2e-5]),
        sampled=st.booleans(),
    )
    def test_random_tables(self, vals, h, v, il, w0, dw, n_ticks, n_sub, dt, sampled):
        kernel = converter._native_rk4()
        assert kernel is not None
        plant = _grid_source(vals, h)
        case = (v, il, w0, dw, n_ticks, n_sub, dt)
        native = _run_bits(kernel, case, plant.table, sampled)
        assert native == _run_bits(_python_advance, case, plant, sampled)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        vals=st.lists(st.floats(0.0, 20.0), min_size=2, max_size=40),
        h=st.sampled_from([0.25, 1.0, 3.7]),
        v=st.floats(-5.0, 160.0),
        il=st.floats(0.0, 12.0),
        w0=st.floats(0.0, 250.0),
        dw=st.floats(-2.0, 2.0),
        n_ticks=st.integers(1, 8),
        n_sub=st.integers(0, 12),
    )
    def test_ticks_continue_one_slew(self, vals, h, v, il, w0, dw, n_ticks, n_sub):
        """Sampled ticks of ``n_sub`` steps end where one unsampled tick of
        all ``n_ticks*n_sub`` steps ends: the slew runs on across ticks."""
        plant = _grid_source(vals, h)
        for fn in (advance, _python_advance):
            v_at, i_at = [], []
            ticks = fn(v, il, w0, dw, n_ticks, n_sub, 2e-5, plant, PLANT, (v_at, i_at))
            one = fn(v, il, w0, dw, 1, n_ticks * n_sub, 2e-5, plant, PLANT, None)
            assert _bits(ticks) == _bits(one)
            assert len(v_at) == len(i_at) == n_ticks
            assert _bits((v_at[0], i_at[0])) == _bits((v, plant(v)))

    def test_swept_curve_over_a_ramp(self, kernel, psc_like_plant):
        v, il = 60.0, psc_like_plant(60.0)
        for tick in range(200):
            case = (v, il, 140.0 - 0.3 * tick, -0.012, 1, 25, 2e-5)
            native = _run_bits(kernel, case, psc_like_plant.table, False)
            assert native == _run_bits(_python_advance, case, psc_like_plant, False)
            v, il = _python_advance(*case, psc_like_plant, PLANT, None)

    def test_held_ticks_are_one_tick_per_call(self, psc_like_plant):
        """At ``dw = 0``, sampled ticks are one unsampled call per tick, each
        tick sampled where it starts."""
        v, il = 60.0, psc_like_plant(60.0)
        v_at, i_at = [], []
        end = advance(v, il, 55.0, 0.0, 40, 25, 2e-5, psc_like_plant, PLANT, (v_at, i_at))
        for k in range(40):
            assert _bits((v_at[k], i_at[k])) == _bits((v, psc_like_plant(v)))
            v, il = _python_advance(v, il, 55.0, 0.0, 1, 25, 2e-5, psc_like_plant, PLANT, None)
        assert _bits(end) == _bits((v, il))

    @pytest.mark.parametrize("sampled", [False, True], ids=["bare", "sampled"])
    @pytest.mark.parametrize("case", ONE_TICK_EDGES + HELD_EDGES)
    def test_edge_inputs(self, kernel, case, sampled):
        plant = _grid_source(EDGE_PLANT, 1.0)
        case = (*case, 2e-5)
        native = _outcome(advance, case, plant, sampled)
        assert native == _outcome(_python_advance, case, plant, sampled)
        got = _outcome(kernel, case, plant.table, sampled)
        if got is not None:  # where the kernel answers, it answers the Python bits
            assert got == native

    def test_nan_voltage_raises_what_python_raises(self, kernel, psc_like_plant, monkeypatch):
        case = (math.nan, 1.0, 80.0, 0.0, 1, 25, 2e-5)
        assert kernel(*case, psc_like_plant.table, PLANT, None) is None  # declined
        with pytest.raises(ValueError) as native:
            advance(*case, psc_like_plant, PLANT, None)
        monkeypatch.setattr(converter, "_native_rk4", lambda: None)
        with pytest.raises(ValueError) as python:
            advance(*case, psc_like_plant, PLANT, None)
        assert str(native.value) == str(python.value) == "cannot convert float NaN to integer"

    def test_samples_begun_before_an_error_are_kept(self, monkeypatch, psc_like_plant):
        monkeypatch.setattr(converter, "_native_rk4", lambda: None)
        calls = []

        def source(v):
            calls.append(v)
            if len(calls) == 1 + 2 * 101 + 1:  # tick 2's first sub-step
                raise RuntimeError("source failed")
            return psc_like_plant(v)

        v_at, i_at = [], []
        with pytest.raises(RuntimeError):
            advance(60.0, 5.0, 55.0, 0.0, 5, 25, 2e-5, source, PLANT, (v_at, i_at))
        assert len(v_at) == len(i_at) == 3

    @pytest.mark.parametrize("sampled", [False, True], ids=["bare", "sampled"])
    @pytest.mark.parametrize("kind", ["function", "bound_method"])
    def test_other_sources_run_the_python_loop(self, monkeypatch, kind, sampled):
        class Source:
            def current(self, v):
                return 5.0 - 0.01 * v

        source = Source().current if kind == "bound_method" else (lambda v: 5.0 - 0.01 * v)

        def no_kernel():
            raise AssertionError("a source without a table must not load the kernel")

        monkeypatch.setattr(converter, "_native_rk4", no_kernel)
        case = (60.0, 5.0, 80.0, -0.1, 4, 25, 2e-5)
        assert _run_bits(advance, case, source, sampled) == _run_bits(
            _python_advance, case, source, sampled
        )


class TestProbe:
    def test_probe_reaches_every_branch(self):
        vals, h = converter._PROBE_TABLE
        plant = _grid_source(vals, h)
        v_top = plant.table[2]
        seen = set()

        def counted(v):
            seen.add("short" if v <= 0.0 else "top" if v >= v_top else "cell")
            return plant(v)

        floored = unfloored = False
        for v, il, w0, dw, n_sub, dt in converter._probe_cases():
            _python_advance(v, il, w0, dw, 1, n_sub, dt, counted, PLANT, None)
            xs = [w0 + dw * (k + 0.5) for k in range(n_sub)]
            floored |= any(x <= W_FLOOR for x in xs)
            unfloored |= any(x > W_FLOOR for x in xs)
        assert seen == {"short", "top", "cell"}
        assert floored and unfloored

    @needs_cc
    def test_probe_checks_the_sampled_ticks(self, monkeypatch, fresh_cache):
        """A reference one tick short only when it samples is refused,
        though it matches every unsampled call."""
        reference = converter._python_advance

        def one_tick_short(v, il, w0, dw, n_ticks, n_sub, dt, i_of_v, params, samples):
            if samples is not None:
                n_ticks -= 1
            return reference(v, il, w0, dw, n_ticks, n_sub, dt, i_of_v, params, samples)

        monkeypatch.setattr(converter, "_python_advance", one_tick_short)
        assert converter._native_rk4.__wrapped__() is None

    def test_source_exports_one_function(self):
        """Every function of ``_rk4.c`` but the entry is ``static``."""
        text = converter._RK4_SOURCE.read_text()
        defined = re.findall(r"^(?:static inline )?\w+ \*?(\w+)\(", text, re.M)
        exported = re.findall(r"^(?!static)\w+ \*?(\w+)\(", text, re.M)
        assert len(defined) == 3 and exported == ["pvmppt_rk4_advance"]


def _probe_failing_source(tmp_path: Path) -> Path:
    """The kernel with one sum regrouped: it builds and loads, and only its
    rounding differs from the Python loop's."""
    text = converter._RK4_SOURCE.read_text()
    line = "v += dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v);"
    assert text.count(line) == 1
    bad = tmp_path / "_rk4.c"
    bad.write_text(text.replace(line, "v += dt / 6.0 * (k1v + 2.0 * (k2v + k3v) + k4v);"))
    return bad


class TestLoader:
    CASE = (59.0, 5.0, 100.0, -0.3, 1, 25, 2e-5)

    def test_object_name_follows_source_flags_and_machine(self):
        source = converter._RK4_SOURCE.read_bytes()
        flags = converter._CC_FLAGS
        base = converter._object_name(source, flags, "x86_64")
        assert base == converter._object_name(bytes(source), tuple(flags), "x86_64")
        one_byte = source[:100] + bytes([source[100] ^ 1]) + source[101:]
        variants = [
            converter._object_name(one_byte, flags, "x86_64"),
            converter._object_name(source + b" ", flags, "x86_64"),
            converter._object_name(source, (*flags, "-g"), "x86_64"),
            converter._object_name(source, flags[1:], "x86_64"),
            converter._object_name(source, flags, "aarch64"),
            converter._object_name(source, flags, ""),
        ]
        assert len({base, *variants}) == 1 + len(variants)
        assert all(n.startswith("_rk4-") and n.endswith(".so") for n in variants)

    def test_cli_run_never_imports_hashlib(self, tmp_path):
        """A whole ``pvmppt run`` loads no hashlib (and with it no OpenSSL):
        the kernel's object is named from zlib, which numpy has loaded."""
        argv = ["run", "--scenario", str(SRC.parent / "scenarios" / "benchmark_psc1.json"),
                "--out", str(tmp_path / "out")]
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "pvmppt.cli", *argv],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()]
        assert "pvmppt.converter" in imported and "zlib" in imported
        assert "hashlib" not in imported and "_hashlib" not in imported

    def _advance_bits(self, plant):
        return _bits(advance(*self.CASE, plant, PLANT, None))

    def _assert_python_path_same_bits(self, monkeypatch, plant, loaded):
        """With the loader's result in place, ``advance`` gives the Python bits."""
        want = _bits(_python_advance(*self.CASE, plant, PLANT, None))
        monkeypatch.setattr(converter, "_native_rk4", lambda: loaded)
        assert self._advance_bits(plant) == want

    def test_no_compiler(self, monkeypatch, fresh_cache, psc_like_plant):
        monkeypatch.setattr(shutil, "which", lambda name: None)
        loaded = converter._native_rk4.__wrapped__()
        assert loaded is None
        assert not fresh_cache.exists()
        self._assert_python_path_same_bits(monkeypatch, psc_like_plant, loaded)

    @needs_cc
    def test_failing_compile(self, monkeypatch, fresh_cache, tmp_path, psc_like_plant):
        broken = tmp_path / "broken.c"
        broken.write_text("int pvmppt_rk4_advance(\n")
        monkeypatch.setattr(converter, "_RK4_SOURCE", broken)
        loaded = converter._native_rk4.__wrapped__()
        assert loaded is None
        assert os.listdir(fresh_cache) == []  # no half-written object is left behind
        self._assert_python_path_same_bits(monkeypatch, psc_like_plant, loaded)

    @needs_cc
    def test_kernel_failing_the_probe_is_refused(self, monkeypatch, fresh_cache, tmp_path, psc_like_plant):
        monkeypatch.setattr(converter, "_RK4_SOURCE", _probe_failing_source(tmp_path))
        loaded = converter._native_rk4.__wrapped__()
        assert loaded is None
        assert len(os.listdir(fresh_cache)) == 1  # it built and loaded, then failed the probe
        self._assert_python_path_same_bits(monkeypatch, psc_like_plant, loaded)

    @needs_cc
    def test_warm_cache_runs_no_compiler(self, monkeypatch, fresh_cache, psc_like_plant):
        builds = []
        compile_ = converter._compile
        monkeypatch.setattr(converter, "_compile", lambda *a: builds.append(a) or compile_(*a))
        first = converter._native_rk4.__wrapped__()
        second = converter._native_rk4.__wrapped__()
        assert first is not None and second is not None
        assert len(builds) == 1
        assert [p.suffix for p in fresh_cache.iterdir()] == [".so"]
        monkeypatch.setattr(converter, "_native_rk4", lambda: second)
        native = self._advance_bits(psc_like_plant)
        assert native == _bits(_python_advance(*self.CASE, psc_like_plant, PLANT, None))

    @needs_cc
    def test_stale_objects_are_removed(self, fresh_cache):
        """Loading a kernel deletes other ``_rk4-*.so`` objects unused for
        STALE_OBJECT_S, and nothing else: not a recent one, not its own
        object, however old, and no file of another name."""
        assert converter._native_rk4.__wrapped__() is not None
        (current,) = fresh_cache.iterdir()
        old = time.time() - converter.STALE_OBJECT_S - 3600
        recent = time.time() - 86400
        files = {
            "_rk4-0123456789abcdef1f.so": old,  # stale sibling
            "_rk4-fedcba98765432101f.so": recent,
            "_rk4-0123456789abcdef1f.so.x1y2.tmp": old,  # another process's build
            "notes.so": old,
            "_rk4-readme.txt": old,
        }
        for name, mtime in files.items():
            (fresh_cache / name).write_bytes(b"")
            os.utime(fresh_cache / name, (mtime, mtime))
        os.utime(current, (old, old))
        assert converter._native_rk4.__wrapped__() is not None
        kept = {current.name, *files} - {"_rk4-0123456789abcdef1f.so"}
        assert {p.name for p in fresh_cache.iterdir()} == kept
        assert current.stat().st_mtime > recent  # stamped as used

    @needs_cc
    def test_cache_directory_is_private(self, fresh_cache):
        assert converter._native_rk4.__wrapped__() is not None
        assert fresh_cache.stat().st_mode & 0o777 == 0o700

    @needs_cc
    def test_shared_cache_directory_is_not_used(self, fresh_cache):
        fresh_cache.mkdir()
        fresh_cache.chmod(0o777)
        assert converter._native_rk4.__wrapped__() is not None  # built privately instead
        assert os.listdir(fresh_cache) == []

    @needs_cc
    def test_unusable_cache_builds_privately(self, monkeypatch, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        assert converter._native_rk4.__wrapped__() is not None

    @needs_cc
    def test_processes_building_at_once(self, tmp_path):
        """Three fresh processes load from one empty cache at once: each gets
        a kernel, and one object, no temporary file, is left."""
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path), "PYTHONPATH": str(SRC)}
        code = "import sys; from pvmppt import converter; sys.exit(converter._native_rk4() is None)"
        procs = [subprocess.Popen([sys.executable, "-c", code], env=env) for _ in range(3)]
        try:
            codes = [p.wait(timeout=120) for p in procs]
        finally:
            for p in procs:
                p.kill()
        assert codes == [0, 0, 0]
        assert [p.suffix for p in (tmp_path / "pvmppt").iterdir()] == [".so"]
