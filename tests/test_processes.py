"""The same command gives the same bytes in fresh processes: under other
string-hash seeds, with one corpus worker or two, and with no C compiler
(the Python RK4 loop instead of the compiled kernel, from an empty cache).
A fresh import loads only the modules it names and what they import."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SCENARIOS = SRC.parent / "scenarios"
PSC1 = str(SCENARIOS / "benchmark_psc1.json")
CORPUS = ["corpus", "--seed", "2026", "--count", "2", "--full"]
PYTHONPATH = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


def _cli(out: Path, *argv: str, **env) -> dict[str, bytes]:
    """``pvmppt *argv --out out`` in a fresh process; the bytes it wrote at
    ``out``, one file or the files of a directory, by file name."""
    out.parent.mkdir(parents=True, exist_ok=True)
    done = subprocess.run(
        [sys.executable, "-m", "pvmppt.cli", *argv, "--out", str(out)],
        env={**os.environ, "PYTHONPATH": PYTHONPATH, **env}, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return {f.name: f.read_bytes() for f in (sorted(out.iterdir()) if out.is_dir() else [out])}


def _no_cc(tmp_path: Path) -> dict[str, str]:
    """An environment with no C compiler on PATH and an empty cache."""
    (tmp_path / "no-cc").mkdir()
    return {"PATH": str(tmp_path / "no-cc"), "XDG_CACHE_HOME": str(tmp_path / "cache")}


def _reject(constant: str):
    raise ValueError(f"{constant} in report.json")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scenario", PSC1, "--controller", "ramp"],
        # P&O only: a trace of almost nothing but held stretches
        ["run", "--scenario", PSC1, "--controller", "po"],
        # a dark event: its plant table is interpolated past the two-sample curve
        ["run", "--scenario", str(SCENARIOS / "dark_onset.json")],
    ],
    ids=["ramp", "po", "dark"],
)
def test_same_bytes_across_hash_seeds_and_without_a_compiler(tmp_path, argv):
    first = _cli(tmp_path / "seed1", *argv, PYTHONHASHSEED="1")
    assert sorted(first) == ["report.json", "trace.csv"]
    json.loads(first["report.json"], parse_constant=_reject)
    assert _cli(tmp_path / "seed2", *argv, PYTHONHASHSEED="2") == first
    assert _cli(tmp_path / "python", *argv, **_no_cc(tmp_path)) == first
    assert not (tmp_path / "cache" / "pvmppt").exists()  # no kernel was built or looked for


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "--scenario", PSC1, "--event-index", "1", "--prior-irradiance", "1.0"],
        ["sweep", "--scenario", PSC1, "--event-index", "1"],
    ],
    ids=["detect", "sweep"],
)
def test_static_commands_give_the_same_bytes_across_hash_seeds(tmp_path, argv):
    first = _cli(tmp_path / "seed1" / "out", *argv, PYTHONHASHSEED="1")
    assert first["out"]
    assert _cli(tmp_path / "seed2" / "out", *argv, PYTHONHASHSEED="2") == first


def test_corpus_same_bytes_from_two_workers_one_and_without_a_compiler(tmp_path):
    """Two pool workers against one in another hash seed, and one on the
    Python loop; the dt_s 2e-5 draws run both held stretches and slewing
    active ticks."""
    first = _cli(tmp_path / "jobs2" / "corpus.json", *CORPUS, "--jobs", "2", PYTHONHASHSEED="1")
    assert json.loads(first["corpus.json"])["count"] == 2
    assert _cli(
        tmp_path / "jobs1" / "corpus.json", *CORPUS, "--jobs", "1", PYTHONHASHSEED="2"
    ) == first
    assert _cli(tmp_path / "python" / "corpus.json", *CORPUS, "--jobs", "1",
                **_no_cc(tmp_path)) == first
    assert not (tmp_path / "cache" / "pvmppt").exists()  # no kernel was built or looked for


def _fresh(program: str):
    """What ``program`` prints, as a Python value, run in a fresh process."""
    done = subprocess.run(
        [sys.executable, "-c", program], env={**os.environ, "PYTHONPATH": PYTHONPATH},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout)


def test_the_array_model_loads_without_the_controller_and_the_loop():
    """The package root imports nothing: the array model needs only its solver."""
    loaded = _fresh(
        "import sys, pvmppt.pvmodel; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'pvmppt'))"
    )
    assert loaded == ["pvmppt", "pvmppt.pvmodel", "pvmppt.solver"]


def test_the_package_root_binds_no_public_name():
    """Each name is imported from its module: ``pvmppt`` itself re-exports none."""
    names = _fresh("import pvmppt; print([n for n in vars(pvmppt) if not n.startswith('_')])")
    assert names == []
