"""The same scenario gives the same bytes in fresh processes: under other
string-hash seeds, and with no C compiler (the Python RK4 loop instead of
the compiled kernel, from an empty cache)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PSC1 = SRC.parent / "scenarios" / "benchmark_psc1.json"


def _run(out: Path, controller: str, **env) -> dict[str, bytes]:
    """``pvmppt run`` on psc1 in a fresh process; the bytes it wrote."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pvmppt.cli", "run", "--scenario", str(PSC1),
         "--controller", controller, "--out", str(out)],
        env={**os.environ, "PYTHONPATH": path, **env}, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return {name: (out / name).read_bytes() for name in ("trace.csv", "report.json")}


@pytest.mark.parametrize("controller", ["ramp", "po"])
def test_same_bytes_across_hash_seeds_and_without_a_compiler(tmp_path, controller):
    first = _run(tmp_path / "seed1", controller, PYTHONHASHSEED="1")
    assert _run(tmp_path / "seed2", controller, PYTHONHASHSEED="2") == first
    (tmp_path / "no-cc").mkdir()
    cache = tmp_path / "cache"
    no_cc = _run(tmp_path / "python", controller, PATH=str(tmp_path / "no-cc"),
                 XDG_CACHE_HOME=str(cache))
    assert not (cache / "pvmppt").exists()  # no kernel was built or looked for
    assert no_cc == first
