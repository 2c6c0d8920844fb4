"""Golden digests: the bytes ``pvmppt run`` and ``pvmppt detect`` write for the
shipped scenario files.

A change that claims to keep behaviour must keep these SHA-256 digests, on
both RK4 paths: the compiled kernel and the Python loop.  They were recorded
with numpy 2.4.6 on Python 3.11.7.  Every shipped scenario runs on the
built-in ND195R1S module, whose fit is pinned as the literals
``pvmodel.ND195R1S_PARAMS``, so the digests depend on those literals and not
on any solver release; a mismatch on another environment is a finding about
that environment, not a reason to re-record.
"""

import hashlib
import shutil
from pathlib import Path

import pytest

import pvmppt.converter as converter
from pvmppt.cli import main as cli_main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# (scenario file, extra ``pvmppt run`` arguments) -> (report.json, trace.csv)
RUN_DIGESTS = {
    ("benchmark_psc1", ()): (
        "ae2f1a255787b59c8987ba59b660d5934a8b3258c07d71f6f234cca3936b1820",
        "33bc0c0613840e9f900b4a9b82920624812461d547b60ed3c806496912fab68b",
    ),
    ("benchmark_psc2", ()): (
        "5b902dfba91dd2827c85957469fa6362b019195bec4f626787a02fb57039c4c4",
        "4db0b90d287b36a68ccc76caff1cebe730c6ad2503fcf9530e6f25723ca2bfea",
    ),
    ("benchmark_psc3", ()): (
        "3c4bc78466a4d2ed428f02ddf5dbd9afcb18af898e73fc628941356f1cfd59e4",
        "ccdb2704af2d30c15c11fea08b77e3d85add6d0533938eb03e8f2365d6c664bc",
    ),
    ("benchmark_psc4", ()): (
        "d6f2e8ab3de005cd0cadfa31b2cbe7b301f37929c312f12a09ee7a650b222823",
        "9c4c1fdab526819e40be25a0e3d18fba3af4c4543499b77bcb7bf058dd693283",
    ),
    ("benchmark_psc5", ()): (
        "f60cf031c1341d3be2abf81a8ebe583b12cca8d257dd1a5ea0682d76c057a655",
        "8d025e6aea1c6080b61c0908597be12bcb6b685f81ce81dba3922cc7b3f30ffe",
    ),
    ("benchmark_psc1", ("--controller", "po")): (
        "65561ecf0c571e6426b5045c58e728bd2eadb56404d9727ec1411d3d0d4b8c02",
        "713cde16dbb7ba5a4af46500fd4513bc1fedc5bc44b0fa3f0419b11fc4869932",
    ),
    ("uniform_stc", ()): (
        "1975aafc77b521f3a469154f140a18614bf93918c166e34d4af0bd3cc84938f2",
        "392debc9f690358dc7ebe97367409d5c6529d5094b0559e2e0a2c7e29b72ccaf",
    ),
}

# scenario file -> ``pvmppt detect --event-index 1 --prior-irradiance 1.0 --out``
DETECT_DIGESTS = {
    "benchmark_psc1": "d9db3b751ddaa1fc7ea5efa5cecece88261f69e6c53583de602171c6147ae536",
    "benchmark_psc2": "fa38d295e6e839d8a0037745e60e957faeb61e328b32ea5aecc95ba22f42a5b5",
    "benchmark_psc3": "1b82e76f92ab955ec6a330ee84fd51b022865cb69b686659e23a0aea3703fbd3",
    "benchmark_psc4": "95f2d80cd5d26ec7b8572596da1c4c28e9f9124b51558847424884aabd34e8f0",
    "benchmark_psc5": "ea315579e3db625b4a9a17ae41230cbcfe38b43f2b4e55131ce30baf857896a1",
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(autouse=True, params=["native", "python"])
def rk4_path(request, monkeypatch):
    """Every digest holds with the compiled RK4 kernel and with the Python loop."""
    if request.param == "python":
        monkeypatch.setattr(converter, "_native_rk4", lambda: None)
    elif shutil.which("cc") is None:
        pytest.skip("no C compiler on the path")
    else:
        assert converter._native_rk4() is not None


@pytest.mark.parametrize(
    "name, extra",
    list(RUN_DIGESTS),
    ids=[name + "".join(extra).replace("--controller", "-") for name, extra in RUN_DIGESTS],
)
def test_run_outputs_byte_identical(tmp_path, name, extra):
    out = tmp_path / "out"
    argv = ["run", "--scenario", str(SCENARIO_DIR / f"{name}.json"), "--out", str(out)]
    assert cli_main(argv + list(extra)) == 0
    got = (_sha256(out / "report.json"), _sha256(out / "trace.csv"))
    assert got == RUN_DIGESTS[(name, extra)]


@pytest.mark.parametrize("name", list(DETECT_DIGESTS))
def test_detect_output_byte_identical(tmp_path, name):
    out = tmp_path / "detect.json"
    argv = [
        "detect",
        "--scenario",
        str(SCENARIO_DIR / f"{name}.json"),
        "--event-index",
        "1",
        "--prior-irradiance",
        "1.0",
        "--out",
        str(out),
    ]
    assert cli_main(argv) == 0
    assert _sha256(out) == DETECT_DIGESTS[name]
