"""Golden digests: the bytes ``pvmppt run`` and ``pvmppt detect`` write for the
shipped scenario files, for psc3 behind a low link and for psc1 with waits
that end between ticks or past the horizon, the open-loop traces of
acceptance criterion 3, and one digest over 130 closed-loop runs.

A change that claims to keep behaviour must keep these SHA-256 digests, on
both RK4 paths: the compiled kernel and the Python loop (the open-loop
swept-curve source always runs the Python loop).  They were recorded
with numpy 2.4.6 on Python 3.11.7.  Every shipped scenario runs on the
built-in ND195R1S module, whose fit is pinned as the literals
``pvmodel.ND195R1S_PARAMS``, so the digests depend on those literals and not
on any solver release; a mismatch on another environment is a finding about
that environment, not a reason to re-record.
"""

import hashlib
import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

import pvmppt.converter as converter
from pvmppt.cli import main as cli_main
from pvmppt.converter import CommandSegment, CommandSignal, ConverterParams
from pvmppt.harness import (
    Scenario,
    emit_report,
    emit_trace,
    load_scenario,
    random_scenario,
    run_closed_loop,
)
from pvmppt.pvmodel import ArraySpec, ModuleDatasheet, calibrate_module, sweep_curve

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# (scenario file, extra ``pvmppt run`` arguments) -> (report.json, trace.csv)
RUN_DIGESTS = {
    ("benchmark_psc1", ()): (
        "c5672b656bb7ac14fefb6710e15a82398231679745ec2529803b2ee0849b343b",
        "33bc0c0613840e9f900b4a9b82920624812461d547b60ed3c806496912fab68b",
    ),
    ("benchmark_psc2", ()): (
        "c57a96c0787f95f02ffc94e9f974543224c81462db0234794d2a2f5d58121f82",
        "4db0b90d287b36a68ccc76caff1cebe730c6ad2503fcf9530e6f25723ca2bfea",
    ),
    ("benchmark_psc3", ()): (
        "52c2dd4935d145b63229a26ada3a9f15a2d6919782b006825bbb1d454826f24d",
        "ccdb2704af2d30c15c11fea08b77e3d85add6d0533938eb03e8f2365d6c664bc",
    ),
    ("benchmark_psc4", ()): (
        "18a43bf2a46c76f445ef0d2379335f531ccf79140e9a5e43b082a25193ce429e",
        "9c4c1fdab526819e40be25a0e3d18fba3af4c4543499b77bcb7bf058dd693283",
    ),
    ("benchmark_psc5", ()): (
        "ad963fb3f0d3fac325094d183387c693d589f2205d60b8e2fd77bea7d45c08f1",
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

# benchmark_psc3 with ``converter.v_out_v`` 100, below its 118 V start
# command: extra ``pvmppt run`` arguments -> (report.json, trace.csv)
LOW_LINK_DIGESTS = {
    (): (
        "4f5658d48aec5d10e4702f4125edbb46a9e9a234aab25a9a25a3130f5f0df23b",
        "cf7335298b3328790082a5702e416fd8bfd6bb66d9eb626f09b8e8b211b26557",
    ),
    ("--controller", "po"): (
        "72bbbeb56e84b55820c3179ffb014d6fdb2cdc17ec60213a63d39586855655e7",
        "c42dff88e8ced7d31889b51140b11f19bbfb87b54356405953fc5e44db15a90f",
    ),
}

# benchmark_psc1 with this ``controller`` section (P&O and settle waits that
# end between ticks, or past the horizon) -> (report.json, trace.csv)
WAIT_DIGESTS = {
    (("po_period_s", 0.0123456), ("settle_s", 0.0077)): (
        "5d16b96c095e232fd2cdc23e3fba033628b40a7da08b854536b8b8135cd54131",
        "5cc6e670889fbb715cf4399021f2390e013f27820ea9f98de5205d69eabf7e66",
    ),
    (("po_period_s", 1e300),): (
        "a6481b3a47b827e675f53d074d5be79afd306b1935628d56cd5d6673df884613",
        "1a6fe7ec978a57c89b3a62095c7ebbb127a52d492556ebd3295ac7c62a084d7d",
    ),
    (("settle_s", 1e300),): (
        "5599fa93e17d68cdc73e2f22ab036774b2e6fdaf459fe5504da1ae3b3d70ca5b",
        "5f3fe284ff284e5db8ad477c9cf95272e26ba8671af4e9cacba40d195cde0b99",
    ),
}

# trace.csv then report.json of each run in _many_runs(), in order
MANY_RUNS_DIGEST = "1c44249ac9039b6bb0c6dbf5c83184c273eaff6353a23438473a2ef6d9ab9b70"

# scenario file -> ``pvmppt detect --event-index 1 --prior-irradiance 1.0 --out``
DETECT_DIGESTS = {
    "benchmark_psc1": "f48f222a0d15190e1154f89a821dc618577ca08ec78cca6d2af6a9ddfbad0db3",
    "benchmark_psc2": "9508b96d3916c99d767d7d45024abfe5beee62c720749f2819d33f84a4171381",
    "benchmark_psc3": "998a2fb395e24b6a235bb24fa123b7329e8c76191bf51995ceb4c3f80f180af8",
    "benchmark_psc4": "397a5b92150e1c97332b92ef90a57bca25800485e715c26113fdcdab8f1763ca",
    "benchmark_psc5": "5073018b77ed855e01b89a8857636c359908f235135d94e09defe549224a870d",
}

# acceptance criterion 3: command -> SHA-256 of the repr of the list of
# (t, v_ref, duty, v_pv, i_pv, p) samples that ``converter.run`` gives every
# 5e-5 s, fed by the 156 W module as a uniform 5x1 string swept at 0.01 V
OPEN_LOOP_DIGESTS = {
    "step": "6d8d086fc18e3c915f148c51d329977d79343ee961510120ec8d19ca86191524",
    "ramp": "7537b10fb2ad4a682d046c301df48dbf5af19e701e3ea11b1bcc893319add573",
}
OPEN_LOOP_COMMANDS = {
    "step": CommandSignal(
        (
            CommandSegment("hold", 30.0, duration_s=0.02),
            CommandSegment("hold", 60.0, duration_s=0.1),
        ),
        v_start=30.0,
    ),
    "ramp": CommandSignal(
        (
            CommandSegment("hold", 60.0, duration_s=0.005),
            CommandSegment("ramp", 100.0, rate_v_per_s=4000.0),
            CommandSegment("hold", 100.0, duration_s=0.01),
        ),
        v_start=60.0,
    ),
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
    got = _run_digests(tmp_path, SCENARIO_DIR / f"{name}.json", extra)
    assert got == RUN_DIGESTS[(name, extra)]


@pytest.mark.parametrize("extra", list(LOW_LINK_DIGESTS), ids=["ramp", "po"])
def test_low_link_run_outputs_byte_identical(tmp_path, extra):
    doc = json.loads((SCENARIO_DIR / "benchmark_psc3.json").read_text())
    doc["converter"]["v_out_v"] = 100.0
    scenario = tmp_path / "psc3_100v.json"
    scenario.write_text(json.dumps(doc))
    assert _run_digests(tmp_path, scenario, extra) == LOW_LINK_DIGESTS[extra]


@pytest.mark.parametrize(
    "controller",
    list(WAIT_DIGESTS),
    ids=["between-ticks", "po-1e300", "settle-1e300"],
)
def test_wait_run_outputs_byte_identical(tmp_path, controller):
    doc = json.loads((SCENARIO_DIR / "benchmark_psc1.json").read_text())
    doc["controller"] = dict(controller)
    scenario = tmp_path / "psc1_waits.json"
    scenario.write_text(json.dumps(doc))
    assert _run_digests(tmp_path, scenario, ()) == WAIT_DIGESTS[controller]


def _many_runs() -> list[Scenario]:
    """The five psc files behind links of 60, 100, 110, 120 and 250 V under
    both controllers, then ``random_scenario(2026 | 4051, 0..39)``."""
    runs = []
    for k in range(1, 6):
        scn = load_scenario(SCENARIO_DIR / f"benchmark_psc{k}.json")
        for v_out in (60.0, 100.0, 110.0, 120.0, 250.0):
            linked = replace(scn, converter=replace(scn.converter, v_out=v_out))
            for po_only in (False, True):
                runs.append(replace(linked, controller=replace(scn.controller, po_only=po_only)))
    return runs + [random_scenario(seed, i) for seed in (2026, 4051) for i in range(40)]


def test_many_runs_byte_identical(tmp_path, request):
    """One digest over the bytes of 130 closed-loop runs, on the compiled
    kernel: the Python loop takes ~10x as long on them, and the digests
    above pin that path."""
    if request.node.callspec.params["rk4_path"] == "python":
        pytest.skip("pinned on the compiled kernel")
    digest = hashlib.sha256()
    trace_csv, report_json = tmp_path / "trace.csv", tmp_path / "report.json"
    for scn in _many_runs():
        trace, report = run_closed_loop(scn)
        emit_trace(trace, trace_csv)
        emit_report(report, report_json)
        digest.update(trace_csv.read_bytes())
        digest.update(report_json.read_bytes())
    assert digest.hexdigest() == MANY_RUNS_DIGEST


def _run_digests(tmp_path: Path, scenario: Path, extra: tuple[str, ...]) -> tuple[str, str]:
    """``pvmppt run`` on ``scenario``: the digests of (report.json, trace.csv)."""
    out = tmp_path / "out"
    argv = ["run", "--scenario", str(scenario), "--out", str(out)]
    assert cli_main(argv + list(extra)) == 0
    return _sha256(out / "report.json"), _sha256(out / "trace.csv")


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


@pytest.mark.parametrize("name", list(OPEN_LOOP_DIGESTS))
def test_open_loop_trace_byte_identical(name):
    ds = ModuleDatasheet(
        p_max=156.0, v_oc=26.0, i_sc=8.0, v_mpp=20.8, i_mpp=7.5,
        pmax_thermal_coeff=-0.0044, rho_mod=-0.0033, n_cells=42,
    )
    curve = sweep_curve(ArraySpec.uniform(calibrate_module(ds), 5, 1), 0.01)
    trace = converter.run(
        OPEN_LOOP_COMMANDS[name],
        lambda v: float(curve.current_at(max(v, 0.0))),
        ConverterParams(),
        sample_period=5e-5,
    )
    rows = [(r.t, r.v_ref, r.duty, r.v_pv, r.i_pv, r.p) for r in trace]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == OPEN_LOOP_DIGESTS[name]
