"""Command-line interface: scenario runs, curve sweeps, detection, corpus."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    ScenarioError,
    base_array_spec,
    commission,
    detect_pattern,
    emit_report,
    emit_trace,
    load_scenario,
    run_closed_loop,
    run_corpus,
)
from .pvmodel import V_GRID, ValidationError, sweep_curve


def _cmd_run(args) -> int:
    scn = load_scenario(args.scenario)
    if args.controller == "po":
        scn = replace(scn, controller=replace(scn.controller, po_only=True))
    trace, report = run_closed_loop(scn)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    emit_trace(trace, out / "trace.csv")
    emit_report(report, out / "report.json")
    for e in report.events:
        p_star, p_final, scan = e["oracle_power_w"], e["final_power_w"], e["scan_duration_s"]
        share = f"{100 * p_final / p_star:.2f}%" if p_star > 0.0 else "-"
        print(
            f"event {e['index']}: oracle {p_star:.1f} W @ {e['oracle_voltage_v']:.1f} V, "
            f"final {p_final:.1f} W ({share}), "
            f"detected={e['detected']}, scan=" + (f"{1000 * scan:.1f} ms" if scan else "-")
        )
    print(f"trace: {out / 'trace.csv'}")
    print(f"report: {out / 'report.json'}")
    return 0


def _cmd_sweep(args) -> int:
    scn = load_scenario(args.scenario)
    spec = base_array_spec(scn, args.event_index)
    curve = sweep_curve(spec, args.v_step)
    out = Path(args.out)
    with out.open("w", newline="") as fh:
        fh.write("v,i,p\n")
        for v, i, p in zip(curve.v, curve.i, curve.p):
            fh.write(f"{v:.10g},{i:.10g},{p:.10g}\n")
    print(f"curve: {out} ({len(curve)} samples, voc={curve.v[-1]:.2f} V)")
    return 0


def _cmd_detect(args) -> int:
    scn = load_scenario(args.scenario)
    spec = base_array_spec(scn, args.event_index)
    ref = commission(scn, spec.module)
    det = detect_pattern(spec, ref, scn.controller.detector, s_prior=args.prior_irradiance)
    doc = det.to_dict()
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def _cmd_corpus(args) -> int:
    agg = run_corpus(seed=args.seed, count=args.count, jobs=args.jobs)
    if not args.full:
        agg = {k: v for k, v in agg.items() if k != "reports"}
    text = json.dumps(agg, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(
            f"corpus: {agg['events_total']} events, "
            f"{100 * agg['fraction_within_1pct']:.1f}% within 1% -> {args.out}"
        )
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvmppt",
        description=(
            "Simulate partial-shading detection and ramp-scan global MPPT "
            "on a modeled PV array behind an averaged boost converter."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario, write trace.csv and report.json")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument(
        "--controller",
        choices=("ramp", "po"),
        default="ramp",
        help="'po' disables detection and scanning (baseline)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="write the P-V curve of a scenario event as CSV")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--event-index", type=int, default=0)
    p_sweep.add_argument("--v-step", type=float, default=V_GRID)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_det = sub.add_parser("detect", help="evaluate the detection criteria for one event")
    p_det.add_argument("--scenario", required=True)
    p_det.add_argument("--event-index", type=int, default=0)
    p_det.add_argument(
        "--prior-irradiance",
        type=float,
        default=None,
        help="last known uniform irradiance fraction (default: steady state)",
    )
    p_det.add_argument("--out", default=None)
    p_det.set_defaults(func=_cmd_detect)

    p_cor = sub.add_parser("corpus", help="run a seeded randomized scenario batch")
    p_cor.add_argument("--count", type=int, default=100)
    p_cor.add_argument("--seed", type=int, default=0)
    p_cor.add_argument("--jobs", type=int, default=1)
    p_cor.add_argument("--out", default=None)
    p_cor.add_argument("--full", action="store_true", help="include per-scenario reports")
    p_cor.set_defaults(func=_cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
