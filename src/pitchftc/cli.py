"""Command-line front end: tune banks, run simulations, compare modes, post-process."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import harness, supervisor
from .numerics import psd_estimate


def _cmd_config(args) -> int:
    harness.RunConfig().to_json_file(args.out)
    print(f"wrote default configuration to {args.out}")
    return 0


def _cmd_tune(args) -> int:
    cfg = harness.RunConfig.from_json_file(args.config)
    entry, report = supervisor.offline_tune(cfg)
    bank_path = Path(args.bank)
    if bank_path.exists():
        bank = supervisor.PretunedBank.load(bank_path)
    else:
        bank = supervisor.PretunedBank()
    bank.add(entry)
    bank.save(bank_path)
    print(
        f"tuned blade {entry.fault_blade} on {entry.config.load_case}: "
        f"converged at period {entry.converged_period}, bank saved to {bank_path}"
    )
    return 0


def _cmd_run(args) -> int:
    cfg = harness.RunConfig.from_json_file(args.config)
    result = harness.run_simulation(cfg)
    if args.csv:
        harness.write_csv(args.csv, result.series, cfg.Ts)
        print(f"time series written to {args.csv}")
    report = result.report.to_dict()
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=1))
        print(f"report written to {args.report}")
    print(json.dumps(report, indent=1))
    print(f"telemetry: {json.dumps(result.telemetry)}")
    return 0


def _cmd_compare(args) -> int:
    cfg = harness.RunConfig.from_json_file(args.config)
    bank = supervisor.PretunedBank.load(args.bank) if args.bank else None
    outcome = harness.compare_modes(cfg, bank=bank)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for mode, result in outcome["results"].items():
        harness.write_csv(outdir / f"{mode}.csv", result.series, cfg.Ts)
        (outdir / f"{mode}_report.json").write_text(
            json.dumps(result.report.to_dict(), indent=1)
        )
    (outdir / "reduction.json").write_text(json.dumps(outcome["reduction"], indent=1))

    print(f"{'mode':<12}{'blade1 %':>10}{'blade2 %':>10}{'blade3 %':>10}{'cumulative %':>14}")
    for mode, metrics in outcome["reduction"].items():
        cells = [
            f"{metrics[f'blade{b}']:>10.2f}" if f"blade{b}" in metrics else f"{'-':>10}"
            for b in (1, 2, 3)
        ]
        print(f"{mode:<12}" + "".join(cells) + f"{metrics['cumulative']:>14.2f}")
    print(f"artifacts in {outdir}")
    # every mode computes under the same pin, so one line describes them all
    telemetry = next(iter(outcome["results"].values())).telemetry
    print(f"telemetry: {json.dumps(telemetry)}")
    return 0


def _cmd_psd(args) -> int:
    series = harness.read_csv(args.csv)
    name, blade = args.column[:-1], args.column[-1:]
    if name not in series or series[name].ndim != 2 or blade not in ("1", "2", "3"):
        raise SystemExit(f"unknown column {args.column!r}")
    t = series["t"]  # read_csv checks that t is k times the sample time
    if t.size < 2:
        raise SystemExit("a PSD needs at least two samples")
    column = series[name][:, int(blade) - 1]
    try:
        freqs, power = psd_estimate(column, fs=1.0 / t[1], segment=args.segment)
    except ValueError as exc:  # a record shorter than 1.5 segments, or a bad --segment
        raise SystemExit(f"no PSD of {args.column} from {t.size} samples: {exc}") from exc
    out = args.out or f"{args.column}_psd.csv"
    np.savetxt(out, np.column_stack([freqs, power]), delimiter=",", header="freq_hz,power", comments="")
    print(f"PSD of {args.column} written to {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pitchftc",
        description="Closed-loop pitch fault accommodation testbed",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="verbose logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("config", help="write a default configuration file")
    p.add_argument("out", help="destination JSON path")
    p.set_defaults(func=_cmd_config)

    p = sub.add_parser("tune", help="offline-tune the pre-set bank for the configured fault")
    p.add_argument("--config", required=True)
    p.add_argument("--bank", required=True, help="bank JSON to create or update")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("run", help="run one simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--csv", help="write per-sample time series here")
    p.add_argument("--report", help="write the JSON report here")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="matched-seed baseline / adaptive / full-architecture sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--bank", help="pre-tuned bank JSON (needed for the full architecture)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("psd", help="power spectral density of a CSV column")
    p.add_argument("--csv", required=True)
    p.add_argument("--column", required=True, help="for example y1 or sprc2")
    p.add_argument("--segment", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_psd)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
