"""Command-line entry points.

Exit codes: 0 on success, 2 for configuration/validation problems,
3 for runtime failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError
from .pipeline import compare_reports, run_scenario, sweep_cnr, write_sweep_csv
from .scenarios import builtin_catalog, resolve_scenario


def _add_run(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("run", help="simulate one scenario end to end")
    p.add_argument("--scenario", required=True,
                   help="built-in scenario id or path to a scenario JSON file")
    p.add_argument("--step", type=float, default=1.0,
                   help="access-timeline step in seconds (default 1)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--out", default="out", help="output directory (default ./out)")
    p.add_argument("--mode", choices=("mc", "expected"), default="mc",
                   help="bit-error draw mode (default mc)")
    p.add_argument("--frames", type=int, default=100,
                   help="10 ms frames to simulate (default 100)")


def _add_sweep(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("sweep", help="BER/data-rate versus CNR for a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--cnr-min", type=float, required=True)
    p.add_argument("--cnr-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--frames", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("mc", "expected"), default="mc")
    p.add_argument("--out", default="out")


def _add_compare(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("compare", help="field-by-field diff of two run reports")
    p.add_argument("report_a")
    p.add_argument("report_b")


def _check_out(out: str, scenario_id: str) -> None:
    """A ConfigError on ``out`` unless ``out/<id>`` can be made: its first
    existing ancestor must be a directory.  Checked before any work, and
    creates nothing."""
    path = Path(out) / scenario_id
    while not path.exists():
        path = path.parent
    if not path.is_dir():
        raise ConfigError(f"{path} is not a directory", field="out")


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = resolve_scenario(args.scenario)
    _check_out(args.out, scenario.id)
    result = run_scenario(scenario, step_s=args.step, seed=args.seed,
                          mode=args.mode, n_frames=args.frames,
                          out_dir=args.out)
    r = result.report
    print(f"{scenario.id}: access {r['access_percent']:.1f}%  "
          f"elevation avg {r['elevation_deg']['avg']:.1f} deg  "
          f"loss avg {r['loss_db']['avg']:.1f} dB  "
          f"cnr avg {r['cnr_db']['avg']:.1f} dB")
    print(f"slots: {r['n_erased']}/{r['n_slots']} erased  "
          f"ber {r['ber']:.3g}  data rate {r['data_rate_mbps']:.2f} Mbit/s")
    print(f"outputs in {Path(args.out) / scenario.id}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = resolve_scenario(args.scenario)
    _check_out(args.out, scenario.id)
    rows = sweep_cnr(scenario, args.cnr_min, args.cnr_max, args.points,
                     n_frames=args.frames, seed=args.seed, mode=args.mode)
    out_dir = Path(args.out) / scenario.id
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep.csv"
    write_sweep_csv(rows, path)
    for cnr, ber, rate in rows:
        print(f"cnr {cnr:8.2f} dB   ber {ber:.3e}   rate {rate:10.3f} Mbit/s")
    print(f"sweep written to {path}")
    return 0


def _cmd_catalog(_: argparse.Namespace) -> int:
    catalog = builtin_catalog()
    for sid in sorted(catalog.scenarios):
        s = catalog.scenarios[sid]
        print(f"{sid:14s} {s.aircraft.name:8s} {s.constellation.name:6s} "
              f"{s.direction:8s} {s.band:3s} {s.duration_s / 3600.0:5.2f} h")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    reports = []
    for path in (args.report_a, args.report_b):
        try:
            reports.append(json.loads(Path(path).read_text()))
        except OSError as exc:
            raise ConfigError(f"cannot read report {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"report {path} is not valid JSON: {exc}") from exc
        if not isinstance(reports[-1], dict):
            raise ConfigError(f"report {path} is not a JSON object")
    diff = compare_reports(reports[0], reports[1])
    print(json.dumps(diff, indent=2, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rwasim",
        description="Satellite-link simulator for rotary-wing aircraft")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run(sub)
    _add_sweep(sub)
    sub.add_parser("catalog", help="list the built-in scenarios")
    _add_compare(sub)
    args = parser.parse_args(argv)

    handlers = {"run": _cmd_run, "sweep": _cmd_sweep,
                "catalog": _cmd_catalog, "compare": _cmd_compare}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
