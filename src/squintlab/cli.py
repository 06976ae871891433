"""Command-line interface: boundary reports, channel dumps, plans, experiments.

Exit codes: 0 success, 1 usage/configuration error, 2 infeasible scenario.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Sequence

from .boundaries import BoundaryReport, boundary_report, classify_path
from .experiments import EXPERIMENTS, _allocate_adaptive, run_experiment
from .scenario import ScenarioConfig, sample_scenario
from .slicing import InfeasiblePlanError, plan_antenna_slices
from .wavefield import (
    FieldModel,
    PathParams,
    synth_channel,
    write_channel_dump,
)

_FIELD_LABELS = {
    FieldModel.WIDEBAND_NEAR: "WN",
    FieldModel.NARROWBAND_NEAR: "NN",
    FieldModel.FAR: "NF",
}

_CONFIG_ALIASES = {
    "num_antennas": ["--n"],
    "center_freq_hz": ["--fc"],
    "num_subcarriers": ["--m"],
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1 (2 means infeasible)."""

    def error(self, message: str):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="flat JSON file of ScenarioConfig fields")
    for fld in dataclasses.fields(ScenarioConfig):
        flag = "--" + fld.name.replace("_", "-")
        names = [flag] + _CONFIG_ALIASES.get(fld.name, [])
        kind = int if fld.type == "int" else float
        parser.add_argument(*names, dest=fld.name, type=kind, default=None,
                            help=f"override {fld.name} (default {fld.default})")


def _add_path_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--theta", type=float, default=None,
                        help="sine of the path angle, in (-1, 1)")
    parser.add_argument("--d", type=float, default=None,
                        help="scatterer-to-array distance in meters")
    parser.add_argument("--r", type=float, default=None,
                        help="scatterer-to-receiver range in meters (default 0)")


def _build_config(args: argparse.Namespace) -> ScenarioConfig:
    data: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must contain a flat JSON object")
        data.update(loaded)
    for fld in dataclasses.fields(ScenarioConfig):
        value = getattr(args, fld.name, None)
        if value is not None:
            data[fld.name] = value
    return ScenarioConfig.from_dict(data)


def _path_flags(args: argparse.Namespace) -> str:
    """The path flags given on the command line, e.g. "--theta/--r"."""
    return "/".join(f"--{name}" for name in ("theta", "d", "r") if getattr(args, name) is not None)


def _given_path(args: argparse.Namespace, parser: argparse.ArgumentParser) -> PathParams | None:
    """The path of --theta/--d/--r, or None when none of them is given."""
    flags = _path_flags(args)
    if not flags:
        return None
    if args.theta is None or args.d is None:
        parser.error(f"{flags} given, but a path needs both --theta and --d")
    return PathParams(1.0, args.theta, args.d, args.r or 0.0)


def _require_path(args: argparse.Namespace, parser: argparse.ArgumentParser) -> PathParams:
    path = _given_path(args, parser)
    if path is None:
        parser.error("--theta and --d are required")
    return path


def _jsonable(value: float) -> float | str:
    return "unbounded" if value == math.inf else value


def _report_json(report: BoundaryReport) -> dict:
    return {
        "freq_boundary_near_hz": _jsonable(report.freq_boundary_near_hz),
        "antenna_boundary_near": _jsonable(report.antenna_boundary_near),
        "freq_boundary_far_hz": _jsonable(report.freq_boundary_far_hz),
        "antenna_boundary_far": _jsonable(report.antenna_boundary_far),
        "near_field_threshold": _jsonable(report.near_field_threshold),
        "bounds": {
            key: {
                "lower": _jsonable(bound.lower),
                "upper": _jsonable(bound.upper),
            }
            for key, bound in report.bounds.items()
        },
    }


def _scenario_objects(config: ScenarioConfig):
    return config.geometry(), config.grid(), config.thresholds()


def build_parser() -> _Parser:
    parser = _Parser(prog="squintlab",
                     description="Beam-squint boundaries and channel slicing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_boundary = sub.add_parser("boundary", parents=[], help="print a boundary report")
    _add_config_flags(p_boundary)
    _add_path_flags(p_boundary)

    p_classify = sub.add_parser("classify", help="classify a path (WN / NN / NF)")
    _add_config_flags(p_classify)
    _add_path_flags(p_classify)

    p_channel = sub.add_parser("channel", help="synthesize and dump a channel tensor")
    _add_config_flags(p_channel)
    _add_path_flags(p_channel)
    p_channel.add_argument("--trial", type=int, default=0,
                           help="trial substream for sampled paths (default 0)")
    p_channel.add_argument("--model", default="hybrid",
                           choices=["hybrid", "wideband-near", "narrowband-near", "far"],
                           help="channel model tag (default hybrid)")
    p_channel.add_argument("--output", required=True, metavar="FILE",
                           help="binary dump destination")

    p_plan = sub.add_parser("plan", help="print a slicing plan as JSON")
    p_plan.add_argument("kind", choices=["antenna", "subband"])
    _add_config_flags(p_plan)
    _add_path_flags(p_plan)
    p_plan.add_argument("--trial", type=int, default=0,
                        help="trial substream for sampled paths (default 0)")

    p_run = sub.add_parser("run", help="run a sweep experiment and write its CSV")
    p_run.add_argument("experiment", choices=sorted(EXPERIMENTS),
                       help="experiment name")
    _add_config_flags(p_run)
    p_run.add_argument("--quick", action="store_true",
                       help="desk scale: at most 64 subcarriers and 100 trials")
    p_run.add_argument("--output", metavar="FILE", default=None,
                       help="CSV destination (default <experiment>.csv)")
    return parser


def _cmd_boundary(args, parser) -> int:
    config = _build_config(args)
    path = _require_path(args, parser)
    geom, grid, thr = _scenario_objects(config)
    report = boundary_report(geom, grid, path, thr)
    print(json.dumps(_report_json(report), indent=2))
    return 0


def _cmd_classify(args, parser) -> int:
    config = _build_config(args)
    path = _require_path(args, parser)
    geom, grid, thr = _scenario_objects(config)
    print(_FIELD_LABELS[classify_path(geom, grid, path, thr)])
    return 0


def _cmd_channel(args, parser) -> int:
    config = _build_config(args)
    geom, grid, _ = _scenario_objects(config)
    path = _given_path(args, parser)
    paths = [path] if path else sample_scenario(config, args.trial)
    tensor = synth_channel(geom, grid, paths, args.model)
    write_channel_dump(tensor, args.output)
    print(f"wrote {args.output}: {geom.num_antennas}x{grid.num_subcarriers} "
          f"({args.model}, {len(paths)} paths)")
    return 0


def _cmd_plan(args, parser) -> int:
    config = _build_config(args)
    geom, grid, thr = _scenario_objects(config)
    if args.kind == "antenna":
        path = _given_path(args, parser)
        paths = [path] if path else sample_scenario(config, args.trial)
        plan = plan_antenna_slices(geom, grid, paths, thr)
        print(json.dumps(plan.to_json_dict(), indent=2))
        return 0
    if _path_flags(args):
        parser.error(f"plan subband samples its users and takes no {_path_flags(args)}")
    _, plan = _allocate_adaptive(config, args.trial)
    print(json.dumps(plan.to_json_dict(), indent=2))
    return 0


def _cmd_run(args, parser) -> int:
    config = _build_config(args)
    if args.quick:
        config = config.quick()
    result = run_experiment(args.experiment, config)
    output = args.output or f"{args.experiment}.csv"
    result.write_csv(output)
    print(f"wrote {output}: {len(result.rows)} rows, "
          f"axis={result.axis_name}, schemes={len(result.schemes)}")
    return 0


_COMMANDS = {
    "boundary": _cmd_boundary,
    "classify": _cmd_classify,
    "channel": _cmd_channel,
    "plan": _cmd_plan,
    "run": _cmd_run,
}


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except InfeasiblePlanError as exc:
        print(f"infeasible scenario: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
