"""Command-line entry point: one subcommand per pipeline stage.

Exit codes: 0 success, 1 usage/config error, 2 missing or stale artifact,
3 data error.
"""
from __future__ import annotations

import argparse
import logging
import sys

from .errors import AcadSearchError
from .kg_embed import KG_MODELS
from .pipeline import STAGES, Pipeline, load_config

COMMANDS = (*STAGES, "end-to-end")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for missing artifacts.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="acadsearch",
                     description="Personalized academic search pipeline.")
    parser.add_argument("--config", help="JSON config file (defaults built in)")
    parser.add_argument("--workdir", help="override paths.workdir")
    parser.add_argument("--seed", type=int, help="override the global seed")
    parser.add_argument("--force", action="store_true",
                        help="run even if upstream artifacts look stale")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                        dest="sets", help="override a config value, "
                        "e.g. --set kg_train.model=transe")
    sub = parser.add_subparsers(dest="stage", metavar="|".join(COMMANDS))
    for command in COMMANDS:
        sub.add_parser(command)
    train_kg = sub.choices["train-kg"]
    train_kg.add_argument("--model", choices=KG_MODELS, default=None,
                          help="override kg_train.model for this run")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    if not args.stage:
        parser.print_help()
        return 1
    try:
        cfg = load_config(args.config, args.sets)
        if args.workdir:
            cfg["paths"]["workdir"] = args.workdir
        if args.seed is not None:
            cfg["seed"] = args.seed
        pipeline = Pipeline(cfg, force=args.force)
        if args.stage == "end-to-end":
            pipeline.end_to_end()
        elif args.stage == "train-kg":
            pipeline.stage_train_kg(model=args.model)
        else:
            getattr(pipeline, "stage_" + args.stage.replace("-", "_"))()
    except AcadSearchError as exc:
        print(f"acadsearch: error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
