"""Command-line interface.

Commands: ``measure``, ``simulate`` (seed mandatory), ``compare``,
``aggregate``, ``validate``. Flags override manifest fields. Exit codes:
0 the command ran, 2 input error, 3 configuration error. No environment
variables are consulted; every knob is an explicit flag or manifest field,
for audit reproducibility.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .aggregation import AGGREGATOR_NAMES, ListCollection, aggregate
from .audit import compare_audit, run_audit
from .errors import ConfigError, InputError
from .io import load_manifest, load_result_lists, result_lists_chunks, validate_file, write_result_lists
from .measures import DR_KINDS, QUERY_AGGREGATIONS, WEIGHTINGS


def _add_config_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, help="bias threshold override")
    parser.add_argument("--k", type=int, help="top-k depth override")
    parser.add_argument("--dr-kind", choices=DR_KINDS, help="ranked-list distance override")
    parser.add_argument("--weighting", choices=WEIGHTINGS, help="rank weighting override")
    parser.add_argument("--aggregator", choices=AGGREGATOR_NAMES, help="aggregator override")
    parser.add_argument("--query-aggregation", choices=QUERY_AGGREGATIONS, help="battery aggregation override")
    parser.add_argument("--output-dir", type=Path, help="report directory override")


def _apply_overrides(manifest, args):
    # each flag given overrides the config or manifest field of its own name
    def given(*names):
        return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}

    names = ("epsilon", "k", "dr_kind", "weighting", "aggregator", "query_aggregation")
    return replace(manifest, config=replace(manifest.config, **given(*names)), **given("output_dir", "seed"))


def _cmd_audit(args) -> int:
    """``measure`` and ``simulate``: audit a manifest of the command's mode."""
    manifest = _apply_overrides(load_manifest(args.manifest), args)
    if manifest.mode != args.command:
        raise ConfigError(f"manifest is for the {manifest.mode!r} command, not {args.command!r}")
    report = run_audit(manifest)
    sys.stdout.write(report.summary_text())
    return 0


def _cmd_compare(args) -> int:
    report = compare_audit(args.manifest_a, args.manifest_b, args.output_dir)
    sys.stdout.write(report.summary_text())
    return 0


def _cmd_aggregate(args) -> int:
    lists = load_result_lists(args.lists_file)
    if not lists:
        raise InputError(f"{args.lists_file}: no lists to aggregate")
    by_query: dict[str, list] = {}
    for ranked in lists.values():
        by_query.setdefault(ranked.query_id, []).append(ranked)
    out = []
    for query_id in sorted(by_query):
        group = by_query[query_id]
        depth = args.k if args.k is not None else max(lst.depth for lst in group)
        out.append(aggregate(ListCollection(group, f"aggregate:{args.method}"), depth, args.method))
    if args.output:
        write_result_lists(out, args.output)
    else:
        sys.stdout.writelines(result_lists_chunks(out))
    return 0


def _cmd_validate(args) -> int:
    kind, count = validate_file(args.file, args.kind)
    print(f"OK ({kind}, {count} records)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rankbias", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="audit result lists loaded from files")
    p.add_argument("manifest", type=Path)
    p.add_argument("--seed", type=int, help="significance seed override")
    _add_config_overrides(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("simulate", help="generate a synthetic audit and measure it")
    p.add_argument("manifest", type=Path)
    p.add_argument("--seed", type=int, required=True, help="scenario seed (mandatory)")
    _add_config_overrides(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("compare", help="comparative audit of two providers")
    p.add_argument("manifest_a", type=Path)
    p.add_argument("manifest_b", type=Path)
    p.add_argument("--output-dir", type=Path)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("aggregate", help="aggregate a lists file into one representative per query")
    p.add_argument("lists_file", type=Path)
    p.add_argument("--method", choices=AGGREGATOR_NAMES, default="borda")
    p.add_argument("--k", type=int, help="representative depth (default: max input depth)")
    p.add_argument("--output", type=Path, help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("validate", help="validate a data file")
    p.add_argument("file", type=Path)
    p.add_argument("--kind", choices=("results", "profiles", "schema", "ground-truth", "manifest"))
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
