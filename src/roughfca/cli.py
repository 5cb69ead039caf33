"""Command line interface.

Subcommands::

    roughfca run        full pipeline, all reports
    roughfca proximity  proximity matrices only
    roughfca partition  cut partitions only
    roughfca rank       ordered table, rank table and clusters
    roughfca fca        per-cluster contexts, lattices, bases, frequencies
    roughfca search-cut recover feasible (alpha, beta) regions for target partitions

Every command takes --config (a JSON document) and --data, which beats the
config value.  --out is the output directory, beating the config value, or
for search-cut the output file (stdout when omitted).  Each command runs
only the stages it writes.  run, partition, rank and fca also take --alpha,
--beta, --force and --override stage=file, partition for partitions only;
proximity and search-cut take none of them.  Exit status is 0 on success,
2 on a stage failure (reported as ``error [stage:<name>] ...``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .approx import CutParams, partitions_from_json
from .pipeline import (
    PipelineConfig,
    REPORT_GROUPS,
    StageError,
    emit_reports,
    fca_stage,
    in_stage,
    load_config_table,
    partition_stage,
    proximity_stage,
    rank_stage,
    read_input,
    run_pipeline,
    search_alpha_beta,
    write_files,
)

_OVERRIDE_STAGES = ("partitions", "ordered_table")


def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="pipeline configuration (JSON)")
    parser.add_argument("--data", help="data CSV, overrides the config value")


def _add_cut(parser: argparse.ArgumentParser, stages: tuple[str, ...]) -> None:
    parser.add_argument("--alpha", type=float, help="cut membership threshold")
    parser.add_argument("--beta", type=float, help="cut non-membership threshold")
    parser.add_argument("--override", action="append", default=[], metavar="STAGE=FILE",
                        help=f"stage override, STAGE one of {', '.join(stages)}")
    parser.add_argument("--force", action="store_true",
                        help="proceed past proximity validation failures")
    parser.set_defaults(override_stages=stages)


def _effective_config(args: argparse.Namespace) -> PipelineConfig:
    config = PipelineConfig.from_file(args.config)
    updates: dict = {}
    if args.data:
        updates["data_path"] = Path(args.data)
    alpha, beta = getattr(args, "alpha", None), getattr(args, "beta", None)
    if alpha is not None or beta is not None:
        with in_stage("load"):
            updates["cut"] = CutParams(config.cut.alpha if alpha is None else alpha,
                                       config.cut.beta if beta is None else beta)
    if args.out:
        updates["output_dir"] = Path(args.out)
    if getattr(args, "force", False):
        updates["force"] = True
    for spec in getattr(args, "override", ()):
        stage, _, path = spec.partition("=")
        if stage not in args.override_stages or not path:
            raise StageError("load", f"bad override {spec!r}, expected STAGE=FILE with "
                                     f"STAGE in {args.override_stages}")
        key = "partitions_override" if stage == "partitions" else "ordered_override"
        updates[key] = Path(path)
    return dataclasses.replace(config, **updates) if updates else config


def _output_dir(config: PipelineConfig) -> Path:
    if config.output_dir is None:
        raise StageError("emit", "no output directory: set output_dir in the config or pass --out")
    return config.output_dir


def _cmd_run(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    report = run_pipeline(config)
    out = _output_dir(config)
    manifest = emit_reports(report, out)
    print(f"wrote {len(manifest)} report files to {out}")
    flagged = report.provenance["stages"]["validate"]["violations"]
    if flagged:
        print(f"forced past proximity violations: {flagged}")
    print(f"dropped as indiscernible: {', '.join(report.ordered.dropped) or 'none'}")
    for analysis in report.analyses:
        chief = ", ".join(analysis.chief[0][1]) if analysis.chief else "-"
        runner_up = ", ".join(analysis.chief[1][1]) if len(analysis.chief) > 1 else "-"
        print(f"cluster {analysis.cluster.cluster_id} "
              f"(ranks {analysis.cluster.rank_range[0]}-{analysis.cluster.rank_range[1]}): "
              f"chief attributes {chief}")
        print(f"  members: {', '.join(analysis.cluster.members)}")
        print(f"  concepts: {len(analysis.concepts)}, implications: {len(analysis.basis)}")
        print(f"  next: {runner_up}")
    return 0


def _cmd_proximity(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    report = proximity_stage(config)
    out = _output_dir(config)
    names = args.attribute or ()
    for name in names:
        if name not in report.relations:
            raise StageError("proximity", f"unknown attribute {name!r}")
    written = write_files(out, REPORT_GROUPS["proximity"](report, names))
    flagged = report.provenance["stages"]["validate"]["violations"]
    if flagged:
        print(f"validation violations: {flagged}")
    print(f"wrote {len(written)} proximity matrices to {out}")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    report = partition_stage(proximity_stage(config))
    out = _output_dir(config)
    write_files(out, REPORT_GROUPS["partition"](report))
    print(f"wrote partitions.json ({len(report.partitions)} attributes) to {out}")
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    report = rank_stage(partition_stage(proximity_stage(config)))
    write_files(_output_dir(config), REPORT_GROUPS["rank"](report))
    for row in report.ranks.rows:
        print(f"{row.object}: total {row.total}, rank {row.rank}")
    return 0


def _cmd_fca(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    report = fca_stage(rank_stage(partition_stage(proximity_stage(config))))
    write_files(_output_dir(config), REPORT_GROUPS["fca"](report))
    for analysis in report.analyses:
        chief = ", ".join(analysis.chief[0][1]) if analysis.chief else "-"
        print(f"cluster_{analysis.cluster.cluster_id}: {len(analysis.concepts)} concepts, "
              f"{len(analysis.basis)} implications, chief {chief}")
    return 0


def _cmd_search_cut(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    table = load_config_table(config)
    docs = read_input(args.targets, "targets", "partition")
    with in_stage("partition"):
        targets = partitions_from_json(docs, table.objects)
        result = search_alpha_beta(table, targets, step=args.step)
    text = result.to_json()
    if args.out:
        out = Path(args.out)
        write_files(out.parent, [(out.name, text)])
        print(f"wrote {out} ({len(result.points)} feasible grid points)")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="roughfca", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline")
    p_prox = sub.add_parser("proximity", help="proximity matrices")
    p_part = sub.add_parser("partition", help="cut partitions")
    p_rank = sub.add_parser("rank", help="ordered table, ranks and clusters")
    p_fca = sub.add_parser("fca", help="per-cluster concept analysis")
    for p_cmd, func in ((p_run, _cmd_run), (p_prox, _cmd_proximity), (p_part, _cmd_partition),
                        (p_rank, _cmd_rank), (p_fca, _cmd_fca)):
        _add_config(p_cmd)
        p_cmd.add_argument("--out", help="output directory, overrides the config value")
        p_cmd.set_defaults(func=func)
    # proximity stops before the cut and the validation refusal, partition
    # before the ordered table
    for p_cmd in (p_run, p_part, p_rank, p_fca):
        _add_cut(p_cmd, _OVERRIDE_STAGES[:1] if p_cmd is p_part else _OVERRIDE_STAGES)
    p_prox.add_argument("--attribute", action="append", help="restrict to one attribute")

    p_search = sub.add_parser("search-cut", help="recover feasible cut parameters")
    _add_config(p_search)
    p_search.add_argument("--out", help="output file (JSON); stdout when omitted")
    p_search.add_argument("--targets", required=True,
                          help="target partitions (JSON list of partition documents)")
    p_search.add_argument("--step", type=float, default=0.005, help="grid resolution")
    # search-cut reads only the data and its attributes: no cut flags, no force
    p_search.set_defaults(func=_cmd_search_cut)
    return parser


#: Options whose value may be a negative number in exponent form or an
#: infinity, such as ``-1e-3`` or ``-inf``.
_NUMBER_OPTIONS = ("--alpha", "--beta", "--step")


def _is_number_option(arg: str) -> bool:
    """Whether ``arg`` names a number option in full or, as argparse lets
    it, by a prefix of its name."""
    return len(arg) > 2 and any(name.startswith(arg) for name in _NUMBER_OPTIONS)


def _attach_numbers(argv: list[str]) -> list[str]:
    """``argv`` with each number option and its value as one ``--name=value``
    argument.  argparse reads a separate value that starts with ``-`` as an
    option unless it is a plain negative decimal, so ``--step -1e-3`` would
    end in a usage error where ``--step=-1e-3`` reaches the stage that
    rejects the value.  Only a value that parses as a float is attached: an
    option name never does."""
    out: list[str] = []
    for arg in argv:
        if out and _is_number_option(out[-1]) and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_numbers(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
