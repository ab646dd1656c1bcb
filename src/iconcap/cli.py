"""Command-line entry point wiring the pipeline together.

Subcommands: ``parse``, ``build``, ``split``, ``eval``, ``analyze``,
``baseline``.  Exit codes: 0 success, 1 domain error, 2 usage error.
All logs go to standard error; primary outputs go to files or stdout.
Reports embed the tool version and the resolved configuration, and all
randomness flows from the single ``--seed`` flag.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .analysis import (
    frequency_baseline,
    genre_distribution,
    join_genres,
    length_stats,
    load_genre_csv,
)
from .captions import (
    CleaningConfig,
    SplitConfig,
    assign_splits,
    build_dataset,
    export_jsonl,
    read_records_jsonl,
    write_records_jsonl,
)
from .errors import IconcapError, IoFailure
from .iconclass import CorrelateStore, load_annotations, parse_notation
from .jsonl import read_captions, write_atomic, write_captions
from .metrics import EvalConfig, evaluate, load_caption_map


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized steps (default 0)")
    parser.add_argument("--report", metavar="PATH",
                        help="write the run report JSON here instead of stderr/stdout")
    parser.add_argument("--x100", action="store_true",
                        help="present metric scores multiplied by 100")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress logs on stderr")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted and ignored: every stage runs serially")


def _non_negative_int(text: str) -> int:
    if not text.strip().isdigit():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iconcap",
        description="Iconclass caption dataset construction and evaluation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="print a notation's structure as JSON")
    p.add_argument("code", help="an Iconclass notation, e.g. '73A(+1)'")
    _common_flags(p)

    p = sub.add_parser("build", help="build caption records from annotations")
    p.add_argument("--annotations", required=True, metavar="JSON")
    p.add_argument("--correlates", required=True, metavar="PATH")
    p.add_argument("--correlates-format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--out", required=True, metavar="JSONL")
    p.add_argument("--parent-fallback", action="store_true",
                   help="resolve missing codes through their parent chain")
    p.add_argument("--stoplist", action="append", metavar="TOKEN",
                   help="uppercase marker to delete (repeatable; default BB)")
    p.add_argument("--keep-etc", action="store_true",
                   help="do not delete ', etc.' occurrences")
    p.add_argument("--no-dedup", action="store_true",
                   help="keep duplicate comma segments")
    _common_flags(p)

    p = sub.add_parser("split", help="assign deterministic train/val/test splits")
    p.add_argument("--in", dest="infile", required=True, metavar="JSONL")
    p.add_argument("--val", type=_non_negative_int, required=True, metavar="N")
    p.add_argument("--test", type=_non_negative_int, required=True, metavar="N")
    p.add_argument("--out", required=True, metavar="JSONL")
    p.add_argument("--export-dir", metavar="DIR",
                   help="also write train/val/test caption files here")
    _common_flags(p)

    p = sub.add_parser("eval", help="score candidate captions against references")
    p.add_argument("--candidates", required=True, metavar="JSONL")
    p.add_argument("--references", required=True, metavar="JSONL")
    p.add_argument("--csv", metavar="PATH", help="also write per-example CSV")
    p.add_argument("--keep-punctuation", action="store_true",
                   help="score punctuation tokens instead of dropping them")
    _common_flags(p)

    p = sub.add_parser("analyze", help="caption distribution analyses")
    ana = p.add_subparsers(dest="analysis", required=True)

    g = ana.add_parser("genres", help="caption-unit by genre cross-tabulation")
    g.add_argument("--captions", required=True, metavar="JSONL")
    g.add_argument("--genres", required=True, metavar="CSV")
    g.add_argument("--k", type=int, default=20, help="top units to keep")
    g.add_argument("--unit", choices=("segment", "whole_caption"),
                   default="segment")
    g.add_argument("--out", required=True, metavar="CSV")
    _common_flags(g)

    le = ana.add_parser("lengths", help="caption token-length statistics")
    le.add_argument("--captions", required=True, metavar="JSONL")
    _common_flags(le)

    p = sub.add_parser("baseline", help="most-frequent-caption candidate file")
    p.add_argument("--train", required=True, metavar="JSONL")
    p.add_argument("--ids", required=True, metavar="PATH",
                   help="test ids: JSONL records (test split when marked) or one id per line")
    p.add_argument("--out", required=True, metavar="JSONL")
    _common_flags(p)

    return parser


def _log(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _resolved_config(args: argparse.Namespace) -> dict[str, object]:
    config = {k: v for k, v in vars(args).items() if k != "func"}
    config["tool_version"] = __version__
    return config


def _emit_report(args: argparse.Namespace, payload: dict[str, object]) -> None:
    payload = {"tool_version": __version__,
               "config": _resolved_config(args), **payload}
    text = json.dumps(payload, ensure_ascii=False, indent=2)
    if args.report:
        write_atomic(args.report, [text, "\n"])
    else:
        print(text, file=sys.stderr)


def _cmd_parse(args: argparse.Namespace) -> int:
    notation = parse_notation(args.code)
    print(json.dumps({
        "base": list(notation.base),
        "keys": list(notation.keys),
        "qualifiers": list(notation.qualifiers),
    }, ensure_ascii=False))
    return 0


def _load_store(args: argparse.Namespace) -> CorrelateStore:
    if args.correlates_format == "json":
        return CorrelateStore.from_json(args.correlates)
    return CorrelateStore.from_tsv(args.correlates)


def _cmd_build(args: argparse.Namespace) -> int:
    annotations = load_annotations(args.annotations)
    store = _load_store(args)
    cfg = CleaningConfig(
        uppercase_stoplist=tuple(args.stoplist) if args.stoplist else ("BB",),
        drop_etc=not args.keep_etc,
        dedup=not args.no_dedup,
    )
    records, report = build_dataset(
        annotations, store, cfg, parent_fallback=args.parent_fallback
    )
    count = write_records_jsonl(records, args.out)
    _log(args, f"wrote {count} caption records to {args.out}")
    _emit_report(args, report.as_dict())
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    records = read_records_jsonl(args.infile)
    cfg = SplitConfig(seed=args.seed, n_val=args.val, n_test=args.test)
    records = assign_splits(records, cfg)
    write_records_jsonl(records, args.out)
    _log(args, f"wrote {len(records)} split records to {args.out}")
    if args.export_dir:
        out_dir = Path(args.export_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for split in ("train", "val", "test"):
            count = export_jsonl(records, out_dir / f"{split}.jsonl", split)
            _log(args, f"  {split}: {count}")
    counts = {s: sum(1 for r in records if r.split == s)
              for s in ("train", "val", "test")}
    _emit_report(args, {"splits": counts})
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config = EvalConfig(strip_punctuation=not args.keep_punctuation)
    report = evaluate(args.candidates, args.references, config)
    report.meta = {"tool_version": __version__, "config": _resolved_config(args)}
    text = report.to_json(x100=args.x100)
    if args.report:
        write_atomic(args.report, [text, "\n"])
        _log(args, f"wrote report to {args.report}")
    else:
        print(text)
    if args.csv:
        write_atomic(args.csv, [report.to_csv(x100=args.x100)])
        _log(args, f"wrote per-example CSV to {args.csv}")
    scale = 100.0 if args.x100 else 1.0
    summary = " ".join(
        f"{name}={report.corpus[name] * scale:.4f}" for name in report.corpus
    )
    _log(args, f"corpus: {summary}")
    return 0


def _cmd_analyze_genres(args: argparse.Namespace) -> int:
    captions = load_caption_map(args.captions)
    genres = load_genre_csv(args.genres)
    records = join_genres(captions, genres)
    distribution = genre_distribution(records, args.k, args.unit)
    write_atomic(args.out, [distribution.to_csv()])
    _log(args, f"wrote {len(distribution.phrases)} phrases x "
               f"{len(distribution.genres)} genres to {args.out}")
    _emit_report(args, {
        "joined_records": len(records),
        "phrases": len(distribution.phrases),
        "genres": distribution.genres,
    })
    return 0


def _cmd_analyze_lengths(args: argparse.Namespace) -> int:
    captions = load_caption_map(args.captions)
    stats = length_stats(list(captions.values()))
    print(json.dumps(stats, ensure_ascii=False, indent=2))
    return 0


def _read_test_ids(path: str) -> list[str]:
    # caption records (test split when marked) when the first non-blank
    # line starts with "{", else one id per line
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise IoFailure(f"cannot read {path}: not UTF-8: {exc}") from exc
    if not lines or not lines[0].startswith("{"):
        return lines
    return [image_id for _, image_id, _, split in read_captions(path)
            if split in (None, "test")]


def _cmd_baseline(args: argparse.Namespace) -> int:
    records = read_records_jsonl(args.train)
    if any(r.split for r in records):
        records = [r for r in records if r.split == "train"]
    test_ids = _read_test_ids(args.ids)
    pairs = frequency_baseline(records, test_ids)
    write_captions(args.out, ((image_id, caption, None)
                              for image_id, caption in pairs))
    _log(args, f"wrote {len(pairs)} baseline candidates to {args.out}")
    return 0


_HANDLERS = {
    ("parse",): _cmd_parse,
    ("build",): _cmd_build,
    ("split",): _cmd_split,
    ("eval",): _cmd_eval,
    ("analyze", "genres"): _cmd_analyze_genres,
    ("analyze", "lengths"): _cmd_analyze_lengths,
    ("baseline",): _cmd_baseline,
}


def run(argv: list[str] | None = None) -> int:
    """Parse ``argv`` and run the requested subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    key = (args.command,) if args.command != "analyze" \
        else (args.command, args.analysis)
    try:
        return _HANDLERS[key](args)
    except (IconcapError, OSError) as exc:
        print(f"iconcap {args.command}: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
