"""Command-line entry point wiring the pipeline together.

Subcommands: ``parse``, ``build``, ``split``, ``eval``, ``analyze``,
``baseline``.  Exit codes: 0 success, 1 domain error, 2 usage error.
All logs go to standard error; primary outputs go to files or stdout.
Every handler returns its report payload and ``run`` writes it last, as
one envelope holding the tool version and the resolved configuration, to
``--report`` or else to stdout (eval) or stderr (the rest); a failed run
writes no report.  Every stdout document leaves through ``_print``.
Every subcommand takes ``--report``, ``--quiet`` and ``--jobs``; the rest
of its flags are its own (``split --seed`` holds the only randomness).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import TextIO

from . import __version__
from .analysis import (
    UNITS,
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
from .jsonl import SPLITS, read_captions, reading, write_atomic, write_captions
from .metrics import EvalConfig, evaluate, load_caption_map


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--report", metavar="PATH",
                        help="write the run report JSON here instead of stderr/stdout")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress logs on stderr")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted and ignored: every stage runs serially")


def _count(text: str, minimum: int) -> int:
    """``text`` as an integer >= ``minimum``, else a usage error (exit 2)."""
    try:
        # int() refuses more digits than sys.get_int_max_str_digits()
        value = int(text) if text.strip().isdecimal() else None
    except ValueError:
        value = None
    if value is None or value < minimum:
        shown = repr(text) if len(text) <= 40 else \
            f"{text[:20]!r}... ({len(text)} characters)"
        raise argparse.ArgumentTypeError(
            f"expected an integer >= {minimum}, got {shown}")
    return value


def _non_negative_int(text: str) -> int:
    return _count(text, 0)


def _positive_int(text: str) -> int:
    return _count(text, 1)


def _stoplist_token(text: str) -> str:
    try:
        CleaningConfig(uppercase_stoplist=(text,))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


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
    p.add_argument("--stoplist", action="append", type=_stoplist_token,
                   metavar="TOKEN",
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
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the split permutation (default 0)")
    _common_flags(p)

    p = sub.add_parser("eval", help="score candidate captions against references")
    p.add_argument("--candidates", required=True, metavar="JSONL")
    p.add_argument("--references", required=True, metavar="JSONL")
    p.add_argument("--csv", metavar="PATH", help="also write per-example CSV")
    p.add_argument("--keep-punctuation", action="store_true",
                   help="score punctuation tokens instead of dropping them")
    p.add_argument("--x100", action="store_true",
                   help="present metric scores multiplied by 100")
    _common_flags(p)

    p = sub.add_parser("analyze", help="caption distribution analyses")
    ana = p.add_subparsers(dest="analysis", required=True)

    g = ana.add_parser("genres", help="caption-unit by genre cross-tabulation")
    g.add_argument("--captions", required=True, metavar="JSONL")
    g.add_argument("--genres", required=True, metavar="CSV")
    g.add_argument("--k", type=_positive_int, default=20,
                   help="top units to keep")
    g.add_argument("--unit", choices=UNITS, default="segment")
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


def _print(text: str, stream: TextIO | None = None) -> None:
    """Print to ``stream`` (stdout); an unencodable character is IoFailure."""
    stream = stream or sys.stdout
    try:
        print(text, file=stream)
    except UnicodeEncodeError as exc:
        name = "error" if stream is sys.stderr else "output"
        raise IoFailure(f"cannot write standard {name}: {exc}") from exc


def _emit_report(args: argparse.Namespace, payload: dict[str, object],
                 stream: TextIO) -> None:
    """Write the envelope to ``--report``, else to ``stream``; argv text
    that is not UTF-8 is backslash-escaped so the report stays UTF-8."""
    config = {key: value.encode("utf-8", "backslashreplace").decode("utf-8")
              if isinstance(value, str) else value
              for key, value in vars(args).items()}
    text = json.dumps({"tool_version": __version__, "config": config,
                       **payload}, ensure_ascii=False, indent=2)
    if args.report:
        write_atomic(args.report, [text, "\n"])
    else:
        _print(text, stream)


def _cmd_parse(args: argparse.Namespace) -> dict[str, object]:
    notation = parse_notation(args.code)
    _print(json.dumps({
        "base": list(notation.base),
        "keys": list(notation.keys),
        "qualifiers": list(notation.qualifiers),
    }, ensure_ascii=False))
    return {}


def _load_store(args: argparse.Namespace) -> CorrelateStore:
    if args.correlates_format == "json":
        return CorrelateStore.from_json(args.correlates)
    return CorrelateStore.from_tsv(args.correlates)


def _cmd_build(args: argparse.Namespace) -> dict[str, object]:
    annotations = load_annotations(args.annotations)
    store = _load_store(args)
    cfg = CleaningConfig(
        uppercase_stoplist=tuple(args.stoplist
                                 or CleaningConfig.uppercase_stoplist),
        drop_etc=not args.keep_etc,
        dedup=not args.no_dedup,
    )
    records, report = build_dataset(
        annotations, store, cfg, parent_fallback=args.parent_fallback
    )
    count = write_records_jsonl(records, args.out)
    _log(args, f"wrote {count} caption records to {args.out}")
    return report.as_dict()


def _cmd_split(args: argparse.Namespace) -> dict[str, object]:
    cfg = SplitConfig(seed=args.seed, n_val=args.val, n_test=args.test)
    records = assign_splits(read_records_jsonl(args.infile), cfg)
    write_records_jsonl(records, args.out)
    _log(args, f"wrote {len(records)} split records to {args.out}")
    if args.export_dir:
        out_dir = Path(args.export_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for split in SPLITS:
            count = export_jsonl(records, out_dir / f"{split}.jsonl", split)
            _log(args, f"  {split}: {count}")
    tally = Counter(r.split for r in records)
    counts = {s: tally[s] for s in SPLITS}
    return {"splits": counts}


def _cmd_eval(args: argparse.Namespace) -> dict[str, object]:
    config = EvalConfig(strip_punctuation=not args.keep_punctuation)
    report = evaluate(args.candidates, args.references, config)
    if args.csv:
        write_atomic(args.csv, [report.to_csv(x100=args.x100)])
        _log(args, f"wrote per-example CSV to {args.csv}")
    payload = report.as_dict(x100=args.x100)
    summary = " ".join(f"{name}={score:.4f}"
                       for name, score in payload["corpus"].items())
    _log(args, f"corpus: {summary}")
    return payload


def _cmd_analyze_genres(args: argparse.Namespace) -> dict[str, object]:
    captions = load_caption_map(args.captions)
    genres = load_genre_csv(args.genres)
    records = join_genres(captions, genres)
    distribution = genre_distribution(records, args.k, args.unit)
    write_atomic(args.out, [distribution.to_csv()])
    _log(args, f"wrote {len(distribution.phrases)} phrases x "
               f"{len(distribution.genres)} genres to {args.out}")
    return {
        "joined_records": len(records),
        "phrases": len(distribution.phrases),
        "genres": distribution.genres,
    }


def _cmd_analyze_lengths(args: argparse.Namespace) -> dict[str, object]:
    captions = load_caption_map(args.captions)
    stats = length_stats(list(captions.values()))
    _print(json.dumps(stats, ensure_ascii=False, indent=2))
    return {}


def _read_test_ids(path: str) -> list[str]:
    # caption records (test split when marked) when the first non-blank
    # line starts with "{", else one id per line
    with reading(path) as fh:
        ids = (line.strip() for line in fh if line.strip())
        first = next(ids, "")
        if not first.startswith("{"):
            return [first, *ids] if first else []
    return [image_id for _, image_id, _, split in read_captions(path)
            if split in (None, "test")]


def _cmd_baseline(args: argparse.Namespace) -> dict[str, object]:
    records = read_records_jsonl(args.train)
    if any(r.split for r in records):
        records = [r for r in records if r.split == "train"]
    test_ids = _read_test_ids(args.ids)
    pairs = frequency_baseline(records, test_ids)
    write_captions(args.out, ((image_id, caption, None)
                              for image_id, caption in pairs))
    _log(args, f"wrote {len(pairs)} baseline candidates to {args.out}")
    return {"candidates": len(pairs)}


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
        payload = _HANDLERS[key](args)
        _emit_report(args, payload,
                     sys.stdout if args.command == "eval" else sys.stderr)
    except (IconcapError, OSError) as exc:
        print(f"iconcap {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
