"""Command-line entry point wiring the pipeline together.

Subcommands: ``parse``, ``build``, ``split``, ``eval``, ``analyze``,
``baseline``.  Exit codes: 0 success, 1 domain error, 2 usage error.
Every subcommand takes ``--report``, ``--quiet`` and ``--jobs``; the rest
of its flags are its own (``split --seed`` holds the only randomness).
Before any input is read, ``run`` lists the run's outputs (``--out``,
``--csv``, ``split``'s ``<export-dir>/{train,val,test}.jsonl``, then
``--report``), refuses two that name one file, or one that names the
export directory, as a usage error, makes the export directory and opens
every output in one ``jsonl.staged`` stage, with the cyclic collector
paused.  There the handler writes the outputs and returns its report,
which ``run`` writes last in an envelope of the tool version and the
flags: to ``--report``, else stdout (eval) or stderr (the rest).  So a
run writes nothing after an output is renamed.  ``_print`` fails the run
naming the stream it cannot write; ``_stderr`` drops what stderr refuses,
as ``main`` drops at exit what either standard stream refused.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections import Counter
from collections.abc import Iterable
from pathlib import Path
from typing import TextIO

from . import __version__
from .analysis import (
    UNITS,
    baseline_pairs,
    count_genres,
    length_stats,
    load_genre_csv,
)
from .captions import (
    BuildReport,
    CleaningConfig,
    SplitConfig,
    assign_splits,
    caption_rows,
    caption_stream,
    read_records_jsonl,
)
from .errors import EmptyInput, IconcapError, IoFailure
from .iconclass import (
    CorrelateStore,
    collector_paused,
    parse_notation,
    read_annotations,
)
from .jsonl import SPLITS, read_captions, reading, staged, write_captions
from .metrics import EvalConfig, evaluate

Outputs = dict[str, TextIO]  # a run's open output streams by name


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--report", metavar="PATH",
                        help="write the run report JSON here instead of stderr/stdout")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress logs on stderr")
    parser.add_argument("--jobs", type=_integer, default=1,
                        help="accepted and ignored: every stage runs serially")


def _integer(text: str, minimum: int | None = None) -> int:
    """``text`` as an integer, else a usage error (exit 2).

    With a ``minimum``, decimal digits >= it; else whatever ``int()`` reads.
    The message shows at most 40 characters of ``text``.
    """
    try:
        # int() refuses more digits than sys.get_int_max_str_digits()
        if minimum is None or text.strip().isdecimal():
            value = int(text)
            if minimum is None or value >= minimum:
                return value
    except ValueError:
        pass
    shown = repr(text) if len(text) <= 40 else \
        f"{text[:20]!r}... ({len(text)} characters)"
    bound = "" if minimum is None else f" >= {minimum}"
    raise argparse.ArgumentTypeError(f"expected an integer{bound}, got {shown}")


def _non_negative_int(text: str) -> int:
    return _integer(text, 0)


def _positive_int(text: str) -> int:
    return _integer(text, 1)


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
    p.add_argument("--seed", type=_integer, default=0,
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


def _stderr(line: str) -> None:
    """Write ``line`` to stderr, or nothing if it is closed or fails."""
    with contextlib.suppress(AttributeError, OSError, ValueError):
        sys.stderr.write(line + "\n")


def _log(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        _stderr(message)


def _print(text: str, stream: TextIO | None = None,
           name: str = "standard output") -> None:
    """Write ``text`` and a newline to ``stream`` (stdout) and flush it; a
    closed stdout (None) or a failed write is IoFailure naming ``name``."""
    stream = stream or sys.stdout
    if stream is None:  # stdout was closed at start-up (``>&-``)
        raise IoFailure(f"cannot write {name}")
    try:
        stream.write(text + "\n")
        stream.flush()
    except (OSError, UnicodeEncodeError) as exc:
        raise IoFailure(f"cannot write {name}: {exc}") from exc


def _envelope(args: argparse.Namespace, payload: dict[str, object]) -> str:
    """The report: the tool version, the parsed flags and ``payload``;
    argv text that is not UTF-8 is backslash-escaped so it stays UTF-8."""
    config = {key: value.encode("utf-8", "backslashreplace").decode("utf-8")
              if isinstance(value, str) else value
              for key, value in vars(args).items()}
    return json.dumps({"tool_version": __version__, "config": config,
                       **payload}, ensure_ascii=False, indent=2)


def _cmd_parse(args: argparse.Namespace, out: Outputs) -> dict[str, object]:
    notation = parse_notation(args.code)
    _print(json.dumps({
        "base": list(notation.base),
        "keys": list(notation.keys),
        "qualifiers": list(notation.qualifiers),
    }, ensure_ascii=False))
    return {}


def _opens_with_object(path: str, what: str = "") -> bool:
    """Whether the first non-blank line of ``path`` starts with ``{``."""
    with reading(path, what) as fh:
        if Path(path).is_fifo():  # the caller opens path again
            raise OSError("a pipe cannot be read twice")
        return next(filter(None, map(str.strip, fh)), "").startswith("{")


def _cmd_build(args: argparse.Namespace, out: Outputs) -> dict[str, object]:
    store = (CorrelateStore.from_json
             if _opens_with_object(args.correlates, "correlate table")
             else CorrelateStore.from_tsv)(args.correlates)
    cfg = CleaningConfig(
        uppercase_stoplist=tuple(args.stoplist
                                 or CleaningConfig.uppercase_stoplist),
        drop_etc=not args.keep_etc,
        dedup=not args.no_dedup,
    )
    report = BuildReport()

    def captions(pairs: Iterable[tuple[str, list[str]]]) -> dict[str, str]:
        """Each image's caption, "" when dropped, with a fresh report: text
        the piecewise read hands over is read again from the start."""
        nonlocal report
        report = BuildReport()
        return {image_id: caption for image_id, _, caption in caption_stream(
            pairs, store, cfg, args.parent_fallback, report)}

    rows = read_annotations(args.annotations, captions)
    write_captions(out["out"], ((image_id, rows[image_id], None)
                                for image_id in sorted(rows)
                                if rows[image_id]))
    _log(args, f"wrote {report.kept} caption records to {args.out}")
    return report.as_dict()


def _cmd_split(args: argparse.Namespace, out: Outputs) -> dict[str, object]:
    cfg = SplitConfig(seed=args.seed, n_val=args.val, n_test=args.test)
    records = assign_splits(read_records_jsonl(args.infile), cfg)
    write_captions(out["out"], caption_rows(records),
                   {split: out[split] for split in SPLITS if split in out})
    _log(args, f"wrote {len(records)} split records to {args.out}")
    tally = Counter(r.split for r in records)
    counts = {s: tally[s] for s in SPLITS}
    if args.export_dir:
        for split in SPLITS:
            _log(args, f"  {split}: {counts[split]}")
    return {"splits": counts}


def _cmd_eval(args: argparse.Namespace, out: Outputs) -> dict[str, object]:
    config = EvalConfig(strip_punctuation=not args.keep_punctuation)
    report = evaluate(args.candidates, args.references, config)
    if args.x100:
        report = report.x100()
    if args.csv:
        out["csv"].write(report.to_csv())
        _log(args, f"wrote per-example CSV to {args.csv}")
    payload = report.as_dict()
    summary = " ".join(f"{name}={score:.4f}"
                       for name, score in payload["corpus"].items())
    _log(args, f"corpus: {summary}")
    return payload


def _cmd_analyze_genres(args: argparse.Namespace,
                        out: Outputs) -> dict[str, object]:
    genres = load_genre_csv(args.genres)
    distribution, joined = count_genres(
        ((genres[image_id], caption)
         for image_id, caption, _ in read_captions(args.captions)
         if image_id in genres), args.k, args.unit)
    if not joined:
        raise EmptyInput(f"{args.captions}: no image id is in {args.genres}")
    out["out"].write(distribution.to_csv())
    _log(args, f"wrote {len(distribution.phrases)} phrases x "
               f"{len(distribution.genres)} genres to {args.out}")
    return {
        "joined_records": joined,
        "phrases": len(distribution.phrases),
        "genres": distribution.genres,
    }


def _cmd_analyze_lengths(args: argparse.Namespace,
                         out: Outputs) -> dict[str, object]:
    stats = length_stats([caption for _, caption, _
                          in read_captions(args.captions)])
    _print(json.dumps(stats, ensure_ascii=False, indent=2))
    return {}


def _read_test_ids(path: str) -> list[str]:
    if _opens_with_object(path):
        return [image_id for image_id, _, split in read_captions(path)
                if split in (None, "test")]
    with reading(path) as fh:
        return [line.strip() for line in fh if line.strip()]


def _train_captions(path: str) -> dict[str, int]:
    """How often each non-empty caption occurs in the train rows of
    ``path``, or in all its rows when none has a split; one pass counts
    both, as any row may be the first with a split."""
    every: dict[str, int] = {}
    train: dict[str, int] = {}
    count_every, count_train = every.get, train.get  # no Counter.__missing__
    marked = False
    for _, caption, split in read_captions(path):
        if caption:
            every[caption] = count_every(caption, 0) + 1
            if split == "train":
                train[caption] = count_train(caption, 0) + 1
        if split is not None:
            marked = True
    return train if marked else every


def _cmd_baseline(args: argparse.Namespace, out: Outputs) -> dict[str, object]:
    frequency = _train_captions(args.train)
    test_ids = _read_test_ids(args.ids)
    if not test_ids:
        raise EmptyInput(f"{args.ids}: no test id")
    try:
        pairs = baseline_pairs(frequency, test_ids)
    except EmptyInput as exc:
        raise EmptyInput(f"{args.train}: {exc}") from None
    write_captions(out["out"], ((image_id, caption, None)
                                for image_id, caption in pairs))
    _log(args, f"wrote {len(pairs)} baseline candidates to {args.out}")
    return {"candidates": len(pairs)}


def _shared_output(outputs: dict[str, str],
                   export_dir: str | None) -> str | None:
    """A message if two of the run's ``outputs`` name one file, or one
    names ``export_dir`` itself, else None.

    All are staged together, so one rename would overwrite another.  A
    target that exists but is not a regular file is written in place by
    ``staged``, so outputs may share it.
    """
    directory = export_dir and os.path.realpath(export_dir)
    seen: dict[str, str] = {}
    for name, path in outputs.items():
        flag = "--export-dir" if name in SPLITS else f"--{name}"
        target = os.path.realpath(path)
        if target == directory:
            return f"{flag} and --export-dir name the same path: {path}"
        if os.path.exists(path) and not os.path.isfile(path):
            continue
        if target in seen:
            return f"{seen[target]} and {flag} name the same file: {path}"
        seen[target] = flag
    return None


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
    # the run's output paths by name, in the order they are staged
    outputs = {name: getattr(args, name) for name in ("out", "csv")
               if getattr(args, name, None)}
    export_dir = getattr(args, "export_dir", None)
    if export_dir:
        outputs.update((split, os.path.join(export_dir, f"{split}.jsonl"))
                       for split in SPLITS)
    if args.report:
        outputs["report"] = args.report
    shared = _shared_output(outputs, export_dir)
    if shared:
        _stderr(f"iconcap {args.command}: error: {shared}")
        return 2
    try:
        if export_dir:
            try:
                os.makedirs(export_dir, exist_ok=True)
            except OSError as exc:
                raise IoFailure(f"cannot create export directory "
                                f"{export_dir}: {exc}") from exc
        # a run builds many long-lived records and few cycles to free
        with collector_paused(), staged(list(outputs.values())) as streams:
            out = dict(zip(outputs, streams))
            text = _envelope(args, _HANDLERS[key](args, out))
            if args.report:  # last, so a failed report replaces no output
                _print(text, out["report"], args.report)
            elif args.command == "eval":
                _print(text)
            else:
                _stderr(text)
    except (IconcapError, OSError) as exc:
        _stderr(f"iconcap {args.command}: error: {exc}")
        return 1
    return 0


def main() -> None:
    status = run(sys.argv[1:])
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError:  # its refused bytes would fail the exit flush (120)
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    sys.exit(status)


if __name__ == "__main__":
    main()
