"""The caption JSONL format: one validated reader and one atomic writer.

A caption file holds one JSON object per line, blank lines skipped:

- ``image_id``: a string, or an integer (COCO-style result files), which
  is read as its decimal string;
- ``caption``: a string, ``""`` when absent;
- ``split``: ``"train"``, ``"val"`` or ``"test"``, absent until assigned.

An id names one row: a file that repeats one, even as ``7`` and ``"7"``,
is malformed at the line of the repeat.

The reader accepts any JSON that ``json.loads`` accepts on a line.  The
writer lays out every line the same way, the bytes of ``json.dumps(row,
ensure_ascii=False)`` plus ``"\n"``::

    {"image_id": "<id>", "caption": "<caption>", "split": "<split>"}

keys in that order, ``", "`` between members, ``": "`` after each key, no
``split`` member while the split is unset, and non-ASCII characters
written as they are (only ``"``, ``\\`` and control characters escaped).

Every file the package reads goes through :func:`reading`, so a failed
read is an IoFailure naming the file, and every file it writes through
:func:`_staged`, so a failed run never leaves a truncated file.
:func:`write_atomic` is its one-file case.  ``split``'s four files (its
records and, with an export directory, one caption file per split) are
staged together by :func:`write_captions` and replaced only after all
four are written, so a failed write leaves all four as they were.  That
does not cover a crash between two renames, which leaves some of the four
replaced; nothing is ``fsync``ed; a target that is not a regular file is
written in place as the run goes; and the ``--report`` of any subcommand
is still replaced on its own, after the other outputs.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TextIO

from .errors import DuplicateId, IoFailure, SchemaViolation

SPLITS = ("train", "val", "test")

CaptionRow = tuple[str, str, str | None]  # (image_id, caption, split)

# the C string encoder and C scanner behind json.dumps(ensure_ascii=False)
# and json.loads, called without their per-call Python layers
_ENCODE = json.encoder.encode_basestring
_SCAN = json.JSONDecoder().scan_once
_DECODE = json.JSONDecoder().decode
_LINE_ENDS = ("", "\n")


def _violation(path: str | Path, lineno: int, message: str) -> SchemaViolation:
    return SchemaViolation(f"{path}: line {lineno}: {message}")


def _echo(value: object) -> str:
    """``value`` for a message, bounded and without recursion: an array or
    object by its kind and size, a scalar as JSON cut to 60 characters."""
    if type(value) is list:
        return f"an array of {len(value)} items"
    if type(value) is dict:
        return f"an object of {len(value)} members"
    return json.dumps(value)[:60]


def _bad_key(row: dict, key: str, expected: str) -> str:
    if key not in row:
        return f"key {key!r} is missing"
    return f"key {key!r} must be {expected}, got {_echo(row[key])}"


@contextlib.contextmanager
def reading(path: str | Path, what: str = "",
            newline: str | None = None) -> Iterator[TextIO]:
    """Open ``path`` as UTF-8 text for the block, past a leading BOM.

    An OSError or UnicodeDecodeError raised opening or reading it there
    becomes ``IoFailure("cannot read <what> <path>: ...")``.
    """
    name = f"{what} {path}" if what else path
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise IoFailure(f"cannot read {name}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IoFailure(f"cannot read {name}: not UTF-8: {exc}") from exc


def read_json_object(path: str | Path, what: str) -> dict:
    """Read the JSON object in ``path``; SchemaViolation names the path.

    A key that repeats in one object must repeat its value too: a repeat
    with a different value is a SchemaViolation naming the path and key.
    """
    def unique(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            for key, value in pairs:
                if obj[key] != value:
                    raise SchemaViolation(
                        f"{path}: key {key!r} repeats with a different value")
        return obj

    with reading(path, what) as fh:
        text = fh.read()
    try:
        data = json.loads(text, object_pairs_hook=unique)
    except RecursionError:
        raise SchemaViolation(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # JSONDecodeError or the int digit limit
        raise SchemaViolation(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaViolation(f"{path}: top level must be an object")
    return data


def read_captions(path: str | Path) -> Iterator[CaptionRow]:
    """Yield each row of a caption file as ``(image_id, caption, split)``.

    Raises SchemaViolation naming the path, the line and the key of the
    first malformed line, DuplicateId naming the path and the line of the
    first repeated id, and IoFailure when the file cannot be read.
    """
    # the ids read so far, as dict keys: CPython over-allocates a growing
    # set's table more, so at 86,530 ids a set takes 4 MB and a dict 1.9 MB
    seen: dict[str, None] = {}
    with reading(path) as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                row, end = _SCAN(line, 0)
                whole = line[end:] in _LINE_ENDS
            except (StopIteration, ValueError, RecursionError):
                whole = False
            if not whole:
                # leading or trailing whitespace, trailing data, a blank
                # line, invalid JSON, too deep or too long a number for
                # json: json.loads' own path gives the row or the message
                try:
                    row = _DECODE(line)
                except json.JSONDecodeError as exc:
                    if not line.strip():
                        continue
                    raise _violation(path, lineno, f"not valid JSON: "
                                     f"{exc.msg} at column "
                                     f"{exc.pos + 1}") from None
                except RecursionError:
                    raise _violation(path, lineno,
                                     "JSON nested too deeply") from None
                except ValueError as exc:
                    raise _violation(path, lineno,
                                     f"not valid JSON: {exc}") from None
            if type(row) is not dict:
                raise _violation(path, lineno,
                                 f"expected a JSON object, got {_echo(row)}")
            image_id = row.get("image_id")
            if type(image_id) is not str:
                if type(image_id) is not int:  # bool is no image id
                    raise _violation(path, lineno, _bad_key(
                        row, "image_id", "a string or an integer"))
                image_id = str(image_id)
            caption = row.get("caption", "")
            if type(caption) is not str:
                raise _violation(path, lineno,
                                 _bad_key(row, "caption", "a string"))
            split = row.get("split")
            if split is not None and split not in SPLITS:
                raise _violation(path, lineno, _bad_key(
                    row, "split", "one of train, val, test"))
            if image_id in seen:
                raise DuplicateId(image_id, f"{path}: line {lineno}")
            seen[image_id] = None
            yield image_id, caption, split


def write_captions(path: str | Path, rows: Iterable[CaptionRow],
                   export_dir: str | Path | None = None) -> None:
    """Write ``(image_id, caption, split)`` rows, omitting an unset split.

    With ``export_dir``, each row whose split is set is also written
    without it to ``<export_dir>/<split>.jsonl``: each row is encoded once,
    and the four files are replaced together (see :func:`_staged`).
    """
    targets = [path]
    if export_dir is not None:
        targets += [os.path.join(export_dir, f"{split}.jsonl")
                    for split in SPLITS]
    with _staged(targets) as streams:
        write = streams[0].write
        exports = {split: fh.write for split, fh in zip(SPLITS, streams[1:])}
        for image_id, caption, split in rows:
            head = (f'{{"image_id": {_ENCODE(image_id)}, '
                    f'"caption": {_ENCODE(caption)}')
            if split is None:
                write(head + "}\n")
                continue
            # path takes the row first, so an unencodable row fails there
            write(f'{head}, "split": {_ENCODE(split)}}}\n')
            export = exports.get(split)
            if export is not None:
                export(head + "}\n")


def write_atomic(path: str | Path, chunks: Iterable[str]) -> None:
    """Stream ``chunks`` to ``path`` as UTF-8, replacing the file whole:
    the one-file case of :func:`_staged`.  Raises IoFailure when the text
    cannot be written or encoded."""
    with _staged([path]) as (fh,):
        fh.writelines(chunks)


@contextlib.contextmanager
def _staged(paths: list[str | Path]) -> Iterator[list[TextIO]]:
    """Open a UTF-8 text stream per path for the block; replace them together.

    Each regular target is written to a temporary file beside it; a
    symlink stays a symlink and the file it points to is replaced.  An
    existing target that is not a regular file, such as a FIFO or a
    terminal, is opened in place and written as the block runs.  After the
    block every stream is closed, each temporary file takes the mode of
    the file it replaces, and then each is renamed over its target.  On a
    failure before the first rename no target is replaced; on any failure
    every temporary file left is removed.  Nothing is ``fsync``ed, and a
    crash between two renames leaves some targets replaced.

    An OSError or UnicodeEncodeError becomes ``IoFailure("cannot write
    <path>: ...")`` naming the path being opened, closed or replaced, or
    the first path for an error raised in the block.
    """
    streams: list[TextIO] = []
    staged: list[tuple[str | Path, str, str, int | None]] = []
    renamed = 0
    path = paths[0]  # the target of the step under way, for the message
    try:
        try:
            for path in paths:
                try:
                    mode = os.stat(path).st_mode
                except OSError:
                    mode = None
                if mode is not None and not stat.S_ISREG(mode):
                    streams.append(open(path, "w", encoding="utf-8"))
                    continue
                target = os.path.realpath(path)
                directory, name = os.path.split(target)
                tmp = os.path.join(directory,
                                   f".{name}.{os.urandom(4).hex()}.tmp")
                streams.append(open(tmp, "x", encoding="utf-8"))
                staged.append((path, tmp, target, mode))
            path = paths[0]
            yield streams
            for path, fh in zip(paths, streams):
                fh.close()
            # every mode before any rename, so a failed chmod replaces nothing
            for path, tmp, _, mode in staged:
                if mode is not None:
                    os.chmod(tmp, stat.S_IMODE(mode))
            for path, tmp, target, _ in staged:
                os.replace(tmp, target)
                renamed += 1
        except BaseException:
            for fh in streams:
                with contextlib.suppress(OSError, UnicodeEncodeError):
                    fh.close()
            for _, tmp, _, _ in staged[renamed:]:
                with contextlib.suppress(OSError):
                    os.remove(tmp)
            raise
    except (OSError, UnicodeEncodeError) as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
