"""The caption JSONL format: one validated reader and one writer, and the
staging that replaces a run's outputs together.

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
read is an IoFailure naming the file.  Every file it writes goes through
:func:`staged`, which writes each of a set of outputs to a temporary file
beside it and renames them into place only after all are written.  The
command line stages all of a run's outputs, its report included, as one
set and writes stdout and stderr inside the stage too, so a failed run
leaves every output as it was and no temporary file behind, and nothing
is written after a rename.  :func:`write_captions` writes caption rows to
open streams.  Not
covered: a crash between two renames leaves some outputs replaced;
nothing is ``fsync``ed; a target that is not a regular file is written in
place as the run goes.
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
    """Read the JSON object in ``path``, as :func:`decode_json_object`."""
    with reading(path, what) as fh:
        text = fh.read()
    return decode_json_object(path, text)


def decode_json_object(path: str | Path, text: str) -> dict:
    """Decode ``text``, read from ``path``, as a JSON object;
    SchemaViolation names the path.

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


def write_captions(out: TextIO, rows: Iterable[CaptionRow],
                   exports: dict[str, TextIO] | None = None) -> None:
    """Write ``(image_id, caption, split)`` rows to ``out``, omitting an
    unset split; a row whose split is a key of ``exports`` is also written
    without it to that stream, from the same encoding.  An OSError writing
    an export carries that stream as its ``stream``, so ``staged`` names
    the export's path."""
    write = out.write
    exports = {split: fh.write for split, fh in (exports or {}).items()}
    for image_id, caption, split in rows:
        head = (f'{{"image_id": {_ENCODE(image_id)}, '
                f'"caption": {_ENCODE(caption)}')
        if split is None:
            write(head + "}\n")
            continue
        # out takes the row first, so an unencodable row fails there
        write(f'{head}, "split": {_ENCODE(split)}}}\n')
        export = exports.get(split)
        if export is not None:
            try:
                export(head + "}\n")
            except OSError as exc:  # for staged to name this export's path
                exc.stream = export.__self__
                raise


@contextlib.contextmanager
def staged(paths: list[str | Path]) -> Iterator[list[TextIO]]:
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
    <path>: <reason>")`` naming the path being opened, closed or replaced;
    for an error raised in the block, the path of the stream given as the
    error's ``stream`` (see :func:`write_captions`), else the first path.
    With no path, an error raised in the block passes as it is.  The
    reason is the OSError's ``strerror``, which names no file (an
    OSError's full text names the temporary file, a random name), or else
    the error's text.
    """
    streams: list[TextIO] = []
    temps: list[tuple[str | Path, str, str, int | None]] = []
    renamed = 0
    path = paths[0] if paths else None  # the step's target, for messages
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
                temps.append((path, tmp, target, mode))
            path = paths[0] if paths else None
            yield streams
            for path, fh in zip(paths, streams):
                fh.close()
            # every mode before any rename, so a failed chmod replaces nothing
            for path, tmp, _, mode in temps:
                if mode is not None:
                    os.chmod(tmp, stat.S_IMODE(mode))
            for path, tmp, target, _ in temps:
                os.replace(tmp, target)
                renamed += 1
        except BaseException:
            for fh in streams:
                with contextlib.suppress(OSError, UnicodeEncodeError):
                    fh.close()
            for _, tmp, _, _ in temps[renamed:]:
                with contextlib.suppress(OSError):
                    os.remove(tmp)
            raise
    except (OSError, UnicodeEncodeError) as exc:
        if path is None:
            raise
        stream = getattr(exc, "stream", None)
        if stream in streams:
            path = paths[streams.index(stream)]
        reason = getattr(exc, "strerror", None) or exc
        raise IoFailure(f"cannot write {path}: {reason}") from exc
