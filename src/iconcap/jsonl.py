"""The caption JSONL format: one validated reader and one atomic writer.

A caption file holds one JSON object per line, blank lines skipped:

- ``image_id``: a string, or an integer (COCO-style result files), which
  is read as its decimal string;
- ``caption``: a string, ``""`` when absent;
- ``split``: ``"train"``, ``"val"`` or ``"test"``, absent until assigned.

Every file the package writes, JSONL or not, goes through
:func:`write_atomic`, so a failed run never leaves a truncated file.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
from collections.abc import Iterable, Iterator
from pathlib import Path

from .errors import IoFailure, SchemaViolation

SPLITS = ("train", "val", "test")

CaptionRow = tuple[str, str, str | None]  # (image_id, caption, split)
NumberedRow = tuple[int, str, str, str | None]  # (line, *CaptionRow)

_ENCODER = json.JSONEncoder(ensure_ascii=False)
_DECODE = json.JSONDecoder().decode  # json.loads without its per-call checks


def _violation(path: str | Path, lineno: int, message: str) -> SchemaViolation:
    return SchemaViolation(f"{path}: line {lineno}: {message}")


def _bad_key(row: dict, key: str, expected: str) -> str:
    if key not in row:
        return f"key {key!r} is missing"
    return f"key {key!r} must be {expected}, got {json.dumps(row[key])}"


def read_captions(path: str | Path) -> Iterator[NumberedRow]:
    """Yield each row of a caption file as ``(line, image_id, caption, split)``.

    ``line`` is the row's 1-based line number, for messages about it.
    Raises SchemaViolation naming the path, the line and the key of the
    first malformed line, and IoFailure when the file cannot be read.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                try:
                    row = _DECODE(line)
                except json.JSONDecodeError as exc:
                    if not line.strip():
                        continue
                    raise _violation(path, lineno, f"not valid JSON: "
                                     f"{exc.msg} at column {exc.pos + 1}") \
                        from None
                if type(row) is not dict:
                    raise _violation(path, lineno, "expected a JSON object, "
                                                   f"got {json.dumps(row)}")
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
                yield lineno, image_id, caption, split
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IoFailure(f"cannot read {path}: not UTF-8: {exc}") from exc


def write_captions(path: str | Path, rows: Iterable[CaptionRow]) -> None:
    """Write ``(image_id, caption, split)`` rows, omitting an unset split."""
    def lines() -> Iterator[str]:
        for image_id, caption, split in rows:
            row = {"image_id": image_id, "caption": caption}
            if split is not None:
                row["split"] = split
            yield _ENCODER.encode(row) + "\n"

    write_atomic(path, lines())


def write_atomic(path: str | Path, chunks: Iterable[str]) -> None:
    """Stream ``chunks`` to ``path`` as UTF-8, replacing the file whole.

    The text goes to a temporary file beside the target, which then
    replaces it; on any failure the temporary file is removed and the old
    file is left as it was.  A symlink stays a symlink and the file it
    points to is replaced.  An existing target that is not a regular file,
    such as a FIFO or a terminal, is written in place.  Raises IoFailure
    when the text cannot be written or encoded.
    """
    try:
        mode = os.stat(path).st_mode
    except OSError:
        mode = None
    try:
        if mode is not None and not stat.S_ISREG(mode):
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
            return
        target = os.path.realpath(path)
        directory, name = os.path.split(target)
        tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            with open(tmp, "x", encoding="utf-8") as fh:
                fh.writelines(chunks)
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
    except (OSError, UnicodeEncodeError) as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
