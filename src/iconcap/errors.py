"""Exception types shared across the package."""

from __future__ import annotations

from os import PathLike


class IconcapError(Exception):
    """Base class for all domain errors raised by this package."""


class MalformedNotation(IconcapError):
    """A string could not be parsed as an Iconclass notation.

    ``offset`` is the byte offset (UTF-8) of the first offending character.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class IoFailure(IconcapError):
    """A file could not be read or written."""


class SchemaViolation(IconcapError):
    """An input file violated its declared schema; the message names the key."""


class InsufficientRecords(IconcapError):
    """Fewer records than the requested validation + test carve-out."""


class EmptyCorpus(IconcapError):
    """A corpus-level metric was asked to score zero pairs."""


class MissingReference(IconcapError):
    """A candidate image id has no reference caption.

    ``candidates`` and ``references`` name the two files, when known.
    """

    def __init__(self, image_id: str,
                 candidates: str | PathLike[str] | None = None,
                 references: str | PathLike[str] | None = None):
        message = f"no reference caption for image id {image_id!r}"
        if candidates is not None and references is not None:
            message = f"{candidates}: {message} in {references}"
        super().__init__(message)
        self.image_id = image_id


class DuplicateId(IconcapError):
    """An image id occurred more than once in a JSONL file.

    ``where`` names the file and line of the repeat, when known.
    """

    def __init__(self, image_id: str, where: str | None = None):
        message = f"duplicate image id {image_id!r}"
        super().__init__(f"{where}: {message}" if where else message)
        self.image_id = image_id


class EmptyInput(IconcapError):
    """An analysis operation received no usable records."""
