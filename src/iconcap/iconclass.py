"""Iconclass notation parsing, hierarchy navigation, and correlate lookup.

An Iconclass notation is a digit-led alphanumeric path such as ``25G4``,
optionally followed by parenthesized groups: free-text qualifiers like
``(ROSE)`` and ``(+...)`` keys like ``(+1)``.  The grammar accepted here is

    notation := digits (letters | digits)* group*
    group    := "(" [^()]* ")"

where a digit is any ``str.isdigit`` character (``7``, ``٣``, ``７``, ``²``)
and a letter is ASCII ``A``-``Z`` only.  Nested parentheses are rejected.
Any ``str.isspace`` character outside groups is ignored, so runs of one kind
separated only by whitespace merge (``7 3A`` is ``73A``).  A group whose
content starts with ``+`` is a key (the ``+`` is stripped); any other group
is a qualifier.

Correlates are looked up, and the hierarchy is walked, on canonical text
(``serialize()``): a parent drops the last group, else one base character.
"""

from __future__ import annotations

import gc
import re
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from .errors import MalformedNotation, SchemaViolation
from .jsonl import read_json_object, reading


@dataclass(frozen=True)
class IconclassNotation:
    """A parsed notation: base segments, qualifiers and keys."""

    base: tuple[str, ...]
    qualifiers: tuple[str, ...]
    keys: tuple[str, ...]

    def serialize(self) -> str:
        """Canonical text form: base, then qualifiers, then keys."""
        parts = ["".join(self.base)]
        parts += [f"({q})" for q in self.qualifiers]
        parts += [f"(+{k})" for k in self.keys]
        return "".join(parts)


def _malformed(text: str, index: int, message: str) -> MalformedNotation:
    """The error for ``text`` at character ``index``, as a UTF-8 offset."""
    offset = len(text[:index].encode("utf-8", "surrogatepass"))
    return MalformedNotation(message, offset)


# group, closed or cut short | digits | letters | other; finditer skips spaces
_TOKEN = re.compile(r"\(([^()]*)(\))?|([0-9]+)|([A-Z]+)|(\S)")


def parse_notation(raw: str) -> IconclassNotation:
    """Parse ``raw`` into a structured notation.

    Raises MalformedNotation for empty input, a leading non-digit,
    unbalanced or nested parentheses, or any character outside the grammar.
    The error carries the byte offset of the first offending character in
    the original string.
    """
    segments: list[str] = []
    qualifiers: list[str] = []
    keys: list[str] = []
    for m in _TOKEN.finditer(raw):
        content, closed, digits, letters, other = m.groups()
        at = m.start()
        if other is not None and other.isdigit():
            digits, other = other, None
        if not segments and digits is None:
            raise _malformed(
                raw, at, f"notation must start with a digit, got {raw[at]!r}"
            )
        if other is not None:
            raise _malformed(raw, at, f"unexpected character {other!r}")
        if content is None:
            if qualifiers or keys:
                raise _malformed(raw, at, "base character after a group")
            run = digits or letters
            # whitespace outside groups is stripped, so a run separated
            # from its predecessor only by spaces continues that segment
            if segments and segments[-1][0].isdigit() == run[0].isdigit():
                segments[-1] += run
            else:
                segments.append(run)
        elif closed is None:
            if m.end() == len(raw):
                raise _malformed(raw, at, "unterminated group")
            raise _malformed(raw, m.end(), "nested parenthesis")
        elif content.startswith("++"):
            raise _malformed(raw, at + 2, "key content begins with '+'")
        elif content.startswith("+"):
            keys.append(content[1:])
        else:
            qualifiers.append(content)
    if not segments:
        raise MalformedNotation("empty notation", 0)
    return IconclassNotation(tuple(segments), tuple(qualifiers), tuple(keys))


def parent(n: IconclassNotation) -> IconclassNotation | None:
    """One step up the hierarchy; None at the root (see ``_parent_key``)."""
    key = _parent_key(n.serialize())
    return None if key is None else parse_notation(key)


def ancestors(n: IconclassNotation) -> Iterator[IconclassNotation]:
    """Yield successive parents up to (and including) the root."""
    node = parent(n)
    while node is not None:
        yield node
        node = parent(node)


@dataclass(frozen=True)
class CorrelateStore:
    """Immutable map from canonical notation text to its English correlate."""

    entries: dict[str, str]

    def lookup(self, notation: str) -> str | None:
        return self.entries.get(notation)

    @classmethod
    def from_pairs(cls, pairs: dict[str, str]) -> CorrelateStore:
        """Map each key's canonical form to its text; empty texts skipped.

        Raises SchemaViolation naming the key when two keys canonicalize to
        one notation with different texts.
        """
        entries: dict[str, str] = {}
        for key, text in pairs.items():
            if text:
                _add_entry(entries, key, text, "")
        return cls(entries)

    @classmethod
    def from_tsv(cls, path: str | Path) -> CorrelateStore:
        """Load ``notation<TAB>text`` lines; ``#`` lines and blanks skipped.

        Raises SchemaViolation naming the file and the line of a line
        without a tab, or of a key whose notation an earlier line gave a
        different text.
        """
        entries: dict[str, str] = {}
        with reading(path, "correlate table") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line.strip() or line.startswith("#"):
                    continue
                if "\t" not in line:
                    raise SchemaViolation(
                        f"{path}: line {lineno} has no tab separator"
                    )
                key, text = line.split("\t", 1)
                if text:
                    _add_entry(entries, key, text, f"{path}: line {lineno}: ")
        return cls(entries)

    @classmethod
    def from_json(cls, path: str | Path) -> CorrelateStore:
        """Load a JSON object mapping notation to correlate text."""
        data = read_json_object(path, "correlate table")
        for key, text in data.items():
            if not isinstance(text, str):
                raise SchemaViolation(
                    f"{path}: correlate for {key!r} is not a string"
                )
        try:
            return cls.from_pairs(data)
        except SchemaViolation as exc:
            raise SchemaViolation(f"{path}: {exc}") from None


def _add_entry(entries: dict[str, str], key: str, text: str,
               where: str) -> None:
    canonical = _canonical(key)
    earlier = entries.setdefault(canonical, text)
    if earlier != text:
        raise SchemaViolation(
            f"{where}correlate {text!r} for {key!r} conflicts with "
            f"{earlier!r}, given earlier for {canonical!r}"
        )


# text that fullmatches this is a notation's own serialization: an ASCII
# base, then qualifiers, then keys whose content does not start with "+"
_CANONICAL = re.compile(
    r"[0-9][0-9A-Z]*(?:\((?!\+)[^()]*\))*(?:\(\+(?!\+)[^()]*\))*"
)


def _key(code: str) -> str | None:
    """The canonical text of ``code``; None when it does not parse."""
    if _CANONICAL.fullmatch(code):
        return code
    try:
        return parse_notation(code).serialize()
    except MalformedNotation:
        return None


def _canonical(key: str) -> str:
    """Canonical form of a store key; unparseable keys kept verbatim."""
    return _key(key) or key.strip()


def _parent_key(key: str) -> str | None:
    """The canonical text one step up the hierarchy; None at the root.

    Keys follow qualifiers, so dropping the last group strips keys first,
    then qualifiers; after them the base loses one character at a time.
    """
    if key.endswith(")"):
        return key[:key.rindex("(")]
    return key[:-1] or None


def correlate(
    n: IconclassNotation,
    store: CorrelateStore,
    parent_fallback: bool = False,
) -> str | None:
    """``n``'s correlate, as ``resolve_code`` finds it; absence is a value."""
    return resolve_code(n.serialize(), store, parent_fallback)


def resolve_code(
    code: str, store: CorrelateStore, parent_fallback: bool
) -> str | None:
    """The code's correlate; None when it is malformed or misses the store.

    The code, then with ``parent_fallback`` each ancestor, is looked up by
    canonical text only: store keys that do not parse are kept verbatim, so
    looking up a code as written would resolve a malformed ``7(++1)``.
    """
    key = _key(code)
    while key is not None:
        text = store.lookup(key)
        if text is not None or not parent_fallback:
            return text
        key = _parent_key(key)
    return None


@dataclass(frozen=True, slots=True)
class AnnotationRecord:
    """One image and its notation codes, in source order."""

    image_id: str
    codes: tuple[str, ...]


class collector_paused:
    """Pause the cyclic garbage collector over a ``with`` body.

    For code that builds many long-lived objects and no cycles: the
    collector would walk them again and again and free none of them.  On
    leaving, also by an exception, it is re-enabled only if it was enabled
    on entry.  The pause is process-wide: other threads see the collector
    disabled meanwhile.
    """

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        # nothing is allocated after this, so the collection owed for the
        # body runs at the caller's next allocation, once the caller has
        # dropped what it does not keep
        if self._was_enabled:
            gc.enable()


def load_annotations(path: str | Path) -> list[AnnotationRecord]:
    """Read the annotation JSON: an object of image filename -> code array.

    Records with empty code arrays are retained (the caption builder drops
    them later).  Raises SchemaViolation naming the offending key when a
    value is not an array of strings.

    The load runs under ``collector_paused``, a process-wide pause, as it
    builds one long-lived record per image and no cycles; the collector is
    restored also when the load fails.
    """
    with collector_paused():
        data = read_json_object(path, "annotations")
        records = []
        for image_id, codes in data.items():
            if not isinstance(codes, list):
                raise SchemaViolation(
                    f"{path}: value for {image_id!r} is not an array"
                )
            for code in codes:
                if not isinstance(code, str):
                    raise SchemaViolation(
                        f"{path}: non-string code under {image_id!r}"
                    )
            records.append(AnnotationRecord(image_id, tuple(codes)))
        return records
