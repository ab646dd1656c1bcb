"""Caption construction: correlate concatenation, cleaning, splits, export.

Raw descriptions are the per-image correlates joined with ", " in code
order.  Cleaning removes parenthesized groups, configured uppercase marker
runs, ", etc." occurrences and duplicate comma segments, then normalizes
spacing and the terminal period.  One cleaning pass runs; the pass is
repeated to a fixed point only when its output still holds a trigger that
a second pass could act on (see :func:`clean_description`).  The build
runs the pass's first four steps once per distinct correlate and joins
the resulting pieces, which gives what those steps give on the joined raw
description whenever every piece is closed (see :func:`_strip_piece`); a
raw description with an open piece is cleaned whole.  Either way a
caption equals ``clean_description`` of its raw description.  Splits are a
seeded deterministic permutation of the image ids, and every split
record is returned and written in id order.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass
from functools import cached_property
from operator import attrgetter
from pathlib import Path

from .errors import DuplicateId, InsufficientRecords
from .iconclass import AnnotationRecord, CorrelateStore, resolve_code
from .jsonl import CaptionRow, read_captions, staged, write_captions


@dataclass(slots=True)
class CaptionRecord:
    image_id: str
    raw_description: str
    clean_description: str
    split: str | None = None


@dataclass(frozen=True)
class SplitConfig:
    seed: int
    n_val: int
    n_test: int

    def __post_init__(self):
        if self.n_val < 0 or self.n_test < 0:
            raise ValueError(
                f"n_val and n_test must be non-negative, got {self.n_val} "
                f"and {self.n_test}"
            )


@dataclass(frozen=True)
class CleaningConfig:
    """Knobs for the cleaning pass.

    ``uppercase_stoplist`` entries are the dataset-specific uppercase
    markers deleted when they appear as " - X - " delimited runs.
    """

    uppercase_stoplist: tuple[str, ...] = ("BB",)
    drop_etc: bool = True
    dedup: bool = True

    def __post_init__(self):
        for entry in self.uppercase_stoplist:
            if not (1 <= len(entry) <= 4 and entry.isalpha() and entry.isupper()):
                raise ValueError(
                    f"stoplist entry {entry!r} must be 1-4 uppercase letters"
                )

    @cached_property
    def _stoplist_res(self) -> tuple[re.Pattern, ...]:
        """One pattern per stoplist entry, compiled once per config."""
        return tuple(
            re.compile(r"\s*-\s*" + re.escape(token) + r"\s*-\s*")
            for token in self.uppercase_stoplist
        )


@dataclass
class BuildReport:
    """Outcome counts of a dataset build."""

    input: int = 0
    kept: int = 0
    dropped_empty: int = 0
    unresolved_codes: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


_GROUP_RE = re.compile(r"\([^()]*\)")
_SPACE_RUN_RE = re.compile(r"  +")
_PERIOD_SEGMENT_RE = re.compile(r"\.\s*,")


def _strip_piece(raw: str, cfg: CleaningConfig) -> tuple[str, bool]:
    """Steps 1-4 of the pass, and whether ``raw`` is a closed piece.

    These steps commute with ", "-joining closed pieces: stripping the
    join of closed pieces gives the join of their strips.  A piece is
    closed when its groups leave no parenthesis behind (so none pairs
    with one across a separator), it starts with neither whitespace nor
    "-" (so no stoplist run takes in the separator), it does not start
    with "etc." after the stoplist step (so the separator does not open a
    ", etc."), and it does not start with whitespace after the ", etc."
    step (so the separator's space starts no space run).
    """
    s = raw
    # 1. parenthesized groups go first, innermost outward; stray parens too
    prev = None
    while prev != s:
        prev = s
        s = _GROUP_RE.sub("", s)
    closed = not ("(" in s or ")" in s or s[:1].isspace() or s[:1] == "-")
    s = s.replace("(", "").replace(")", "")
    # 2. uppercase marker runs; the surrounding " - " delimiters collapse
    # into the ", " list separator (see the golden pairs)
    for stoplist_re in cfg._stoplist_res:
        s = stoplist_re.sub(", ", s)
    # 3. literal ", etc." occurrences
    if cfg.drop_etc:
        closed = closed and not s.startswith("etc.")
        s = s.replace(", etc.", "")
        closed = closed and not s[:1].isspace()
    # 4. collapse space runs
    return _SPACE_RUN_RE.sub(" ", s), closed


def _finish_pass(s: str, cfg: CleaningConfig) -> str:
    """Steps 5-6 of the pass, on the output of steps 1-4."""
    # 5. drop comma segments whose trimmed text already occurred
    if cfg.dedup:
        seen: set[str] = set()
        kept = []
        for segment in s.split(","):
            trimmed = segment.strip()
            if trimmed in seen:
                continue
            seen.add(trimmed)
            kept.append(segment)
        s = ",".join(kept)
    # 6. terminal separators and period
    s = s.rstrip(" ,")
    if not s:
        return ""
    if not s.endswith("."):
        s += "."
    return s


def _clean_pass(raw: str, cfg: CleaningConfig) -> str:
    return _finish_pass(_strip_piece(raw, cfg)[0], cfg)


def _may_change(s: str, cfg: CleaningConfig) -> bool:
    """Whether another pass could change ``s``, the output of one pass.

    A pass leaves no parentheses and no space run, and ends on a period,
    so a second pass acts only on what the first one's deletions or its
    appended period uncovered: a ", etc.", a stoplist run, or (with dedup)
    a segment ending in a period that the new last segment may repeat.
    """
    if cfg.drop_etc and ", etc." in s:
        return True
    for token, stoplist_re in zip(cfg.uppercase_stoplist, cfg._stoplist_res):
        if token in s and stoplist_re.search(s):
            return True
    return cfg.dedup and _PERIOD_SEGMENT_RE.search(s) is not None


def clean_description(raw: str, cfg: CleaningConfig | None = None) -> str:
    """Apply the cleaning pass to a fixed point.

    One pass runs.  Its output is passed again, up to 16 passes in all,
    only when it still holds a trigger a second pass could act on:
    ", etc." when ``drop_etc`` is set (``a, etc`` becomes ``a, etc.``); a
    match of a stoplist pattern (deleting ", etc." from ``a -, etc. BB -
    c`` leaves ``a - BB - c``); or, when ``dedup`` is set, a segment ending
    in a period (``x., x`` becomes ``x., x.``).  Space runs need no check:
    the pass collapses them after the last step that could make one, and
    no later step puts two spaces side by side.  Without a trigger a second
    pass returns its input, so cleaning is idempotent on a text that settles
    within the 16 passes; ``"a" + ", etc" * 20`` with ``dedup`` off does
    not, and its result cleans again to ``a.``.  Empty output is legal.
    """
    cfg = cfg or CleaningConfig()
    return _settle(_clean_pass(raw, cfg), cfg)


def _settle(s: str, cfg: CleaningConfig) -> str:
    """The fixed point from ``s``, the output of a first pass."""
    if not _may_change(s, cfg):
        return s
    for _ in range(15):
        nxt = _clean_pass(s, cfg)
        if nxt == s:
            return s
        s = nxt
    return s


def build_dataset(
    annotations: list[AnnotationRecord],
    store: CorrelateStore,
    cfg: CleaningConfig | None = None,
    parent_fallback: bool = False,
    jobs: int = 1,
) -> tuple[list[CaptionRecord], BuildReport]:
    """One CaptionRecord (split unset) per annotation with a non-empty clean.

    The captions and the report come from :func:`caption_stream`.  The raw
    description joins the codes' correlates with ", " in code order, and
    records with one tuple of correlates share one string for it.
    ``jobs`` is accepted and ignored (the build is serial).
    """
    report = BuildReport()
    raws: dict[tuple[str, ...], str] = {}
    records = []
    for image_id, texts, clean in caption_stream(
            map(_ID_AND_CODES, annotations), store, cfg or CleaningConfig(),
            parent_fallback, report):
        if clean:
            raw = raws.get(texts)
            if raw is None:
                raw = raws[texts] = ", ".join(texts)
            records.append(CaptionRecord(image_id, raw, clean))
    return records, report


_ID_AND_CODES = attrgetter("image_id", "codes")


def caption_stream(
    pairs: Iterable[tuple[str, Sequence[str]]],
    store: CorrelateStore,
    cfg: CleaningConfig,
    parent_fallback: bool,
    report: BuildReport,
) -> Iterator[tuple[str, tuple[str, ...], str]]:
    """``(image_id, texts, caption)`` for each ``(image_id, codes)`` pair.

    ``texts`` are the codes' correlates in code order; a code that is
    malformed or misses the store (and, with ``parent_fallback``, its
    parent chain) is skipped and counted in ``report``.  The caption is
    ``clean_description`` of the texts joined with ", ", and ``""`` when
    no code resolves; ``report`` counts such images as dropped, and every
    other as kept.  Each distinct code is resolved once, and each distinct
    correlate goes through steps 1-4 of the cleaning pass once.  Each
    distinct tuple of texts is cleaned once: when all its correlates'
    pieces are closed, by joining the pieces and running steps 5-6 and the
    fixed-point re-runs; otherwise by ``clean_description`` on the joined
    texts.  Images with one tuple of texts share one caption string.
    """
    resolved: dict[str, str | None] = {}
    # correlate -> its steps 1-4 piece, None when the piece is open
    pieces: dict[str, str | None] = {}
    # tuple of correlates -> its caption; an image with none is dropped
    cleaned: dict[tuple[str, ...], str] = {(): ""}
    for image_id, codes in pairs:
        texts = []
        for code in codes:
            if code not in resolved:
                text = resolve_code(code, store, parent_fallback)
                if text is not None and text not in pieces:
                    piece, closed = _strip_piece(text, cfg)
                    pieces[text] = piece if closed else None
                resolved[code] = text
            text = resolved[code]
            if text is None:
                report.unresolved_codes += 1
            else:
                texts.append(text)
        key = tuple(texts)
        clean = cleaned.get(key)
        if clean is None:
            stripped = [pieces[text] for text in key]
            if None in stripped:
                clean = clean_description(", ".join(key), cfg)
            else:
                clean = _settle(_finish_pass(", ".join(stripped), cfg), cfg)
            cleaned[key] = clean
        report.input += 1
        if clean:
            report.kept += 1
        else:
            report.dropped_empty += 1
        yield image_id, key, clean


_BY_ID = attrgetter("image_id")


def assign_splits(
    records: list[CaptionRecord], cfg: SplitConfig
) -> list[CaptionRecord]:
    """Assign train/val/test by a seeded deterministic permutation.

    The ids are ranked by the SHA-256 digest of ``"<seed>:<image_id>"``
    (ties broken by id), each id hashed once, so the assignment depends
    only on the id set and the seed, never on input order.  The first
    ``n_test`` ids become test, the next ``n_val`` val, the rest train.
    Returns new records in image id order; the input is left unchanged.
    Raises DuplicateId naming the first repeated id in id order.
    """
    if cfg.n_val + cfg.n_test > len(records):
        raise InsufficientRecords(
            f"need at least {cfg.n_val + cfg.n_test} records for the "
            f"requested val/test carve-out, have {len(records)}"
        )
    ordered = sorted(records, key=_BY_ID)
    ids = list(map(_BY_ID, ordered))
    for a, b in zip(ids, ids[1:]):  # equal ids sort adjacent
        if a == b:
            raise DuplicateId(a)
    # hashlib loads libcrypto, about 3.6 MB, so no other stage imports it
    from hashlib import sha256

    def shuffle_key(image_id: str) -> bytes:
        # an id with a lone surrogate still sorts; writing it then fails
        # cleanly
        key = f"{cfg.seed}:{image_id}".encode("utf-8", "surrogatepass")
        return sha256(key).digest()

    # a stable sort of ids in id order breaks digest ties by id
    ranked = sorted(ids, key=shuffle_key)
    split_of = dict.fromkeys(ranked[:cfg.n_test], "test")
    split_of.update(dict.fromkeys(
        ranked[cfg.n_test:cfg.n_test + cfg.n_val], "val"))
    return [
        CaptionRecord(r.image_id, r.raw_description, r.clean_description,
                      split_of.get(r.image_id, "train"))
        for r in ordered
    ]


def export_jsonl(
    records: list[CaptionRecord],
    path: str | Path,
    split_filter: str | None = None,
) -> int:
    """Write ``{"image_id", "caption"}`` lines sorted by id; returns count."""
    selected = [
        r for r in records if split_filter is None or r.split == split_filter
    ]
    selected.sort(key=_BY_ID)
    with staged([path]) as (fh,):
        write_captions(
            fh, ((r.image_id, r.clean_description, None) for r in selected))
    return len(selected)


def caption_rows(records: list[CaptionRecord]) -> Iterator[CaptionRow]:
    """The rows of a records file: each record, split kept, in id order."""
    return ((r.image_id, r.clean_description, r.split)
            for r in sorted(records, key=_BY_ID))


def write_records_jsonl(records: list[CaptionRecord], path: str | Path) -> int:
    """Write full records (with split when set) sorted by id; returns count."""
    with staged([path]) as (fh,):
        write_captions(fh, caption_rows(records))
    return len(records)


def read_records_jsonl(path: str | Path) -> list[CaptionRecord]:
    """Read caption records (``image_id``/``caption``, optional ``split``).

    Raises DuplicateId naming the file and the line of a repeated id.
    """
    return [CaptionRecord(image_id, "", caption, split)
            for image_id, caption, split in read_captions(path)]
