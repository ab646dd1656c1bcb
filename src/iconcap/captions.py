"""Caption construction: correlate concatenation, cleaning, splits, export.

Raw descriptions are the per-image correlates joined with ", " in code
order.  Cleaning removes parenthesized groups, configured uppercase marker
runs, ", etc." occurrences and duplicate comma segments, then normalizes
spacing and the terminal period.  Splits are a seeded deterministic
permutation over sorted image ids.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DuplicateId, InsufficientRecords, NoResolvableCodes
from .iconclass import (
    AnnotationRecord,
    CorrelateStore,
    MalformedNotation,
    correlate,
    parse_notation,
)
from .jsonl import read_captions, write_captions


@dataclass
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


@dataclass(frozen=True)
class CleaningConfig:
    """Knobs for the cleaning pass.

    ``uppercase_stoplist`` entries are the dataset-specific uppercase
    markers deleted when they appear as " - X - " delimited runs.
    """

    uppercase_stoplist: tuple[str, ...] = ("BB",)
    drop_etc: bool = True
    dedup: bool = True
    _stoplist_res: tuple[re.Pattern, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        for entry in self.uppercase_stoplist:
            if not (1 <= len(entry) <= 4 and entry.isalpha() and entry.isupper()):
                raise ValueError(
                    f"stoplist entry {entry!r} must be 1-4 uppercase letters"
                )
        # compiled once per config, not once per cleaned string
        object.__setattr__(self, "_stoplist_res", tuple(
            re.compile(r"\s*-\s*" + re.escape(token) + r"\s*-\s*")
            for token in self.uppercase_stoplist
        ))


@dataclass
class BuildReport:
    """Outcome counts of a dataset build."""

    input: int = 0
    kept: int = 0
    dropped_empty: int = 0
    unresolved_codes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "input": self.input,
            "kept": self.kept,
            "dropped_empty": self.dropped_empty,
            "unresolved_codes": self.unresolved_codes,
        }


def _resolve_code(
    code: str, store: CorrelateStore, parent_fallback: bool
) -> str | None:
    """The code's correlate; None when it is malformed or misses the store."""
    try:
        notation = parse_notation(code)
    except MalformedNotation:
        return None
    return correlate(notation, store, parent_fallback=parent_fallback)


def build_raw(
    record: AnnotationRecord,
    store: CorrelateStore,
    parent_fallback: bool = False,
) -> str:
    """Join the record's correlates with ", " in code order, uncleaned.

    Codes that miss the store are skipped (or resolved through the parent
    chain when ``parent_fallback`` is set).  Raises NoResolvableCodes when
    nothing resolves.
    """
    found = (_resolve_code(code, store, parent_fallback) for code in record.codes)
    texts = [text for text in found if text is not None]
    if not texts:
        raise NoResolvableCodes(
            f"no code of {record.image_id!r} resolves to a correlate"
        )
    return ", ".join(texts)


_GROUP_RE = re.compile(r"\([^()]*\)")
_SPACE_RUN_RE = re.compile(r"  +")


def _clean_pass(raw: str, cfg: CleaningConfig) -> str:
    s = raw
    # 1. parenthesized groups go first, innermost outward; stray parens too
    prev = None
    while prev != s:
        prev = s
        s = _GROUP_RE.sub("", s)
    s = s.replace("(", "").replace(")", "")
    # 2. uppercase marker runs; the surrounding " - " delimiters collapse
    # into the ", " list separator (see the golden pairs)
    for stoplist_re in cfg._stoplist_res:
        s = stoplist_re.sub(", ", s)
    # 3. literal ", etc." occurrences
    if cfg.drop_etc:
        s = s.replace(", etc.", "")
    # 4. collapse space runs
    s = _SPACE_RUN_RE.sub(" ", s)
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


def clean_description(raw: str, cfg: CleaningConfig | None = None) -> str:
    """Apply the cleaning pass to a fixed point.

    Iterating guarantees idempotence: a ", etc." uncovered by appending the
    terminal period is removed on the next pass.  Empty output is legal.
    """
    cfg = cfg or CleaningConfig()
    s = raw
    for _ in range(16):
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

    Annotations whose codes all miss the store, or whose cleaned text is
    empty, are dropped and counted in the report.  Distinct codes and raw
    descriptions are resolved and cleaned once; ``jobs`` is accepted and
    ignored (the build is serial).
    """
    cfg = cfg or CleaningConfig()
    report = BuildReport(input=len(annotations))
    resolved: dict[str, str | None] = {}
    cleaned: dict[str, str] = {}
    records: list[CaptionRecord] = []
    for record in annotations:
        texts: list[str] = []
        for code in record.codes:
            if code not in resolved:
                resolved[code] = _resolve_code(code, store, parent_fallback)
            text = resolved[code]
            if text is None:
                report.unresolved_codes += 1
            else:
                texts.append(text)
        if not texts:
            report.dropped_empty += 1
            continue
        raw = ", ".join(texts)
        if raw not in cleaned:
            cleaned[raw] = clean_description(raw, cfg)
        if not cleaned[raw]:
            report.dropped_empty += 1
            continue
        records.append(CaptionRecord(record.image_id, raw, cleaned[raw]))
    report.kept = len(records)
    return records, report


def _shuffle_key(seed: int, image_id: str) -> str:
    return hashlib.sha256(f"{seed}:{image_id}".encode("utf-8")).hexdigest()


def assign_splits(
    records: list[CaptionRecord], cfg: SplitConfig
) -> list[CaptionRecord]:
    """Assign train/val/test by a seeded deterministic permutation.

    Records are sorted by image id and permuted by the SHA-256 digest of
    ``"<seed>:<image_id>"`` (ties broken by id), so the assignment depends
    only on the id set and the seed, never on input order.  The first
    ``n_test`` records become test, the next ``n_val`` val, the rest train.
    Raises DuplicateId when an image id occurs twice.
    """
    if cfg.n_val + cfg.n_test > len(records):
        raise InsufficientRecords(
            f"need at least {cfg.n_val + cfg.n_test} records for the "
            f"requested val/test carve-out, have {len(records)}"
        )
    permuted = sorted(
        records, key=lambda r: (_shuffle_key(cfg.seed, r.image_id), r.image_id)
    )
    for a, b in zip(permuted, permuted[1:]):  # equal ids sort adjacent
        if a.image_id == b.image_id:
            raise DuplicateId(a.image_id)
    out = []
    for idx, record in enumerate(permuted):
        if idx < cfg.n_test:
            split = "test"
        elif idx < cfg.n_test + cfg.n_val:
            split = "val"
        else:
            split = "train"
        out.append(
            CaptionRecord(
                record.image_id, record.raw_description,
                record.clean_description, split,
            )
        )
    return out


def export_jsonl(
    records: list[CaptionRecord],
    path: str | Path,
    split_filter: str | None = None,
) -> int:
    """Write ``{"image_id", "caption"}`` lines sorted by id; returns count."""
    selected = [
        r for r in records if split_filter is None or r.split == split_filter
    ]
    selected.sort(key=lambda r: r.image_id)
    write_captions(
        path, ((r.image_id, r.clean_description, None) for r in selected)
    )
    return len(selected)


def write_records_jsonl(records: list[CaptionRecord], path: str | Path) -> int:
    """Write full records (with split when set) sorted by id."""
    ordered = sorted(records, key=lambda r: r.image_id)
    write_captions(
        path, ((r.image_id, r.clean_description, r.split) for r in ordered)
    )
    return len(ordered)


def read_records_jsonl(path: str | Path) -> list[CaptionRecord]:
    """Read caption records (``image_id``/``caption``, optional ``split``)."""
    return [
        CaptionRecord(image_id, "", caption, split)
        for _, image_id, caption, split in read_captions(path)
    ]
