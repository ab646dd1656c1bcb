"""Post-hoc caption analysis: genre cross-tabulation, lengths, baseline.

The genre distribution counts how often the most frequent caption units
occur under each genre label.  A unit is a whole caption or a segment: a
comma piece trimmed of whitespace and trailing periods, empty pieces
dropped.  Length statistics count tokenizer tokens, punctuation included.
Both analyses split each caption at commas once and trim or tokenize each
distinct piece once per call.  The frequency baseline emits the single
most common training caption for every test id, giving the evaluation
pipeline a model-free candidate source.
"""

from __future__ import annotations

import csv
import io
import statistics
from collections import Counter, defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .captions import CaptionRecord
from .errors import DuplicateId, EmptyInput, SchemaViolation
from .jsonl import reading
from .metrics import tokenize


@dataclass(slots=True)
class GenreRecord:
    image_id: str
    genre: str
    caption: str


@dataclass
class GenreDistribution:
    """Counts of caption unit x genre for the selected top-k units."""

    phrases: list[str]  # sorted lexicographically
    genres: list[str]  # sorted lexicographically
    counts: dict[tuple[str, str], int]  # (phrase, genre) -> count

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["phrase", *self.genres])
        for phrase in self.phrases:
            writer.writerow(
                [phrase]
                + [self.counts.get((phrase, genre), 0) for genre in self.genres]
            )
        return buf.getvalue()


UNITS = ("segment", "whole_caption")


def genre_distribution(
    records: list[GenreRecord], k: int, unit: str = "segment"
) -> GenreDistribution:
    """Cross-tabulate the k globally most frequent caption units by genre.

    Ties in the frequency cut break lexicographically.  Output ordering is
    sorted phrases x sorted genres, so it is invariant to input order.
    """
    if not records:
        raise EmptyInput("no genre records")
    if k < 1:
        raise ValueError("k must be at least 1")
    if unit not in UNITS:
        raise ValueError(f"unknown unit {unit!r}")
    return count_genres(((r.genre, r.caption) for r in records), k, unit)[0]


def count_genres(
    pairs: Iterable[tuple[str, str]], k: int, unit: str
) -> tuple[GenreDistribution, int]:
    """``genre_distribution`` over ``(genre, caption)`` pairs, read once,
    and the number of pairs."""
    # per genre, count the raw comma pieces (or whole captions) in C, then
    # trim each distinct piece once
    by_segment = unit == "segment"
    per_genre: dict[str, Counter] = defaultdict(Counter)
    n = 0
    for n, (genre, caption) in enumerate(pairs, 1):
        per_genre[genre].update(
            caption.split(",") if by_segment else (caption,))
    if by_segment:
        per_genre = {genre: _segments(pieces)
                     for genre, pieces in per_genre.items()}

    frequency: Counter = Counter()
    for counter in per_genre.values():
        frequency.update(counter)
    top = sorted(frequency, key=lambda p: (-frequency[p], p))[:k]
    selected = set(top)
    counts = {
        (phrase, genre): count
        for genre, counter in per_genre.items()
        for phrase, count in counter.items()
        if phrase in selected
    }
    return GenreDistribution(
        phrases=sorted(selected), genres=sorted(per_genre), counts=counts
    ), n


def _segments(pieces: Counter) -> Counter:
    """Raw comma-piece counts as counts of their non-empty trimmed forms."""
    segments: Counter = Counter()
    for piece, count in pieces.items():
        segment = piece.strip().rstrip(".").strip()
        if segment:
            segments[segment] += count
    return segments


def length_stats(captions: list[str]) -> dict[str, object]:
    """Token-length statistics with a bucket-width-5 histogram.

    A comma is always a token of its own, so a caption's length is its
    comma count plus the token counts of its comma pieces; each distinct
    piece is tokenized once.
    """
    piece_tokens: dict[str, int] = {}
    lengths = []
    for caption in captions:
        n = caption.count(",")
        for piece in caption.split(","):
            if piece not in piece_tokens:
                piece_tokens[piece] = len(tokenize(piece))
            n += piece_tokens[piece]
        lengths.append(n)
    if not lengths:
        return {
            "count": 0, "mean": 0.0, "median": 0.0, "min": 0, "max": 0,
            "histogram": [],
        }
    buckets: Counter = Counter(5 * (n // 5) for n in lengths)
    # statistics.mean's value and type: int when exact, else the correctly
    # rounded float of total / count, which int division also gives
    total, count = sum(lengths), len(lengths)
    return {
        "count": count,
        "mean": total // count if total % count == 0 else total / count,
        "median": statistics.median(lengths),
        "min": min(lengths),
        "max": max(lengths),
        "histogram": [
            {"bucket_start": start, "count": buckets[start]}
            for start in sorted(buckets)
        ],
    }


def frequency_baseline(
    train_records: list[CaptionRecord], test_ids: list[str]
) -> list[tuple[str, str]]:
    """Assign every test id the most frequent training caption.

    Frequency ties break lexicographically.  Returns one (image_id,
    caption) pair per distinct id, sorted by id, ready for JSONL export as
    evaluation candidates.
    """
    return baseline_pairs(
        Counter(r.clean_description for r in train_records
                if r.clean_description), test_ids)


def baseline_pairs(
    frequency: dict[str, int], test_ids: list[str]
) -> list[tuple[str, str]]:
    """``frequency_baseline`` from the training captions' counts.

    Raises EmptyInput when ``frequency`` holds no caption.
    """
    if not frequency:
        raise EmptyInput("no training captions")
    mode = min(frequency, key=lambda c: (-frequency[c], c))
    return [(image_id, mode) for image_id in sorted(set(test_ids))]


def load_genre_csv(path: str | Path) -> dict[str, str]:
    """Read an ``image_id,genre`` CSV (header row optional).

    Both fields are trimmed of whitespace; a row with fewer than two
    fields, or with an empty id or genre, is skipped, and the ids map to
    one string per distinct genre.  Raises DuplicateId naming the file and
    the line of a repeated id, and SchemaViolation naming the file and the
    line of a row the strict CSV dialect rejects, such as a stray quote.
    """
    genres: dict[str, str] = {}
    labels: dict[str, str] = {}
    share = labels.setdefault
    with reading(path, "genre table", newline="") as fh:
        reader = csv.reader(fh, strict=True)
        try:
            for row in reader:
                if not row or len(row) < 2:
                    continue
                image_id, genre = row[0].strip(), row[1].strip()
                if (image_id, genre) == ("image_id", "genre"):
                    continue
                if image_id and genre:
                    if image_id in genres:
                        raise DuplicateId(
                            image_id, f"{path}: line {reader.line_num}")
                    genres[image_id] = share(genre, genre)
        except csv.Error as exc:
            raise SchemaViolation(f"{path}: line {reader.line_num}: {exc}") from exc
    return genres


def join_genres(
    captions: dict[str, str], genres: dict[str, str]
) -> list[GenreRecord]:
    """Inner-join candidate captions with genre labels, in caption order."""
    return [
        GenreRecord(image_id, genres[image_id], caption)
        for image_id, caption in captions.items()
        if image_id in genres
    ]
