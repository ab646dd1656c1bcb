"""Post-hoc caption analysis: genre cross-tabulation, lengths, baseline.

The genre distribution counts how often the most frequent caption units
(whole captions or comma-separated segments) occur under each genre label.
The frequency baseline emits the single most common training caption for
every test id, giving the evaluation pipeline a model-free candidate source.
"""

from __future__ import annotations

import csv
import io
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from .captions import CaptionRecord
from .errors import EmptyInput, IoFailure
from .metrics import tokenize


@dataclass(frozen=True)
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


def caption_units(caption: str, unit: str) -> list[str]:
    """Caption as one whole unit or as trimmed comma segments."""
    if unit == "whole_caption":
        return [caption]
    if unit == "segment":
        units = []
        for segment in caption.split(","):
            text = segment.strip().rstrip(".").strip()
            if text:
                units.append(text)
        return units
    raise ValueError(f"unknown unit {unit!r}")


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

    frequency: Counter = Counter()
    per_genre: dict[tuple[str, str], int] = defaultdict(int)
    genres: set[str] = set()
    for record in records:
        genres.add(record.genre)
        for phrase in caption_units(record.caption, unit):
            frequency[phrase] += 1
            per_genre[(phrase, record.genre)] += 1

    top = sorted(frequency, key=lambda p: (-frequency[p], p))[:k]
    selected = set(top)
    counts = {
        key: count for key, count in per_genre.items() if key[0] in selected
    }
    return GenreDistribution(
        phrases=sorted(selected), genres=sorted(genres), counts=counts
    )


def length_stats(captions: list[str]) -> dict[str, object]:
    """Token-length statistics with a bucket-width-5 histogram."""
    lengths = [len(tokenize(caption)) for caption in captions]
    if not lengths:
        return {
            "count": 0, "mean": 0.0, "median": 0.0, "min": 0, "max": 0,
            "histogram": [],
        }
    buckets: Counter = Counter(5 * (n // 5) for n in lengths)
    return {
        "count": len(lengths),
        "mean": statistics.mean(lengths),
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

    Frequency ties break lexicographically.  Returns (image_id, caption)
    pairs sorted by id, ready for JSONL export as evaluation candidates.
    """
    captions = [r.clean_description for r in train_records if r.clean_description]
    if not captions:
        raise EmptyInput("no training captions")
    frequency = Counter(captions)
    mode = min(frequency, key=lambda c: (-frequency[c], c))
    return [(image_id, mode) for image_id in sorted(test_ids)]


def load_genre_csv(path: str | Path) -> dict[str, str]:
    """Read an ``image_id,genre`` CSV (header row optional)."""
    genres: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            for row in csv.reader(fh):
                if not row or len(row) < 2:
                    continue
                image_id, genre = row[0].strip(), row[1].strip()
                if (image_id, genre) == ("image_id", "genre"):
                    continue
                if image_id and genre:
                    genres[image_id] = genre
    except OSError as exc:
        raise IoFailure(f"cannot read genre table {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IoFailure(
            f"cannot read genre table {path}: not UTF-8: {exc}"
        ) from exc
    return genres


def join_genres(
    captions: dict[str, str], genres: dict[str, str]
) -> list[GenreRecord]:
    """Inner-join candidate captions with genre labels on image id."""
    return [
        GenreRecord(image_id, genres[image_id], caption)
        for image_id, caption in sorted(captions.items())
        if image_id in genres
    ]
