"""Genre distribution, length statistics, and the frequency baseline."""

import json
import statistics
import sys
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iconcap import (
    CaptionRecord,
    DuplicateId,
    EmptyInput,
    GenreDistribution,
    GenreRecord,
    frequency_baseline,
    genre_distribution,
    length_stats,
)
from iconcap import analysis
from iconcap.analysis import join_genres, load_genre_csv
from iconcap.metrics import tokenize


def records(*triples):
    return [GenreRecord(f"img{i}", genre, caption)
            for i, (genre, caption) in enumerate(triples)]


# Oracles: the per-record and per-caption paths that genre_distribution and
# length_stats replace, kept as the definition of their results.

def caption_units(caption, unit):
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


def reference_distribution(records, k, unit):
    frequency = Counter()
    per_genre = defaultdict(int)
    genres = set()
    for record in records:
        genres.add(record.genre)
        for phrase in caption_units(record.caption, unit):
            frequency[phrase] += 1
            per_genre[(phrase, record.genre)] += 1
    selected = set(sorted(frequency, key=lambda p: (-frequency[p], p))[:k])
    counts = {key: n for key, n in per_genre.items() if key[0] in selected}
    return GenreDistribution(
        phrases=sorted(selected), genres=sorted(genres), counts=counts
    )


def reference_length_stats(captions):
    lengths = [len(tokenize(caption)) for caption in captions]
    if not lengths:
        return {
            "count": 0, "mean": 0.0, "median": 0.0, "min": 0, "max": 0,
            "histogram": [],
        }
    buckets = Counter(5 * (n // 5) for n in lengths)
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


# letters whose lowercase depends on context (final sigma) or is longer
# (dotted I), the comma and period that segments trim, ASCII and Unicode
# whitespace, and every tokenizer punctuation character
_ALPHABET = "abAΣσİ .,:;!?'\"()-\t\u00a0\u2003\x85"
_PIECES = st.text(alphabet=_ALPHABET.replace(",", ""), max_size=8)


@st.composite
def _captions(draw):
    """Captions built from a small pool of comma pieces, so pieces repeat."""
    pool = draw(st.lists(_PIECES, min_size=1, max_size=6))
    piece = st.sampled_from(pool)
    return draw(st.one_of(
        st.lists(piece, min_size=1, max_size=6).map(",".join),
        st.text(alphabet=_ALPHABET, max_size=16),
    ))


_GENRE_ROWS = st.lists(
    st.tuples(st.sampled_from(["g1", "g2", "g3"]), _captions()),
    min_size=1, max_size=30,
)


@settings(max_examples=300)
@given(rows=_GENRE_ROWS, k=st.integers(1, 12),
       unit=st.sampled_from(["segment", "whole_caption"]))
def test_genre_distribution_matches_reference(rows, k, unit):
    found = genre_distribution(records(*rows), k, unit)
    expected = reference_distribution(records(*rows), k, unit)
    assert found.phrases == expected.phrases
    assert found.genres == expected.genres
    assert found.counts == expected.counts
    assert found.to_csv() == expected.to_csv()


@settings(max_examples=300)
@given(captions=st.lists(_captions(), max_size=30))
def test_length_stats_matches_reference(captions):
    # the JSON bytes pin an int mean against a float one
    assert json.dumps(length_stats(captions)) == \
        json.dumps(reference_length_stats(captions))


def test_only_the_comma_lowercases_to_a_comma():
    # length_stats counts a caption's commas on the text before lowercasing
    assert [cp for cp in range(sys.maxunicode + 1)
            if "," in chr(cp).lower()] == [ord(",")]


def test_each_distinct_piece_tokenized_once(monkeypatch):
    calls = []

    def counting_tokenize(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(analysis, "tokenize", counting_tokenize)
    captions = ["sea, ship.", "sea, boat.", "sea, ship.", ""]
    assert length_stats(captions) == reference_length_stats(captions)
    assert sorted(calls) == sorted({"sea", " ship.", " boat.", ""})


class TestGenreDistribution:
    def test_direct_counting(self):
        dist = genre_distribution(
            records(("g1", "a."), ("g1", "a."), ("g2", "b.")),
            k=2, unit="whole_caption",
        )
        assert dist.counts[("a.", "g1")] == 2
        assert dist.counts[("b.", "g2")] == 1
        assert ("a.", "g2") not in dist.counts

    def test_frequency_cut(self):
        dist = genre_distribution(
            records(("g1", "a."), ("g1", "a."), ("g2", "b.")),
            k=1, unit="whole_caption",
        )
        assert dist.phrases == ["a."]

    def test_tie_breaks_lexicographically(self):
        dist = genre_distribution(
            records(("g1", "b."), ("g1", "a.")), k=1, unit="whole_caption",
        )
        assert dist.phrases == ["a."]

    def test_empty_records(self):
        with pytest.raises(EmptyInput):
            genre_distribution([], k=1)

    def test_unknown_unit(self):
        with pytest.raises(ValueError, match="unknown unit 'paragraph'"):
            genre_distribution(records(("g", "a.")), k=1, unit="paragraph")
        # rejected before any caption is read
        with pytest.raises(ValueError, match="unknown unit"):
            genre_distribution(records(("g", None)), k=1, unit="paragraph")

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            genre_distribution(records(("g", "a.")), k=0)

    def test_segment_unit(self):
        dist = genre_distribution(
            records(("g1", "sea, ship."), ("g2", "ship, boat.")),
            k=10, unit="segment",
        )
        assert dist.counts[("ship", "g1")] == 1
        assert dist.counts[("ship", "g2")] == 1
        assert dist.counts[("sea", "g1")] == 1
        assert dist.counts[("boat", "g2")] == 1

    def test_column_sums_match_record_counts_unbounded(self):
        rows = records(("g1", "a."), ("g1", "b."), ("g2", "a."))
        dist = genre_distribution(rows, k=10**9, unit="whole_caption")
        for genre in dist.genres:
            total = sum(dist.counts.get((p, genre), 0) for p in dist.phrases)
            assert total == sum(1 for r in rows if r.genre == genre)

    def test_csv_permutation_invariant(self):
        rows = records(("g2", "b, a."), ("g1", "a."), ("g1", "a, c."))
        forward = genre_distribution(rows, k=3).to_csv()
        backward = genre_distribution(rows[::-1], k=3).to_csv()
        assert forward == backward
        assert forward.splitlines()[0] == "phrase,g1,g2"

    def test_csv_quotes_phrases_with_commas(self):
        rows = records(("g", "a thing."),)
        dist = genre_distribution(rows, k=1, unit="whole_caption")
        assert "a thing." in dist.to_csv()


class TestCaptionUnits:
    """The segment oracle's own rules."""

    def test_whole(self):
        assert caption_units("a, b.", "whole_caption") == ["a, b."]

    def test_segments_trimmed_and_unperioded(self):
        assert caption_units("sea, sailing - ship.", "segment") == \
            ["sea", "sailing - ship"]

    def test_empty_segments_dropped(self):
        assert caption_units(", a, .", "segment") == ["a"]


class TestLengthStats:
    def test_mean_min_max(self):
        stats = length_stats(["a b", "a b c d"])
        assert stats["mean"] == pytest.approx(3.0)
        assert stats["min"] == 2
        assert stats["max"] == 4

    def test_single_caption(self):
        stats = length_stats(["a b c"])
        assert stats["mean"] == stats["min"] == stats["max"] == 3

    def test_empty_is_all_zero(self):
        stats = length_stats([])
        assert stats == {
            "count": 0, "mean": 0.0, "median": 0.0, "min": 0, "max": 0,
            "histogram": [],
        }

    def test_histogram_bucket_width_five(self):
        stats = length_stats(["a", "a b c d e f", "a b c d e f g"])
        assert stats["histogram"] == [
            {"bucket_start": 0, "count": 1},
            {"bucket_start": 5, "count": 2},
        ]


def train(*captions):
    return [CaptionRecord(f"t{i}", "", c, "train")
            for i, c in enumerate(captions)]


class TestFrequencyBaseline:
    def test_mode_assigned_to_every_id(self):
        pairs = frequency_baseline(
            train("x.", "x.", "x.", "y."), ["b", "a"]
        )
        assert pairs == [("a", "x."), ("b", "x.")]

    def test_tie_breaks_lexicographically(self):
        pairs = frequency_baseline(train("y.", "x."), ["a"])
        assert pairs == [("a", "x.")]

    def test_empty_training_set(self):
        with pytest.raises(EmptyInput):
            frequency_baseline([], ["a"])


class TestGenreIo:
    def test_load_csv_with_header(self, tmp_path):
        path = tmp_path / "genres.csv"
        path.write_text("image_id,genre\na,portrait\nb,landscape\n")
        assert load_genre_csv(path) == {"a": "portrait", "b": "landscape"}

    def test_load_csv_without_header(self, tmp_path):
        path = tmp_path / "genres.csv"
        path.write_text("a,portrait\n")
        assert load_genre_csv(path) == {"a": "portrait"}

    def test_repeated_id_names_file_and_line(self, tmp_path):
        path = tmp_path / "genres.csv"
        path.write_text("image_id,genre\na,portrait\nb,marine\na,marine\n")
        with pytest.raises(DuplicateId) as caught:
            load_genre_csv(path)
        assert str(caught.value) == f"{path}: line 4: duplicate image id 'a'"

    def test_join_is_inner(self):
        records = join_genres(
            {"a": "sea.", "b": "ship."}, {"a": "marine", "z": "portrait"}
        )
        assert records == [GenreRecord("a", "marine", "sea.")]
