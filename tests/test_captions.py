"""Caption building, cleaning, splits, and export."""

import copy
import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iconcap import (
    AnnotationRecord,
    CaptionRecord,
    CleaningConfig,
    CorrelateStore,
    DuplicateId,
    GenreRecord,
    InsufficientRecords,
    MalformedNotation,
    SplitConfig,
    assign_splits,
    build_dataset,
    clean_description,
    correlate,
    export_jsonl,
    load_annotations,
    parse_notation,
)
from iconcap import captions
from iconcap.cli import run
from goldens import CLEANING_PAIRS, normalize_terminal
from synth import write_corpus

STORE = CorrelateStore.from_pairs({"73": "x", "11F": "y", "25": "sea"})


def _build_one(codes, parent_fallback=False):
    """build_dataset over one image with ``codes`` against STORE."""
    return build_dataset([AnnotationRecord("a.jpg", codes)], STORE,
                         parent_fallback=parent_fallback)


class TestBuildRaw:
    """The raw description build_dataset joins from an image's codes."""

    def test_joined_in_code_order(self):
        records, _ = _build_one(("73", "11F"))
        assert records[0].raw_description == "x, y"
        records, _ = _build_one(("11F", "73"))
        assert records[0].raw_description == "y, x"

    def test_single_correlate(self):
        records, _ = _build_one(("25",))
        assert records[0].raw_description == "sea"

    def test_no_resolvable_codes(self):
        records, report = _build_one(("99", "73("))
        assert records == []
        assert (report.dropped_empty, report.unresolved_codes) == (1, 2)

    def test_missing_codes_skipped(self):
        records, report = _build_one(("73", "99", "11F"))
        assert records[0].raw_description == "x, y"
        assert report.unresolved_codes == 1

    def test_parent_fallback(self):
        records, report = _build_one(("25G",))
        assert records == [] and report.dropped_empty == 1
        records, report = _build_one(("25G",), parent_fallback=True)
        assert records[0].raw_description == "sea"
        assert report.unresolved_codes == 0


class TestCleanDescription:
    @pytest.mark.parametrize("raw,expected", CLEANING_PAIRS)
    def test_golden_pairs(self, raw, expected):
        assert normalize_terminal(clean_description(raw)) == \
            normalize_terminal(expected)

    def test_terminal_period_added(self):
        assert clean_description("abc") == "abc."

    def test_empty_output_is_legal(self):
        assert clean_description("(all parenthesized)") == ""
        assert clean_description("") == ""

    def test_stray_parens_removed(self):
        assert "(" not in clean_description("a (b c")
        assert ")" not in clean_description("a b) c")

    def test_dedup_keeps_first(self):
        assert clean_description("a, b, a, c") == "a, b, c."

    def test_dedup_off(self):
        cfg = CleaningConfig(dedup=False)
        assert clean_description("a, a", cfg) == "a, a."

    def test_etc_removed(self):
        assert clean_description("proverbs, sayings, etc. (X)") == \
            "proverbs, sayings."

    def test_etc_kept_when_disabled(self):
        cfg = CleaningConfig(drop_etc=False)
        assert clean_description("proverbs, etc. done", cfg) == \
            "proverbs, etc. done."

    def test_stoplist_run_collapses_to_separator(self):
        assert clean_description("man - BB - woman") == "man, woman."

    def test_stoplist_configurable(self):
        cfg = CleaningConfig(uppercase_stoplist=("XY",))
        assert clean_description("man - BB - woman", cfg) == \
            "man - BB - woman."
        assert clean_description("man - XY - woman", cfg) == "man, woman."

    def test_stoplist_validation(self):
        with pytest.raises(ValueError):
            CleaningConfig(uppercase_stoplist=("bb",))
        with pytest.raises(ValueError):
            CleaningConfig(uppercase_stoplist=("TOOBIG",))

    def test_config_fields_are_the_options(self):
        cfg = CleaningConfig(uppercase_stoplist=("BB", "E"))
        assert [f.name for f in dataclasses.fields(CleaningConfig)] == \
            ["uppercase_stoplist", "drop_etc", "dedup"]
        assert dataclasses.asdict(cfg) == {
            "uppercase_stoplist": ("BB", "E"), "drop_etc": True, "dedup": True}
        clean_description("man - E - woman", cfg)  # compiles the stoplist
        assert cfg == CleaningConfig(uppercase_stoplist=("BB", "E"))

    def test_idempotent_on_cascading_etc(self):
        # deleting ", etc." can surface a new one once the period lands
        out = clean_description("a, etc, etc.")
        assert clean_description(out) == out


clean_text = st.text(
    alphabet=st.sampled_from("abBc ,.()-eit"), max_size=40
)


@settings(max_examples=300)
@given(clean_text)
def test_cleaning_idempotent(s):
    once = clean_description(s)
    assert clean_description(once) == once


@settings(max_examples=300)
@given(clean_text)
def test_cleaning_charset(s):
    # cleaning only deletes text, except for the terminal period, collapsed
    # spacing, and the ", " separator the stoplist rewrite leaves behind
    allowed = set(s) | {".", " ", ","}
    assert set(clean_description(s)) <= allowed


@settings(max_examples=300)
@given(clean_text)
def test_cleaning_output_shape(s):
    out = clean_description(s)
    assert "(" not in out and ")" not in out
    if out:
        assert out.endswith(".")
        segments = [seg.strip() for seg in out.split(",")]
        assert len(segments) == len(set(segments))


def reference_clean(raw, cfg=None):
    """The cleaning pass repeated until it stops changing, 16 passes at most.

    The oracle for clean_description, which runs the pass once and repeats
    it only when a trigger check says a second pass could change the text.
    """
    cfg = cfg or CleaningConfig()
    s = raw
    for _ in range(16):
        nxt = captions._clean_pass(s, cfg)
        if nxt == s:
            return s
        s = nxt
    return s


CONFIGS = [
    CleaningConfig(),
    CleaningConfig(drop_etc=False),
    CleaningConfig(dedup=False),
    CleaningConfig(uppercase_stoplist=("BB", "E")),
]

oracle_text = st.lists(
    st.sampled_from(list("()-,. \tabeBtcx")
                    + [" - BB - ", " - E - ", ", etc", ", etc."]),
    max_size=40,
).map("".join)


@settings(max_examples=600)
@given(oracle_text, st.sampled_from(CONFIGS))
def test_cleaning_matches_fixed_point_loop(s, cfg):
    assert clean_description(s, cfg) == reference_clean(s, cfg)
    # clean_description has no space-run trigger: a pass never leaves a run
    assert "  " not in captions._clean_pass(s, cfg)


RERUN_CASES = [
    "a, etc",              # the appended period uncovers ", etc."
    "x., x",               # the appended period makes a duplicate segment
    "a -, etc. BB - c",    # deleting ", etc." uncovers a stoplist run
    "a, b.,b",             # a duplicate once the period lands
]


@pytest.mark.parametrize("raw", RERUN_CASES + [
    "a" + ", etc" * 20,    # one ", etc." per pass without dedup: the cap
])
@pytest.mark.parametrize("cfg", CONFIGS, ids=[
    "default", "keep-etc", "no-dedup", "stoplist-BB-E",
])
def test_cleaning_rerun_cases_match_fixed_point_loop(raw, cfg):
    assert clean_description(raw, cfg) == reference_clean(raw, cfg)


@pytest.mark.parametrize("raw", RERUN_CASES)
def test_rerun_cases_need_a_second_pass(raw):
    cfg = CleaningConfig()
    once = captions._clean_pass(raw, cfg)
    assert captions._clean_pass(once, cfg) != once


def reference_raw(record, store):
    """The record's correlates joined with ", " in code order, each code
    resolved on its own; None when no code resolves.

    The oracle for build_dataset, which resolves each distinct code once.
    """
    texts = []
    for code in record.codes:
        try:
            notation = parse_notation(code)
        except MalformedNotation:
            continue
        text = correlate(notation, store)
        if text is not None:
            texts.append(text)
    return ", ".join(texts) if texts else None


def test_one_pass_per_distinct_raw(tmp_path, monkeypatch):
    # steps 1-4 of the pass run once per distinct correlate, steps 5-6 once
    # per distinct raw description
    ann, tsv = write_corpus(tmp_path, n_images=300, seed=2)
    annotations = load_annotations(ann)
    store = CorrelateStore.from_tsv(tsv)
    raws = {reference_raw(record, store) for record in annotations} - {None}
    used = {store.lookup(parse_notation(code).serialize())
            for record in annotations for code in record.codes}
    strips, finishes = [], []
    real_strip, real_finish = captions._strip_piece, captions._finish_pass

    def counting_strip(raw, cfg):
        strips.append(raw)
        return real_strip(raw, cfg)

    def counting_finish(s, cfg):
        finishes.append(s)
        return real_finish(s, cfg)

    monkeypatch.setattr(captions, "_strip_piece", counting_strip)
    monkeypatch.setattr(captions, "_finish_pass", counting_finish)
    records, _ = build_dataset(annotations, store)
    assert sorted(strips) == sorted(used - {None})
    assert len(finishes) == len(raws)
    by_id = {record.image_id: record for record in annotations}
    for r in records:
        raw = reference_raw(by_id[r.image_id], store)
        assert r.raw_description == raw
        assert r.clean_description == clean_description(raw)


def composed_clean(pieces, cfg):
    """Steps 1-4 on each piece, joined, then steps 5-6 and the re-runs.

    What build_dataset computes for a raw description whose pieces are all
    closed; the pieces' closed flags are returned alongside.
    """
    stripped = [captions._strip_piece(piece, cfg) for piece in pieces]
    joined = ", ".join(piece for piece, _ in stripped)
    clean = captions._settle(captions._finish_pass(joined, cfg), cfg)
    return clean, [closed for _, closed in stripped]


def built_clean(pieces, cfg):
    """The clean build_dataset gives an image whose correlates are pieces."""
    store = CorrelateStore.from_pairs(
        {str(i): piece for i, piece in enumerate(pieces, 1)})
    codes = tuple(str(i) for i in range(1, len(pieces) + 1))
    records, _ = build_dataset([AnnotationRecord("a.jpg", codes)], store, cfg)
    return records[0].clean_description if records else ""


COMPOSE_CONFIGS = CONFIGS + [CleaningConfig(uppercase_stoplist=())]

# a piece is a leading edge, often one that could interact with the
# separator before it, then a body; plain letters and whole groups
# outnumber stray parentheses, so that many drawn lists have every piece
# closed and take the composed path
piece_edge = st.sampled_from(["", "a", "b", "(a)"] * 4 + [
    " ", "-", "-BB - ", "- E - ", "etc.", ", etc. ", ", etc.", "(", ")"])
piece_body = st.lists(
    st.sampled_from(["(", ")", "(a)", " - BB - ", " - E - ", "-", "etc.",
                     ", etc", ", etc.", ".", ",", " ", "  "]
                    + ["a", "b", "B", "E"] * 3),
    max_size=8,
).map("".join)
piece_text = st.builds(
    "{}{}".format, piece_edge, piece_body).filter(bool)


@settings(max_examples=1000)
@given(st.lists(piece_text, min_size=1, max_size=5))
def test_composed_clean_equals_cleaning_the_join(pieces):
    raw = ", ".join(pieces)
    for cfg in COMPOSE_CONFIGS:
        expected = clean_description(raw, cfg)
        clean, closed = composed_clean(pieces, cfg)
        if all(closed):
            assert clean == expected
        assert built_clean(pieces, cfg) == expected


# one piece list per way a piece is open; joined naively, each would be
# cleaned differently from its raw description
OPEN_PIECES = {
    "paren-left-after-groups": ["a (", ") b"],
    "starts-with-space": ["a", " b"],
    "starts-with-dash": ["a", "- BB - c"],
    "starts-with-etc-after-stoplist": ["a", "etc. b, a"],
    "starts-with-space-after-etc": ["a", ", etc. b"],
}


@pytest.mark.parametrize("pieces", OPEN_PIECES.values(), ids=OPEN_PIECES)
def test_open_piece_falls_back_to_cleaning_the_join(pieces):
    cfg = CleaningConfig()
    expected = clean_description(", ".join(pieces), cfg)
    clean, closed = composed_clean(pieces, cfg)
    assert not all(closed)
    assert clean != expected
    assert built_clean(pieces, cfg) == expected


class TestBuildDataset:
    def _annotations(self):
        return [
            AnnotationRecord("a.jpg", ("73",)),
            AnnotationRecord("b.jpg", ("73", "11F")),
            AnnotationRecord("c.jpg", ("25",)),
        ]

    def test_all_resolvable(self):
        records, report = build_dataset(self._annotations(), STORE)
        assert len(records) == 3
        assert report.as_dict() == {
            "input": 3, "kept": 3, "dropped_empty": 0, "unresolved_codes": 0,
        }

    def test_empty_clean_dropped_and_counted(self):
        store = CorrelateStore.from_pairs({"73": "(only a group)", "25": "sea"})
        annotations = [
            AnnotationRecord("a.jpg", ("73",)),
            AnnotationRecord("b.jpg", ("25",)),
        ]
        records, report = build_dataset(annotations, store)
        assert [r.image_id for r in records] == ["b.jpg"]
        assert report.dropped_empty == 1
        assert report.kept == 1

    def test_empty_store(self):
        records, report = build_dataset(
            self._annotations(), CorrelateStore.from_pairs({})
        )
        assert records == []
        assert report.dropped_empty == 3
        assert report.unresolved_codes == 4

    def test_unresolved_codes_counted_for_kept_records(self):
        annotations = [AnnotationRecord("a.jpg", ("73", "99"))]
        records, report = build_dataset(annotations, STORE)
        assert len(records) == 1
        assert report.unresolved_codes == 1

    def test_repeated_unresolved_codes_counted_per_occurrence(self):
        annotations = [
            AnnotationRecord("a.jpg", ("73", "99", "73(")),
            AnnotationRecord("b.jpg", ("99", "73(")),
            AnnotationRecord("c.jpg", ("25", "99", "99")),
        ]
        records, report = build_dataset(annotations, STORE)
        assert [r.image_id for r in records] == ["a.jpg", "c.jpg"]
        assert report.unresolved_codes == 6
        assert report.dropped_empty == 1

    def test_records_share_one_raw_description_string(self):
        annotations = [AnnotationRecord(f"{i}.jpg", ("73", "11F"))
                       for i in range(3)]
        records, _ = build_dataset(annotations, STORE)
        raws = [r.raw_description for r in records]
        assert raws[0] == ", ".join(STORE.lookup(c) for c in ("73", "11F"))
        assert all(raw is raws[0] for raw in raws)

    def test_parallel_matches_serial(self):
        serial, _ = build_dataset(self._annotations(), STORE, jobs=1)
        parallel, _ = build_dataset(self._annotations(), STORE, jobs=2)
        assert serial == parallel


@pytest.mark.parametrize("record", [
    AnnotationRecord("a.jpg", ("73", "11F")),
    CaptionRecord("a.jpg", "x, y", "x, y.", "train"),
    GenreRecord("a.jpg", "marine", "x, y."),
], ids=["AnnotationRecord", "CaptionRecord", "GenreRecord"])
def test_record_classes_hold_no_instance_dict(record):
    assert not hasattr(record, "__dict__")
    clone = copy.deepcopy(record)
    assert clone == record and clone is not record


def _records(ids):
    return [CaptionRecord(i, i, f"{i}.", None) for i in ids]


class TestAssignSplits:
    def test_duplicate_id_rejected(self):
        with pytest.raises(DuplicateId):
            assign_splits(_records(["a", "a", "b"]),
                          SplitConfig(seed=0, n_val=1, n_test=1))

    def test_counts_and_partition(self):
        records = _records([f"img{i:03}" for i in range(20)])
        out = assign_splits(records, SplitConfig(seed=7, n_val=3, n_test=4))
        by_split = {s: [r.image_id for r in out if r.split == s]
                    for s in ("train", "val", "test")}
        assert len(by_split["test"]) == 4
        assert len(by_split["val"]) == 3
        assert len(by_split["train"]) == 13
        all_ids = sorted(r.image_id for r in out)
        assert all_ids == sorted(r.image_id for r in records)

    def test_deterministic_across_runs(self):
        records = _records([f"img{i:03}" for i in range(50)])
        cfg = SplitConfig(seed=42, n_val=5, n_test=5)
        first = {r.image_id: r.split for r in assign_splits(records, cfg)}
        second = {r.image_id: r.split for r in assign_splits(records, cfg)}
        assert first == second

    def test_input_order_irrelevant(self):
        ids = [f"img{i:03}" for i in range(50)]
        cfg = SplitConfig(seed=42, n_val=5, n_test=5)
        forward = {r.image_id: r.split
                   for r in assign_splits(_records(ids), cfg)}
        backward = {r.image_id: r.split
                    for r in assign_splits(_records(ids[::-1]), cfg)}
        assert forward == backward

    def test_seed_changes_assignment(self):
        records = _records([f"img{i:03}" for i in range(200)])
        a = {r.image_id: r.split for r in assign_splits(
            records, SplitConfig(seed=1, n_val=20, n_test=20))}
        b = {r.image_id: r.split for r in assign_splits(
            records, SplitConfig(seed=2, n_val=20, n_test=20))}
        assert a != b

    def test_insufficient_records(self):
        with pytest.raises(InsufficientRecords):
            assign_splits(_records(["a", "b"]), SplitConfig(0, 2, 1))

    @pytest.mark.parametrize("n_val, n_test", [(-1, 3), (2, -2)])
    def test_negative_count_rejected(self, n_val, n_test):
        with pytest.raises(ValueError, match="must be non-negative"):
            SplitConfig(0, n_val=n_val, n_test=n_test)

    def test_duplicate_names_first_repeat_in_id_order(self):
        with pytest.raises(DuplicateId) as exc:
            assign_splits(_records(["c", "b", "c", "a", "b"]),
                          SplitConfig(seed=0, n_val=1, n_test=1))
        assert exc.value.image_id == "b"


def reference_assign_splits(records, cfg):
    """The direct split: sort the records on their hex digest, rebuild them.

    The records come back in permuted order; only the id -> split map is
    meant to match :func:`assign_splits`.
    """
    def shuffle_key(image_id):
        key = f"{cfg.seed}:{image_id}".encode("utf-8", "surrogatepass")
        return hashlib.sha256(key).hexdigest()

    if cfg.n_val + cfg.n_test > len(records):
        raise InsufficientRecords("carve-out exceeds the records")
    permuted = sorted(records, key=lambda r: (shuffle_key(r.image_id),
                                              r.image_id))
    for a, b in zip(permuted, permuted[1:]):
        if a.image_id == b.image_id:
            raise DuplicateId(a.image_id)
    return [
        CaptionRecord(r.image_id, r.raw_description, r.clean_description,
                      "test" if i < cfg.n_test else
                      "val" if i < cfg.n_test + cfg.n_val else "train")
        for i, r in enumerate(permuted)
    ]


@given(st.data(), st.integers(-2**63, 2**63 - 1))
def test_assign_splits_matches_reference(data, seed):
    ids = sorted(data.draw(st.sets(st.text(min_size=1, max_size=6),
                                   min_size=1, max_size=40)))
    n_test = data.draw(st.integers(0, len(ids)))
    n_val = data.draw(st.integers(0, len(ids) - n_test))
    order = data.draw(st.permutations(ids))
    prior = data.draw(st.lists(st.sampled_from([None, "train", "val", "test"]),
                               min_size=len(ids), max_size=len(ids)))
    records = [CaptionRecord(i, f"raw {i}", f"{i}.", s)
               for i, s in zip(order, prior)]
    before = copy.deepcopy(records)
    cfg = SplitConfig(seed=seed, n_val=n_val, n_test=n_test)
    out = assign_splits(records, cfg)
    assert records == before
    assert [(r.image_id, r.raw_description, r.clean_description)
            for r in out] == sorted(
        (r.image_id, r.raw_description, r.clean_description) for r in records)
    assert {r.image_id: r.split for r in out} == {
        r.image_id: r.split for r in reference_assign_splits(records, cfg)}


@given(
    st.sets(st.text(alphabet="abcdef0123456789", min_size=1, max_size=6),
            min_size=1, max_size=30),
    st.integers(0, 10), st.integers(0, 10), st.integers(-2**63, 2**63 - 1),
)
def test_splits_partition_exactly(ids, n_val, n_test, seed):
    records = _records(sorted(ids))
    cfg = SplitConfig(seed=seed, n_val=n_val, n_test=n_test)
    if n_val + n_test > len(records):
        with pytest.raises(InsufficientRecords):
            assign_splits(records, cfg)
        return
    out = assign_splits(records, cfg)
    assert sorted(r.image_id for r in out) == sorted(ids)
    counts = {s: sum(1 for r in out if r.split == s)
              for s in ("train", "val", "test")}
    assert counts["val"] == n_val
    assert counts["test"] == n_test
    assert counts["train"] == len(records) - n_val - n_test


class TestExportJsonl:
    def _split_records(self):
        return [
            CaptionRecord("b", "", "two.", "train"),
            CaptionRecord("a", "", "one.", "train"),
            CaptionRecord("c", "", "three.", "test"),
        ]

    def test_filter(self, tmp_path):
        path = tmp_path / "out.jsonl"
        count = export_jsonl(self._split_records(), path, "test")
        assert count == 1
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows == [{"image_id": "c", "caption": "three."}]

    def test_sorted_by_id(self, tmp_path):
        path = tmp_path / "out.jsonl"
        export_jsonl(self._split_records(), path, "train")
        rows = [json.loads(line)["image_id"]
                for line in path.read_text().splitlines()]
        assert rows == ["a", "b"]

    def test_empty_filter_result(self, tmp_path):
        path = tmp_path / "out.jsonl"
        assert export_jsonl(self._split_records(), path, "val") == 0
        assert path.read_text() == ""

    def test_reexport_byte_identical(self, tmp_path):
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        export_jsonl(self._split_records(), first, "train")
        export_jsonl(self._split_records(), second, "train")
        assert first.read_bytes() == second.read_bytes()

    def test_library_writers_write_the_cli_bytes(self, tmp_path):
        """``write_records_jsonl`` and ``export_jsonl`` write the bytes of
        ``build --out`` and of ``split --out`` with its exports."""
        ann, tsv = write_corpus(tmp_path, n_images=60, seed=4)
        cli, lib = tmp_path / "cli", tmp_path / "lib"
        for directory in (cli, lib):
            (directory / "splits").mkdir(parents=True)
        assert run(["build", "--annotations", str(ann), "--correlates",
                    str(tsv), "--out", str(cli / "records.jsonl"),
                    "--quiet"]) == 0
        assert run(["split", "--in", str(cli / "records.jsonl"),
                    "--val", "7", "--test", "9", "--seed", "3",
                    "--out", str(cli / "split.jsonl"),
                    "--export-dir", str(cli / "splits"), "--quiet"]) == 0
        records, _ = build_dataset(load_annotations(ann),
                                   CorrelateStore.from_tsv(tsv))
        assert captions.write_records_jsonl(
            records, lib / "records.jsonl") == len(records)
        records = assign_splits(
            captions.read_records_jsonl(lib / "records.jsonl"),
            SplitConfig(seed=3, n_val=7, n_test=9))
        captions.write_records_jsonl(records, lib / "split.jsonl")
        for split in ("train", "val", "test"):
            export_jsonl(records, lib / "splits" / f"{split}.jsonl", split)
        names = ["records.jsonl", "split.jsonl",
                 *(f"splits/{split}.jsonl" for split in ("train", "val",
                                                         "test"))]
        for name in names:
            assert (lib / name).read_bytes() == (cli / name).read_bytes()
