"""Notation parsing, hierarchy navigation, and correlate lookup."""

import contextlib
import gc
import json
import os
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iconcap import (
    AnnotationRecord,
    CorrelateStore,
    IconclassNotation,
    IoFailure,
    MalformedNotation,
    SchemaViolation,
    correlate,
    load_annotations,
    parent,
    parse_notation,
)
from iconcap import iconclass
from iconcap.iconclass import ancestors
from iconcap.jsonl import read_json_object, reading
from annotation_texts import (
    HANDED_OVER,
    TAKEN,
    annotation_text,
    pieces_of_one_member,
)
from synth import write_corpus


class TestParse:
    def test_key_group(self):
        n = parse_notation("73A(+1)")
        assert n.base == ("73", "A")
        assert n.qualifiers == ()
        assert n.keys == ("1",)

    def test_qualifier_group(self):
        n = parse_notation("25G4(ROSE)")
        assert n.base == ("25", "G", "4")
        assert n.qualifiers == ("ROSE",)
        assert n.keys == ()

    def test_qualifier_whitespace_preserved(self):
        n = parse_notation("61B(MONTENAY, Georgette de)")
        assert n.qualifiers == ("MONTENAY, Georgette de",)

    def test_mixed_groups_and_serialization(self):
        n = parse_notation("25F23(LION)(+12)")
        assert n.serialize() == "25F23(LION)(+12)"

    def test_whitespace_outside_groups_stripped(self):
        assert parse_notation("7 3A") == parse_notation("73A")
        assert parse_notation(" 73 A (ROSE) ") == parse_notation("73A(ROSE)")

    def test_unbalanced_paren_offset(self):
        with pytest.raises(MalformedNotation) as exc:
            parse_notation("73(")
        assert exc.value.offset == 2

    def test_empty_input(self):
        for bad in ("", "   "):
            with pytest.raises(MalformedNotation) as exc:
                parse_notation(bad)
            assert exc.value.offset == 0

    def test_leading_non_digit(self):
        with pytest.raises(MalformedNotation) as exc:
            parse_notation("A73")
        assert exc.value.offset == 0

    def test_nested_parens_rejected(self):
        with pytest.raises(MalformedNotation):
            parse_notation("73(a(b))")

    def test_lowercase_rejected(self):
        with pytest.raises(MalformedNotation):
            parse_notation("73a")

    def test_base_after_group_rejected(self):
        with pytest.raises(MalformedNotation):
            parse_notation("73(X)4")

    def test_double_plus_key_rejected(self):
        with pytest.raises(MalformedNotation):
            parse_notation("73(++1)")

    def test_byte_offset_is_utf8(self):
        with pytest.raises(MalformedNotation) as exc:
            parse_notation("73é")
        assert exc.value.offset == 2

    def test_byte_offset_counts_a_lone_surrogate(self):
        # a JSON "\ud800" escape decodes to a lone surrogate: three bytes
        with pytest.raises(MalformedNotation) as exc:
            parse_notation("7(\ud800)(")
        assert exc.value.offset == 6


class TestParent:
    def test_base_shortening(self):
        assert parent(parse_notation("25G41")).serialize() == "25G4"

    def test_key_stripped_before_base(self):
        assert parent(parse_notation("73A(+1)")).serialize() == "73A"

    def test_root_has_no_parent(self):
        assert parent(parse_notation("7")) is None

    def test_qualifier_stripped_after_keys(self):
        n = parse_notation("25G4(ROSE)(+1)")
        chain = []
        while n is not None:
            chain.append(n.serialize())
            n = parent(n)
        assert chain == ["25G4(ROSE)(+1)", "25G4(ROSE)", "25G4", "25G", "25", "2"]

    def test_segment_dropped_when_empty(self):
        assert parent(parse_notation("73A")).serialize() == "73"


class TestCorrelate:
    def test_direct_hit(self):
        store = CorrelateStore.from_pairs({"73": "New Testament"})
        assert correlate(parse_notation("73"), store) == "New Testament"

    def test_parent_fallback_one_step(self):
        store = CorrelateStore.from_pairs({"73": "New Testament"})
        n = parse_notation("73A")
        assert correlate(n, store) is None
        assert correlate(n, store, parent_fallback=True) == "New Testament"

    def test_empty_store(self):
        store = CorrelateStore.from_pairs({})
        assert correlate(parse_notation("73"), store, parent_fallback=False) is None

    def test_keys_canonicalized_on_load(self):
        store = CorrelateStore.from_pairs({" 73 A ": "text"})
        assert correlate(parse_notation("73A"), store) == "text"


class TestStoreLoaders:
    def test_tsv(self, tmp_path):
        path = tmp_path / "correlates.tsv"
        path.write_text(
            "# comment line\n73\tNew Testament\n25G4\tflowers\n\n73A\t\n",
            encoding="utf-8",
        )
        store = CorrelateStore.from_tsv(path)
        assert len(store.entries) == 2
        assert store.lookup("73") == "New Testament"
        assert store.lookup("73A") is None  # empty correlate skipped

    def test_tsv_missing_tab(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("73 New Testament\n", encoding="utf-8")
        with pytest.raises(SchemaViolation):
            CorrelateStore.from_tsv(path)

    def test_tsv_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            CorrelateStore.from_tsv(tmp_path / "nope.tsv")

    def test_json(self, tmp_path):
        path = tmp_path / "correlates.json"
        path.write_text(json.dumps({"73": "New Testament"}), encoding="utf-8")
        store = CorrelateStore.from_json(path)
        assert store.lookup("73") == "New Testament"

    def test_json_non_string_value(self, tmp_path):
        path = tmp_path / "correlates.json"
        path.write_text(json.dumps({"73": 5}), encoding="utf-8")
        with pytest.raises(SchemaViolation):
            CorrelateStore.from_json(path)

    def test_tsv_conflicting_key_names_line(self, tmp_path):
        # " 73" canonicalizes to "73": the caption must not depend on which
        # of the two lines comes last
        path = tmp_path / "correlates.tsv"
        path.write_text("73\tsea\n25\tship\n 73\tship\n", encoding="utf-8")
        with pytest.raises(SchemaViolation) as exc:
            CorrelateStore.from_tsv(path)
        message = str(exc.value)
        assert message.startswith(f"{path}: line 3: ")
        assert "' 73'" in message and "'sea'" in message

    def test_tsv_identical_repeat_allowed(self, tmp_path):
        path = tmp_path / "correlates.tsv"
        path.write_text("73\tsea\n7 3\tsea\n73\t\n", encoding="utf-8")
        assert CorrelateStore.from_tsv(path).entries == {"73": "sea"}

    def test_pairs_conflicting_key_named(self):
        with pytest.raises(SchemaViolation, match="'73A '"):
            CorrelateStore.from_pairs({"73A": "sea", "73A ": "ship"})
        store = CorrelateStore.from_pairs({"73A": "sea", "73A ": "sea"})
        assert store.entries == {"73A": "sea"}

    def test_json_conflicting_key_names_file(self, tmp_path):
        path = tmp_path / "correlates.json"
        path.write_text(json.dumps({"73(+1)": "sea", "73 (+1)": "ship"}),
                        encoding="utf-8")
        with pytest.raises(SchemaViolation) as exc:
            CorrelateStore.from_json(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert "'73 (+1)'" in str(exc.value)

    def test_json_repeated_key_names_file_and_key(self, tmp_path):
        # json.loads alone would keep the last value: a silent "ship."
        path = tmp_path / "correlates.json"
        path.write_text('{"73": "sea", "73": "ship"}', encoding="utf-8")
        with pytest.raises(SchemaViolation) as exc:
            CorrelateStore.from_json(path)
        assert str(exc.value) == \
            f"{path}: key '73' repeats with a different value"
        path.write_text('{"73": "sea", "25": "ship", "73": "sea"}',
                        encoding="utf-8")
        assert CorrelateStore.from_json(path).entries == \
            {"73": "sea", "25": "ship"}


class TestLoadAnnotations:
    def test_single_entry(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps({"a.jpg": ["73"]}), encoding="utf-8")
        assert load_annotations(path) == [AnnotationRecord("a.jpg", ("73",))]

    def test_code_order_preserved(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps({"a.jpg": ["73", "11F"]}), encoding="utf-8")
        assert load_annotations(path)[0].codes == ("73", "11F")

    def test_empty_code_array_retained(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps({"a.jpg": []}), encoding="utf-8")
        assert load_annotations(path) == [AnnotationRecord("a.jpg", ())]

    def test_non_array_value_names_key(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps({"a.jpg": 5}), encoding="utf-8")
        with pytest.raises(SchemaViolation, match="a.jpg"):
            load_annotations(path)

    def test_non_string_code_names_key(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps({"a.jpg": ["73", 5]}), encoding="utf-8")
        with pytest.raises(SchemaViolation, match="a.jpg"):
            load_annotations(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            load_annotations(tmp_path / "nope.json")

    def test_repeated_image_id_names_file_and_key(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text('{"a.jpg": ["73"], "a.jpg": ["11F"]}',
                        encoding="utf-8")
        with pytest.raises(SchemaViolation) as exc:
            load_annotations(path)
        assert str(exc.value) == \
            f"{path}: key 'a.jpg' repeats with a different value"

    def test_identical_repeat_allowed(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text('{"a.jpg": ["73"], "b.jpg": [], "a.jpg": ["73"]}',
                        encoding="utf-8")
        assert load_annotations(path) == [AnnotationRecord("a.jpg", ("73",)),
                                          AnnotationRecord("b.jpg", ())]

    def test_repeated_key_in_a_nested_object_names_it(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text('{"a.jpg": {"x": 1, "x": 2}}', encoding="utf-8")
        with pytest.raises(SchemaViolation, match="key 'x' repeats"):
            load_annotations(path)


LOAD_OUTCOMES = {
    "loaded": ('{"a.jpg": ["73"]}', None),
    "non_array_value": ('{"a.jpg": 5}', SchemaViolation),
    "repeated_key": ('{"a.jpg": ["73"], "a.jpg": ["11F"]}', SchemaViolation),
    "missing_file": (None, IoFailure),
}


@pytest.mark.parametrize("text, error", LOAD_OUTCOMES.values(),
                         ids=LOAD_OUTCOMES)
@pytest.mark.parametrize("enabled", [True, False],
                         ids=["enabled", "disabled"])
def test_load_annotations_restores_the_collector(
        tmp_path, collector_state, text, error, enabled):
    """The collector is paused for the load only: a caller finds it as it
    left it, whether the load succeeds or fails."""
    if enabled:
        gc.enable()
    else:
        gc.disable()
    path = tmp_path / "ann.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(error) if error else contextlib.nullcontext():
        load_annotations(path)
    assert gc.isenabled() is enabled


def test_load_annotations_starts_no_collection(tmp_path, collector_state):
    """Nothing is allocated once the collector resumes, so the collection
    owed for the load runs at the caller's next allocation, after the
    caller has dropped what it does not keep, not inside the call over
    every record."""
    path = tmp_path / "ann.json"
    path.write_text(json.dumps({f"{n}.jpg": ["73"] for n in range(2000)}),
                    encoding="utf-8")
    starts = []

    def on_collection(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.enable()
    gc.callbacks.append(on_collection)
    try:
        records = load_annotations(path)
    finally:
        gc.callbacks.remove(on_collection)
    assert len(records) == 2000
    assert starts == []


def _load_whole(path):
    """The whole-file path over the text ``load_annotations`` reads."""
    with reading(path, "annotations") as fh:
        annotations = iconclass._load_whole(path, fh.read())
    return [AnnotationRecord(image_id, tuple(codes))
            for image_id, codes in annotations.items()]


def _read_pieces(text):
    """The records the piecewise path reads from ``text``; None when it
    hands the text to the whole-file path."""
    return iconclass._read_pieces(text, iconclass._records)


def _load_outcome(load, path):
    """What ``load`` makes of ``path``: its records, or its error."""
    try:
        return load(path)
    except (SchemaViolation, IoFailure) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("text", [*HANDED_OVER.values(), *TAKEN.values()],
                         ids=[*HANDED_OVER, *TAKEN])
def test_piecewise_load_matches_the_whole_file_load(tmp_path, text):
    path = tmp_path / "ann.json"
    path.write_text(text, encoding="utf-8")
    with pieces_of_one_member():
        pieces = _read_pieces(path.read_text(encoding="utf-8-sig"))
        assert _load_outcome(load_annotations, path) == \
            _load_outcome(_load_whole, path)
    if text in HANDED_OVER.values():
        assert pieces is None
    else:
        assert pieces == _load_whole(path)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("text, outcome", [
    ('{"a.jpg": ["73"]}', [AnnotationRecord("a.jpg", ("73",))]),
    ('{"a.jpg": ["73"], "b.jpg": 5}',
     (SchemaViolation, "{path}: value for 'b.jpg' is not an array")),
], ids=["taken", "handed_over"])
def test_load_reads_a_pipe_once(text, outcome):
    """Text the fast path hands over is decoded again, not read again, so
    a pipe, which a second read finds empty, gives the error its text
    deserves."""
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, text.encode("utf-8"))
        os.close(write_end)
        path = f"/dev/fd/{read_end}"
        if isinstance(outcome, tuple):
            outcome = outcome[0], outcome[1].format(path=path)
        assert _load_outcome(load_annotations, path) == outcome
    finally:
        os.close(read_end)


@settings(max_examples=400, deadline=None)
@given(annotation_text())
def test_piecewise_load_property(tmp_path_factory, text):
    """Cut at every member, the load returns what the whole-file load
    returns, or raises its error with its text."""
    path = tmp_path_factory.mktemp("ann") / "ann.json"
    path.write_text(text, encoding="utf-8")
    with pieces_of_one_member():
        assert _load_outcome(load_annotations, path) == \
            _load_outcome(_load_whole, path)


def test_codes_share_one_string_per_distinct_code(tmp_path):
    ann, _ = write_corpus(tmp_path, 5000)
    records = load_annotations(ann)
    assert ann.stat().st_size > 2 * iconclass._PIECE  # several pieces
    assert records == _load_whole(ann)
    codes = [code for record in records for code in record.codes]
    assert len(set(map(id, codes))) == len(set(codes)) == 60


def test_load_holds_less_than_the_decoded_object(tmp_path):
    """The piecewise load peaks below the whole-file decode of the same
    file, and its records keep at most 0.6 of what the decoded object
    keeps (traced Python heap, 20,000 images over 60 codes)."""
    ann, _ = write_corpus(tmp_path, 20_000)

    def traced(load):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = load()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del result
        return kept - before, peak - before

    kept, peak = traced(lambda: load_annotations(ann))
    decoded_kept, decoded_peak = traced(
        lambda: read_json_object(ann, "annotations"))
    assert peak < decoded_peak
    assert kept <= 0.6 * decoded_kept


notation_text = st.from_regex(
    r"[0-9]{1,3}([0-9A-Z]{0,4})"
    r"(\([^()+][^()]{0,6}\)|\(\+([^()+][^()]{0,3})?\)){0,3}",
    fullmatch=True,
)
arbitrary_text = st.text(max_size=24)


@given(notation_text)
def test_roundtrip_on_grammar_strings(s):
    n = parse_notation(s)
    assert parse_notation(n.serialize()) == n


@settings(max_examples=300)
@given(arbitrary_text)
def test_parse_total_and_roundtrip(s):
    try:
        n = parse_notation(s)
    except MalformedNotation:
        return
    again = parse_notation(n.serialize())
    assert again == n
    assert again.serialize() == n.serialize()


@given(notation_text)
def test_parent_chain_terminates_and_shortens(s):
    n = parse_notation(s)
    length = len(n.serialize())
    steps = 0
    node = parent(n)
    while node is not None:
        # each parent is the canonical notation of its own text
        assert parse_notation(node.serialize()) == node
        serialized = len(node.serialize())
        assert serialized < length
        length = serialized
        steps += 1
        assert steps <= len(s)
        node = parent(node)


@settings(max_examples=500)
@given(st.one_of(st.from_regex(iconclass._CANONICAL, fullmatch=True),
                 notation_text, arbitrary_text))
@example("7(++1)")
@example("7(+(1)")
@example("7(+1)(X)")
@example("7((X))")
@example("7 3")
@example("\u0663")
def test_canonical_text_serializes_unchanged(s):
    if iconclass._CANONICAL.fullmatch(s):
        assert parse_notation(s).serialize() == s
        assert iconclass._canonical(s) == s


def reference_parent(n):
    """The segment walk parent replaced: the oracle for the text rule.

    Keys are stripped first, then qualifiers, then the base is shortened one
    character at a time (dropping a segment when it empties).
    """
    if n.keys:
        return IconclassNotation(n.base, n.qualifiers, n.keys[:-1])
    if n.qualifiers:
        return IconclassNotation(n.base, n.qualifiers[:-1], n.keys)
    last = n.base[-1]
    if len(n.base) == 1 and len(last) == 1:
        return None
    base = n.base[:-1] if len(last) == 1 else n.base[:-1] + (last[:-1],)
    return IconclassNotation(base, (), ())


def reference_chain(n):
    """``n`` and its ancestors by the segment walk, as notations."""
    chain = []
    while n is not None:
        chain.append(n)
        n = reference_parent(n)
    return chain


def reference_correlate(n, store, parent_fallback):
    """Look up ``n``, then each segment-walk ancestor while falling back."""
    for node in reference_chain(n) if parent_fallback else [n]:
        text = store.lookup(node.serialize())
        if text is not None:
            return text
    return None


def reference_resolve(code, store, parent_fallback):
    """Parse, then walk segments; the oracle for iconclass.resolve_code."""
    try:
        notation = parse_notation(code)
    except MalformedNotation:
        return None
    return reference_correlate(notation, store, parent_fallback)


@given(notation_text)
@example("7")
@example("7(+1)")
@example("25G4(ROSE)(+1)")
@example("7\u0663A")
@example("73(a b)(+x y)")
def test_ancestors_match_segment_walk(s):
    n = parse_notation(s)
    assert [node.serialize() for node in [n, *ancestors(n)]] == \
        [node.serialize() for node in reference_chain(n)]


def test_resolve_code_walks_canonical_text_unparsed(monkeypatch):
    # a canonical code and its ancestors are store keys as they stand
    def refuse(raw):
        raise AssertionError(f"parsed {raw!r}")

    store = CorrelateStore.from_pairs({"7": "bible", "73A": "sea"})
    monkeypatch.setattr(iconclass, "parse_notation", refuse)
    for code, fallback, text in [("73A(ROSE)(+1)", True, "sea"),
                                 ("73A(ROSE)(+1)", False, None),
                                 ("79", True, "bible"), ("8", True, None)]:
        assert iconclass.resolve_code(code, store, fallback) == text


@settings(max_examples=500)
@given(st.one_of(notation_text, arbitrary_text, st.sampled_from(
    ["7(++1)", "7(+1)(X)", "73 ", "73(+1)", "25G(ROSE)(+2)", "1A(X"])),
    st.data())
def test_resolve_code_matches_parse_then_correlate(code, data):
    # the store holds a few roots, a malformed key kept verbatim and some of
    # the code's own ancestors, so codes hit directly, through their
    # parents, and not at all
    keys = ["1", "7", "73", "25G(ROSE)", "7(++1)"]
    try:
        notation = parse_notation(code)
    except MalformedNotation:
        pass
    else:
        chain = reference_chain(notation)
        keys += [n.serialize() for n in data.draw(
            st.lists(st.sampled_from(chain), max_size=3))]
    store = CorrelateStore.from_pairs({key: f"<{key}>" for key in keys})
    for parent_fallback in (False, True):
        assert iconclass.resolve_code(code, store, parent_fallback) == \
            reference_resolve(code, store, parent_fallback)


def _byte_offset(text, index):
    return len(text[:index].encode("utf-8", "surrogatepass"))


def reference_parse_notation(raw):
    """The character-indexed scanner parse_notation replaced.

    The oracle for parse_notation's token regex: every input must give the
    same notation, or the same error message at the same byte offset.
    """
    text = raw
    n = len(text)
    i = 0
    # leading whitespace
    while i < n and text[i].isspace():
        i += 1
    if i == n:
        raise MalformedNotation("empty notation", _byte_offset(text, 0))
    if not text[i].isdigit():
        raise MalformedNotation(
            f"notation must start with a digit, got {text[i]!r}",
            _byte_offset(text, i),
        )

    segments = []
    segment_is_digit = []
    qualifiers = []
    keys = []
    seen_group = False

    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            open_at = i
            i += 1
            start = i
            while i < n and text[i] not in "()":
                i += 1
            if i == n:
                raise MalformedNotation(
                    "unterminated group", _byte_offset(text, open_at)
                )
            if text[i] == "(":
                raise MalformedNotation(
                    "nested parenthesis", _byte_offset(text, i)
                )
            content = text[start:i]
            i += 1  # consume ")"
            if content.startswith("+"):
                if content.startswith("++"):
                    raise MalformedNotation(
                        "key content begins with '+'",
                        _byte_offset(text, start + 1),
                    )
                keys.append(content[1:])
            else:
                qualifiers.append(content)
            seen_group = True
        elif ch.isdigit() or "A" <= ch <= "Z":
            if seen_group:
                raise MalformedNotation(
                    "base character after a group", _byte_offset(text, i)
                )
            kind = ch.isdigit()
            start = i
            while i < n and (
                text[i].isdigit() if kind else "A" <= text[i] <= "Z"
            ):
                i += 1
            run = text[start:i]
            # whitespace outside groups is stripped, so a run separated
            # from its predecessor only by spaces continues that segment
            if segment_is_digit and segment_is_digit[-1] == kind:
                segments[-1] += run
            else:
                segments.append(run)
                segment_is_digit.append(kind)
        else:
            raise MalformedNotation(
                f"unexpected character {ch!r}", _byte_offset(text, i)
            )

    return IconclassNotation(tuple(segments), tuple(qualifiers), tuple(keys))


def _outcome(parse, s):
    """What ``parse`` makes of ``s``: a notation, or an error and offset."""
    try:
        return parse(s)
    except MalformedNotation as exc:
        return str(exc), exc.offset


# the grammar's characters, plus whole openings so that groups, keys and
# "++" keys turn up often
grammarish_text = st.lists(
    st.sampled_from(list("0123456789ABZ()+ \t\u0663\u00b2")
                    + ["(+", "(++", "(X)", "(+1)"]),
    max_size=12,
).map("".join)


@settings(max_examples=1000)
@given(st.one_of(arbitrary_text, grammarish_text))
@example("7((")
@example("7(a(")
@example("7(++1)")
@example(" 7 3A (+1) 4")
def test_parse_matches_reference_scanner(s):
    assert _outcome(parse_notation, s) == \
        _outcome(reference_parse_notation, s)


def test_parse_matches_reference_on_every_space_and_digit():
    # the two classes where str methods, not ASCII ranges, decide: 817
    # code points, each alone and in five contexts
    chars = [chr(c) for c in range(0x110000)
             if chr(c).isspace() or chr(c).isdigit()]
    contexts = ("{}", "1{}", "1{}2", "1(x){}", "{}1", "A{}")
    for ch in chars:
        for context in contexts:
            s = context.format(ch)
            assert _outcome(parse_notation, s) == \
                _outcome(reference_parse_notation, s), s
