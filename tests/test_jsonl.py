"""The caption JSONL reader's schema and the atomic writer."""

import hashlib
import json
import os
import stat

import pytest
from hypothesis import HealthCheck, find, given, settings
from hypothesis import strategies as st

from iconcap import DuplicateId, IoFailure, SchemaViolation
from iconcap.captions import CaptionRecord, export_jsonl
from iconcap.cli import run
from iconcap.jsonl import (SPLITS, _echo, read_captions, write_atomic,
                           write_captions)
from synth import write_corpus

_DECODE = json.JSONDecoder().decode


def reference_read_captions(path):
    """The reader as it was before the scanner fast path: every line goes
    through ``JSONDecoder.decode``; kept as the oracle for the fast path.
    Like the reader it skips a leading byte-order mark and rejects a
    repeated id at its line."""
    def violation(lineno, message):
        return SchemaViolation(f"{path}: line {lineno}: {message}")

    def bad_key(row, key, expected):
        if key not in row:
            return f"key {key!r} is missing"
        return f"key {key!r} must be {expected}, got {_echo(row[key])}"

    seen = set()
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, 1):
                try:
                    row = _DECODE(line)
                except json.JSONDecodeError as exc:
                    if not line.strip():
                        continue
                    raise violation(lineno, f"not valid JSON: {exc.msg} "
                                            f"at column {exc.pos + 1}") \
                        from None
                if type(row) is not dict:
                    raise violation(lineno, "expected a JSON object, "
                                            f"got {_echo(row)}")
                image_id = row.get("image_id")
                if type(image_id) is not str:
                    if type(image_id) is not int:
                        raise violation(lineno, bad_key(
                            row, "image_id", "a string or an integer"))
                    image_id = str(image_id)
                caption = row.get("caption", "")
                if type(caption) is not str:
                    raise violation(lineno, bad_key(row, "caption", "a string"))
                split = row.get("split")
                if split is not None and split not in SPLITS:
                    raise violation(lineno, bad_key(
                        row, "split", "one of train, val, test"))
                if image_id in seen:
                    raise DuplicateId(image_id, f"{path}: line {lineno}")
                seen.add(image_id)
                yield image_id, caption, split
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IoFailure(f"cannot read {path}: not UTF-8: {exc}") from exc


def outcome(reader, path):
    """The rows ``reader`` yields before it stops, and how it stops."""
    rows = []
    try:
        for row in reader(path):
            rows.append(row)
    except (SchemaViolation, DuplicateId, IoFailure) as exc:
        return rows, type(exc), str(exc)
    return rows, None, None


# quotes, backslashes, control characters, the line separators that JSON
# allows raw in a string, a byte order mark, non-BMP and non-ASCII text
SPECIALS = ['"', "\\", "\x00", "\x1f", "\x7f", "\b", "\f", "\n", "\r",
            "\t", "\u2028", "\u2029", "\U0001f600", "\U0010ffff", "é", "ß",
            "\ufeff", "/", "{", "}"]
text = st.text(st.characters(blacklist_categories=("Cs",))
               | st.sampled_from(SPECIALS), max_size=30)

# a few ids that recur, "7" and 7 among them, so that files repeat ids
image_ids = st.sampled_from(["a", "7", 7]) | text | st.integers()

json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | text
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(text, inner, max_size=3),
    max_leaves=4,
)


valid_rows = st.fixed_dictionaries(
    {"image_id": image_ids, "caption": text},
    optional={"split": st.sampled_from(SPLITS)},
)
whitespace = st.sampled_from(["", "", " ", "\t", " \t"])


@st.composite
def caption_objects(draw):
    """A JSON object, most often a valid caption row."""
    row = {"image_id": draw(image_ids), "caption": draw(text)}
    if draw(st.booleans()):
        row["split"] = draw(st.sampled_from(SPLITS))
    if not draw(st.integers(0, 3)):  # one member missing, extra or ill-typed
        key = draw(st.sampled_from(["image_id", "caption", "split", "extra"]))
        row.pop(key, None)
        if draw(st.booleans()):
            row[key] = draw(json_value)
    keys = draw(st.permutations(list(row)))
    return {key: row[key] for key in keys}


@st.composite
def caption_lines(draw):
    """One line of a caption file, with its line end (or none)."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        body = draw(st.sampled_from([
            "", " ", "\t", "NaN", "-Infinity", "null", "[1, 2]", '"a"',
            "{", "}", '{"image_id": "a"', "{'image_id': 'a'}", "[" * 40,
            '{"image_id": "a",}', '{"image_id": "a"}{}', "\ufeff{}",
        ]))
    else:
        value = draw(json_value) if kind == 1 else draw(caption_objects())
        compact = draw(st.booleans())
        body = json.dumps(value, ensure_ascii=draw(st.booleans()),
                          separators=(",", ":") if compact else None)
        body = draw(whitespace) + body + draw(st.sampled_from([
            "", " ", "\t", "\u2028", "\u00a0", "x", " 1", "{}",
        ]))
    return body + draw(st.sampled_from(["\n", "\r\n", "\r", ""]))


@st.composite
def caption_files(draw):
    """Valid rows and blank lines in any whitespace and line-end layout,
    then one line that may be anything, so that the valid lines are all
    read before a bad last line ends the read."""
    lines = []
    for row in draw(st.lists(valid_rows | st.none(), max_size=5)):
        body = "" if row is None else json.dumps(
            row, ensure_ascii=draw(st.booleans()),
            separators=(",", ":") if draw(st.booleans()) else None)
        lines.append(draw(whitespace) + body + draw(whitespace)
                     + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    return "".join(lines) + draw(caption_lines())


def _read(tmp_path, text):
    path = tmp_path / "caps.jsonl"
    path.write_text(text, encoding="utf-8")
    return list(read_captions(path))


class TestReadCaptions:
    def test_rows_with_defaults_and_blank_lines(self, tmp_path):
        rows = _read(tmp_path, '\n{"image_id": "a", "caption": "sea."}\n'
                               '  \n{"image_id": 7, "split": "test"}\n')
        assert rows == [("a", "sea.", None), ("7", "", "test")]

    @pytest.mark.parametrize("text,line,ids", [
        ('{"image_id": "a"}\n\n{"image_id": "b"}\n{"image_id": "a"}\n',
         4, ["a", "b"]),
        ('{"image_id": "7", "caption": "x"}\n{"image_id": 7}\n', 2, ["7"]),
    ], ids=["after-blank-line", "integer-repeats-string"])
    def test_repeated_id_names_file_and_line(self, tmp_path, text, line, ids):
        path = tmp_path / "caps.jsonl"
        path.write_text(text)
        rows, error, message = outcome(read_captions, path)
        assert [row[0] for row in rows] == ids
        assert error is DuplicateId
        # the first id read is the one that repeats
        assert message == f"{path}: line {line}: duplicate image id {ids[0]!r}"

    @pytest.mark.parametrize("line,key", [
        ('{"image_id": null, "caption": "x"}', "image_id"),
        ('{"image_id": ["a"], "caption": "x"}', "image_id"),
        ('{"image_id": {"a": 1}, "caption": "x"}', "image_id"),
        ('{"image_id": true, "caption": "x"}', "image_id"),
        ('{"image_id": 1.5, "caption": "x"}', "image_id"),
        ('{"image_id": "a", "caption": null}', "caption"),
        ('{"image_id": "a", "caption": 3}', "caption"),
        ('{"image_id": "a", "caption": "x", "split": "bogus"}', "split"),
        ('{"image_id": "a", "caption": "x", "split": ["test"]}', "split"),
    ])
    def test_rejected_values_name_line_and_key(self, tmp_path, line, key):
        text = '{"image_id": "ok", "caption": "x"}\n' + line + "\n"
        with pytest.raises(SchemaViolation,
                           match=rf"caps\.jsonl: line 2: key '{key}'"):
            _read(tmp_path, text)

    def test_not_utf8_is_io_failure(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        path.write_bytes(b'{"image_id": "a", "caption": "\xff"}\n')
        with pytest.raises(IoFailure, match="caps.jsonl"):
            list(read_captions(path))

    def test_any_nesting_depth_is_schema_violation(self, tmp_path):
        # a value just inside the decoder's depth limit must not exhaust
        # the stack when the message echoes it
        path = tmp_path / "caps.jsonl"
        for depth in range(1, 1101):
            value = "[" * depth + "]" * depth
            for line in (value, f'{{"image_id": {value}}}'):
                path.write_text(line + "\n")
                with pytest.raises(SchemaViolation):
                    list(read_captions(path))

    def test_wide_value_gives_a_short_message(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        zeros = "[" + ",".join(["0"] * 100_000) + "]"
        for line in (zeros, f'{{"image_id": {zeros}}}'):
            (tmp_path / "wide.jsonl").write_text(line + "\n")
            with pytest.raises(SchemaViolation,
                               match="got an array of 100000 items") as info:
                list(read_captions("wide.jsonl"))
            assert len(str(info.value).encode()) < 200

    @settings(max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(caption_files())
    def test_matches_decode_every_line_oracle(self, tmp_path, text):
        path = tmp_path / "caps.jsonl"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        assert outcome(read_captions, path) == \
            outcome(reference_read_captions, path)

    def test_strategy_draws_repeated_ids(self, tmp_path):
        """The oracle comparison covers files that a repeated id ends."""
        path = tmp_path / "caps.jsonl"

        def repeats(text):
            path.write_bytes(text.encode("utf-8", "surrogatepass"))
            return outcome(reference_read_captions, path)[1] is DuplicateId

        find(caption_files(), repeats, settings=settings(database=None, derandomize=True))

    @pytest.mark.parametrize("text", [
        '{"image_id": "a", "caption": "x"}',
        ' {"image_id": "a"}\n',
        '{"image_id": "a"} \r\n{"image_id": "b"}\t\n',
        '{"image_id": "a"}\u2028\n',
        '{"image_id": "a"}{"image_id": "b"}\n',
        '{"image_id": "a"}x\n',
        '{"image_id": "a", "caption": NaN}\n',
        '{"image_id": 1, "caption": "x", "n": [{"a": [1.5e3]}]}\n',
        '\n\r\n{"image_id": "a"\n',
        '{"image_id": "a", "caption": "\\ud800"}\r',
        '{"image_id": "7"}\n\n{"image_id": 7}\n',
        '\ufeff{"image_id": "a"}\n{"image_id": "a"}\n',
    ])
    def test_edge_lines_match_oracle(self, tmp_path, text):
        path = tmp_path / "caps.jsonl"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(read_captions, path) == \
            outcome(reference_read_captions, path)


class TestWriteCaptions:
    @settings(max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(text, text, st.none() | st.sampled_from(SPLITS)),
                    min_size=1, max_size=5),
           st.none() | st.tuples(st.integers(0, 4), st.integers(0, 1),
                                 st.sampled_from(["\ud800", "\udfff"])))
    def test_bytes_match_json_dumps(self, tmp_path, rows, surrogate):
        if surrogate:  # a lone surrogate in an id or a caption
            index, field, char = surrogate
            row = list(rows[index % len(rows)])
            row[field] += char
            rows[index % len(rows)] = tuple(row)
        path = tmp_path / "out.jsonl"
        path.write_text("old\n")
        expected = []
        for image_id, caption, split in rows:
            row = {"image_id": image_id, "caption": caption}
            if split is not None:
                row["split"] = split
            expected.append(json.dumps(row, ensure_ascii=False) + "\n")
        try:
            data = "".join(expected).encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate
            with pytest.raises(IoFailure, match="out.jsonl"):
                write_captions(path, rows)
            assert path.read_text() == "old\n"
        else:
            write_captions(path, rows)
            assert path.read_bytes() == data
        assert os.listdir(tmp_path) == ["out.jsonl"]

    @settings(max_examples=100,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.dictionaries(text, st.tuples(text, st.sampled_from(SPLITS)),
                           max_size=8))
    def test_exports_match_separate_writes(self, tmp_path, drawn):
        """One pass with ``export_dir`` writes the bytes of the records
        file and of three filtered ``export_jsonl`` calls."""
        # non-ASCII text, JSON escapes, every split and an unset one
        drawn.update({"a\u00e9.jpg": ('say "hi" \\ \u2603\t\x01.', "train"),
                      "b\u4e2d.jpg": ("\u00fcber\nline.", "val"),
                      "c.jpg": ("\u2028sea, ship.", "test"),
                      "d.jpg": ("unset.", None)})
        rows = sorted((image_id, caption, split)
                      for image_id, (caption, split) in drawn.items())
        one, apart = tmp_path / "one", tmp_path / "apart"
        for directory in (one, apart):
            (directory / "exp").mkdir(parents=True, exist_ok=True)
        write_captions(one / "s.jsonl", rows, one / "exp")
        write_captions(apart / "s.jsonl", rows)
        records = [CaptionRecord(image_id, "", caption, split)
                   for image_id, caption, split in rows]
        for split in SPLITS:
            export_jsonl(records, apart / "exp" / f"{split}.jsonl", split)
        for name in ("s.jsonl", *(f"exp/{split}.jsonl" for split in SPLITS)):
            assert (one / name).read_bytes() == (apart / name).read_bytes()
        assert sorted(os.listdir(one / "exp")) == sorted(
            f"{split}.jsonl" for split in SPLITS)

    def test_unencodable_last_row_keeps_all_four_files(self, tmp_path):
        rows = [("a", "sea.", "train"), ("b", "ship\u00e9.", "val"),
                ("c", "king.", "test"), ("d", "bad \ud800.", "train")]
        exports = tmp_path / "exp"
        exports.mkdir()
        targets = [tmp_path / "s.jsonl",
                   *(exports / f"{split}.jsonl" for split in SPLITS)]
        for target in targets:
            target.write_text(f"old {target.name}\n")
        with pytest.raises(IoFailure, match="cannot write .*s.jsonl"):
            write_captions(tmp_path / "s.jsonl", rows, exports)
        for target in targets:
            assert target.read_text() == f"old {target.name}\n"
        assert sorted(os.listdir(tmp_path)) == ["exp", "s.jsonl"]
        assert sorted(os.listdir(exports)) == sorted(
            f"{split}.jsonl" for split in SPLITS)

    def test_frozen_pipeline_digests(self, tmp_path):
        # recorded before the writer was rebuilt on the C string encoder;
        # any change to the bytes of a written caption line shows here
        ann, tsv = write_corpus(tmp_path, n_images=300, seed=17)
        assert run(["build", "--annotations", str(ann), "--correlates",
                    str(tsv), "--out", str(tmp_path / "records.jsonl"),
                    "--quiet", "--report", str(tmp_path / "build.json")]) == 0
        assert run(["split", "--in", str(tmp_path / "records.jsonl"),
                    "--val", "30", "--test", "30", "--seed", "3",
                    "--out", str(tmp_path / "split.jsonl"),
                    "--export-dir", str(tmp_path / "splits"), "--quiet",
                    "--report", str(tmp_path / "split.json")]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("records.jsonl", "split.jsonl", "splits/train.jsonl",
                         "splits/val.jsonl", "splits/test.jsonl")
        }
        assert digests == {
            "records.jsonl": "8cefd09c0cca50ce0759b5df2025ef41"
                             "57a3b70ee8204645030e42cf82dc256c",
            "split.jsonl": "60bc3408e3d3ee4ac0ed33677c205417"
                           "72adcba4d1417b91645bad66ed301da5",
            "splits/train.jsonl": "d3fb7c56ab4567cfc8d590d949b24542"
                                  "14045f1bf8bac4ae7f4ace52915d7b23",
            "splits/val.jsonl": "451ea2eed64efeb04084e440f4074b23"
                                "71c0b0895ccc6adff73de5f148920459",
            "splits/test.jsonl": "e8236aa0f26330522b572c564235e988"
                                 "f300253b10f9493e506444743202e5c8",
        }


class TestWriteAtomic:
    def test_replaces_whole_and_keeps_mode(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old old old\n")
        os.chmod(path, 0o640)
        write_atomic(path, ["new", "\n"])
        assert path.read_text() == "new\n"
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failure_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text("old\n")
        with pytest.raises(IoFailure, match="out.jsonl"):
            write_captions(path, [("a", "sea.", None), ("b", "\ud800", None)])
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.jsonl"]

    def test_symlink_stays_and_its_target_is_replaced(self, tmp_path):
        target = tmp_path / "real.txt"
        target.write_text("old\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        write_atomic(link, ["new\n"])
        assert link.is_symlink()
        assert os.readlink(link) == str(target)
        assert target.read_text() == "new\n"
        assert sorted(os.listdir(tmp_path)) == ["link.txt", "real.txt"]

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        # a reader opened first lets the writer's open return at once
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_atomic(fifo, ["through the pipe\n"])
            data = os.read(reader, 1024)
        finally:
            os.close(reader)
        assert data == b"through the pipe\n"
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["out.fifo"]
