"""The caption JSONL reader's schema and the atomic writer."""

import os
import stat

import pytest

from iconcap import IoFailure, SchemaViolation
from iconcap.jsonl import read_captions, write_atomic, write_captions


def _read(tmp_path, text):
    path = tmp_path / "caps.jsonl"
    path.write_text(text, encoding="utf-8")
    return list(read_captions(path))


class TestReadCaptions:
    def test_rows_with_defaults_and_blank_lines(self, tmp_path):
        rows = _read(tmp_path, '\n{"image_id": "a", "caption": "sea."}\n'
                               '  \n{"image_id": 7, "split": "test"}\n')
        assert rows == [(2, "a", "sea.", None), (4, "7", "", "test")]

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
