"""CLI behavior: exit codes, output formats, end-to-end pipeline runs."""

import argparse
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iconcap import cli
from iconcap.cli import run
from synth import write_corpus


class TestExitCodes:
    def test_parse_prints_structure(self, capsys):
        assert run(["parse", "73A(+1)"]) == 0
        out = capsys.readouterr().out.strip()
        assert json.loads(out) == {
            "base": ["73", "A"], "keys": ["1"], "qualifiers": [],
        }

    def test_parse_malformed_is_domain_error(self, capsys):
        assert run(["parse", "73("]) == 1
        assert "offset" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_is_usage_error(self):
        assert run(["parse", "--bogus", "73"]) == 2

    def test_no_arguments_is_usage_error(self):
        assert run([]) == 2

    @pytest.mark.parametrize("flag", ["--seed", "--x100"])
    @pytest.mark.parametrize("command", [
        ["parse", "73"],
        ["build", "--annotations", "a.json", "--correlates", "c.tsv",
         "--out", "o.jsonl"],
        ["split", "--in", "r.jsonl", "--val", "0", "--test", "0",
         "--out", "o.jsonl"],
        ["eval", "--candidates", "c.jsonl", "--references", "r.jsonl"],
        ["analyze", "genres", "--captions", "c.jsonl", "--genres", "g.csv",
         "--out", "o.csv"],
        ["analyze", "lengths", "--captions", "c.jsonl"],
        ["baseline", "--train", "t.jsonl", "--ids", "i.txt",
         "--out", "o.jsonl"],
    ], ids=lambda argv: argv[1] if argv[0] == "analyze" else argv[0])
    def test_seed_and_x100_belong_to_split_and_eval(self, capsys, command,
                                                     flag):
        """--seed is split's and --x100 is eval's; elsewhere either is an
        unrecognized argument, not a value recorded and never used."""
        argv = [*command, flag] + (["3"] if flag == "--seed" else [])
        if command[0] == {"--seed": "split", "--x100": "eval"}[flag]:
            args = cli._build_parser().parse_args(argv)
            assert getattr(args, flag[2:]) == (3 if flag == "--seed" else True)
        else:
            assert run(argv) == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_eval_missing_file_names_path(self, tmp_path, capsys):
        refs = tmp_path / "refs.jsonl"
        refs.write_text('{"image_id": "a", "caption": "x"}\n')
        missing = tmp_path / "missing.jsonl"
        assert run(["eval", "--candidates", str(missing),
                    "--references", str(refs)]) == 1
        assert "missing.jsonl" in capsys.readouterr().err

    def test_split_duplicate_id_is_domain_error(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text("".join(
            json.dumps({"image_id": i, "caption": f"{i}."}) + "\n"
            for i in ("a", "a", "b")
        ))
        out = tmp_path / "split.jsonl"
        assert run(["split", "--in", str(records), "--val", "1",
                    "--test", "1", "--out", str(out), "--quiet"]) == 1
        assert f"{records}: line 2: duplicate image id 'a'" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("token", ["bb", "ABCDE", "B1"])
    def test_build_bad_stoplist_is_usage_error(self, tmp_path, capsys, token):
        ann, tsv = write_corpus(tmp_path, n_images=3)
        out = tmp_path / "records.jsonl"
        assert run(["build", "--annotations", str(ann), "--correlates",
                    str(tsv), "--out", str(out), "--stoplist", token]) == 2
        assert f"stoplist entry {token!r} must be 1-4 uppercase letters" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_eval_duplicate_id_names_file_and_line(self, tmp_path, capsys):
        dup = tmp_path / "dup.jsonl"
        dup.write_text('{"image_id": "a", "caption": "x"}\n\n'
                       '{"image_id": "a", "caption": "y"}\n')
        refs = tmp_path / "refs.jsonl"
        refs.write_text('{"image_id": "a", "caption": "x"}\n')
        assert run(["eval", "--candidates", str(dup),
                    "--references", str(refs), "--quiet"]) == 1
        assert f"{dup}: line 3: duplicate image id 'a'" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("val,test", [
        ("-1", "0"), ("0", "-1"), ("\u00b2", "0"), ("0", "\u00b9")])
    def test_split_negative_count_is_usage_error(self, tmp_path, capsys,
                                                 val, test):
        records = tmp_path / "records.jsonl"
        records.write_text('{"image_id": "a", "caption": "a."}\n')
        out = tmp_path / "split.jsonl"
        assert run(["split", "--in", str(records), "--val", val,
                    "--test", test, "--out", str(out)]) == 2
        assert "expected an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,minimum", [("--val", 0), ("--k", 1)])
    def test_count_past_int_digit_limit_is_usage_error(self, tmp_path,
                                                       capsys, flag, minimum):
        # 5,000 digits is past int()'s default limit of 4,300
        captions = tmp_path / "caps.jsonl"
        captions.write_text('{"image_id": "a", "caption": "sea."}\n')
        genres = tmp_path / "genres.csv"
        genres.write_text("image_id,genre\na,marine\n")
        out = tmp_path / "out"
        argv = {
            "--val": ["split", "--in", str(captions), "--test", "0"],
            "--k": ["analyze", "genres", "--captions", str(captions),
                    "--genres", str(genres)],
        }[flag]
        assert run([*argv, flag, "1" * 5000, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{flag}: expected an integer >= {minimum}, got " \
            f"'{'1' * 20}'... (5000 characters)" in err
        assert "Traceback" not in err and "_int" not in err
        assert max(len(line) for line in err.splitlines()) < 200
        assert not out.exists()

    def test_eval_missing_reference_names_both_files(self, tmp_path, capsys):
        cands = tmp_path / "cands.jsonl"
        cands.write_text('{"image_id": "a", "caption": "x"}\n'
                         '{"image_id": "b", "caption": "y"}\n')
        refs = tmp_path / "refs.jsonl"
        refs.write_text('{"image_id": "a", "caption": "x"}\n')
        assert run(["eval", "--candidates", str(cands),
                    "--references", str(refs), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"iconcap eval: error: {cands}: no reference caption for "
            f"image id 'b' in {refs}\n")


def _argv_reading(command, bad, tmp_path):
    """Arguments that make ``command`` read the caption file ``bad``."""
    good = tmp_path / "good.jsonl"
    good.write_text('{"image_id": "a", "caption": "sea."}\n')
    out = str(tmp_path / "out.jsonl")
    return {
        "eval": ["eval", "--candidates", str(bad), "--references", str(good)],
        "split": ["split", "--in", str(bad), "--val", "0", "--test", "0",
                  "--out", out],
        "lengths": ["analyze", "lengths", "--captions", str(bad)],
        "baseline": ["baseline", "--train", str(good), "--ids", str(bad),
                     "--out", out],
    }[command] + ["--quiet"]


class TestMalformedCaptions:
    @pytest.mark.parametrize("command,lines,fragments", [
        ("eval", ["[1,2]"], ["line 1"]),
        ("split", ["[1,2]"], ["line 1"]),
        ("lengths", ["[1,2]"], ["line 1"]),
        ("eval", ['{"image_id": "a", "caption": "x"}', '{"caption": "x"}'],
         ["line 2", "'image_id'"]),
        ("baseline", ['{"image_id": "a"}', '{"image_id": '], ["line 2"]),
        ("split", ['{"image_id": "a", "caption": "x", "split": "bogus"}'],
         ["line 1", "'split'"]),
    ], ids=["eval-array", "split-array", "lengths-array", "eval-missing-id",
            "baseline-ids-invalid-json", "split-bogus-split"])
    def test_domain_error_names_file_line_and_key(
        self, tmp_path, capsys, command, lines, fragments
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(line + "\n" for line in lines))
        assert run(_argv_reading(command, bad, tmp_path)) == 1
        err = capsys.readouterr().err
        assert "bad.jsonl" in err
        for fragment in fragments:
            assert fragment in err
        assert not (tmp_path / "out.jsonl").exists()

    def test_ids_not_utf8_is_domain_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"a\xff\n")
        assert run(_argv_reading("baseline", bad, tmp_path)) == 1
        assert "bad.txt: not UTF-8" in capsys.readouterr().err

    def test_unencodable_caption_keeps_old_output(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text('{"image_id": "a", "caption": "\\ud800"}\n')
        out = tmp_path / "split.jsonl"
        out.write_bytes(b'{"image_id": "old"}\n')
        assert run(["split", "--in", str(records), "--val", "0",
                    "--test", "0", "--out", str(out), "--quiet"]) == 1
        assert "split.jsonl" in capsys.readouterr().err
        assert out.read_bytes() == b'{"image_id": "old"}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "records.jsonl", "split.jsonl",
        ]

    def test_unencodable_id_keeps_old_output(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text('{"image_id": "\\ud800", "caption": "sea."}\n')
        out = tmp_path / "split.jsonl"
        out.write_bytes(b'{"image_id": "old"}\n')
        assert run(["split", "--in", str(records), "--val", "0",
                    "--test", "0", "--out", str(out), "--quiet"]) == 1
        assert f"cannot write {out}" in capsys.readouterr().err
        assert out.read_bytes() == b'{"image_id": "old"}\n'

    def test_ids_form_decided_by_first_line(self, tmp_path):
        train = tmp_path / "train.jsonl"
        train.write_text('{"image_id": "t", "caption": "sea."}\n')
        ids = tmp_path / "ids.txt"
        ids.write_text("\nb\n{a}\n")
        out = tmp_path / "cands.jsonl"
        assert run(["baseline", "--train", str(train), "--ids", str(ids),
                    "--out", str(out), "--quiet"]) == 0
        assert out.read_text() == (
            '{"image_id": "b", "caption": "sea."}\n'
            '{"image_id": "{a}", "caption": "sea."}\n'
        )

    def test_ids_form_read_from_first_line_only(self, tmp_path, monkeypatch):
        """The form is decided on the first non-blank line alone, so a
        JSONL file is read in full once, by the caption reader."""
        ids = tmp_path / "ids.jsonl"
        ids.write_text("\n" + "".join(f'{{"image_id": "i{n}"}}\n'
                                      for n in range(5)))
        consumed = []
        real = cli.reading

        @contextlib.contextmanager
        def counting(path, *args):
            with real(path, *args) as fh:
                def lines():
                    for line in fh:
                        consumed.append(line)
                        yield line
                yield lines()

        monkeypatch.setattr(cli, "reading", counting)
        assert cli._read_test_ids(str(ids)) == [f"i{n}" for n in range(5)]
        assert consumed == ["\n", '{"image_id": "i0"}\n']

    def test_repeated_train_id_is_domain_error(self, tmp_path, capsys):
        """A repeated --train id is rejected, not counted twice."""
        train = tmp_path / "train.jsonl"
        train.write_text("".join(
            f'{{"image_id": "{image_id}", "caption": "{caption}"}}\n'
            for image_id, caption in [("a", "x."), ("a", "x."), ("b", "y."),
                                      ("c", "y.")]))
        ids = tmp_path / "ids.txt"
        ids.write_text("t\n")
        out = tmp_path / "cands.jsonl"
        assert run(["baseline", "--train", str(train), "--ids", str(ids),
                    "--out", str(out), "--quiet"]) == 1
        assert f"{train}: line 2: duplicate image id 'a'" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_repeated_test_id_gets_one_candidate(self, tmp_path, capsys):
        train = tmp_path / "train.jsonl"
        train.write_text('{"image_id": "t", "caption": "sea."}\n')
        refs = tmp_path / "refs.jsonl"
        refs.write_text('{"image_id": "b", "caption": "sea."}\n')
        ids = tmp_path / "ids.txt"
        ids.write_text("b\nb\n")
        out = tmp_path / "cands.jsonl"
        assert run(["baseline", "--train", str(train), "--ids", str(ids),
                    "--out", str(out), "--quiet"]) == 0
        capsys.readouterr()
        assert run(["eval", "--candidates", str(out),
                    "--references", str(refs), "--quiet"]) == 0
        assert len(json.loads(capsys.readouterr().out)["examples"]) == 1



def _build_argv(tmp_path, bad_flag, bad):
    """Build arguments that read ``bad`` through ``bad_flag``."""
    ann, tsv = write_corpus(tmp_path, n_images=3)
    corr = tmp_path / "correlates.json"
    corr.write_text(json.dumps({"73": "sea"}))
    argv = {
        "annotations": ["--annotations", str(bad), "--correlates", str(tsv)],
        "tsv": ["--annotations", str(ann), "--correlates", str(bad)],
        "json": ["--annotations", str(ann), "--correlates", str(bad),
                 "--correlates-format", "json"],
    }[bad_flag]
    return ["build", *argv, "--out", str(tmp_path / "out.jsonl"), "--quiet"]


class TestUndecodableInputs:
    @pytest.mark.parametrize("bad_flag", ["annotations", "tsv", "json"])
    def test_build_input_not_utf8(self, tmp_path, capsys, bad_flag):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe")
        assert run(_build_argv(tmp_path, bad_flag, bad)) == 1
        assert "bad.bin: not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("bad_flag", ["annotations", "json"])
    def test_build_input_nested_too_deeply(self, tmp_path, capsys, bad_flag):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000)
        assert run(_build_argv(tmp_path, bad_flag, bad)) == 1
        assert f"{bad}: JSON nested too deeply" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("line", ["[" * 100_000, " " + "[" * 100_000],
                             ids=["scanner", "decoder"])
    def test_captions_nested_too_deeply(self, tmp_path, capsys, line):
        bad = tmp_path / "deep.jsonl"
        bad.write_text('{"image_id": "a", "caption": "sea."}\n' + line + "\n")
        assert run(["analyze", "lengths", "--captions", str(bad)]) == 1
        assert f"{bad}: line 2: JSON nested too deeply" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("bad_flag,template", [
        ("annotations", '{"a": [%s]}'), ("json", '{"73": %s}'),
    ], ids=["annotations", "json"])
    def test_build_input_integer_too_long(self, tmp_path, capsys, bad_flag,
                                          template):
        bad = tmp_path / "big.json"
        bad.write_text(template % ("1" * 5000))
        assert run(_build_argv(tmp_path, bad_flag, bad)) == 1
        assert f"{bad}: not valid JSON: Exceeds the limit" in \
            capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("indent", ["", " "], ids=["scanner", "decoder"])
    def test_captions_integer_too_long(self, tmp_path, capsys, indent):
        bad = tmp_path / "big.jsonl"
        bad.write_text('{"image_id": "a", "caption": "sea."}\n' + indent +
                       '{"image_id": %s, "caption": "x"}\n' % ("1" * 5000))
        assert run(["analyze", "lengths", "--captions", str(bad)]) == 1
        assert f"{bad}: line 2: not valid JSON: Exceeds the limit" in \
            capsys.readouterr().err


# Valid inputs for the fuzz gate; each command reads some of them by name.
_FUZZ_FILES = {
    "ann.json": b'{"a.jpg": ["73", "11F(ROSE)"], '
                b'"b.jpg": ["25G4", "25G(+1)("], "c.jpg": []}',
    "corr.tsv": b"# notation\ttext\n73\tsea, ship\n"
                b"11F\tking - BB - queen, etc.\n25G4\trose\n",
    "corr.json": b'{"73": "sea, ship", "11F(+1)(": "king", "25G4": "rose"}',
    "caps.jsonl": b'{"image_id": "a", "caption": "sea, ship.", '
                  b'"split": "train"}\n'
                  b'{"image_id": "b", "caption": "king.", "split": "test"}\n'
                  b'{"image_id": 7, "caption": "rose, sea."}\n',
    "refs.jsonl": b'{"image_id": "b", "caption": "king, queen."}\n'
                  b'{"image_id": 7, "caption": "rose."}\n',
    "genres.csv": b"image_id,genre\nb,portrait\n7,still life\n",
    "ids.txt": b"b\n7\n",
}
_FUZZ_COMMANDS = [
    ["build", "--annotations", "ann.json", "--correlates", "corr.tsv",
     "--out", "out"],
    ["build", "--annotations", "ann.json", "--correlates", "corr.json",
     "--correlates-format", "json", "--out", "out"],
    ["split", "--in", "caps.jsonl", "--val", "1", "--test", "1",
     "--out", "out"],
    ["eval", "--candidates", "refs.jsonl", "--references", "caps.jsonl",
     "--csv", "out"],
    # one file behind both flags: a mutated id still finds its reference
    ["eval", "--candidates", "refs.jsonl", "--references", "refs.jsonl"],
    ["analyze", "genres", "--captions", "caps.jsonl", "--genres",
     "genres.csv", "--out", "out"],
    ["analyze", "lengths", "--captions", "caps.jsonl"],
    ["baseline", "--train", "caps.jsonl", "--ids", "refs.jsonl",
     "--out", "out"],
    ["baseline", "--train", "caps.jsonl", "--ids", "ids.txt", "--out", "out"],
]
# (command, input file to fuzz): every file-taking flag of every command
_FUZZ_TARGETS = [(argv, name) for argv in _FUZZ_COMMANDS
                 for name in dict.fromkeys(argv) if name in _FUZZ_FILES]
_STRING = re.compile(rb'"[^"]*"')


def _with_surrogate(literal, at):
    """A JSON string literal with ``\\ud800`` inserted inside it."""
    cut = 1 + at % (len(literal) - 1)
    return literal[:cut] + b"\\ud800" + literal[cut:]


def _mutate(data, kind, at):
    """``data`` with one mutation of ``kind``, placed by ``at``."""
    at %= len(data) + 1
    if kind == "truncate":
        return data[:at]
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:] \
            if at < len(data) else data
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    if kind == "deep":
        return data[:at] + b"[" * 100_000 + data[at:]
    if kind == "surrogate":  # a lone surrogate's JSON escape in every string
        return _STRING.sub(lambda m: _with_surrogate(m[0], at), data)
    if kind == "bigint":  # in place of a JSON string, if there is one
        strings = list(_STRING.finditer(data))
        start, end = strings[at % len(strings)].span() if strings else (at, at)
        return data[:start] + b"1" * 5000 + data[end:]
    assert kind == "longfield"
    return data[:at] + b"x" * 200_000 + data[at:]


@st.composite
def _fuzz_cases(draw):
    argv, name = draw(st.sampled_from(_FUZZ_TARGETS))
    kind = draw(st.sampled_from(["bytes", "truncate", "flip", "bom", "crlf",
                                 "deep", "surrogate", "bigint", "longfield"]))
    if kind == "bytes":
        return argv, name, draw(st.binary(max_size=200))
    at = draw(st.integers(min_value=0, max_value=1000))
    return argv, name, _mutate(_FUZZ_FILES[name], kind, at)


class TestFuzzGate:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_fuzz_cases())
    def test_any_input_exits_cleanly(self, case):
        """Every input file exits 0, 1 or 2 without raising; an exit 1
        leaves the previous output as it was."""
        argv, name, data = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for file_name, content in _FUZZ_FILES.items():
                (tmp / file_name).write_bytes(content)
            (tmp / "fuzzed").write_bytes(data)
            (tmp / "out").write_bytes(b"old\n")
            args = [str(tmp / "fuzzed") if arg == name else
                    str(tmp / arg) if arg in _FUZZ_FILES or arg == "out"
                    else arg for arg in argv]
            # the encodings of real streams: strict UTF-8 stdout, and
            # stderr escaping what it cannot encode
            stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
            stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8",
                                      errors="backslashreplace")
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                status = run([*args, "--quiet"])
            assert status in (0, 1, 2)
            if status == 1:
                assert (tmp / "out").read_bytes() == b"old\n"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(["", "7", "7(", "73A(+"]),
           st.text(st.characters(blacklist_categories=())
                   | st.sampled_from(["\ud800", "\udcff", "(", ")"])),
           st.sampled_from(["", ")"]))
    def test_any_notation_exits_cleanly(self, head, body, tail):
        """``parse`` exits 0, 1 or 2 without raising for any text, a lone
        surrogate on a strict UTF-8 stdout included."""
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8",
                                  errors="backslashreplace")
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            status = run(["parse", head + body + tail])
        assert status in (0, 1, 2)


def run_pipeline(tmp_path, workdir, seed=11):
    ann, tsv = write_corpus(tmp_path, n_images=40, seed=3)
    workdir.mkdir(exist_ok=True)
    records = workdir / "records.jsonl"
    split = workdir / "split.jsonl"
    exports = workdir / "splits"
    cands = workdir / "cands.jsonl"
    report = workdir / "report.json"
    assert run(["build", "--annotations", str(ann), "--correlates", str(tsv),
                "--out", str(records), "--quiet",
                "--report", str(workdir / "build_report.json")]) == 0
    assert run(["split", "--in", str(records), "--seed", str(seed),
                "--val", "6", "--test", "6", "--out", str(split),
                "--export-dir", str(exports), "--quiet",
                "--report", str(workdir / "split_report.json")]) == 0
    assert run(["baseline", "--train", str(split),
                "--ids", str(exports / "test.jsonl"),
                "--out", str(cands), "--quiet"]) == 0
    assert run(["eval", "--candidates", str(cands),
                "--references", str(exports / "test.jsonl"),
                "--report", str(report), "--quiet"]) == 0
    return workdir


class TestPipeline:
    def test_end_to_end_outputs(self, tmp_path):
        workdir = run_pipeline(tmp_path, tmp_path / "run")
        split_rows = [
            json.loads(line)
            for line in (workdir / "split.jsonl").read_text().splitlines()
        ]
        counts = {"train": 0, "val": 0, "test": 0}
        for row in split_rows:
            counts[row["split"]] += 1
        assert counts == {"train": 28, "val": 6, "test": 6}

        report = json.loads((workdir / "report.json").read_text())
        assert set(report["corpus"]) == {
            "bleu1", "bleu2", "bleu3", "bleu4", "meteor", "rouge_l", "cider",
        }
        assert len(report["examples"]) == 6
        assert "seed" not in report["config"]
        assert report["tool_version"]

        split_report = json.loads(
            (workdir / "split_report.json").read_text()
        )
        assert split_report["config"]["seed"] == 11
        assert split_report["splits"] == {"train": 28, "val": 6, "test": 6}

        build_report = json.loads(
            (workdir / "build_report.json").read_text()
        )
        assert build_report["input"] == 40
        assert build_report["kept"] + build_report["dropped_empty"] == 40

    def test_reruns_are_byte_identical(self, tmp_path):
        first = run_pipeline(tmp_path, tmp_path / "one")
        second = run_pipeline(tmp_path, tmp_path / "two")
        for name in ("records.jsonl", "split.jsonl", "cands.jsonl"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        for split in ("train", "val", "test"):
            assert (first / "splits" / f"{split}.jsonl").read_bytes() == \
                (second / "splits" / f"{split}.jsonl").read_bytes()

    def test_split_ignores_input_order(self, tmp_path):
        ann, tsv = write_corpus(tmp_path, n_images=40, seed=7)
        records = tmp_path / "records.jsonl"
        assert run(["build", "--annotations", str(ann), "--correlates",
                    str(tsv), "--out", str(records), "--quiet"]) == 0
        lines = records.read_text(encoding="utf-8").splitlines(keepends=True)
        reversed_records = tmp_path / "reversed.jsonl"
        reversed_records.write_text("".join(lines[::-1]), encoding="utf-8")
        outs = []
        for source in (records, reversed_records):
            out = tmp_path / source.stem
            out.mkdir()
            assert run(["split", "--in", str(source), "--val", "5",
                        "--test", "7", "--out", str(out / "split.jsonl"),
                        "--export-dir", str(out / "splits"), "--quiet",
                        "--report", str(out / "report.json")]) == 0
            counts = json.loads((out / "report.json").read_text())["splits"]
            assert counts == {
                split: len((out / "splits" / f"{split}.jsonl")
                           .read_bytes().splitlines())
                for split in ("train", "val", "test")}
            outs.append(out)
        first, second = outs
        for name in ("split.jsonl", "splits/train.jsonl", "splits/val.jsonl",
                     "splits/test.jsonl"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_jobs_do_not_change_outputs(self, tmp_path):
        ann, tsv = write_corpus(tmp_path, n_images=30, seed=5)
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        for out, jobs in ((serial, "1"), (parallel, "2")):
            assert run(["build", "--annotations", str(ann),
                        "--correlates", str(tsv), "--out", str(out),
                        "--jobs", jobs, "--quiet"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()


def _envelope_argv(tmp_path, command):
    """Arguments for a successful run of ``command`` on a small corpus."""
    ann, tsv = write_corpus(tmp_path, n_images=30, seed=2)
    records = tmp_path / "records.jsonl"
    build = ["build", "--annotations", str(ann), "--correlates", str(tsv),
             "--out", str(records)]
    assert run([*build, "--quiet"]) == 0
    ids = [json.loads(line)["image_id"]
           for line in records.read_text().splitlines()]
    genres = tmp_path / "genres.csv"
    genres.write_text("image_id,genre\n" + "".join(
        f"{image_id},g{n % 3}\n" for n, image_id in enumerate(ids)))
    test_ids = tmp_path / "ids.txt"
    test_ids.write_text("".join(f"{image_id}\n" for image_id in ids[:3]))
    return {
        "build": build,
        "split": ["split", "--in", str(records), "--val", "3",
                  "--test", "3", "--out", str(tmp_path / "split.jsonl")],
        "genres": ["analyze", "genres", "--captions", str(records),
                   "--genres", str(genres),
                   "--out", str(tmp_path / "dist.csv")],
        "eval": ["eval", "--candidates", str(records),
                 "--references", str(records)],
        "parse": ["parse", "73A(+1)"],
        "lengths": ["analyze", "lengths", "--captions", str(records)],
        "baseline": ["baseline", "--train", str(records),
                     "--ids", str(test_ids),
                     "--out", str(tmp_path / "cands.jsonl")],
    }[command]


_ENVELOPE_COMMANDS = ["build", "split", "genres", "eval", "parse", "lengths",
                      "baseline"]


def _parser_dests(argv):
    """The dests of the parsers ``argv`` passes through: the names
    ``vars(args)`` holds (help and --version store nothing)."""
    parser, dests = cli._build_parser(), set()
    while parser:
        actions = [a for a in parser._actions if a.default != argparse.SUPPRESS]
        dests |= {a.dest for a in actions}
        sub = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
        parser = sub and sub[0].choices[next(arg for arg in argv
                                             if arg in sub[0].choices)]
    return dests


class TestReportEnvelope:
    @pytest.mark.parametrize("command", _ENVELOPE_COMMANDS)
    def test_report_opens_with_envelope(self, tmp_path, capsys, command):
        """The report starts with tool_version and config, and the one
        printed to the default stream equals the --report file; parse and
        lengths keep their own document on stdout either way."""
        argv = _envelope_argv(tmp_path, command)
        capsys.readouterr()
        assert run([*argv, "--quiet"]) == 0
        captured = capsys.readouterr()
        printed, other = (captured.out, captured.err) if command == "eval" \
            else (captured.err, captured.out)
        if command in ("parse", "lengths"):
            assert "tool_version" not in json.loads(other)
        else:
            assert other == ""
        path = tmp_path / "report.json"
        assert run([*argv, "--quiet", "--report", str(path)]) == 0
        rerun = capsys.readouterr()
        assert (rerun.out, rerun.err) == (other, "")
        report, printed = json.loads(path.read_text()), json.loads(printed)
        assert list(report)[:2] == ["tool_version", "config"]
        del report["config"]["report"], printed["config"]["report"]
        assert report == printed

    @pytest.mark.parametrize("command", _ENVELOPE_COMMANDS)
    def test_config_is_the_parsed_flags(self, tmp_path, command):
        """config holds exactly the subcommand's parsed flags: no echo of
        tool_version, and no --seed or --x100 where the run ignores it."""
        path = tmp_path / "report.json"
        argv = [*_envelope_argv(tmp_path, command), "--quiet",
                "--report", str(path)]
        assert run(argv) == 0
        config = json.loads(path.read_text())["config"]
        assert set(config) == _parser_dests(argv)
        assert ("seed" in config, "x100" in config) == \
            (command == "split", command == "eval")

    def test_undecodable_argv_path_is_escaped(self, tmp_path):
        """A file name that is not UTF-8 still leaves a UTF-8 report."""
        records = tmp_path / "records.jsonl"
        records.write_text('{"image_id": "a", "caption": "sea."}\n')
        out = tmp_path / "s\udcff.jsonl"
        path = tmp_path / "report.json"
        assert run(["split", "--in", str(records), "--val", "0", "--test", "0",
                    "--out", str(out), "--report", str(path), "--quiet"]) == 0
        assert out.exists()
        report = json.loads(path.read_bytes().decode("utf-8"))
        assert report["config"]["out"].endswith("s\\udcff.jsonl")


class TestAnalyze:
    def test_lengths_prints_json(self, tmp_path, capsys):
        captions = tmp_path / "caps.jsonl"
        captions.write_text(
            '{"image_id": "a", "caption": "x y"}\n'
            '{"image_id": "b", "caption": "x y z w"}\n'
        )
        assert run(["analyze", "lengths", "--captions", str(captions)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["mean"] == pytest.approx(3.0)

    def test_genres_writes_csv(self, tmp_path, capsys):
        captions = tmp_path / "caps.jsonl"
        captions.write_text(
            '{"image_id": "a", "caption": "sea, ship."}\n'
            '{"image_id": "b", "caption": "sea."}\n'
        )
        genres = tmp_path / "genres.csv"
        genres.write_text("image_id,genre\na,marine\nb,marine\n")
        out = tmp_path / "dist.csv"
        assert run(["analyze", "genres", "--captions", str(captions),
                    "--genres", str(genres), "--k", "5",
                    "--out", str(out), "--quiet"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "phrase,marine"
        assert "sea,2" in lines

    def test_genres_not_utf8_is_domain_error(self, tmp_path, capsys):
        captions = tmp_path / "caps.jsonl"
        captions.write_text('{"image_id": "a", "caption": "sea."}\n')
        genres = tmp_path / "genres.csv"
        genres.write_bytes(b"a,\xff\n")
        out = tmp_path / "dist.csv"
        assert run(["analyze", "genres", "--captions", str(captions),
                    "--genres", str(genres), "--out", str(out),
                    "--quiet"]) == 1
        assert "genres.csv: not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_genres_oversized_field_is_domain_error(self, tmp_path, capsys):
        captions = tmp_path / "caps.jsonl"
        captions.write_text('{"image_id": "a", "caption": "sea."}\n')
        genres = tmp_path / "genres.csv"
        genres.write_text("image_id,genre\na," + "x" * 200_000 + "\n")
        out = tmp_path / "dist.csv"
        assert run(["analyze", "genres", "--captions", str(captions),
                    "--genres", str(genres), "--out", str(out),
                    "--quiet"]) == 1
        assert f"{genres}: line 2: field larger than field limit" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0", "-1", "\u00b2"])
    def test_genres_k_below_one_is_usage_error(self, tmp_path, capsys, k):
        captions = tmp_path / "caps.jsonl"
        captions.write_text('{"image_id": "a", "caption": "sea."}\n')
        genres = tmp_path / "genres.csv"
        genres.write_text("image_id,genre\na,marine\n")
        out = tmp_path / "dist.csv"
        assert run(["analyze", "genres", "--captions", str(captions),
                    "--genres", str(genres), "--k", k,
                    "--out", str(out), "--quiet"]) == 2
        assert "expected an integer >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_genres_repeated_id_keeps_old_output(self, tmp_path, capsys):
        captions = tmp_path / "caps.jsonl"
        captions.write_text('{"image_id": "a", "caption": "sea."}\n')
        genres = tmp_path / "genres.csv"
        genres.write_text("image_id,genre\na,marine\n")
        out = tmp_path / "dist.csv"
        argv = ["analyze", "genres", "--captions", str(captions),
                "--genres", str(genres), "--out", str(out), "--quiet"]
        assert run(argv) == 0
        first = out.read_bytes()
        genres.write_text("image_id,genre\na,marine\nb,portrait\na,portrait\n")
        assert run(argv) == 1
        assert f"{genres}: line 4: duplicate image id 'a'" in \
            capsys.readouterr().err
        assert out.read_bytes() == first

    def test_genres_empty_join_is_domain_error(self, tmp_path):
        captions = tmp_path / "caps.jsonl"
        captions.write_text('{"image_id": "a", "caption": "sea."}\n')
        genres = tmp_path / "genres.csv"
        genres.write_text("image_id,genre\nz,marine\n")
        out = tmp_path / "dist.csv"
        assert run(["analyze", "genres", "--captions", str(captions),
                    "--genres", str(genres), "--out", str(out),
                    "--quiet"]) == 1


class TestEvalPresentation:
    def _files(self, tmp_path):
        cands = tmp_path / "c.jsonl"
        refs = tmp_path / "r.jsonl"
        cands.write_text('{"image_id": "a", "caption": "sea ship boat."}\n')
        refs.write_text('{"image_id": "a", "caption": "sea ship boat."}\n')
        return cands, refs

    def test_x100_scales_scores(self, tmp_path, capsys):
        cands, refs = self._files(tmp_path)
        assert run(["eval", "--candidates", str(cands),
                    "--references", str(refs), "--quiet"]) == 0
        natural = json.loads(capsys.readouterr().out)
        assert run(["eval", "--candidates", str(cands),
                    "--references", str(refs), "--x100", "--quiet"]) == 0
        scaled = json.loads(capsys.readouterr().out)
        assert scaled["corpus"]["rouge_l"] == pytest.approx(
            natural["corpus"]["rouge_l"] * 100
        )

    def test_unencodable_id_on_stdout_is_domain_error(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text('{"image_id": "\\ud800", "caption": "sea."}\n')
        assert run(["eval", "--candidates", str(pairs),
                    "--references", str(pairs), "--quiet"]) == 1
        captured = capsys.readouterr()
        assert "cannot write standard output" in captured.err
        assert captured.out == ""

    def test_csv_mirror(self, tmp_path):
        cands, refs = self._files(tmp_path)
        csv_path = tmp_path / "report.csv"
        assert run(["eval", "--candidates", str(cands),
                    "--references", str(refs), "--csv", str(csv_path),
                    "--quiet"]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "image_id,bleu1,bleu2,bleu3,bleu4,meteor,rouge_l,cider"
        assert len(lines) == 2

    def test_unwritable_csv_writes_no_report(self, tmp_path, capsys):
        cands, refs = self._files(tmp_path)
        path = tmp_path / "report.json"
        assert run(["eval", "--candidates", str(cands),
                    "--references", str(refs), "--report", str(path),
                    "--csv", str(tmp_path / "missing" / "report.csv"),
                    "--quiet"]) == 1
        assert "cannot write" in capsys.readouterr().err
        assert not path.exists()
