"""CLI behavior: exit codes, output formats, end-to-end pipeline runs."""

import json

import pytest

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

    @pytest.mark.parametrize("val,test", [("-1", "0"), ("0", "-1")])
    def test_split_negative_count_is_usage_error(self, tmp_path, val, test):
        records = tmp_path / "records.jsonl"
        records.write_text('{"image_id": "a", "caption": "a."}\n')
        out = tmp_path / "split.jsonl"
        assert run(["split", "--in", str(records), "--val", val,
                    "--test", test, "--out", str(out)]) == 2
        assert not out.exists()


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
        assert "seed" in report["config"]
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

    def test_jobs_do_not_change_outputs(self, tmp_path):
        ann, tsv = write_corpus(tmp_path, n_images=30, seed=5)
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        for out, jobs in ((serial, "1"), (parallel, "2")):
            assert run(["build", "--annotations", str(ann),
                        "--correlates", str(tsv), "--out", str(out),
                        "--jobs", jobs, "--quiet"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()


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

    @pytest.mark.parametrize("k", ["0", "-1"])
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

    def test_csv_mirror(self, tmp_path):
        cands, refs = self._files(tmp_path)
        csv_path = tmp_path / "report.csv"
        assert run(["eval", "--candidates", str(cands),
                    "--references", str(refs), "--csv", str(csv_path),
                    "--quiet"]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "image_id,bleu1,bleu2,bleu3,bleu4,meteor,rouge_l,cider"
        assert len(lines) == 2
