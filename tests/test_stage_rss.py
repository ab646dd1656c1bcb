"""The per-stage wall time and peak RSS probe in ``tools/stage_rss.py``."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "stage_rss.py"
_SPEC = importlib.util.spec_from_file_location("stage_rss", _PATH)
stage_rss = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(stage_rss)


def test_child_peak_leaves_out_the_parent():
    """A child started from the lean launcher reads its own peak, not the
    50 MB this process holds."""
    held = bytes(range(256)) * (50 * 4096)  # 50 MiB, every page written
    result = stage_rss.measure(["-c", "pass"])
    assert len(held) == 50 << 20
    assert result["exit"] == 0
    assert 0 < result["peak_rss_mb"] < 25


def test_failed_child_reports_its_exit_and_error():
    result = stage_rss.measure(["-c", "import sys; sys.exit('no such file')"])
    assert result["exit"] == 1
    assert result["error"] == "no such file"


def test_every_stage_runs_once(tmp_path, capsys):
    assert stage_rss.main(["--workload", "paper_pipeline", "--scale", "0.002",
                           "--work-dir", str(tmp_path)]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["stage"] for line in lines] == [
        "build", "split", "baseline", "analyze genres", "analyze lengths",
        "eval"]
    assert all(line["exit"] == 0 and line["peak_rss_mb"] > 0
               for line in lines)
    assert (tmp_path / "paper_pipeline" / "out" / "eval.csv").is_file()
