"""Self-test of the benchmark at tiny input sizes.

Run from the repository root:  ``python3 perfbench/selftest.py``

It checks that
* every workload, traced and untraced, passes its output check and reports
  every metric BENCHMARK.json names, with its unit;
* the output check fails when one byte of any primary output is flipped;
* the benchmark exits nonzero, printing no result, without the source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SCALE = "0.02"


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def check_metrics(bench: dict) -> None:
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = run_bench(ROOT, workload, trace)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, done.stderr
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in bench[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, (workload, kind, set(got) ^ set(expected))
            if kind == "end_to_end":
                assert all(v["value"] > 0 for v in result["metrics"].values())
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics")


def check_flipped_bytes() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import (OUTPUTS, WORKLOADS, check_invariants, digests,
                           failed_stages, make_inputs, run_pass, scaled)

    work = ROOT / ".perfbench" / "selftest-flip"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = scaled(WORKLOADS["paper_pipeline"], float(SCALE))
        inputs = make_inputs(workload, work / "inputs", 3)
        out = work / "out"
        assert run_pass(workload, inputs, out, 1, 3).failed_stage is None
        assert check_invariants(workload, out) == {}
        reference = digests(out)
        assert set(reference) == {n for names in OUTPUTS.values()
                                  for n in names}
        for stage, names in OUTPUTS.items():
            for name in names:
                path = out / ("eval_report.json" if name == "corpus" else name)
                original = path.read_bytes()
                # flip one byte: the first decimal of the corpus block's last
                # score (a flipped 17th digit may parse to the same float),
                # or the middle byte of a file
                at = len(original) // 2
                if name == "corpus":
                    start = original.index(b'"corpus"')
                    end = start + original[start:].index(b"}")
                    at = original.rindex(b".", start, end) + 1
                flipped = bytearray(original)
                flipped[at] ^= 0x01
                path.write_bytes(bytes(flipped))
                assert failed_stages(digests(out), reference) == {stage}, name
                path.write_bytes(original)
                print(f"ok  flipped byte in {name} fails the {stage} check")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_without_source() -> None:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(bare, "paper_pipeline", 0)
        assert done.returncode != 0 and not done.stdout.strip(), done.stdout
        print("ok  without ./src the benchmark exits "
              f"{done.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics(bench)
    check_flipped_bytes()
    check_without_source()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
