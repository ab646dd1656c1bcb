"""iconcap benchmark: one workload, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload paper_pipeline --seed 0 \
        --seconds 40 --trace 0

A run generates the workload's inputs from ``--seed`` (untimed), runs every
stage once with ``--jobs 1`` as the reference, then measures in fresh child
processes:

* ``--trace 0``: CLI passes at ``--jobs 2`` for ``--seconds`` seconds; each
  stage's median time and their sum, the child's peak RSS and its pool
  workers' peak RSS, and the median set-up time over several fresh
  interpreters.  Times are wall seconds scaled to the reference host speed
  by the probe in ``calibrate.py``, which runs around every sample.
* ``--trace 1``: an untraced and a traced in-process replay of the stages
  through the public functions, plus per-item layer probes; per-layer times
  and counts, and the tracing overhead.  Spans go to
  ``.perfbench/traces/<workload>-seed<seed>.json``.

Every pass is checked: each stage must exit 0, its primary outputs must be
byte-identical to the ``--jobs 1`` reference, the reference must meet the
seed-independent invariants and, at the default seed, match the digests
in ``expected.json``.  The last stdout line is the JSON result; a summary
goes to stderr.  Exit code 0 when every check passes, 1 when one fails, 2
when the repository's source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 120


def _child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)


def _worker(request: dict, work: Path) -> dict:
    request_path = work / f"{request['mode']}-request.json"
    result_path = work / f"{request['mode']}-result.json"
    request_path.write_text(json.dumps(request), encoding="utf-8")
    done = _child([str(HERE / "worker.py"), str(request_path),
                   str(result_path)])
    if done.returncode != 0:
        raise RuntimeError(f"{request['mode']} worker failed:\n{done.stderr}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _setup_s(src: Path, inputs: dict[str, Path]) -> float:
    """Median set-up time over fresh interpreters, at the reference speed.

    Each probe runs in a fresh interpreter; the host speed probe runs here
    between them.
    """
    from calibrate import probe, scale

    argv = [str(HERE / "setup_probe.py"), str(src),
            str(inputs["annotations"]), str(inputs["correlates"])]
    if "candidates" in inputs:
        argv.append(str(inputs["candidates"]))
    samples = []
    before = probe()
    for _ in range(SETUP_RUNS):
        done = _child(argv)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        after = probe()
        wall = json.loads(done.stdout.splitlines()[-1])["setup_s"]
        samples.append(scale(wall, before, after))
        before = after
    return statistics.median(samples)


def _reference_check(workload, out: Path, seed: int, record: bool,
                     default_run: bool) -> list[str]:
    """Invariants for any seed, recorded digests at the default seed.

    Returns one problem per failed stage.
    """
    from workloads import check_invariants

    problems = check_invariants(workload, out)
    if default_run:
        problems = {**_digest_problems(workload, out, seed, record),
                    **problems}
    return [f"{stage}: {problem}" for stage, problem in problems.items()]


def _digest_problems(workload, out: Path, seed: int,
                     record: bool) -> dict[str, str]:
    from workloads import digests, stage_of

    expected = json.loads(EXPECTED.read_text(encoding="utf-8")) \
        if EXPECTED.exists() else {}
    found = digests(out)
    if record:
        expected[workload.name] = found
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True)
                            + "\n", encoding="utf-8")
        print(f"recorded digests for {workload.name} in {EXPECTED}",
              file=sys.stderr)
        return {}
    if workload.name not in expected:
        return {"build": f"no digests recorded for {workload.name}"}
    return {stage_of(name): f"{name} differs from the digest recorded for "
                            f"seed {seed}"
            for name, digest in sorted(expected[workload.name].items())
            if found.get(name) != digest}


def measure(args: argparse.Namespace, root: Path) -> dict:
    from workloads import (DEFAULT_SEED, JOBS, MIN_SAMPLE_S, WORKLOADS,
                           digests, make_inputs, repeats_for, run_pass,
                           scaled)

    workload = scaled(WORKLOADS[args.workload], args.scale)
    src = root / "src"
    work = root / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = make_inputs(workload, work / "inputs", args.seed)
        reference = run_pass(workload, inputs, work / "jobs1", 1, args.seed)
        attempted = reference.attempts
        if reference.failed_stage is not None:
            return {"attempted": attempted,
                    "failed": [f"{reference.failed_stage}: nonzero exit "
                               "(--jobs 1 reference)"],
                    "metrics": {}}
        failed = _reference_check(
            workload, work / "jobs1", args.seed, args.record_digests,
            args.seed == DEFAULT_SEED and args.scale == 1.0)
        request = {
            "mode": "trace" if args.trace else "loop",
            "workload": workload.name, "scale": args.scale,
            "src": str(src), "seed": args.seed, "jobs": JOBS,
            "seconds": args.seconds, "out": str(work / "jobs2"),
            "inputs": {k: str(v) for k, v in inputs.items()},
            "reference_digests": digests(work / "jobs1"),
            "repeats": repeats_for(reference, MIN_SAMPLE_S * args.scale),
        }
        result = _worker(request, work)
        attempted += result["attempted"]
        failed += result["failed"]
        if args.trace:
            from tracing import layer_metrics
            metrics = layer_metrics(result["spans"], result["counts"],
                                    result["overhead_ratio"])
            traces = root / ".perfbench" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            (traces / f"{workload.name}-seed{args.seed}.json").write_text(
                json.dumps({"spans": result["spans"],
                            "counts": result["counts"]}, indent=1),
                encoding="utf-8")
        else:
            # Each stage's median sample at the reference host speed (see
            # calibrate.py); every sample, raw and scaled, goes to stderr.
            stages = result["scaled"]
            metrics = {f"{stage}_s": (statistics.median(values), "s")
                       for stage, values in stages.items()}
            metrics["pipeline_s"] = (sum(statistics.median(values)
                                         for values in stages.values()), "s")
            metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
            metrics["peak_rss_workers_mb"] = (result["peak_rss_workers_mb"],
                                              "MB")
            metrics["setup_s"] = (_setup_s(src, inputs), "s")
            print(f"{workload.name}: {result['passes']} timed passes at "
                  f"--jobs {JOBS}; samples in wall seconds -> at the "
                  "reference speed:", file=sys.stderr)
            for stage, values in result["samples"].items():
                print(f"  {stage:9} " + " ".join(
                    f"{wall:.3f}->{at_ref:.3f}"
                    for wall, at_ref in zip(values, stages[stage])),
                    file=sys.stderr)
        return {"attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input size (self-test only)")
    parser.add_argument("--record-digests", action="store_true",
                        help="store the default seed's output digests in "
                             "expected.json instead of comparing them")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "iconcap" / "__init__.py").is_file():
        print("perfbench: ./src/iconcap not found; run from the root of an "
              "iconcap checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    started = time.perf_counter()
    try:
        outcome = measure(args, root)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        outcome = {"attempted": 1, "failed": [str(exc)], "metrics": {}}
    failed = outcome["failed"]
    metrics = outcome["metrics"]
    for problem in failed:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34} {value:12.4f} {unit}", file=sys.stderr)
    attempted = max(1, outcome["attempted"])
    print(f"  {'failed_ops_ratio':34} {len(failed) / attempted:12.4f} ratio"
          f" ({len(failed)} of {attempted} stages failed;"
          f" {time.perf_counter() - started:.1f} s in all)", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
