"""Wall time and peak RSS of every CLI stage, each in a fresh process.

Usage: ``python3 tools/stage_rss.py [--workload W] [--scale F] [--seed S]
[--work-dir DIR]``.

Builds a workload's inputs with ``perfbench/workloads.make_inputs`` and
runs each ``workloads.stage_argv`` invocation, in order, as a fresh
``python -m iconcap.cli`` child with ``src/`` on its path.  Prints one
JSON line per invocation: the workload, the stage (``analyze genres`` and
``analyze lengths`` apart), its exit status, its wall time and its peak
RSS.  Exits 1 if any stage exits nonzero.

On Linux ``exec`` carries the high-water RSS of the memory it replaces
over to the new program, and ``os.posix_spawn`` runs the child in its
parent's memory until the ``exec``: a child spawned from this process,
which holds the generated inputs, would read at least this process's
peak.  So each child is spawned by a lean launcher, a fresh ``python -S``
that imports almost nothing, which reads the child's wall time and
``ru_maxrss`` from ``os.wait4`` and prints them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
import workloads  # noqa: E402

# spawns argv[1:] with this interpreter, its stdout to /dev/null, waits,
# and prints the measurement on its own stdout
_LAUNCHER = """\
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]],
                     os.environ, file_actions=[
                         (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), time.perf_counter() - start,
      usage.ru_maxrss)
"""


def measure(args: list[str], env: dict[str, str] | None = None,
            ) -> dict[str, object]:
    """Run ``python *args`` from the lean launcher: its exit status, wall
    seconds and peak RSS in MB (``ru_maxrss`` is in KiB on Linux), and on
    a nonzero exit the last line of its stderr."""
    launched = subprocess.run(
        [sys.executable, "-S", "-c", _LAUNCHER, *args], env=env,
        capture_output=True, check=True, text=True)
    status, wall, maxrss = launched.stdout.split()
    result = {"exit": int(status), "wall_s": round(float(wall), 4),
              "peak_rss_mb": round(int(maxrss) / 1024, 1)}
    if result["exit"] != 0:
        result["error"] = (launched.stderr.strip().splitlines() or [""])[-1]
    return result


def run_stages(name: str, scale: float, seed: int,
               work: Path) -> list[dict[str, object]]:
    """Measure every stage invocation of workload ``name``, printing each
    result as it comes; stops after a stage that fails."""
    workload = workloads.WORKLOADS[name]
    if scale != 1.0:
        workload = workloads.scaled(workload, scale)
    inputs = workloads.make_inputs(workload, work / "in", seed)
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    results = []
    for stage, invocations in workloads.stage_argv(
            workload, inputs, out, workloads.JOBS).items():
        if stage == "eval" and workload.candidates == "diverse":
            gen.diverse_candidates(out / "splits" / "test.jsonl",
                                   out / "splits" / "train.jsonl",
                                   inputs["candidates"], seed)
        for argv in invocations:
            label = " ".join(argv[:2]) if stage == "analyze" else stage
            result = {"workload": name, "stage": label,
                      **measure(["-m", "iconcap.cli", *argv], env)}
            print(json.dumps(result), flush=True)
            results.append(result)
            if result["exit"] != 0:
                return results
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of the workload's size (default 1)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--work-dir", type=Path,
                        help="keep inputs and outputs here (default: a "
                             "temporary directory, removed after)")
    args = parser.parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workload or list(workloads.WORKLOADS):
            work = (args.work_dir or Path(tmp)) / name
            results = run_stages(name, args.scale, args.seed, work)
            failed |= any(result["exit"] != 0 for result in results)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
