"""Child process of the benchmark: the timed CLI loop or the traced replay.

Usage: ``python worker.py REQUEST.json RESULT.json``.  ``run.py`` starts a
fresh interpreter for each, so one workload's caches and heap never leak
into another's numbers and peak RSS belongs to this workload alone.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def loop(request: dict, workload, inputs: dict[str, Path]) -> dict:
    """CLI passes until ``seconds`` are used; every pass is checked."""
    from workloads import digests, failed_stages, run_pass

    out = Path(request["out"])
    reference = request["reference_digests"]
    repeats = request["repeats"]
    samples: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    attempted, failed, passes = 0, [], 0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        result = run_pass(workload, inputs, out, request["jobs"],
                          request["seed"], repeats, speed=True)
        last = time.perf_counter() - began
        for stage, values in result.samples.items():
            samples.setdefault(stage, []).extend(values)
        for stage, values in result.scaled.items():
            scaled.setdefault(stage, []).extend(values)
        attempted += result.attempts
        passes += 1
        if result.failed_stage is not None:
            failed.append(f"{result.failed_stage}: nonzero exit")
            break
        mismatched = failed_stages(digests(out), reference)
        failed += [f"{stage}: output differs from --jobs 1"
                   for stage in sorted(mismatched)]
        if mismatched:
            break
        # start another pass only if it ends within half a pass of the limit
        if time.perf_counter() - start + last / 2 >= request["seconds"]:
            break
    return {
        "samples": samples,
        "scaled": scaled,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
        "peak_rss_workers_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
    }


def trace(request: dict, workload, inputs: dict[str, Path]) -> dict:
    """An untraced replay, then a traced replay with the layer probes."""
    from tracing import NullTracer, Tracer, probe_layers, replay_stages
    from workloads import digests, failed_stages

    out = Path(request["out"])
    reference = request["reference_digests"]
    untraced, _ = replay_stages(NullTracer(), workload, inputs,
                                out / "untraced", request["jobs"])
    tracer = Tracer()
    with tracer.span("run"):
        traced, ctx = replay_stages(tracer, workload, inputs, out / "traced",
                                    request["jobs"])
        probe_layers(tracer, workload, ctx)
    failed = []
    for name in ("untraced", "traced"):
        mismatched = failed_stages(digests(out / name), reference)
        failed += [f"{stage}: {name} replay output differs from the CLI's"
                   for stage in sorted(mismatched)]
    return {
        "spans": tracer.finished(),
        "counts": tracer.counts,
        "overhead_ratio": sum(traced.values()) / sum(untraced.values()),
        "attempted": len(untraced) + len(traced),
        "failed": failed,
    }


def main() -> int:
    request = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, request["src"])
    from workloads import WORKLOADS, scaled

    workload = scaled(WORKLOADS[request["workload"]], request["scale"])
    inputs = {k: Path(v) for k, v in request["inputs"].items()}
    mode = loop if request["mode"] == "loop" else trace
    result = mode(request, workload, inputs)
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
