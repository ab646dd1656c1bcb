"""Run every workload over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/prove.py --runs 10 --write

For each workload and seed 1..runs it runs the command in BENCHMARK.json
with tracing off, then reports per end-to-end metric the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median
against a third of the metric's bound.  ``--write`` also runs one traced
run per workload and records everything, with the machine facts and the
workload assumptions, in ``perfbench/results.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from workloads import DEFAULT_SEED, JOBS, WORKLOADS  # noqa: E402

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_EFFECTS = {
    "iconclass.load_annotations_s": "setup_s and build_s on paper_pipeline and eval_diverse",
    "iconclass.store_load_s": "setup_s and build_s on paper_pipeline and eval_diverse",
    "iconclass.parse_s": "build_s on paper_pipeline; a cache should not move it on eval_diverse",
    "iconclass.correlate_s": "build_s on paper_pipeline; a cache should not move it on eval_diverse",
    "captions.clean_s": "build_s on paper_pipeline and eval_diverse",
    "captions.build_dataset_s": "build_s (with build_dataset_jobs1_s it decides whether the build pool stays)",
    "captions.build_dataset_jobs1_s": "build_s, as the serial alternative to the build pool",
    "captions.write_s": "build_s and split_s",
    "captions.read_s": "split_s (and baseline_s) on paper_pipeline",
    "captions.assign_splits_s": "split_s on paper_pipeline",
    "captions.export_s": "split_s on paper_pipeline",
    "analysis.frequency_baseline_s": "baseline_s on paper_pipeline",
    "analysis.genre_distribution_s": "analyze_s on paper_pipeline",
    "analysis.length_stats_s": "analyze_s on paper_pipeline",
    "metrics.load_s": "eval_s on paper_pipeline and eval_diverse (also analyze_s: analyze loads captions too)",
    "metrics.tokenize_s": "eval_s on paper_pipeline and eval_diverse",
    "metrics.corpus_bleu_s": "eval_s on both eval workloads; most of it on paper_pipeline",
    "metrics.cider_s": "eval_s on both eval workloads; most of it on paper_pipeline",
    "metrics.bleu_s": "eval_s on eval_diverse; barely on paper_pipeline",
    "metrics.meteor_s": "eval_s on eval_diverse; barely on paper_pipeline",
    "metrics.rouge_l_s": "eval_s on eval_diverse; barely on paper_pipeline",
    "metrics.evaluate_pairs_s": "eval_s (with evaluate_pairs_jobs1_s it decides whether the eval pool stays)",
    "metrics.evaluate_pairs_jobs1_s": "eval_s, as the serial alternative to the eval pool",
    "metrics.serialize_s": "eval_s",
    "cli.<stage>_self_s": "the stage's own metric: CLI work outside the layer calls",
    "counts and ratios": "none directly; they give each time its base",
    "trace.overhead_ratio": "none; traced over untraced replay time",
}


def run_once(command: list[str], workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False)
    result = json.loads(done.stdout.splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        print(done.stderr, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed} failed")
    return result


def summarize(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    row = {"median": median, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / median, "values": values}
    if bound is not None:
        row["bound"] = bound
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--write", action="store_true",
                        help="add traced runs and write perfbench/results.json")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    results: dict[str, dict] = {}
    steady = True
    for workload in args.workloads:
        samples: dict[str, list[float]] = {}
        for seed in range(1, args.runs + 1):
            result = run_once(bench["command"], workload, seed, seconds, 0)
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
        rows = {name: summarize(values, bounds.get(name))
                for name, values in samples.items()}
        results[workload] = {"end_to_end": rows}
        print(f"{workload} ({args.runs} seeds)")
        for name, row in rows.items():
            flag = ""
            if name != "setup_s" and row["spread"] > bounds[name] / 3:
                flag = "  > bound/3"
                steady = False
            print(f"  {name:22} median {row['median']:10.4f} {units[name]:3}"
                  f" spread {row['spread']:.3f} (bound {bounds[name]}){flag}"
                  f"  [{' '.join(f'{v:.3g}' for v in row['values'])}]")
        if args.write:
            traced = run_once(bench["command"], workload, DEFAULT_SEED,
                              seconds, 1)
            results[workload]["per_layer_seed0"] = {
                name: metric["value"]
                for name, metric in traced["metrics"].items()}

    if args.write:
        record = {
            "machine": {
                "nproc": len(os.sched_getaffinity(0)),
                "os.cpu_count()": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "cli_jobs_default": "iconcap's --jobs defaults to os.cpu_count(); "
                                f"the benchmark passes --jobs {JOBS}, equal "
                                "to it on the reference machine",
            "run_seconds": seconds,
            "seeds": [1, args.runs],
            "workloads": {
                name: {"why": w.why, "corpus": w.corpus,
                       "images": w.n_images, "val": w.n_val, "test": w.n_test,
                       "parent_fallback": w.parent_fallback,
                       "candidates": w.candidates}
                for name, w in WORKLOADS.items()},
            "wide_corpus_assumptions": gen.WIDE_ASSUMPTIONS,
            "layer_effects": LAYER_EFFECTS,
            "results": results,
        }
        (HERE / "results.json").write_text(
            json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("steady" if steady else "NOT steady: a spread exceeds bound/3")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
