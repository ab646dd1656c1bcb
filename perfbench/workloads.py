"""Workload definitions, the CLI stage sequence, and the output check.

A workload is a user journey through the CLI: build -> split -> baseline
-> analyze (genres, lengths) -> eval.  Workloads differ in the inputs'
shape, which decides the layer that dominates.  Every workload runs every
stage, so every end-to-end metric exists on every workload.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import gen

JOBS = 2  # the CLI default os.cpu_count() on the 2-core reference machine
DEFAULT_SEED = 0  # expected.json holds the primary-output digests for it
STAGES = ("build", "split", "baseline", "analyze", "eval")
MIN_SAMPLE_S = 0.5  # see repeats_for
# Top of each score's range.  CIDEr gets the 1e-9 slack that the repo's
# metric property test allows it (tests/test_metrics.py): an exact match
# scores 10 up to rounding, e.g. 10.000000000000002.
SCORE_RANGES = {"bleu1": 1.0, "bleu2": 1.0, "bleu3": 1.0, "bleu4": 1.0,
                "meteor": 1.0, "rouge_l": 1.0, "cider": 10.0 + 1e-9}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: str  # "paper" or "wide", see gen.py
    n_images: int
    n_val: int
    n_test: int
    parent_fallback: bool
    candidates: str  # "baseline" or "diverse"


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "paper_pipeline",
            "The paper's journey at 86,530 images over a 60-code pool: "
            "resolution, cleaning and eval candidates repeat heavily, so "
            "memoization and cook-once caching show here.",
            "paper", 86_530, 5_000, 5_000, False, "baseline",
        ),
        Workload(
            "eval_diverse",
            "20,000 images over a 20,000-code Zipf pool with parent fallback, "
            "then 4,000 distinct perturbed candidates: little work repeats in "
            "build or eval, the opposite of paper_pipeline.",
            "wide", 20_000, 2_000, 4_000, True, "diverse",
        ),
    )
}


def scaled(workload: Workload, scale: float) -> Workload:
    """The same workload at a fraction of its size (for the self-test)."""
    def part(n: int) -> int:
        return max(2, int(n * scale))
    return Workload(workload.name, workload.why, workload.corpus,
                    part(workload.n_images), part(workload.n_val),
                    part(workload.n_test), workload.parent_fallback,
                    workload.candidates)


def make_inputs(workload: Workload, in_dir: Path, seed: int) -> dict[str, Path]:
    make = gen.paper_corpus if workload.corpus == "paper" else gen.wide_corpus
    paths = make(in_dir, workload.n_images, seed)
    if workload.candidates == "diverse":
        paths["candidates"] = in_dir / "candidates.jsonl"
    return paths


def stage_argv(
    workload: Workload, inputs: dict[str, Path], out: Path, jobs: int,
) -> dict[str, list[list[str]]]:
    """The CLI invocations of each stage, in the order a user runs them."""
    common = ["--jobs", str(jobs), "--quiet"]
    build = ["build", "--annotations", str(inputs["annotations"]),
             "--correlates", str(inputs["correlates"]),
             "--out", str(out / "records.jsonl"),
             "--report", str(out / "build_report.json")]
    if workload.parent_fallback:
        build.append("--parent-fallback")
    candidates = (inputs["candidates"] if workload.candidates == "diverse"
                  else out / "baseline.jsonl")
    return {
        "build": [build + common],
        "split": [["split", "--in", str(out / "records.jsonl"),
                   "--val", str(workload.n_val), "--test", str(workload.n_test),
                   "--out", str(out / "split.jsonl"),
                   "--export-dir", str(out / "splits"),
                   "--report", str(out / "split_report.json")] + common],
        "baseline": [["baseline", "--train", str(out / "split.jsonl"),
                      "--ids", str(out / "splits" / "test.jsonl"),
                      "--out", str(out / "baseline.jsonl")] + common],
        "analyze": [
            ["analyze", "genres", "--captions", str(out / "split.jsonl"),
             "--genres", str(inputs["genres"]),
             "--out", str(out / "genres.csv"),
             "--report", str(out / "genres_report.json")] + common,
            ["analyze", "lengths", "--captions", str(out / "split.jsonl")]
            + common,
        ],
        "eval": [["eval", "--candidates", str(candidates),
                  "--references", str(out / "splits" / "test.jsonl"),
                  "--csv", str(out / "eval.csv"),
                  "--report", str(out / "eval_report.json")] + common],
    }


@dataclass
class PassResult:
    samples: dict[str, list[float]]  # wall seconds of each repetition
    scaled: dict[str, list[float]]  # the same at the reference host speed
    attempts: int
    failed_stage: str | None


def repeats_for(reference: PassResult,
                min_sample_s: float = MIN_SAMPLE_S) -> dict[str, int]:
    """Repetitions per pass giving each stage about half a second of samples.

    Short stages are repeated so that a brief slow phase of the host does
    not decide their time; they rerun on unchanged inputs and rewrite
    identical outputs.
    """
    return {stage: max(1, math.ceil(min_sample_s / min(seconds)))
            for stage, seconds in reference.samples.items()}


def run_pass(
    workload: Workload, inputs: dict[str, Path], out: Path, jobs: int,
    seed: int, repeats: dict[str, int] | None = None,
    speed: bool = False,
) -> PassResult:
    """Run every stage through ``iconcap.cli.run``; stop at a failure.

    A stage's wall time covers its CLI invocations only.  With ``speed``
    the host speed probe runs before the first and after every repetition,
    and each repetition is also scaled to the reference speed (see
    ``calibrate``).  The diverse candidates are generated after the split,
    outside every timing, the first time a pass needs them.
    """
    from iconcap.cli import run

    out.mkdir(parents=True, exist_ok=True)
    samples: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    attempts = 0
    before = calibrate.probe() if speed else 0.0
    for stage, invocations in stage_argv(workload, inputs, out, jobs).items():
        if (stage == "eval" and workload.candidates == "diverse"
                and not inputs["candidates"].exists()):
            gen.diverse_candidates(out / "splits" / "test.jsonl",
                                   out / "splits" / "train.jsonl",
                                   inputs["candidates"], seed)
        for _ in range((repeats or {}).get(stage, 1)):
            # start from a collected heap, as a fresh CLI process would, so
            # a full collection owed by earlier work is not billed here
            gc.collect()
            attempts += 1
            elapsed = 0.0
            for argv in invocations:
                stdout = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(stdout):
                    code = run(argv)
                elapsed += time.perf_counter() - start
                if code != 0:
                    return PassResult(samples, scaled, attempts, stage)
                if argv[:2] == ["analyze", "lengths"]:
                    (out / "lengths.json").write_text(stdout.getvalue(),
                                                      encoding="utf-8")
            samples.setdefault(stage, []).append(elapsed)
            if speed:
                after = calibrate.probe()
                scaled.setdefault(stage, []).append(
                    calibrate.scale(elapsed, before, after))
                before = after
    return PassResult(samples, scaled, attempts, None)


# Primary outputs, keyed by the stage that writes them.  Reports are not
# digested whole: they embed the resolved CLI arguments, temp paths included.
OUTPUTS = {
    "build": ("records.jsonl",),
    "split": ("split.jsonl", "splits/train.jsonl", "splits/val.jsonl",
              "splits/test.jsonl"),
    "baseline": ("baseline.jsonl",),
    "analyze": ("genres.csv", "lengths.json"),
    "eval": ("eval.csv", "corpus"),
}


def _corpus_block(out: Path) -> bytes:
    """The report's ``corpus`` block, canonical; a damaged report's bytes."""
    raw = (out / "eval_report.json").read_bytes()
    try:
        corpus = json.loads(raw)["corpus"]
    except (ValueError, KeyError, TypeError):
        return raw
    return json.dumps(corpus, sort_keys=True).encode("utf-8")


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every primary output that exists under ``out``."""
    found = {}
    for names in OUTPUTS.values():
        for name in names:
            path = out / name
            if name == "corpus":
                if (out / "eval_report.json").exists():
                    found[name] = hashlib.sha256(_corpus_block(out)).hexdigest()
            elif path.exists():
                found[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def stage_of(output: str) -> str:
    return next(s for s, names in OUTPUTS.items() if output in names)


def failed_stages(found: dict[str, str], reference: dict[str, str]) -> set:
    """Stages with an output whose digest differs from the reference."""
    return {stage_of(name) for name in reference
            if found.get(name) != reference[name]}


def _ids(path: Path) -> list[str]:
    return [json.loads(line)["image_id"]
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def check_invariants(workload: Workload, out: Path) -> dict[str, str]:
    """Seed-independent checks; returns {stage: first problem found}."""
    problems: dict[str, str] = {}

    def fail(stage: str, message: str) -> None:
        problems.setdefault(stage, message)

    records = _ids(out / "records.jsonl")
    if len(set(records)) != len(records):
        fail("build", "duplicate image id in records")
    if workload.corpus == "paper" and len(records) != workload.n_images:
        # every paper code resolves and cleans to a non-empty caption
        fail("build", f"{len(records)} records, expected {workload.n_images}")

    split_ids = {s: _ids(out / "splits" / f"{s}.jsonl")
                 for s in ("train", "val", "test")}
    expected = {"train": len(records) - workload.n_val - workload.n_test,
                "val": workload.n_val, "test": workload.n_test}
    counts = {s: len(ids) for s, ids in split_ids.items()}
    if counts != expected:
        fail("split", f"split counts {counts}, expected {expected}")
    seen: set[str] = set()
    for ids in split_ids.values():
        if seen & set(ids):
            fail("split", "an image id appears in two splits")
        seen |= set(ids)
    if seen != set(records):
        fail("split", "exports do not partition the records")

    test_ids = split_ids["test"]
    baseline = [json.loads(line) for line in
                (out / "baseline.jsonl").read_text(encoding="utf-8").splitlines()]
    if [row["image_id"] for row in baseline] != sorted(test_ids):
        fail("baseline", "baseline ids differ from the test ids")
    if len({row["caption"] for row in baseline}) != 1:
        fail("baseline", "baseline assigns more than one caption")

    lengths = json.loads((out / "lengths.json").read_text(encoding="utf-8"))
    if lengths["count"] != len(records):
        fail("analyze", f"length stats over {lengths['count']} captions")
    with open(out / "genres.csv", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh))
    if header[0] != "phrase" or not set(header[1:]) <= set(gen.GENRES):
        fail("analyze", f"unexpected genre table header {header}")

    with open(out / "eval.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(test_ids):
        fail("eval", f"{len(rows)} eval rows for {len(test_ids)} test ids")
    try:
        corpus = json.loads(_corpus_block(out))
    except ValueError:
        fail("eval", "the eval report is not valid JSON")
        return problems
    for row in [corpus, *rows]:
        for name, top in SCORE_RANGES.items():
            if not 0.0 <= float(row[name]) <= top:
                fail("eval", f"{name}={row[name]} outside [0, {top}]")
                break
    return problems
