"""Span tracing and the traced replay of a workload's stages.

The replay calls the same public functions, in the same order, as each CLI
subcommand does, and wraps every call in a span named after the layer
(module) and function.  Per-item functions (``parse_notation``,
``clean_description``, ``bleu``, ...) are wrapped as one span per loop,
with the call count recorded beside it, so tracing adds one span per loop
rather than one per item.

Spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the time its children cover.
"""

from __future__ import annotations

import contextlib
import gc
import json
import time
from collections import Counter
from pathlib import Path

from workloads import STAGES, Workload


class Tracer:
    """Records spans (name, start, end, parent) and counts in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def finished(self) -> list[dict]:
        """Spans with their duration and self time, in start order."""
        child_time: Counter = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return [{**s, "duration": s["end"] - s["start"],
                 "self": s["end"] - s["start"] - child_time[s["id"]]}
                for s in self.spans]


class NullTracer:
    """The untraced replay: the same calls with no spans recorded."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value: float) -> None:
        pass


def replay_stages(
    tracer, workload: Workload, inputs: dict[str, Path], out: Path,
    jobs: int,
) -> tuple[dict[str, float], dict]:
    """Replay build -> split -> baseline -> analyze -> eval in-process.

    Returns each stage's wall time and the objects the probes reuse.
    Outputs are written as the CLI writes them, so they can be digested.
    """
    from iconcap import (CleaningConfig, CorrelateStore, EvalConfig, EvalPair,
                         SplitConfig, assign_splits, build_dataset,
                         export_jsonl, frequency_baseline, genre_distribution,
                         length_stats, load_annotations)
    from iconcap.analysis import join_genres, load_genre_csv
    from iconcap.captions import read_records_jsonl, write_records_jsonl
    from iconcap.metrics import evaluate_pairs, load_caption_map

    span = tracer.span
    times: dict[str, float] = {}
    out.mkdir(parents=True, exist_ok=True)

    @contextlib.contextmanager
    def timed(stage: str):
        gc.collect()  # as in workloads.run_pass
        start = time.perf_counter()
        with span(f"cli.{stage}"):
            yield
        times[stage] = time.perf_counter() - start

    with timed("build"):
        with span("iconclass.load_annotations"):
            annotations = load_annotations(inputs["annotations"])
        with span("iconclass.store_load"):
            store = CorrelateStore.from_tsv(inputs["correlates"])
        cfg = CleaningConfig()
        with span("captions.build_dataset"):
            records, report = build_dataset(
                annotations, store, cfg,
                parent_fallback=workload.parent_fallback, jobs=jobs)
        with span("captions.write"):
            write_records_jsonl(records, out / "records.jsonl")
        json.dumps(report.as_dict())

    with timed("split"):
        with span("captions.read"):
            records = read_records_jsonl(out / "records.jsonl")
        with span("captions.assign_splits"):
            records = assign_splits(
                records, SplitConfig(0, workload.n_val, workload.n_test))
        with span("captions.write"):
            write_records_jsonl(records, out / "split.jsonl")
        (out / "splits").mkdir(exist_ok=True)
        with span("captions.export"):
            for split in ("train", "val", "test"):
                export_jsonl(records, out / "splits" / f"{split}.jsonl", split)
        json.dumps({s: sum(1 for r in records if r.split == s)
                    for s in ("train", "val", "test")})

    with timed("baseline"):
        with span("captions.read"):
            train = read_records_jsonl(out / "split.jsonl")
        train = [r for r in train if r.split == "train"]
        test_ids = [json.loads(line)["image_id"] for line in
                    (out / "splits" / "test.jsonl").open(encoding="utf-8")]
        with span("analysis.frequency_baseline"):
            pairs = frequency_baseline(train, test_ids)
        (out / "baseline.jsonl").write_text("".join(
            json.dumps({"image_id": i, "caption": c}, ensure_ascii=False) + "\n"
            for i, c in pairs), encoding="utf-8")

    with timed("analyze"):
        with span("metrics.load"):
            captions = load_caption_map(out / "split.jsonl")
        with span("analysis.load_genres"):
            genres = load_genre_csv(inputs["genres"])
        with span("analysis.join_genres"):
            joined = join_genres(captions, genres)
        with span("analysis.genre_distribution"):
            distribution = genre_distribution(joined, 20, "segment")
        (out / "genres.csv").write_text(distribution.to_csv(), encoding="utf-8")
        with span("metrics.load"):
            captions = load_caption_map(out / "split.jsonl")
        with span("analysis.length_stats"):
            stats = length_stats(list(captions.values()))
        (out / "lengths.json").write_text(
            json.dumps(stats, ensure_ascii=False, indent=2) + "\n",
            encoding="utf-8")

    candidates_path = (inputs["candidates"] if workload.candidates == "diverse"
                       else out / "baseline.jsonl")
    with timed("eval"):
        config = EvalConfig(jobs=jobs)
        with span("metrics.load"):
            candidates = load_caption_map(candidates_path)
            references = load_caption_map(out / "splits" / "test.jsonl")
        with span("metrics.tokenize"):
            eval_pairs = [EvalPair.from_text(i, candidates[i], [references[i]])
                          for i in sorted(candidates)]
        with span("metrics.evaluate_pairs"):
            metric_report = evaluate_pairs(eval_pairs, config)
        with span("metrics.serialize"):
            report_text = metric_report.to_json()
            csv_text = metric_report.to_csv()
        (out / "eval_report.json").write_text(report_text + "\n",
                                              encoding="utf-8")
        (out / "eval.csv").write_text(csv_text, encoding="utf-8")

    return times, {"annotations": annotations, "store": store, "cfg": cfg,
                   "pairs": eval_pairs, "config": config}


def probe_layers(tracer: Tracer, workload: Workload, ctx: dict) -> None:
    """Time the per-item layer functions the stage-level calls hide."""
    from iconcap import (MalformedNotation, bleu, build_dataset, cider,
                         clean_description, correlate, corpus_bleu,
                         evaluate_pairs, meteor, parse_notation, rouge_l)
    from iconcap.iconclass import ancestors
    from iconcap.metrics import EvalConfig

    span, count = tracer.span, tracer.count
    annotations, store, cfg = ctx["annotations"], ctx["store"], ctx["cfg"]
    fallback = workload.parent_fallback

    with span("probe.build"):
        codes = [code for record in annotations for code in record.codes]
        parsed = []
        with span("iconclass.parse"):
            for code in codes:
                try:
                    parsed.append(parse_notation(code))
                except MalformedNotation:
                    parsed.append(None)
        with span("iconclass.correlate"):
            texts = [None if n is None else correlate(n, store, fallback)
                     for n in parsed]
        count("iconclass.code_occurrences", len(codes))
        count("iconclass.distinct_codes", len(set(codes)))
        count("iconclass.unresolved", sum(t is None for t in texts))
        steps = 0
        if fallback:
            for n in parsed:
                if n is None or store.lookup(n.serialize()) is not None:
                    continue
                for node in ancestors(n):
                    steps += 1
                    if store.lookup(node.serialize()) is not None:
                        break
        count("iconclass.parent_steps", steps)

        raws, at = [], 0
        for record in annotations:
            found = [t for t in texts[at:at + len(record.codes)] if t is not None]
            at += len(record.codes)
            if found:
                raws.append(", ".join(found))
        with span("captions.clean"):
            for raw in raws:
                clean_description(raw, cfg)
        count("captions.clean_calls", len(raws))
        count("captions.distinct_raws", len(set(raws)))
        with span("captions.build_dataset_jobs1"):
            build_dataset(annotations, store, cfg, parent_fallback=fallback,
                          jobs=1)

    pairs, config = ctx["pairs"], ctx["config"]
    with span("probe.eval"):
        with span("metrics.corpus_bleu"):
            for n in range(1, config.max_n + 1):
                corpus_bleu(pairs, n, config.smoothing_epsilon)
        with span("metrics.cider"):
            cider(pairs, config.max_n)
        with span("metrics.bleu"):
            for pair in pairs:
                bleu(pair, max_n=4)
        with span("metrics.meteor"):
            for pair in pairs:
                meteor(pair)
        with span("metrics.rouge_l"):
            for pair in pairs:
                rouge_l(pair)
        with span("metrics.evaluate_pairs_jobs1"):
            evaluate_pairs(pairs, EvalConfig(jobs=1))
    count("metrics.pairs", len(pairs))
    count("metrics.candidate_tokens", sum(len(p.candidate) for p in pairs))
    count("metrics.reference_tokens",
          sum(len(r) for p in pairs for r in p.references))
    count("metrics.distinct_candidates", len({p.candidate for p in pairs}))


# per-layer metric name -> span name whose summed duration it reports
SPAN_METRICS = {
    "iconclass.load_annotations_s": "iconclass.load_annotations",
    "iconclass.store_load_s": "iconclass.store_load",
    "iconclass.parse_s": "iconclass.parse",
    "iconclass.correlate_s": "iconclass.correlate",
    "captions.clean_s": "captions.clean",
    "captions.build_dataset_s": "captions.build_dataset",
    "captions.build_dataset_jobs1_s": "captions.build_dataset_jobs1",
    "captions.write_s": "captions.write",
    "captions.read_s": "captions.read",
    "captions.assign_splits_s": "captions.assign_splits",
    "captions.export_s": "captions.export",
    "analysis.frequency_baseline_s": "analysis.frequency_baseline",
    "analysis.genre_distribution_s": "analysis.genre_distribution",
    "analysis.length_stats_s": "analysis.length_stats",
    "metrics.load_s": "metrics.load",
    "metrics.tokenize_s": "metrics.tokenize",
    "metrics.corpus_bleu_s": "metrics.corpus_bleu",
    "metrics.cider_s": "metrics.cider",
    "metrics.bleu_s": "metrics.bleu",
    "metrics.meteor_s": "metrics.meteor",
    "metrics.rouge_l_s": "metrics.rouge_l",
    "metrics.evaluate_pairs_s": "metrics.evaluate_pairs",
    "metrics.evaluate_pairs_jobs1_s": "metrics.evaluate_pairs_jobs1",
    "metrics.serialize_s": "metrics.serialize",
}
COUNT_METRICS = ("iconclass.code_occurrences", "iconclass.distinct_codes",
                 "iconclass.unresolved", "iconclass.parent_steps",
                 "captions.clean_calls", "metrics.pairs",
                 "metrics.candidate_tokens", "metrics.reference_tokens")
STAGE_SELF_METRICS = {f"cli.{stage}_self_s": f"cli.{stage}"
                      for stage in STAGES}


def layer_metrics(
    spans: list[dict], counts: dict[str, float], overhead_ratio: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)} from a traced replay."""
    duration: Counter = Counter()
    self_time: Counter = Counter()
    for s in spans:
        duration[s["name"]] += s["duration"]
        self_time[s["name"]] += s["self"]
    metrics: dict[str, tuple[float, str]] = {}
    for metric, name in SPAN_METRICS.items():
        metrics[metric] = (duration[name], "s")
    for metric, name in STAGE_SELF_METRICS.items():
        metrics[metric] = (self_time[name], "s")
    for name in COUNT_METRICS:
        metrics[name] = (counts.get(name, 0), "count")
    metrics["iconclass.distinct_code_ratio"] = (
        counts["iconclass.distinct_codes"]
        / max(1, counts["iconclass.code_occurrences"]), "ratio")
    metrics["captions.distinct_raw_ratio"] = (
        counts["captions.distinct_raws"] / max(1, counts["captions.clean_calls"]),
        "ratio")
    metrics["metrics.distinct_candidate_ratio"] = (
        counts["metrics.distinct_candidates"] / max(1, counts["metrics.pairs"]),
        "ratio")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics
