"""Caption evaluation metrics: BLEU 1-4, ROUGE-L, METEOR, and CIDEr.

All scorers work on token sequences from :func:`tokenize` (lowercased,
punctuation isolated into standalone tokens).  The evaluation pipeline
drops punctuation-only tokens before scoring, so metric values reflect
content-word overlap; turn this off with ``EvalConfig.strip_punctuation``.

The metric parameters were calibrated once against the golden
per-example scores and are constants of :class:`EvalConfig`, not fields:
BLEU's zero-precision substitute comes from
``tools/smoothing_calibration.py``, and the METEOR fragmentation penalty
(gamma, theta) is the pair that reproduces the golden fourth pair within
its tolerance.

Scores are kept in natural scale: BLEU, METEOR and ROUGE-L in [0, 1],
CIDEr in [0, 10].  Reports offer a x100 presentation mode.

Each caption is cooked once: :func:`_ngram_counts` counts orders 1..max_n
in one call, and BLEU's clipped counts, the corpus BLEU sums and CIDEr's
cosines all read those counts.  :func:`evaluate_pairs` visits the pairs
grouped by candidate, so a candidate's counts and its CIDEr TF-IDF vectors
and norms are built once and live for its group; a reference's counts live
for its pair.  CIDEr's document frequencies are a separate first pass that
reads each image's set of reference n-grams, since IDF must be complete
before any pair is scored.  METEOR stems each token once through a token
-> stem memo; :func:`evaluate_pairs` shares one memo over the whole call.
Every memo lives for one call only, and no corpus-wide count table is ever
held.  The public scorers are thin wrappers over the same kernels, and
every float sum runs in a fixed order (the corpus sums in image-id order),
so reports are byte-identical run to run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from .errors import DuplicateId, EmptyCorpus, MissingReference
from .jsonl import read_captions

PUNCTUATION = set(".,:;!?'\"()-")

DEFAULT_SMOOTHING_EPSILON = 5e-16  # frozen by tools/smoothing_calibration.py
DEFAULT_ROUGE_BETA = 1.2
DEFAULT_METEOR_ALPHA = 0.9
DEFAULT_METEOR_GAMMA = 0.6
DEFAULT_METEOR_THETA = 0.2

METRIC_NAMES = ("bleu1", "bleu2", "bleu3", "bleu4", "meteor", "rouge_l", "cider")


# a punctuation character, or a run of characters that are neither
# whitespace nor punctuation; re's \s agrees with str.isspace
_PUNCT = re.escape("".join(sorted(PUNCTUATION)))
_TOKEN_RE = re.compile(rf"[{_PUNCT}]|[^\s{_PUNCT}]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split; punctuation characters become standalone tokens."""
    return _TOKEN_RE.findall(text.lower())


def strip_punctuation_tokens(tokens: list[str]) -> list[str]:
    return [t for t in tokens if t not in PUNCTUATION]


@dataclass(frozen=True)
class EvalPair:
    """A candidate token sequence and its (non-empty) reference list."""

    image_id: str
    candidate: tuple[str, ...]
    references: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not self.references:
            raise ValueError(
                f"image id {self.image_id!r} has no reference captions")

    @classmethod
    def from_text(
        cls, image_id: str, candidate: str, references: list[str],
        strip_punctuation: bool = True,
    ) -> EvalPair:
        def prep(text: str) -> tuple[str, ...]:
            toks = tokenize(text)
            if strip_punctuation:
                toks = strip_punctuation_tokens(toks)
            return tuple(toks)

        return cls(image_id, prep(candidate), tuple(prep(r) for r in references))


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

def _ngrams(tokens: tuple[str, ...], n: int) -> Iterable[tuple[str, ...]]:
    """The order-n grams of ``tokens``, in order."""
    return zip(*[tokens[i:] for i in range(n)])


def _ngram_counts(tokens: tuple[str, ...], max_n: int) -> list[Counter]:
    """N-gram counts of every order 1..max_n; entry ``n - 1`` holds order n.

    Each Counter keeps the n-grams in order of first occurrence, the order
    CIDEr's float sums run in.
    """
    return [Counter(_ngrams(tokens, n)) for n in range(1, max_n + 1)]


def _pair_counts(
    pair: EvalPair, max_n: int
) -> tuple[list[Counter], list[list[Counter]]]:
    """The candidate's and each reference's counts, one pass per caption."""
    return (
        _ngram_counts(pair.candidate, max_n),
        [_ngram_counts(ref, max_n) for ref in pair.references],
    )


def _closest_ref_len(cand_len: int, refs: tuple[tuple[str, ...], ...]) -> int:
    # ties go to the shorter reference
    return min((abs(len(r) - cand_len), len(r)) for r in refs)[1]


def _bleu_stats(
    pair: EvalPair, cand_counts: list[Counter], ref_counts: list[list[Counter]],
) -> tuple[list[int], list[int], int, int]:
    """Clipped and total n-gram counts plus candidate/closest-ref lengths."""
    max_n = len(cand_counts)
    clipped = [0] * max_n
    totals = [0] * max_n
    for n, cand in enumerate(cand_counts):
        if not cand:
            continue
        # clip by the largest count of the gram in any one reference
        max_ref = ref_counts[0][n]
        for counts in ref_counts[1:]:
            max_ref = max_ref | counts[n]
        totals[n] = sum(cand.values())
        clipped[n] = sum(
            min(count, max_ref.get(gram, 0)) for gram, count in cand.items()
        )
    cand_len = len(pair.candidate)
    return clipped, totals, cand_len, _closest_ref_len(cand_len, pair.references)


def _bleu_from_stats(
    clipped: list[int], totals: list[int], cand_len: int, ref_len: int,
    max_n: int, smoothing_epsilon: float,
) -> list[float]:
    """BLEU-1..max_n from one cumulative log sum; entry ``n - 1`` is BLEU-n."""
    if cand_len == 0:
        return [0.0] * max_n
    bp = min(1.0, math.exp(1.0 - ref_len / cand_len))
    scores = []
    log_sum = 0.0
    for n in range(max_n):
        if clipped[n] > 0 and totals[n] > 0:
            p = clipped[n] / totals[n]
        else:
            p = smoothing_epsilon
        log_sum += math.log(p)
        scores.append(bp * math.exp(log_sum / (n + 1)))
    return scores


def bleu(
    pair: EvalPair,
    max_n: int = 4,
    smoothing_epsilon: float = DEFAULT_SMOOTHING_EPSILON,
) -> float:
    """Geometric mean of clipped n-gram precisions times the brevity penalty.

    Zero precisions (including orders longer than the candidate) are
    replaced by ``smoothing_epsilon``.  An empty candidate scores 0.
    """
    stats = _bleu_stats(pair, *_pair_counts(pair, max_n))
    return _bleu_from_stats(*stats, max_n, smoothing_epsilon)[-1]


def _sum_bleu_stats(
    stats: Iterable[tuple[list[int], list[int], int, int]],
) -> tuple[list[int], list[int], int, int]:
    """Corpus BLEU's sums of per-pair :func:`_bleu_stats`; at least one pair."""
    clipped, totals, cand_lens, ref_lens = zip(*stats)
    return ([sum(c) for c in zip(*clipped)], [sum(t) for t in zip(*totals)],
            sum(cand_lens), sum(ref_lens))


def corpus_bleu(
    pairs: list[EvalPair],
    max_n: int = 4,
    smoothing_epsilon: float = DEFAULT_SMOOTHING_EPSILON,
) -> float:
    """BLEU over summed clipped counts and lengths (corpus aggregation)."""
    if not pairs:
        raise EmptyCorpus("corpus BLEU over zero pairs")
    stats = _sum_bleu_stats(_bleu_stats(pair, *_pair_counts(pair, max_n))
                            for pair in pairs)
    return _bleu_from_stats(*stats, max_n, smoothing_epsilon)[-1]


# ---------------------------------------------------------------------------
# ROUGE-L
# ---------------------------------------------------------------------------

def lcs_length(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Longest common subsequence length, O(len(a) * len(b))."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        append = cur.append
        for j, y in enumerate(b, 1):
            if x == y:
                append(prev[j - 1] + 1)
            else:
                left = cur[j - 1]
                up = prev[j]
                append(left if left >= up else up)
        prev = cur
    return prev[-1]


def rouge_l(pair: EvalPair, beta: float = DEFAULT_ROUGE_BETA) -> float:
    """LCS-based F-measure; the maximum over references."""
    best = 0.0
    for ref in pair.references:
        length = lcs_length(pair.candidate, ref)
        if length == 0:
            continue
        recall = length / len(ref)
        precision = length / len(pair.candidate)
        score = ((1 + beta**2) * recall * precision) / (
            recall + beta**2 * precision
        )
        if score > best:
            best = score
    return best


# ---------------------------------------------------------------------------
# METEOR
# ---------------------------------------------------------------------------

_STEM_SUFFIXES = (("sses", "ss"), ("ies", "y"), ("ing", ""), ("ed", ""), ("s", ""))


def light_stem(word: str) -> str:
    """Fixed suffix-stripping stemmer used by the METEOR stem stage."""
    if len(word) <= 3:
        return word
    for suffix, replacement in _STEM_SUFFIXES:
        if word.endswith(suffix):
            if suffix == "s" and word.endswith(("ss", "us", "is")):
                continue
            stem = word[: -len(suffix)] + replacement
            if len(stem) >= 2:
                return stem
    return word


def _stems(tokens: tuple[str, ...], memo: dict[str, str]) -> list[str]:
    """Each token's :func:`light_stem`, computed once per token per memo."""
    out = []
    for token in tokens:
        stem = memo.get(token)
        if stem is None:
            stem = memo[token] = light_stem(token)
        out.append(stem)
    return out


def _align(
    candidate: tuple[str, ...],
    reference: tuple[str, ...],
    cand_stems: list[str],
    ref_stems: list[str],
) -> list[tuple[int, int]]:
    """Greedy unigram alignment: exact stage, then stem stage."""
    cand_free = [True] * len(candidate)
    ref_free = [True] * len(reference)
    matches: list[tuple[int, int]] = []
    for cand_keys, ref_keys in ((candidate, reference), (cand_stems, ref_stems)):
        for i, c_key in enumerate(cand_keys):
            if not cand_free[i]:
                continue
            for j, r_key in enumerate(ref_keys):
                if ref_free[j] and c_key == r_key:
                    cand_free[i] = False
                    ref_free[j] = False
                    matches.append((i, j))
                    break
    matches.sort()
    return matches


def _count_chunks(matches: list[tuple[int, int]]) -> int:
    chunks = 1
    for (i0, j0), (i1, j1) in zip(matches, matches[1:]):
        if i1 != i0 + 1 or j1 != j0 + 1:
            chunks += 1
    return chunks


def _meteor(
    pair: EvalPair, stem_memo: dict[str, str],
    alpha: float, gamma: float, theta: float,
) -> float:
    if not pair.candidate:
        return 0.0
    cand_stems = _stems(pair.candidate, stem_memo)
    best = 0.0
    for ref in pair.references:
        if not ref:
            continue
        matches = _align(pair.candidate, ref, cand_stems,
                         _stems(ref, stem_memo))
        m = len(matches)
        if m == 0:
            continue
        precision = m / len(pair.candidate)
        recall = m / len(ref)
        f_mean = (precision * recall) / (
            alpha * precision + (1 - alpha) * recall
        )
        penalty = gamma * (_count_chunks(matches) / m) ** theta
        score = f_mean * (1 - penalty)
        if score > best:
            best = score
    return best


def meteor(
    pair: EvalPair,
    alpha: float = DEFAULT_METEOR_ALPHA,
    gamma: float = DEFAULT_METEOR_GAMMA,
    theta: float = DEFAULT_METEOR_THETA,
) -> float:
    """Unigram-alignment F-mean with a fragmentation penalty; max over refs.

    With m aligned unigrams, P = m/|cand|, R = m/|ref|,
    F = P*R / (alpha*P + (1-alpha)*R), penalty = gamma*(chunks/m)**theta,
    score = F*(1-penalty).  Zero when nothing aligns.
    """
    return _meteor(pair, {}, alpha, gamma, theta)


# ---------------------------------------------------------------------------
# CIDEr
# ---------------------------------------------------------------------------

def _cider_idf(
    pairs: list[EvalPair], max_n: int
) -> tuple[dict[tuple[str, ...], float], float]:
    """IDF of every reference n-gram, and the IDF of an unseen n-gram.

    A first pass over the references: IDF must be complete before any
    pair is scored.  Document frequency needs only each image's set of
    reference n-grams, not their counts.
    """
    doc_freq: Counter = Counter()
    for pair in pairs:
        grams: set[tuple[str, ...]] = set()
        for ref in pair.references:
            for n in range(1, max_n + 1):
                grams.update(_ngrams(ref, n))
        doc_freq.update(grams)
    n_images = len(pairs)
    idf = {
        gram: math.log(n_images / max(1, df)) for gram, df in doc_freq.items()
    }
    # candidate-only n-grams never appear in any reference: df floor of 1
    return idf, math.log(n_images)


def _cider_vectors(
    cand_counts: list[Counter], idf: dict[tuple[str, ...], float],
    idf_default: float,
) -> list[tuple[dict[tuple[str, ...], float], float]]:
    """The candidate's TF-IDF vector and its norm, for each order."""
    vectors = []
    for cand in cand_counts:
        # raw counts as TF, weighted by corpus IDF
        vec = {gram: count * idf.get(gram, idf_default)
               for gram, count in cand.items()}
        vectors.append((vec, math.sqrt(sum(v * v for v in vec.values()))))
    return vectors


def _cider_score(
    cand_vectors: list[tuple[dict[tuple[str, ...], float], float]],
    ref_counts: list[list[Counter]], idf: dict[tuple[str, ...], float],
) -> float:
    """10 times the mean over orders of the mean candidate-reference cosine.

    A reference needs no vector: its weights ``count * idf[gram]`` are
    formed from its counts for the norm and again for the dot product.
    """
    total = 0.0
    for n, (cand_vec, cand_norm) in enumerate(cand_vectors):
        sim = 0.0
        if cand_norm != 0.0:
            for counts in ref_counts:
                ref = counts[n]
                weights = [count * idf[gram] for gram, count in ref.items()]
                ref_norm = math.sqrt(sum(w * w for w in weights))
                if ref_norm == 0.0:
                    continue
                dot = sum(v * (ref[g] * idf[g])
                          for g, v in cand_vec.items() if g in ref)
                # rounding can lift an exact match a few ulps above 1
                sim += min(1.0, dot / (cand_norm * ref_norm))
        total += sim / len(ref_counts)
    return 10.0 * total / len(cand_vectors)


def cider(pairs: list[EvalPair], max_n: int = 4) -> tuple[list[float], float]:
    """Per-example scores in [0, 10] plus the corpus mean.

    IDF(g) = log(|corpus| / max(1, images whose references contain g)) is a
    corpus-level reduction, so an n-gram present in every image's reference
    set weighs exactly zero.  Per example the score is 10 times the mean
    over orders 1..max_n of the cosine between candidate and reference
    TF-IDF vectors (TF = raw counts; mean over references when several).
    """
    if not pairs:
        raise EmptyCorpus("CIDEr over zero pairs")
    idf, idf_default = _cider_idf(pairs, max_n)
    scores = []
    for pair in pairs:
        cand_counts, ref_counts = _pair_counts(pair, max_n)
        scores.append(_cider_score(
            _cider_vectors(cand_counts, idf, idf_default), ref_counts, idf))
    return scores, sum(scores) / len(scores)


# ---------------------------------------------------------------------------
# Evaluation pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalConfig:
    """What an evaluation run may set: ``strip_punctuation``, and ``jobs``,
    which is accepted and ignored (scoring is serial).  The metric
    parameters are class constants, the same for every run."""

    max_n: ClassVar[int] = 4
    smoothing_epsilon: ClassVar[float] = DEFAULT_SMOOTHING_EPSILON
    rouge_beta: ClassVar[float] = DEFAULT_ROUGE_BETA
    meteor_alpha: ClassVar[float] = DEFAULT_METEOR_ALPHA
    meteor_gamma: ClassVar[float] = DEFAULT_METEOR_GAMMA
    meteor_theta: ClassVar[float] = DEFAULT_METEOR_THETA
    strip_punctuation: bool = True
    jobs: int = 1


@dataclass
class MetricReport:
    """Per-example rows plus the corpus row, in natural scale."""

    corpus: dict[str, float]
    examples: list[dict[str, object]]

    def _scaled(self, x100: bool) -> tuple[dict, list[dict]]:
        if not x100:
            return self.corpus, self.examples
        corpus = {k: v * 100 for k, v in self.corpus.items()}
        examples = [
            {
                k: (v * 100 if k in METRIC_NAMES else v)
                for k, v in row.items()
            }
            for row in self.examples
        ]
        return corpus, examples

    def as_dict(self, x100: bool = False) -> dict[str, object]:
        corpus, examples = self._scaled(x100)
        return {"corpus": corpus, "examples": examples}

    def to_json(self, x100: bool = False) -> str:
        return json.dumps(self.as_dict(x100), ensure_ascii=False, indent=2)

    def to_csv(self, x100: bool = False) -> str:
        _, examples = self._scaled(x100)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["image_id", *METRIC_NAMES])
        for row in examples:
            writer.writerow([row["image_id"], *(row[name] for name in METRIC_NAMES)])
        return buf.getvalue()


def load_caption_map(path: str | Path) -> dict[str, str]:
    """Read a ``{"image_id", "caption"}`` JSONL file into an id-keyed map."""
    captions: dict[str, str] = {}
    for lineno, image_id, caption, _ in read_captions(path):
        if image_id in captions:
            raise DuplicateId(image_id, f"{path}: line {lineno}")
        captions[image_id] = caption
    return captions


def evaluate_pairs(
    pairs: list[EvalPair], config: EvalConfig | None = None
) -> MetricReport:
    """Score already-tokenized pairs; :func:`evaluate` is the file front end.

    The pairs are visited grouped by candidate: each distinct candidate's
    n-grams are counted, and its CIDEr vectors and norms built, once per
    group, and each reference's n-grams once per pair.  Those counts feed
    per-pair BLEU, the corpus BLEU sums and CIDEr; CIDEr's IDF comes from a
    first pass over the references.  Rows and BLEU stats are stored at
    their image-id position, so every corpus sum runs in image-id order.
    METEOR's stems come from one token -> stem memo shared by the whole
    call.
    """
    config = config or EvalConfig()
    if not pairs:
        raise EmptyCorpus("evaluation over zero pairs")
    pairs = sorted(pairs, key=lambda p: p.image_id)
    max_n, epsilon = config.max_n, config.smoothing_epsilon
    idf, idf_default = _cider_idf(pairs, max_n)
    stem_memo: dict[str, str] = {}

    groups: dict[tuple[str, ...], list[int]] = {}
    for i, pair in enumerate(pairs):
        groups.setdefault(pair.candidate, []).append(i)
    pair_stats: list = [None] * len(pairs)
    rows: list = [None] * len(pairs)
    for candidate, group in groups.items():
        cand_counts = _ngram_counts(candidate, max_n)
        cand_vectors = _cider_vectors(cand_counts, idf, idf_default)
        for i in group:
            pair = pairs[i]
            ref_counts = [_ngram_counts(ref, max_n) for ref in pair.references]
            pair_stats[i] = stats = _bleu_stats(pair, cand_counts, ref_counts)
            row: dict[str, object] = {"image_id": pair.image_id}
            bleus = _bleu_from_stats(*stats, max_n, epsilon)
            for n, score in enumerate(bleus, 1):
                row[f"bleu{n}"] = score
            row["meteor"] = _meteor(
                pair, stem_memo, config.meteor_alpha, config.meteor_gamma,
                config.meteor_theta,
            )
            row["rouge_l"] = rouge_l(pair, config.rouge_beta)
            row["cider"] = _cider_score(cand_vectors, ref_counts, idf)
            rows[i] = row

    bleus = _bleu_from_stats(*_sum_bleu_stats(pair_stats), max_n, epsilon)
    corpus = {f"bleu{n}": score for n, score in enumerate(bleus, 1)}
    corpus["meteor"] = sum(r["meteor"] for r in rows) / len(rows)
    corpus["rouge_l"] = sum(r["rouge_l"] for r in rows) / len(rows)
    corpus["cider"] = sum(r["cider"] for r in rows) / len(rows)
    return MetricReport(corpus=corpus, examples=rows)


def evaluate(
    candidates_path: str | Path,
    references_path: str | Path,
    config: EvalConfig | None = None,
) -> MetricReport:
    """Score a candidate JSONL file against a reference JSONL file.

    Every candidate id must have a reference; reference ids without a
    candidate are ignored.  Raises MissingReference (naming both files) /
    DuplicateId.
    """
    config = config or EvalConfig()
    candidates = load_caption_map(candidates_path)
    references = load_caption_map(references_path)
    pairs = []
    for image_id in sorted(candidates):
        if image_id not in references:
            raise MissingReference(image_id, candidates_path, references_path)
        pairs.append(
            EvalPair.from_text(
                image_id,
                candidates[image_id],
                [references[image_id]],
                strip_punctuation=config.strip_punctuation,
            )
        )
    return evaluate_pairs(pairs, config)
