"""Scorer unit tests, independent oracles, and metric invariants."""

import dataclasses
import hashlib
import itertools
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iconcap import (
    DuplicateId,
    EmptyCorpus,
    EvalConfig,
    EvalPair,
    MissingReference,
    bleu,
    cider,
    corpus_bleu,
    evaluate,
    evaluate_pairs,
    meteor,
    rouge_l,
    tokenize,
)
from iconcap import metrics
from iconcap.cli import run
from iconcap.metrics import PUNCTUATION, light_stem, strip_punctuation_tokens
from synth import write_corpus


def pair(cand, refs, image_id="img"):
    return EvalPair(image_id, tuple(cand), tuple(tuple(r) for r in refs))


def random_pairs(seed, count):
    """Seeded pairs with 1-3 references each; some candidates are empty."""
    rng = random.Random(seed)
    vocab = ["sea", "ship", "boat", "king", "palace", "saint", "tree"]
    return [
        pair(rng.choices(vocab, k=rng.randint(0, 9)),
             [rng.choices(vocab, k=rng.randint(1, 9))
              for _ in range(rng.randint(1, 3))],
             f"img{i}")
        for i in range(count)
    ]


def reference_corpus_bleu(pairs, max_n,
                          epsilon=metrics.DEFAULT_SMOOTHING_EPSILON):
    """Corpus BLEU oracle: sum brute-force clipped counts, then combine.

    Each n-gram's count is a list count over every position, clipped by
    its largest count in any one reference; none of the scorer's kernels
    is called.
    """
    clipped, totals = [0] * max_n, [0] * max_n
    cand_len = ref_len = 0
    for p in pairs:
        cand, refs = p.candidate, p.references
        for n in range(1, max_n + 1):
            grams = [cand[i:i + n] for i in range(len(cand) - n + 1)]
            ref_grams = [[r[i:i + n] for i in range(len(r) - n + 1)]
                         for r in refs]
            totals[n - 1] += len(grams)
            for gram in set(grams):
                ceiling = max(rg.count(gram) for rg in ref_grams)
                clipped[n - 1] += min(grams.count(gram), ceiling)
        cand_len += len(cand)
        # the closest reference length, ties to the shorter
        gap = min(abs(len(r) - len(cand)) for r in refs)
        ref_len += min(len(r) for r in refs if abs(len(r) - len(cand)) == gap)
    if cand_len == 0:
        return 0.0
    precisions = [c / t if c > 0 and t > 0 else epsilon
                  for c, t in zip(clipped, totals)]
    brevity = 1.0 if cand_len >= ref_len else math.exp(1 - ref_len / cand_len)
    return brevity * math.exp(sum(math.log(x) for x in precisions) / max_n)


def loop_tokenize(text):
    """Reference tokenizer: the character loop that ``tokenize`` replaced."""
    tokens, word = [], []
    for ch in text.lower():
        if ch in PUNCTUATION:
            if word:
                tokens.append("".join(word))
                word = []
            tokens.append(ch)
        elif ch.isspace():
            if word:
                tokens.append("".join(word))
                word = []
        else:
            word.append(ch)
    if word:
        tokens.append("".join(word))
    return tokens


def brute_force_lcs(a, b):
    """Independent LCS oracle: enumerate all subsequences of the shorter."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)

    def is_subsequence(sub, seq):
        it = iter(seq)
        return all(tok in it for tok in sub)

    best = 0
    for size in range(len(short), 0, -1):
        for picks in itertools.combinations(range(len(short)), size):
            sub = [short[i] for i in picks]
            if is_subsequence(sub, long_):
                return size
    return best


def reference_lcs_length(a, b):
    """The O(len(a) * len(b)) dynamic program that lcs_length replaced."""
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


def reference_align(candidate, reference, cand_stems, ref_stems):
    """The reference scan that _align replaced: sorted (i, j) matches."""
    cand_free = [True] * len(candidate)
    ref_free = [True] * len(reference)
    matches = []
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


def reference_rouge_l(p, beta=metrics.DEFAULT_ROUGE_BETA):
    """rouge_l's formula over reference_lcs_length."""
    best = 0.0
    for ref in p.references:
        length = reference_lcs_length(p.candidate, ref)
        if length == 0:
            continue
        recall = length / len(ref)
        precision = length / len(p.candidate)
        score = ((1 + beta**2) * recall * precision) / (
            recall + beta**2 * precision)
        best = max(best, score)
    return best


def reference_meteor(p, alpha=metrics.DEFAULT_METEOR_ALPHA,
                     gamma=metrics.DEFAULT_METEOR_GAMMA,
                     theta=metrics.DEFAULT_METEOR_THETA):
    """meteor's formula over reference_align, chunks counted on the pairs."""
    if not p.candidate:
        return 0.0
    best = 0.0
    for ref in p.references:
        matches = reference_align(p.candidate, ref,
                                  [light_stem(t) for t in p.candidate],
                                  [light_stem(t) for t in ref])
        m = len(matches)
        if m == 0:
            continue
        chunks = 1 + sum(i1 != i0 + 1 or j1 != j0 + 1
                         for (i0, j0), (i1, j1) in zip(matches, matches[1:]))
        precision = m / len(p.candidate)
        recall = m / len(ref)
        f_mean = (precision * recall) / (
            alpha * precision + (1 - alpha) * recall)
        score = f_mean * (1 - gamma * (chunks / m) ** theta)
        best = max(best, score)
    return best


class TestTokenize:
    def test_terminal_period_standalone(self):
        assert tokenize("New Testament.") == ["new", "testament", "."]

    def test_hyphen_standalone(self):
        assert tokenize("sailing-ship") == ["sailing", "-", "ship"]

    def test_empty(self):
        assert tokenize("") == []

    def test_all_punctuation_isolated(self):
        assert tokenize("a:b,c(d)") == ["a", ":", "b", ",", "c", "(", "d", ")"]

    def test_no_empty_or_spaced_tokens(self):
        tokens = tokenize("  a  b.c  ")
        assert all(t and " " not in t for t in tokens)

    def test_strip_punctuation_tokens(self):
        assert strip_punctuation_tokens(["a", ".", "-", "b"]) == ["a", "b"]

    @settings(max_examples=500)
    @given(st.text() | st.text(alphabet=st.sampled_from(
        sorted(PUNCTUATION)
        + list(" \t\n\x0b\x1c\x85\xa0\u2028\u3000aZ\u0130"))))
    def test_matches_loop_oracle(self, text):
        assert tokenize(text) == loop_tokenize(text)

    def test_every_code_point_splits_as_the_loop_does(self):
        # a code point that re's \s and str.isspace classify differently
        # would end a word in one tokenizer and not in the other
        text = "".join(map(chr, range(0x110000)))
        assert tokenize(text) == loop_tokenize(text)


class TestBleu:
    def test_identity_unigram(self):
        assert bleu(pair("abc", ["abc"]), max_n=1) == pytest.approx(1.0)

    def test_two_of_three_unigrams(self):
        p = pair(["a", "b", "c"], [["a", "b", "d"]])
        assert bleu(p, max_n=1) == pytest.approx(2 / 3)

    def test_identity_all_orders(self):
        p = pair(["a", "b", "c", "d"], [["a", "b", "c", "d"]])
        for n in range(1, 5):
            assert bleu(p, max_n=n) == pytest.approx(1.0)

    def test_empty_candidate_scores_zero(self):
        assert bleu(pair([], [["a"]])) == 0.0

    def test_smoothing_scale_on_disjoint(self):
        p = pair(["x"], [["a"]])
        assert bleu(p, max_n=1, smoothing_epsilon=5e-16) == \
            pytest.approx(5e-16)

    def test_brevity_penalty(self):
        # full precision, candidate half the reference length
        p = pair(["a", "b"], [["a", "b", "c", "d"]])
        assert bleu(p, max_n=1) == pytest.approx(math.exp(1 - 2))

    def test_bp_never_rewards_shortening(self):
        # candidate prefixes keep unigram precision at 1, so BLEU-1 equals
        # the brevity penalty and must shrink monotonically with length
        ref = ["a", "b", "c", "d", "e"]
        last = 1.0
        for cut in range(len(ref), 0, -1):
            score = bleu(pair(ref[:cut], [ref]), max_n=1)
            assert score <= last + 1e-12
            if cut == len(ref):
                assert score == pytest.approx(1.0)  # c >= r gives BP 1
            last = score

    def test_closest_reference_length(self):
        p = pair(["a", "b", "c"], [["a"], ["u", "v", "w", "x", "y", "z"]])
        # clipping is the max over references; the closest reference
        # (length 1) keeps BP at 1 since c >= r
        assert bleu(p, max_n=1) == pytest.approx(1 / 3)

    def test_corpus_aggregation_differs_from_mean(self):
        pairs = [
            pair(["a", "b"], [["a", "b"]], "one"),
            pair(["x"], [["y"]], "two"),
        ]
        corpus = corpus_bleu(pairs, max_n=1)
        # summed stats: 2 matches of 3 unigrams, lengths 3 vs 3
        assert corpus == pytest.approx(2 / 3)

    def test_corpus_empty(self):
        with pytest.raises(EmptyCorpus):
            corpus_bleu([], max_n=1)


class TestRougeL:
    def test_identity(self):
        assert rouge_l(pair("abc", ["abc"])) == pytest.approx(1.0)

    def test_disjoint(self):
        assert rouge_l(pair(["a", "b"], [["c", "d"]])) == 0.0

    def test_formula(self):
        p = pair(["a", "x", "b"], [["a", "b", "y", "z"]])
        lcs, beta = 2, 1.2
        recall, precision = lcs / 4, lcs / 3
        expected = ((1 + beta**2) * recall * precision) / \
            (recall + beta**2 * precision)
        assert rouge_l(p, beta=1.2) == pytest.approx(expected)

    def test_multi_reference_max(self):
        p = pair(["a", "b"], [["c"], ["a", "b"]])
        assert rouge_l(p) == pytest.approx(1.0)

    def test_against_brute_force_oracle(self):
        rng = random.Random(1234)
        for _ in range(200):
            vocab = "abcdefgh"
            cand = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
            ref = [rng.choice(vocab) for _ in range(rng.randint(1, 10))]
            lcs = brute_force_lcs(cand, ref)
            got = rouge_l(pair(cand, [ref]))
            if lcs == 0 or not cand:
                assert got == 0.0
                continue
            recall, precision = lcs / len(ref), lcs / len(cand)
            expected = (1 + 1.2**2) * recall * precision / \
                (recall + 1.2**2 * precision)
            assert got == pytest.approx(expected, abs=1e-12)


class TestMeteor:
    def test_no_overlap_scores_zero(self):
        assert meteor(pair(["a"], [["b"]])) == 0.0

    def test_identity_hand_oracle(self):
        # P = R = 1 so F = 1; one chunk of three matches gives
        # penalty 0.5 * (1/3)**3, hence 1 - 1/54 = 53/54
        p = pair(["a", "b", "c"], [["a", "b", "c"]])
        got = meteor(p, alpha=0.9, gamma=0.5, theta=3.0)
        assert got == pytest.approx(53 / 54, abs=1e-9)

    def test_chunk_counting(self):
        # matches split into two chunks: (a b) and (d)
        p = pair(["a", "b", "x", "d"], [["a", "b", "c", "d"]])
        m, chunks = 3, 2
        precision, recall = m / 4, m / 4
        f_mean = precision * recall / (0.9 * precision + 0.1 * recall)
        expected = f_mean * (1 - 0.5 * (chunks / m) ** 3)
        got = meteor(p, alpha=0.9, gamma=0.5, theta=3.0)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_stem_stage_matches(self):
        p = pair(["king"], [["kings"]])
        assert meteor(p) > 0.0

    def test_empty_candidate(self):
        assert meteor(pair([], [["a"]])) == 0.0

    def test_duplicate_tokens_align_once_each(self):
        p = pair(["a", "a"], [["a"]])
        got = meteor(p, alpha=0.9, gamma=0.5, theta=3.0)
        precision, recall = 1 / 2, 1 / 1
        f_mean = precision * recall / (0.9 * precision + 0.1 * recall)
        assert got == pytest.approx(f_mean * 0.5, abs=1e-12)


class TestLightStem:
    @pytest.mark.parametrize("word,stem", [
        ("kings", "king"), ("flowers", "flower"), ("portrayed", "portray"),
        ("glasses", "glass"), ("glass", "glass"), ("sailing", "sail"),
        ("studies", "study"), ("sea", "sea"), ("key", "key"),
    ])
    def test_fixed_suffixes(self, word, stem):
        assert light_stem(word) == stem


class TestCider:
    def test_distinct_identity_corpus_scores_ten(self):
        pairs = [
            pair(["a", "b", "c", "d"], [["a", "b", "c", "d"]], "one"),
            pair(["d", "e", "f", "g"], [["d", "e", "f", "g"]], "two"),
            pair(["g", "h", "a", "e", "c"], [["g", "h", "a", "e", "c"]],
                 "three"),
        ]
        scores, corpus = cider(pairs)
        assert scores == pytest.approx([10.0, 10.0, 10.0])
        assert corpus == pytest.approx(10.0)

    def test_short_identity_sequences_miss_high_orders(self):
        # a length-2 sequence has no 3- or 4-grams, so those orders
        # contribute zero cosine and the mean over orders caps at 5
        pairs = [
            pair(["a", "b"], [["a", "b"]], "one"),
            pair(["c", "d"], [["c", "d"]], "two"),
        ]
        scores, _ = cider(pairs)
        assert scores == pytest.approx([5.0, 5.0])

    def test_disjoint_pair_scores_zero(self):
        pairs = [
            pair(["a"], [["b"]], "one"),
            pair(["c", "d"], [["c", "d"]], "two"),
        ]
        scores, _ = cider(pairs)
        assert scores[0] == 0.0

    def test_ubiquitous_ngram_contributes_zero(self):
        # "the" appears in every image's references, so its IDF is zero and
        # a candidate matching only "the" scores exactly zero
        pairs = [
            pair(["the"], [["the", "w1"]], "one"),
            pair(["the"], [["the", "w2"]], "two"),
            pair(["the"], [["the", "w3"]], "three"),
        ]
        scores, corpus = cider(pairs)
        assert scores == [0.0, 0.0, 0.0]
        assert corpus == 0.0

    def test_single_image_corpus_degenerates_to_zero(self):
        # with one image every reference n-gram has IDF log(1/1) = 0
        scores, _ = cider([pair(["a", "b"], [["a", "b"]])])
        assert scores == [0.0]

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            cider([])

    def test_exact_match_never_exceeds_ten(self):
        # unclamped, rounding put both cosines a few ulps above 1
        texts = ["boat child river tree ship sea tree",
                 "child mary child river boat mary cat mary"]
        pairs = [pair(t.split(), [t.split()], f"img{i}")
                 for i, t in enumerate(texts)]
        scores, corpus = cider(pairs)
        assert max(scores) <= 10.0
        assert corpus <= 10.0

    def test_permutation_invariance(self):
        pairs = [
            pair(["a", "b"], [["a", "c"]], "one"),
            pair(["c"], [["c", "b"]], "two"),
            pair(["a", "c"], [["b", "a"]], "three"),
        ]
        scores, corpus = cider(pairs)
        scores_rev, corpus_rev = cider(pairs[::-1])
        assert corpus == pytest.approx(corpus_rev)
        assert scores == pytest.approx(scores_rev[::-1])
        assert corpus_bleu(pairs) == pytest.approx(corpus_bleu(pairs[::-1]))


token = st.text(alphabet="abcdefgh", min_size=1, max_size=3)
sequence = st.lists(token, min_size=0, max_size=10)
nonempty = st.lists(token, min_size=1, max_size=10)


@settings(max_examples=200)
@given(st.lists(st.tuples(nonempty, nonempty), min_size=1, max_size=5))
def test_metric_ranges(corpus_spec):
    pairs = [
        pair(cand, [ref], f"img{i}")
        for i, (cand, ref) in enumerate(corpus_spec)
    ]
    for p in pairs:
        for n in range(1, 5):
            assert 0.0 <= bleu(p, max_n=n) <= 1.0
        assert 0.0 <= rouge_l(p) <= 1.0
        assert 0.0 <= meteor(p) <= 1.0
    scores, corpus = cider(pairs)
    assert all(0.0 <= s <= 10.0 for s in scores)
    assert 0.0 <= corpus <= 10.0
    for n in range(1, 5):
        assert 0.0 <= corpus_bleu(pairs, max_n=n) <= 1.0


@given(nonempty)
def test_identity_invariants(tokens):
    p = pair(tokens, [tokens])
    assert rouge_l(p) == pytest.approx(1.0)
    for n in range(1, len(tokens) + 1):
        assert bleu(p, max_n=n) == pytest.approx(1.0)


@given(nonempty)
def test_disjoint_zero_invariants(tokens):
    other = [t + "zz" for t in tokens]
    p = pair(tokens, [other])
    assert rouge_l(p) == 0.0
    assert meteor(p) == 0.0
    eps = 5e-16
    assert bleu(p, max_n=1, smoothing_epsilon=eps) <= eps


# stems collide: sing/sings/singing and ship/ships share a stem, so the
# stem stage has work left after the exact stage
stem_token = st.sampled_from(
    ["sing", "sings", "singing", "ship", "ships", "sea", "a"])
# short, past one 64-bit word, and past 200 tokens: no word width is assumed
caption_length = st.one_of(st.integers(0, 12), st.integers(60, 80),
                           st.integers(190, 230))
caption = caption_length.flatmap(
    lambda n: st.lists(stem_token, min_size=n, max_size=n).map(tuple))
eval_pair = st.builds(
    lambda cand, refs: EvalPair("img", cand, tuple(refs)),
    caption, st.lists(caption, min_size=1, max_size=3))


@settings(max_examples=150, deadline=None)
@given(caption, caption)
def test_lcs_length_matches_dp_oracle(a, b):
    assert metrics.lcs_length(a, b) == reference_lcs_length(a, b)


@settings(max_examples=150, deadline=None)
@given(eval_pair)
def test_rouge_l_matches_oracle(p):
    assert rouge_l(p) == reference_rouge_l(p)


@settings(max_examples=150, deadline=None)
@given(eval_pair)
def test_meteor_matches_oracle(p):
    cand_stems = [light_stem(t) for t in p.candidate]
    for ref in p.references:
        ref_stems = [light_stem(t) for t in ref]
        taken = metrics._align(p.candidate, ref, cand_stems, ref_stems)
        assert [(i, j) for i, j in enumerate(taken) if j >= 0] == \
            reference_align(p.candidate, ref, cand_stems, ref_stems)
    assert meteor(p) == reference_meteor(p)
    assert meteor(p, gamma=0.5, theta=3.0) == \
        reference_meteor(p, gamma=0.5, theta=3.0)


def test_unaligned_token_then_reference_start_opens_chunk():
    # "x" takes nothing (-1) and "sea" takes reference position 0; -1 + 1
    # is 0, yet "sea" opens a chunk, so "sea ship" is one chunk, not zero
    p = pair(["x", "sea", "ship"], [["sea", "ship"]])
    assert metrics._align(p.candidate, p.references[0], ["x", "sea", "ship"],
                          ["sea", "ship"]) == [-1, 0, 1]
    m, chunks = 2, 1
    precision, recall = m / 3, m / 2
    f_mean = precision * recall / (0.9 * precision + 0.1 * recall)
    expected = f_mean * (1 - 0.5 * (chunks / m) ** 3.0)
    got = meteor(p, gamma=0.5, theta=3.0)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == reference_meteor(p, gamma=0.5, theta=3.0)


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


class TestEvaluate:
    def test_identity_corpus(self, tmp_path):
        cands = tmp_path / "c.jsonl"
        refs = tmp_path / "r.jsonl"
        rows = [
            {"image_id": "a", "caption": "palace king new testament."},
            {"image_id": "b", "caption": "plants and herbs rose."},
        ]
        write_jsonl(cands, rows)
        write_jsonl(refs, rows)
        report = evaluate(cands, refs)
        for n in range(1, 5):
            assert report.corpus[f"bleu{n}"] == pytest.approx(1.0)
        assert report.corpus["rouge_l"] == pytest.approx(1.0)
        assert report.corpus["cider"] == pytest.approx(10.0)
        assert report.corpus["meteor"] > 0.4
        assert [row["image_id"] for row in report.examples] == ["a", "b"]

    def test_missing_reference(self, tmp_path):
        cands = tmp_path / "c.jsonl"
        refs = tmp_path / "r.jsonl"
        write_jsonl(cands, [{"image_id": "a", "caption": "x"}])
        write_jsonl(refs, [{"image_id": "b", "caption": "x"}])
        with pytest.raises(MissingReference) as caught:
            evaluate(cands, refs)
        assert str(caught.value) == \
            f"{cands}: no reference caption for image id 'a' in {refs}"

    def test_duplicate_id(self, tmp_path):
        cands = tmp_path / "c.jsonl"
        write_jsonl(cands, [
            {"image_id": "a", "caption": "x"},
            {"image_id": "a", "caption": "y"},
        ])
        refs = tmp_path / "r.jsonl"
        write_jsonl(refs, [{"image_id": "a", "caption": "x"}])
        with pytest.raises(DuplicateId):
            evaluate(cands, refs)

    def test_extra_references_ignored(self, tmp_path):
        cands = tmp_path / "c.jsonl"
        refs = tmp_path / "r.jsonl"
        write_jsonl(cands, [{"image_id": "a", "caption": "sea."}])
        write_jsonl(refs, [
            {"image_id": "a", "caption": "sea."},
            {"image_id": "z", "caption": "unused."},
        ])
        report = evaluate(cands, refs)
        assert len(report.examples) == 1

    def test_report_serialization(self, tmp_path):
        cands = tmp_path / "c.jsonl"
        refs = tmp_path / "r.jsonl"
        write_jsonl(cands, [{"image_id": "a", "caption": "sea."}])
        write_jsonl(refs, [{"image_id": "a", "caption": "sea."}])
        report = evaluate(cands, refs)
        payload = json.loads(report.to_json())
        assert set(payload) >= {"corpus", "examples"}
        assert set(payload["corpus"]) == {
            "bleu1", "bleu2", "bleu3", "bleu4", "meteor", "rouge_l", "cider",
        }
        x100 = json.loads(report.x100().to_json())
        assert x100["corpus"]["rouge_l"] == pytest.approx(
            payload["corpus"]["rouge_l"] * 100
        )
        csv_text = report.to_csv()
        header, row = csv_text.strip().splitlines()
        assert header.startswith("image_id,bleu1")
        assert row.startswith("a,")

    def test_punctuation_stripping_configurable(self):
        pairs_stripped = [EvalPair.from_text("a", "x.", ["y."])]
        pairs_kept = [EvalPair.from_text("a", "x.", ["y."],
                                         strip_punctuation=False)]
        assert rouge_l(pairs_stripped[0]) == 0.0
        assert rouge_l(pairs_kept[0]) > 0.0

    def test_parallel_matches_serial(self, tmp_path):
        cands = tmp_path / "c.jsonl"
        refs = tmp_path / "r.jsonl"
        rng = random.Random(9)
        vocab = ["sea", "ship", "boat", "king", "palace", "saint"]
        cand_rows, ref_rows = [], []
        for i in range(12):
            cand_rows.append({
                "image_id": f"img{i}",
                "caption": " ".join(rng.choices(vocab, k=rng.randint(1, 6))),
            })
            ref_rows.append({
                "image_id": f"img{i}",
                "caption": " ".join(rng.choices(vocab, k=rng.randint(1, 6))),
            })
        write_jsonl(cands, cand_rows)
        write_jsonl(refs, ref_rows)
        serial = evaluate(cands, refs, EvalConfig(jobs=1))
        parallel = evaluate(cands, refs, EvalConfig(jobs=2))
        assert serial.corpus == parallel.corpus
        assert serial.examples == parallel.examples

    def test_metric_parameters_are_constants(self):
        """Only strip_punctuation and the ignored jobs can be set; the
        metric parameters are the frozen defaults."""
        config = EvalConfig()
        assert (config.max_n, config.smoothing_epsilon, config.rouge_beta,
                config.meteor_alpha, config.meteor_gamma,
                config.meteor_theta) == (
            4, metrics.DEFAULT_SMOOTHING_EPSILON, metrics.DEFAULT_ROUGE_BETA,
            metrics.DEFAULT_METEOR_ALPHA, metrics.DEFAULT_METEOR_GAMMA,
            metrics.DEFAULT_METEOR_THETA)
        assert [f.name for f in dataclasses.fields(EvalConfig)] == \
            ["strip_punctuation", "jobs"]
        with pytest.raises(TypeError):
            EvalConfig(meteor_alpha=0.5)

    def test_corpus_bleu_matches_reference_implementation(self):
        pairs = random_pairs(23, 60)
        report = evaluate_pairs(pairs)
        for n in range(1, 5):
            expected = reference_corpus_bleu(pairs, n)
            assert report.corpus[f"bleu{n}"] == expected
            assert corpus_bleu(pairs, n) == expected

    def test_corpus_meteor_rouge_are_means(self, tmp_path):
        cands = tmp_path / "c.jsonl"
        refs = tmp_path / "r.jsonl"
        write_jsonl(cands, [
            {"image_id": "a", "caption": "sea."},
            {"image_id": "b", "caption": "ship."},
        ])
        write_jsonl(refs, [
            {"image_id": "a", "caption": "sea."},
            {"image_id": "b", "caption": "boat."},
        ])
        report = evaluate(cands, refs)
        per = report.examples
        assert report.corpus["rouge_l"] == pytest.approx(
            sum(r["rouge_l"] for r in per) / len(per)
        )
        assert report.corpus["meteor"] == pytest.approx(
            sum(r["meteor"] for r in per) / len(per)
        )

    def test_empty_candidate_file(self, tmp_path):
        cands = tmp_path / "c.jsonl"
        refs = tmp_path / "r.jsonl"
        cands.write_text("")
        write_jsonl(refs, [{"image_id": "a", "caption": "x"}])
        with pytest.raises(EmptyCorpus):
            evaluate(cands, refs)

    def test_evaluate_pairs_sorts_output(self):
        pairs = [
            pair(["a"], [["a"]], "zzz"),
            pair(["b"], [["b"]], "aaa"),
        ]
        report = evaluate_pairs(pairs)
        assert [r["image_id"] for r in report.examples] == ["aaa", "zzz"]


def assert_rows_equal_public_scorers(pairs):
    """evaluate_pairs' rows and corpus, bit for bit, from the public scorers."""
    report = evaluate_pairs(pairs)
    ordered = sorted(pairs, key=lambda p: p.image_id)
    cider_scores, cider_corpus = cider(ordered)
    assert len(report.examples) == len(ordered)
    for p, row, cider_score in zip(ordered, report.examples, cider_scores):
        expected = {"image_id": p.image_id}
        for n in range(1, 5):
            expected[f"bleu{n}"] = bleu(p, max_n=n)
        expected["meteor"] = meteor(p)
        expected["rouge_l"] = rouge_l(p)
        expected["cider"] = cider_score
        assert list(row.items()) == list(expected.items())
    rows = report.examples
    assert report.corpus == {
        **{f"bleu{n}": reference_corpus_bleu(pairs, n)
           for n in range(1, 5)},
        "meteor": sum(r["meteor"] for r in rows) / len(rows),
        "rouge_l": sum(r["rouge_l"] for r in rows) / len(rows),
        "cider": cider_corpus,
    }


class TestSinglePass:
    """evaluate_pairs counts each caption once and equals the public scorers."""

    def test_rows_equal_public_scorers(self):
        pairs = random_pairs(31, 80)
        assert any(not p.candidate for p in pairs)
        assert any(len(p.references) > 1 for p in pairs)
        assert_rows_equal_public_scorers(pairs)

    def test_shared_candidates_score_as_the_public_scorers(self):
        # three candidates (one empty) take turns in id order, so no two
        # adjacent ids share one; the input order is shuffled as well
        rng = random.Random(43)
        vocab = ["sea", "ship", "boat", "king", "palace", "saint", "tree"]
        candidates = [(), ("sea", "ship", "sea", "boat"),
                      ("king", "palace", "saint", "tree", "king", "sea")]
        pairs = [
            pair(candidates[k % 3],
                 [rng.choices(vocab, k=rng.randint(1, 9))
                  for _ in range(rng.randint(1, 3))],
                 f"img{k:03d}")
            for k in range(66)
        ]
        rng.shuffle(pairs)
        assert_rows_equal_public_scorers(pairs)

    def test_light_stem_once_per_distinct_token(self, monkeypatch):
        pairs = random_pairs(37, 80)
        calls = Counter()
        real = metrics.light_stem

        def counting(word):
            calls[word] += 1
            return real(word)

        monkeypatch.setattr(metrics, "light_stem", counting)
        evaluate_pairs(pairs)
        assert set(calls) == {token for p in pairs if p.candidate
                              for tokens in (p.candidate, *p.references)
                              for token in tokens}
        assert max(calls.values()) == 1

    def test_ngrams_counted_once_per_candidate_and_reference(self,
                                                             monkeypatch):
        pairs = random_pairs(41, 80)
        # repeat some candidates under new ids, so grouping shows
        pairs += [dataclasses.replace(p, image_id=f"{p.image_id}x")
                  for p in pairs[:30]]
        calls = Counter()
        real = metrics._ngram_counts

        def counting(tokens, max_n):
            calls[tokens] += 1
            return real(tokens, max_n)

        monkeypatch.setattr(metrics, "_ngram_counts", counting)
        evaluate_pairs(pairs)
        distinct = {p.candidate for p in pairs}
        assert len(distinct) < len(pairs)
        # the IDF pass reads gram sets and counts nothing; the scoring loop
        # counts each distinct candidate once and each reference per pair
        assert calls == Counter(distinct) + Counter(
            r for p in pairs for r in p.references)

    def test_pair_without_references_is_rejected(self):
        message = "image id 'a' has no reference captions"
        with pytest.raises(ValueError, match=message):
            evaluate_pairs([EvalPair("a", ("x",), ())])
        with pytest.raises(ValueError, match=message):
            bleu(EvalPair("a", ("x",), ()))
        with pytest.raises(ValueError, match=message):
            EvalPair.from_text("a", "x", [])

    def test_frozen_report_digest(self, tmp_path):
        # recorded before the single-pass scorer replaced the per-metric
        # passes; any change to a score's bytes or row order shows here
        ann, tsv = write_corpus(tmp_path, n_images=300, seed=17)
        records = tmp_path / "records.jsonl"
        assert run(["build", "--annotations", str(ann), "--correlates",
                    str(tsv), "--out", str(records), "--quiet",
                    "--report", str(tmp_path / "build.json")]) == 0
        rng = random.Random(41)
        cands = []
        for line in records.read_text().splitlines():
            row = json.loads(line)
            words = row["caption"].split()
            roll = rng.random()
            if roll < 0.05:
                words = []
            elif roll < 0.6:
                rng.shuffle(words)
                words = words[:rng.randint(1, len(words))]
            cands.append({"image_id": row["image_id"],
                          "caption": " ".join(words)})
        write_jsonl(tmp_path / "cands.jsonl", cands)
        report = evaluate(tmp_path / "cands.jsonl", records)
        assert sum(not c["caption"] for c in cands) == 14
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == \
            "1495cbc5e8a309a0696a258270b6de2f2ec507aae499be42807a382910ecb6db"
        assert hashlib.sha256(report.to_csv().encode()).hexdigest() == \
            "7eb65856a1e87d2c0db991949882d46999f05e40b7b7cc92107a5a6b9f31471d"
