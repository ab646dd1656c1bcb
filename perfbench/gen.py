"""Seeded input generators for the benchmark workloads.

Every generator takes an explicit seed and writes plain files; the program
under test only ever sees those files.  Nothing here is timed.

Two corpus shapes exist:

* ``paper``: the distribution of the test-suite corpus - a 60-code pool,
  1-5 distinct codes per image drawn uniformly.  Work is highly shared.
* ``wide``: a large hierarchical code pool drawn with Zipf-like weights,
  with a share of code strings carrying ``(+...)`` keys or qualifiers the
  correlate table lacks (they resolve through ``parent``) and a few percent
  missing or malformed.  Little work repeats.

Each shape has one correlate table, drawn from ``TABLE_SEED``: a real
collection is annotated against one Iconclass table.  The run's seed draws
the images, their codes and genres.  So seeds vary the collection, not the
table, and a run's amount of text does not swing with a few correlates'
lengths (with a seeded table it varied by about 10 % between seeds).

``WIDE_ASSUMPTIONS`` records the wide pool's parameters; they are
assumptions about real Iconclass data, not measurements of it.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from pathlib import Path

PAPER_WORDS = [
    "sea", "ship", "boat", "king", "queen", "palace", "saint", "garden",
    "flowers", "rose", "lion", "deer", "manuscript", "portrait", "woman",
    "man", "child", "angel", "crown", "sword", "book", "candle", "bridge",
    "harbor", "storm", "mountain", "forest", "feast", "banner", "temple",
]
QUALIFIERS = ["ROSE", "LUPINE", "MONTENAY, Georgette de", "1567"]
TABLE_SEED = 0
DOMINANT_SHARE = 0.01  # see paper_corpus
GENRES = ["portrait", "landscape", "religious", "still life", "genre scene",
          "history"]

WIDE_ASSUMPTIONS = {
    "pool_codes": 20_000,
    "zipf_exponent": 1.0,
    "codes_per_image": [1, 5],
    "key_or_qualifier_share": 0.10,
    "missing_share": 0.03,
    "malformed_share": 0.01,
    "vocabulary_words": 2_000,
    "table_ancestor_share": 0.2,
}


def _correlate_text(rng: random.Random, words: list[str]) -> str:
    """A correlate that exercises every cleaning rule at synth.py's rates."""
    text = ", ".join(rng.sample(words, rng.randint(2, 4)))
    roll = rng.random()
    if roll < 0.25:
        text += f" ({rng.choice(QUALIFIERS)})"
    elif roll < 0.35:
        text += " - BB - " + rng.choice(words)
    elif roll < 0.45:
        text += ", etc."
    return text


def _write_inputs(
    out_dir: Path, annotations: dict[str, list[str]], table: dict[str, str],
    genres: dict[str, str],
) -> dict[str, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "annotations": out_dir / "annotations.json",
        "correlates": out_dir / "correlates.tsv",
        "genres": out_dir / "genres.csv",
    }
    paths["annotations"].write_text(json.dumps(annotations), encoding="utf-8")
    paths["correlates"].write_text(
        "".join(f"{code}\t{text}\n" for code, text in sorted(table.items())),
        encoding="utf-8",
    )
    paths["genres"].write_text(
        "image_id,genre\n"
        + "".join(f"{i},{g}\n" for i, g in genres.items()),
        encoding="utf-8",
    )
    return paths


def _genres(rng: random.Random, image_ids: list[str]) -> dict[str, str]:
    # about nine in ten images carry a label, as in a partially tagged
    # collection; the rest fall out of the join
    return {i: rng.choice(GENRES) for i in image_ids if rng.random() < 0.9}


def paper_corpus(out_dir: Path, n_images: int, seed: int) -> dict[str, Path]:
    """The test-suite distribution: 60 codes, 1-5 distinct codes per image.

    One image in a hundred carries the single code ``pool[0]`` instead, so
    the most frequent caption, the frequency baseline's one candidate, is
    the same for every seed.  Without it the winner is a near tie among
    single-code captions, and eval time swung with its length by about
    20 % between seeds.
    """
    table_rng = random.Random(TABLE_SEED)
    table: dict[str, str] = {}
    while len(table) < 60:
        base = (f"{table_rng.randint(1, 98)}{table_rng.choice('ABCDEFG')}"
                f"{table_rng.randint(1, 9)}")
        if base not in table:
            table[base] = _correlate_text(table_rng, PAPER_WORDS)
    pool = sorted(table)
    rng = random.Random(seed)
    annotations = {}
    for i in range(n_images):
        codes = rng.sample(pool, rng.randint(1, 5))
        if rng.random() < DOMINANT_SHARE:
            codes = [pool[0]]
        annotations[f"img{i:05}.jpg"] = codes
    return _write_inputs(out_dir, annotations, table,
                         _genres(rng, list(annotations)))


def _wide_vocabulary(rng: random.Random, size: int) -> list[str]:
    syllables = ["ka", "lo", "mi", "ne", "ru", "sa", "te", "vi", "do", "pe",
                 "an", "or", "el", "is", "um", "ba", "fi", "go", "hu", "ze"]
    words: set[str] = set(PAPER_WORDS)
    while len(words) < size:
        word = "".join(rng.choice(syllables) for _ in range(rng.randint(2, 4)))
        # add plural and -ing forms so METEOR's stem stage has work
        words.add(word + rng.choice(["", "", "", "s", "ing", "ed"]))
    return sorted(words)


def _wide_pool(rng: random.Random, size: int) -> list[str]:
    """Distinct hierarchical base codes such as ``25G41`` under tops 0-8."""
    pool: set[str] = set()
    while len(pool) < size:
        pool.add(f"{rng.randint(0, 8)}{rng.randint(0, 9)}"
                 f"{rng.choice('ABCDEFGHIKLMNOPQRSTUVW')}{rng.randint(1, 9)}"
                 f"{rng.randint(0, 99) if rng.random() < 0.7 else ''}")
    return sorted(pool)


def wide_corpus(out_dir: Path, n_images: int, seed: int) -> dict[str, Path]:
    """A large skewed pool; see ``WIDE_ASSUMPTIONS``."""
    a = WIDE_ASSUMPTIONS
    table_rng = random.Random(TABLE_SEED)
    words = _wide_vocabulary(table_rng, a["vocabulary_words"])
    pool = _wide_pool(table_rng, a["pool_codes"])
    table_rng.shuffle(pool)  # frequency rank independent of code order

    table: dict[str, str] = {}
    for code in pool:
        table[code] = _correlate_text(table_rng, words)
        # some ancestors carry their own correlate, so parent walks stop at
        # varying depths
        if table_rng.random() < a["table_ancestor_share"]:
            table[code[:3]] = _correlate_text(table_rng, words)
    rng = random.Random(seed)

    # cumulative weights drawn by bisection: one O(log n) step per draw
    cumulative = list(itertools.accumulate(
        1.0 / (rank + 1) ** a["zipf_exponent"] for rank in range(len(pool))
    ))
    total = cumulative[-1]
    lo, hi = a["codes_per_image"]
    variant_cut = a["key_or_qualifier_share"]
    missing_cut = variant_cut + a["missing_share"]
    malformed_cut = missing_cut + a["malformed_share"]

    annotations: dict[str, list[str]] = {}
    for i in range(n_images):
        codes: list[str] = []
        for _ in range(rng.randint(lo, hi)):
            code = pool[bisect.bisect_left(cumulative, rng.random() * total)]
            roll = rng.random()
            if roll < variant_cut:
                # keys and free-text qualifiers never appear in the table
                code += (f"(+{rng.randint(1, 9)}{rng.randint(0, 9)})"
                         if rng.random() < 0.5
                         else f"({rng.choice(QUALIFIERS[:2])})")
            elif roll < missing_cut:
                # top-level 9 is absent from the table, so no ancestor hits
                code = f"9{code[1:]}"
            elif roll < malformed_cut:
                code = rng.choice([f"X{code}", f"{code}(", code.lower()])
            if code not in codes:
                codes.append(code)
        annotations[f"w{i:06}.jpg"] = codes
    return _write_inputs(out_dir, annotations, table,
                         _genres(rng, list(annotations)))


def diverse_candidates(
    test_path: Path, pool_path: Path, out_path: Path, seed: int,
    max_tokens: int = 40,
) -> int:
    """Write one perturbed candidate per test id; returns the count.

    Each candidate starts from the caption of another image in
    ``pool_path`` (sometimes two joined) and gets seeded token drops,
    adjacent swaps and insertions, capped at ``max_tokens`` tokens.
    """
    rng = random.Random(seed)
    test_ids = [json.loads(line)["image_id"]
                for line in test_path.read_text(encoding="utf-8").splitlines()
                if line.strip()]
    pool = [json.loads(line)["caption"]
            for line in pool_path.read_text(encoding="utf-8").splitlines()
            if line.strip()]
    vocab = sorted({w for caption in pool[:2000] for w in caption.split()})
    lines = []
    for image_id in test_ids:
        tokens = rng.choice(pool).split()
        if rng.random() < 0.3:
            tokens += rng.choice(pool).split()
        out: list[str] = []
        for token in tokens:
            roll = rng.random()
            if roll < 0.1:
                continue
            out.append(token)
            if roll > 0.9:
                out.append(rng.choice(vocab))
        for k in range(len(out) - 1):
            if rng.random() < 0.1:
                out[k], out[k + 1] = out[k + 1], out[k]
        caption = " ".join(out[:max_tokens]) or rng.choice(vocab)
        lines.append(json.dumps({"image_id": image_id, "caption": caption},
                                ensure_ascii=False))
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)
