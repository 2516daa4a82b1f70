"""Seeded synthetic emotion-style texts, written as ``text,label`` CSV files.

The paper's emotion data cannot be fetched, so the benchmark generates text
that exercises the same preprocessing work: mixed case, punctuation, digits,
apostrophes, the odd non-ASCII letter and a large share of stopwords, so that
``clean_text`` and the stopword filter do real work. Lengths average about 19
raw tokens, and about 2% of texts run to 100-200 tokens, so encoding at 79
tokens truncates some of them. Labels follow the skew of the six-emotion data
(joy and sadness common, surprise rare), and each label has cue words, so a
model could learn something from them.

Only the standard library is used: the same seed gives the same bytes on any
machine. The lexicon is fixed; the seed drives every draw from it.
"""

import csv
import itertools
import random

LABEL_WEIGHTS = (0.29, 0.335, 0.08, 0.135, 0.12, 0.04)
STOPWORDS = ("i", "the", "and", "to", "a", "of", "that", "my", "it", "is",
             "in", "was", "me", "so", "for", "with", "but", "this", "am", "on",
             "be", "have", "not", "just", "about", "at", "you", "all", "very")
PUNCTUATION = (",", ".", "!", "?", "...", "!!", ";", ":", "-", "(", ")", '"')
CONTRACTIONS = ("don't", "can't", "i'm", "it's", "didn't", "won't", "i've")
ACCENTED = ("café", "naïve", "résumé", "über")
LEXICON_SIZE = 60_000
CUES_PER_LABEL = 24


def _lexicon() -> list[str]:
    """Fixed pseudo-words, distinct and purely alphabetic."""
    onsets = ["b", "br", "c", "ch", "d", "f", "fl", "g", "gr", "h", "j", "k",
              "l", "m", "n", "p", "pl", "r", "s", "sh", "st", "t", "tr", "v",
              "w", "z"]
    vowels = ["a", "e", "i", "o", "u", "ai", "ea", "oo"]
    codas = ["", "n", "r", "s", "t", "m", "ck", "ld", "nd", "st"]
    syllables = [o + v + c for o, v, c in itertools.product(onsets, vowels, codas)]
    rng = random.Random(0)
    words, seen = [], set()
    while len(words) < LEXICON_SIZE:
        word = "".join(rng.choice(syllables) for _ in range(rng.choice((2, 2, 3))))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class TextGenerator:
    """Draws labelled texts; one instance per seed."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        words = _lexicon()
        n_cues = CUES_PER_LABEL * len(LABEL_WEIGHTS)
        self._cues = [words[i * CUES_PER_LABEL:(i + 1) * CUES_PER_LABEL]
                      for i in range(len(LABEL_WEIGHTS))]
        self._words = words[n_cues:]
        # Zipf-like ranks, so the vocabulary has a head and a long tail
        self._cum = list(itertools.accumulate(
            1.0 / (r + 1) ** 1.05 for r in range(len(self._words))))

    def _length(self) -> int:
        rng = self._rng
        if rng.random() < 0.02:
            return rng.randint(100, 200)
        return max(1, min(79, round(rng.lognormvariate(2.72, 0.55))))

    def _token(self, label: int) -> str:
        rng = self._rng
        u = rng.random()
        if u < 0.40:
            return rng.choice(STOPWORDS)
        if u < 0.50:
            return rng.choice(self._cues[label])
        if u < 0.53:
            return rng.choice(CONTRACTIONS)
        if u < 0.55:
            return str(rng.choice((1, 2, 3, 7, 10, 24, 100, 2019, 2024)))
        if u < 0.555:
            return rng.choice(ACCENTED)
        return rng.choices(self._words, cum_weights=self._cum)[0]

    def record(self) -> tuple[str, int]:
        rng = self._rng
        label = rng.choices(range(len(LABEL_WEIGHTS)), weights=LABEL_WEIGHTS)[0]
        tokens = [self._token(label) for _ in range(self._length())]
        for i, tok in enumerate(tokens):
            u = rng.random()
            if u < 0.03:
                tokens[i] = tok.upper()
            elif u < 0.10:
                tokens[i] = tok + rng.choice(PUNCTUATION)
        tokens[0] = tokens[0].capitalize()
        return " ".join(tokens), label

    def records(self, n: int) -> list[tuple[str, int]]:
        return [self.record() for _ in range(n)]


def write_csv(path, records) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "label"])
        writer.writerows(records)
