"""Word-level Markov text model.

Generates English-like prose by sampling word transitions learned from seed
sentences, falling back to Zipf-weighted unigram sampling when a context has
no successors. The output's byte-frequency profile (mostly lowercase ASCII
letters and spaces with heavy skew) is what matters for the entropy-based
classifier — grammaticality does not.
"""

from __future__ import annotations

import numpy as np

from repro.data.wordlists import COMMON_WORDS, SAMPLE_SENTENCES, zipf_weights

__all__ = ["MarkovTextModel"]


class MarkovTextModel:
    """Order-1 word-level Markov chain with a Zipf unigram fallback."""

    def __init__(self, sentences: "tuple[str, ...] | list[str]" = SAMPLE_SENTENCES) -> None:
        if not sentences:
            raise ValueError("need at least one seed sentence")
        self._transitions: dict[str, list[str]] = {}
        self._starts: list[str] = []
        for sentence in sentences:
            words = sentence.split()
            if not words:
                continue
            self._starts.append(words[0])
            for current, nxt in zip(words, words[1:]):
                self._transitions.setdefault(current, []).append(nxt)
        if not self._starts:
            raise ValueError("seed sentences contained no words")
        self._unigram_words = list(COMMON_WORDS)
        # ``rng.choice(words, p=weights)``'s own draw, with the CDF built
        # once: the same index from the same one ``rng.random()``.
        self._unigram_cdf = np.cumsum(zipf_weights(len(self._unigram_words)))
        self._unigram_cdf /= self._unigram_cdf[-1]

    def _next_word(self, current: "str | None", rng: np.random.Generator) -> str:
        if current is not None:
            successors = self._transitions.get(current)
            # Mostly follow the chain; occasionally break out so generated
            # text is not a verbatim loop over the seed sentences.
            if successors and rng.random() < 0.8:
                return successors[int(rng.integers(0, len(successors)))]
        return self._unigram_words[
            self._unigram_cdf.searchsorted(rng.random(), side="right")
        ]

    def generate_sentence(self, rng: np.random.Generator, max_words: int = 18) -> str:
        """One sentence of 4..max_words words, capitalized, period-terminated."""
        if max_words < 4:
            raise ValueError(f"max_words must be >= 4, got {max_words}")
        length = int(rng.integers(4, max_words + 1))
        word = self._starts[int(rng.integers(0, len(self._starts)))]
        words = [word]
        for _ in range(length - 1):
            word = self._next_word(word, rng)
            words.append(word)
        sentence = " ".join(words)
        return sentence[0].upper() + sentence[1:] + "."

    def generate(self, size: int, rng: np.random.Generator) -> str:
        """At least ``size`` characters of paragraphs of generated sentences."""
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        pieces: list[str] = []
        total = 0
        sentences_in_paragraph = 0
        while total < size:
            sentence = self.generate_sentence(rng)
            pieces.append(sentence)
            total += len(sentence)
            sentences_in_paragraph += 1
            if sentences_in_paragraph >= int(rng.integers(3, 7)):
                separator = "\n\n"
                sentences_in_paragraph = 0
            else:
                separator = " "
            pieces.append(separator)
            total += len(separator)
        return "".join(pieces)
