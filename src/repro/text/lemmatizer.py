"""Lemmatizer pipeline stage (paper §3.3).

The paper's lemmatizer "converts document words into their lemmatized
form".  We combine a table of common English irregular forms with the
Porter stemmer: irregulars map straight to their lemma, everything else
is conflated by its Porter stem.  The goal is the IR one — pooling the
occurrence counts of morphological variants — not linguistic accuracy.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.text.stemmer import PorterStemmer

# Irregular verb and noun forms that suffix stripping cannot conflate.
_IRREGULAR_FORMS: Dict[str, str] = {
    "went": "go", "gone": "go", "goes": "go", "going": "go",
    "was": "be", "were": "be", "been": "be", "is": "be", "are": "be",
    "am": "be", "being": "be",
    "had": "have", "has": "have", "having": "have",
    "did": "do", "does": "do", "done": "do", "doing": "do",
    "said": "say", "says": "say",
    "made": "make", "making": "make",
    "took": "take", "taken": "take", "taking": "take",
    "got": "get", "gotten": "get", "getting": "get",
    "gave": "give", "given": "give", "giving": "give",
    "found": "find", "finding": "find",
    "thought": "think", "thinking": "think",
    "knew": "know", "known": "know", "knowing": "know",
    "came": "come", "coming": "come",
    "saw": "see", "seen": "see", "seeing": "see",
    "sent": "send", "sending": "send",
    "built": "build", "building": "build",
    "held": "hold", "holding": "hold",
    "kept": "keep", "keeping": "keep",
    "left": "leave", "leaving": "leave",
    "lost": "lose", "losing": "lose",
    "met": "meet", "meeting": "meet",
    "ran": "run", "running": "run",
    "wrote": "write", "written": "write", "writing": "write",
    "children": "child",
    "men": "man",
    "women": "woman",
    "people": "person",
    "feet": "foot",
    "teeth": "tooth",
    "mice": "mouse",
    "data": "datum",
    "indices": "index",
    "matrices": "matrix",
    "vertices": "vertex",
    "criteria": "criterion",
    "phenomena": "phenomenon",
    "media": "medium",
    "analyses": "analysis",
    "hypotheses": "hypothesis",
    "theses": "thesis",
    "better": "good", "best": "good",
    "worse": "bad", "worst": "bad",
}


class Lemmatizer:
    """Irregular-form lookup backed by Porter stemming.

    ``lemma(word)`` returns a canonical form such that all
    morphological variants of a word map to the same string.  The
    canonical form of a regular word is its Porter stem, so it may not
    be a dictionary word — which is fine for occurrence counting.
    """

    def __init__(self, extra_irregulars: Optional[Mapping[str, str]] = None) -> None:
        self._irregulars = dict(_IRREGULAR_FORMS)
        if extra_irregulars:
            self._irregulars.update(
                {k.lower(): v.lower() for k, v in extra_irregulars.items()}
            )
        self._stemmer = PorterStemmer()
        #: lowercase word -> (word, lemma): one shared pair per word, so
        #: the pipeline's token lists reuse it instead of building one.
        self._cache: Dict[str, Tuple[str, str]] = {}

    def lemma(self, word: str) -> str:
        """Canonical form of a single word; remembers it for next time."""
        return self._pair(word.lower())[1]

    def _pair(self, lowered: str) -> Tuple[str, str]:
        pair = self._cache.get(lowered)
        if pair is None:
            pair = self._cache[lowered] = (lowered, self._canonical(lowered))
        return pair

    def _canonical(self, lowered: str) -> str:
        irregular = self._irregulars.get(lowered)
        return self._stemmer.stem(irregular if irregular is not None else lowered)

    def pairs(self, words: Iterable[str]) -> List[Tuple[str, str]]:
        """``(word, lemma)`` for each word, in order.

        Every word is looked up in the memo first, in C, and a known
        lowercase word gets the memo's own pair; any other word goes
        through :meth:`lemma` and gets a pair of its own.
        """
        words = list(words)
        pairs = list(map(self._cache.get, words))
        if not all(pairs):
            lemma = self.lemma
            pairs = [pair or (word, lemma(word)) for word, pair in zip(words, pairs)]
        return pairs

    def lemmatize(self, words: Iterable[str]) -> List[str]:
        """Canonical forms of a token stream, preserving order."""
        return [lemma for _word, lemma in self.pairs(words)]

    def reader(self) -> "Lemmatizer":
        """A lemmatizer with the same lemmas that never grows this memo.

        It reads the memo this lemmatizer fills but adds nothing to it,
        so words that come from outside (client queries) cost a stem
        each time instead of a memo entry for the life of the process.
        """
        return _MemoReader(self)


class _MemoReader(Lemmatizer):
    """A :class:`Lemmatizer` view that reads its source's memo only."""

    def __init__(self, source: Lemmatizer) -> None:
        self._irregulars = source._irregulars
        self._stemmer = source._stemmer
        self._cache = source._cache

    def _pair(self, lowered: str) -> Tuple[str, str]:
        pair = self._cache.get(lowered)
        return pair if pair is not None else (lowered, self._canonical(lowered))
