"""Word and sentence tokenization.

The SC-generation pipeline (paper §3.3) begins by reducing a document
to a stream of candidate words.  The tokenizer below implements the
conventions common to classic IR systems of the paper's era: words are
maximal runs of letters (with internal apostrophes and hyphens kept),
case is folded, and digits-only tokens are dropped by default since
they rarely act as content keywords.
"""

from __future__ import annotations

import re
from typing import Iterator, List

_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*(?:['\-][A-Za-z0-9]+)*")
#: Every byte but the digits, apostrophe and hyphen: what can make a word
#: other than a maximal run of letters.
_NOT_DIGIT_OR_JOINER = bytes(code for code in range(256) if chr(code) not in "0123456789'-")
#: Byte translation tables: ASCII letters kept (or folded to lowercase),
#: every other byte a space.
_LETTERS = bytes(
    code if chr(code).isascii() and chr(code).isalpha() else 0x20 for code in range(256)
)
_LOWERCASE_LETTERS = _LETTERS.lower()
_SENTENCE_BOUNDARY_RE = re.compile(r"(?<=[.!?])\s+(?=[A-Z\"'(])")


def tokenize(text: str, lowercase: bool = True) -> List[str]:
    """Split *text* into word tokens.

    >>> tokenize("Mobile web-browsing, weakly-connected!")
    ['mobile', 'web-browsing', 'weakly-connected']
    """
    if text.isascii():
        raw = text.encode("ascii")
        if not raw.translate(None, _NOT_DIGIT_OR_JOINER):
            # Without digits, apostrophes or hyphens a word is a maximal
            # run of letters: blank out (and fold) the rest and split,
            # all in C.
            table = _LOWERCASE_LETTERS if lowercase else _LETTERS
            return raw.translate(table).decode("ascii").split()
        # ASCII case folding maps letters to letters one for one, and the
        # word pattern treats both cases alike: fold the text once.
        return _WORD_RE.findall(text.lower() if lowercase else text)
    words = _WORD_RE.findall(text)
    return list(map(str.lower, words)) if lowercase else words


def iter_tokens(text: str, lowercase: bool = True) -> Iterator[str]:
    """Lazily yield word tokens from *text* (same rules as :func:`tokenize`)."""
    for match in _WORD_RE.finditer(text):
        word = match.group(0)
        yield word.lower() if lowercase else word


def split_sentences(text: str) -> List[str]:
    """Split *text* into sentences on terminal punctuation.

    Used by the summarization baseline (lead-in sentence extraction,
    paper §2) rather than the core pipeline; the heuristic is the usual
    "terminator followed by whitespace and a capital" rule.
    """
    stripped = text.strip()
    if not stripped:
        return []
    return [part.strip() for part in _SENTENCE_BOUNDARY_RE.split(stripped) if part.strip()]


def lead_in_sentence(paragraph: str) -> str:
    """Return the paragraph's first sentence (the classic summary proxy).

    Brandow et al. (cited as [5] in the paper) observe that lead-in
    sentences are a good paragraph summary; the summarization baseline
    uses this to build a document digest.
    """
    sentences = split_sentences(paragraph)
    return sentences[0] if sentences else ""
