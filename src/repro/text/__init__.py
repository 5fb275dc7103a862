"""Information-retrieval substrate: tokenization, stemming, keyword
extraction, and occurrence vectors.

These are the text-processing primitives behind the paper's SC
generation pipeline (§3.3) and its information-content definitions
(§3.1–3.2).
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.text.tokens": (
        "iter_tokens",
        "lead_in_sentence",
        "split_sentences",
        "tokenize",
    ),
    "repro.text.stopwords": ("DEFAULT_STOPWORDS", "is_stopword", "remove_stopwords"),
    "repro.text.stemmer": ("PorterStemmer", "stem"),
    "repro.text.lemmatizer": ("Lemmatizer",),
    "repro.text.vector": ("OccurrenceVector",),
    "repro.text.keywords": ("KeywordExtractor",),
})

__all__ = [
    "tokenize",
    "iter_tokens",
    "split_sentences",
    "lead_in_sentence",
    "DEFAULT_STOPWORDS",
    "is_stopword",
    "remove_stopwords",
    "PorterStemmer",
    "stem",
    "Lemmatizer",
    "OccurrenceVector",
    "KeywordExtractor",
]
