"""The five-module SC generation pipeline (paper §3.3).

    document recognizer → lemmatizer → word filter → keyword extractor
    → structural characteristic generator

operating "in a pipelined fashion".  Each module is an explicit class
so individual stages can be swapped (e.g. a different lemmatizer) and
tested in isolation; :class:`SCPipeline` wires the default chain and
:func:`build_sc` is the one-call convenience entry point.

Stages 1–4 annotate one :class:`RecognizedUnit` tree; stage 5 walks it
once and emits the SC's compact form (:class:`~repro.core.compact.CompactSC`).
:meth:`SCPipeline.run` wraps that in a ``StructuralCharacteristic``,
which builds a unit tree only for a caller that reads one.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.compact import CompactSC, Vocabulary, subtree_ends
from repro.core.lod import LOD
from repro.core.structure import StructuralCharacteristic
from repro.obs.runtime import OBS
from repro.obs.timing import timed
from repro.text.lemmatizer import Lemmatizer
from repro.text.stopwords import DEFAULT_STOPWORDS
from repro.text.tokens import tokenize
from repro.xmlkit.dom import Document, Element, Text


class RecognizedUnit:
    """Intermediate representation between recognizer and SC generator."""

    __slots__ = ("lod", "label", "title", "text", "emphasized", "children", "virtual", "tokens", "counts")

    def __init__(
        self,
        lod: LOD,
        label: str,
        title: str = "",
        text: str = "",
        emphasized: Optional[List[str]] = None,
        virtual: bool = False,
    ) -> None:
        self.lod = lod
        self.label = label
        self.title = title
        self.text = text
        self.emphasized: List[str] = list(emphasized or [])
        self.children: List["RecognizedUnit"] = []
        self.virtual = virtual
        #: (original, lemma) pairs, produced by the lemmatizer stage.
        self.tokens: List[Tuple[str, str]] = []
        #: lemma -> count, produced by the keyword extractor stage.
        self.counts: Dict[str, int] = {}

    def walk(self):
        """The subtree in preorder, this unit first."""
        stack = [self]
        while stack:
            unit = stack.pop()
            yield unit
            stack.extend(reversed(unit.children))


#: The element tag and LOD of the parts one LOD finer than each part.
_FINER_PART = {
    LOD.SECTION: ("subsection", LOD.SUBSECTION),
    LOD.SUBSECTION: ("subsubsection", LOD.SUBSUBSECTION),
    LOD.SUBSUBSECTION: (None, LOD.PARAGRAPH),
}


class DocumentRecognizer:
    """Stage 1: convert an XML document into a plain-text unit tree.

    Understands the ``research-paper`` document type: the abstract is
    "Section 0", paragraphs directly under a section/abstract are
    grouped into a virtual subsection labelled ``k.0``, and specially
    formatted words (``<emph>``, ``<keyword>``) are collected so later
    stages can treat them as keywords regardless of frequency.
    """

    def recognize(self, document: Document) -> RecognizedUnit:
        paper = document.root
        if paper.tag != "paper":
            raise ValueError(f"expected a <paper> document, got <{paper.tag}>")

        title = self._child_text(paper, "title")
        root = RecognizedUnit(LOD.DOCUMENT, label="D", title=title, text=title)
        root.emphasized.extend(tokenize(title))

        section_index = 0
        for child in paper.child_elements():
            if child.tag == "abstract":
                root.children.append(self._recognize_part(child, LOD.SECTION, "0", "Abstract"))
            elif child.tag == "section":
                section_index += 1
                root.children.append(
                    self._recognize_part(child, LOD.SECTION, str(section_index))
                )
        return root

    def _recognize_part(
        self, element: Element, lod: LOD, label: str, title: Optional[str] = None
    ) -> RecognizedUnit:
        """A (sub)(sub)section: its title, finer parts and paragraphs."""
        if title is None:
            title = self._child_text(element, "title")
        unit = RecognizedUnit(lod, label=label, title=title, text=title)
        unit.emphasized.extend(tokenize(title))
        finer, finer_lod = _FINER_PART[lod]
        loose: List[RecognizedUnit] = []
        for child in element.child_elements():
            if child.tag == "paragraph":
                loose.append(self._recognize_paragraph(child, label="?"))
            elif child.tag == finer:
                child_label = f"{label}.{len(unit.children) + 1}"
                unit.children.append(self._recognize_part(child, finer_lod, child_label))
        holder = unit
        if loose and (unit.children or lod is LOD.SECTION):
            # A section's loose paragraphs, and a subsection's beside
            # subsubsections, go under a virtual unit one LOD finer.
            holder = RecognizedUnit(finer_lod, label=f"{label}.0", virtual=True)
            unit.children.insert(0, holder)
        for index, paragraph in enumerate(loose, start=1):
            paragraph.label = f"{holder.label}.{index}"
            holder.children.append(paragraph)
        return unit

    def _recognize_paragraph(self, element: Element, label: str) -> RecognizedUnit:
        text_parts: List[str] = []
        emphasized: List[str] = []
        for node in element.children:
            if isinstance(node, Text):
                text_parts.append(node.data)
            elif isinstance(node, Element) and node.tag in ("emph", "keyword"):
                content = node.text_content()
                text_parts.append(content)
                emphasized.extend(tokenize(content))
        return RecognizedUnit(
            LOD.PARAGRAPH,
            label=label,
            text=" ".join(filter(None, map(str.strip, text_parts))),
            emphasized=emphasized,
        )

    @staticmethod
    def _child_text(element: Element, tag: str) -> str:
        for child in element.children:
            if isinstance(child, Element) and child.tag == tag:
                return " ".join(child.text_content().split())
        return ""


class LemmatizerStage:
    """Stage 2: annotate each unit with (original, lemma) token pairs."""

    def __init__(self, lemmatizer: Optional[Lemmatizer] = None) -> None:
        self.lemmatizer = lemmatizer if lemmatizer is not None else Lemmatizer()

    def process(self, root: RecognizedUnit) -> RecognizedUnit:
        lemmatizer = self.lemmatizer
        units = list(root.walk())
        words = [tokenize(unit.text) for unit in units]
        # One memo pass over the whole document, then each unit's slice.
        pairs = lemmatizer.pairs(chain.from_iterable(words))
        ends = accumulate(map(len, words))
        start = 0
        for unit, end in zip(units, ends):
            unit.tokens = pairs[start:end]
            start = end
            if unit.emphasized:
                unit.emphasized = lemmatizer.lemmatize(unit.emphasized)
        return root


class WordFilterStage:
    """Stage 3: drop stop words and ultra-short tokens."""

    def __init__(self, extra_stopwords: Sequence[str] = (), min_length: int = 2) -> None:
        self._stopwords = DEFAULT_STOPWORDS | frozenset(w.lower() for w in extra_stopwords)
        self._min_length = min_length

    def process(self, root: RecognizedUnit) -> RecognizedUnit:
        stopwords, min_length = self._stopwords, self._min_length
        for unit in root.walk():
            unit.tokens = [
                token
                for token in unit.tokens
                if len(token[0]) >= min_length
                and token[0] not in stopwords
                and token[1] not in stopwords
            ]
        return root


class KeywordExtractorStage:
    """Stage 4: frequency analysis producing per-unit keyword counts.

    A lemma qualifies as a keyword when its document-wide frequency
    reaches *min_count* or it was specially formatted anywhere in the
    document (boldface/italics/title words, per §3.3).
    """

    def __init__(self, min_count: int = 1) -> None:
        if min_count < 1:
            raise ValueError("min_count must be >= 1")
        self._min_count = min_count

    def process(self, root: RecognizedUnit) -> RecognizedUnit:
        units = list(root.walk())
        # Each unit's lemmas are counted once, in C, in first-occurrence
        # order; the document counts are the sum of the units' counts.
        unit_counts = [Counter(map(itemgetter(1), unit.tokens)) for unit in units]
        rare = self._rare(units, unit_counts)
        for unit, counts in zip(units, unit_counts):
            if rare:
                counts = {lemma: n for lemma, n in counts.items() if lemma not in rare}
            unit.counts = counts
        return root

    def _rare(self, units: List[RecognizedUnit], unit_counts: List[Counter]) -> set:
        """Lemmas below *min_count* in the document that no unit emphasizes.

        With ``min_count`` 1 every counted lemma qualifies, so there are
        none and the document counts are not needed.
        """
        if self._min_count == 1:
            return set()
        document_counts: Counter = Counter()
        for counts in unit_counts:
            document_counts.update(counts)
        special = set().union(*(unit.emphasized for unit in units))
        return {
            lemma for lemma, count in document_counts.items() if count < self._min_count
        } - special


class SCGeneratorStage:
    """Stage 5: emit the SC as a :class:`~repro.core.compact.CompactSC`.

    Each unit's text is its payload and its counts its own counts; the
    occurrence vector is their sum, the root's aggregate.  No unit
    objects are built.  Every SC this stage emits holds its keywords as
    ids into the stage's one :class:`~repro.core.compact.Vocabulary`.
    """

    def __init__(self, vocabulary: Optional[Vocabulary] = None) -> None:
        self.vocabulary = vocabulary if vocabulary is not None else Vocabulary()

    def process(self, root: RecognizedUnit) -> CompactSC:
        units = list(root.walk())
        payloads = [unit.text.encode("utf-8") for unit in units]
        owns = [unit.counts for unit in units]
        return CompactSC(units, subtree_ends(units), payloads, owns, vocabulary=self.vocabulary)


class SCPipeline:
    """The full five-stage pipeline with swappable stages."""

    def __init__(
        self,
        recognizer: Optional[DocumentRecognizer] = None,
        lemmatizer: Optional[LemmatizerStage] = None,
        word_filter: Optional[WordFilterStage] = None,
        extractor: Optional[KeywordExtractorStage] = None,
        generator: Optional[SCGeneratorStage] = None,
    ) -> None:
        self.recognizer = recognizer or DocumentRecognizer()
        self.lemmatizer = lemmatizer or LemmatizerStage()
        self.word_filter = word_filter or WordFilterStage()
        self.extractor = extractor or KeywordExtractorStage()
        self.generator = generator or SCGeneratorStage()

    def run(self, document: Document) -> StructuralCharacteristic:
        """Execute all five stages on *document*; the SC holds stage 5's output."""
        with timed("pipeline.run"):
            with timed("pipeline.recognize"):
                recognized = self.recognizer.recognize(document)
            with timed("pipeline.lemmatize"):
                recognized = self.lemmatizer.process(recognized)
            with timed("pipeline.filter"):
                recognized = self.word_filter.process(recognized)
            with timed("pipeline.extract"):
                recognized = self.extractor.process(recognized)
            with timed("pipeline.generate"):
                compact = self.generator.process(recognized)
        if OBS.enabled:
            OBS.metrics.counter("pipeline.documents", "documents run through the SC pipeline").inc()
        return StructuralCharacteristic.from_compact(compact)

    @property
    def shared_lemmatizer(self) -> Lemmatizer:
        """The lemmatizer instance, for building compatible queries."""
        return self.lemmatizer.lemmatizer

    @property
    def shared_vocabulary(self) -> Vocabulary:
        """The keyword vocabulary every SC of this pipeline holds ids into."""
        return self.generator.vocabulary

    def cache_token(self) -> Tuple[str, ...]:
        """A hashable token identifying this pipeline configuration.

        Two pipelines with the same token produce the same SC for the
        same bytes, so caches (the preparation service's SC tier) may
        share output across them.  Custom stage classes change the
        token; stage *instances* with divergent constructor arguments
        should subclass to stay distinguishable.
        """
        return tuple(
            type(stage).__qualname__
            for stage in (
                self.recognizer,
                self.lemmatizer,
                self.word_filter,
                self.extractor,
                self.generator,
            )
        )


def build_sc(document: Document) -> StructuralCharacteristic:
    """Build the SC of *document* with the default pipeline."""
    return SCPipeline().run(document)
