"""Hostile input: ``parse_xml`` returns a Document or raises XmlSyntaxError.

The strict XML parser sits on documents the server is handed, so a
malformed one must fail with the documented error and nothing else
(never ``OverflowError``, ``ValueError`` or ``IndexError`` from inside the
lexer).  Inputs are arbitrary markup-heavy text, byte-mutated seeded
corpus documents, and either one with runs of character references,
out-of-range ones included.  Every accepted document must also encode as
UTF-8, which is what the SC pipeline does to its text.
"""

from hypothesis import given, settings, strategies as st

from repro.simulation.textgen import CorpusGenerator
from repro.xmlkit.dom import Document, Element, Text
from repro.xmlkit.errors import XmlSyntaxError
from repro.xmlkit.parser import parse_xml

CORPUS = [xml.encode("utf-8") for xml, _topic in CorpusGenerator(seed=1).corpus(4).values()]

#: Character references: small, at the XML ``Char`` edges, huge, or very long.
references = st.one_of(
    st.integers(min_value=0, max_value=0x110001),
    st.sampled_from([0, 0x8, 0x9, 0xD7FF, 0xD800, 0xDFFF, 0xE000, 0xFFFE, 0x10FFFF]),
    st.integers(min_value=0x110000, max_value=10**30),
).flatmap(
    lambda code: st.sampled_from([f"&#{code};", f"&#x{code:x};", f"&#x{code:X};", f"&#00{code};"])
)
reference_runs = st.lists(references, min_size=1, max_size=4).map("".join)

markup = st.text(alphabet=st.sampled_from(list("<>/=\"'&#;x!?-[] \n\tabpCDAT0159")), max_size=120)
hostile_text = st.one_of(
    markup,
    st.text(max_size=80),
    st.tuples(markup, reference_runs, markup).map("".join),
    st.tuples(reference_runs, st.text(max_size=10)).map(lambda parts: f"<a>{parts[0]}</a>{parts[1]}"),
)


@st.composite
def mutated_corpus_documents(draw):
    """A seeded corpus document with a few bytes replaced, inserted or cut."""
    source = bytearray(draw(st.sampled_from(CORPUS)))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        at = draw(st.integers(min_value=0, max_value=len(source)))
        action = draw(st.sampled_from(["replace", "insert", "delete", "reference"]))
        if action == "reference":
            source[at:at] = draw(reference_runs).encode("ascii")
        elif action == "delete":
            source[at : at + draw(st.integers(min_value=1, max_value=8))] = b""
        else:
            data = draw(st.binary(min_size=1, max_size=4))
            source[at : at + (len(data) if action == "replace" else 0)] = data
    return source.decode("utf-8", errors="replace")


def assert_document_or_syntax_error(source):
    try:
        document = parse_xml(source)
    except XmlSyntaxError as error:
        assert error.line >= 0 and error.column >= 0
        return
    assert isinstance(document, Document)
    for node in document.root.walk():
        if isinstance(node, Text):
            node.data.encode("utf-8")
        elif isinstance(node, Element):
            for value in node.attributes.values():
                value.encode("utf-8")


class TestHostileInput:
    @settings(max_examples=400, deadline=None)
    @given(hostile_text)
    def test_arbitrary_text(self, source):
        assert_document_or_syntax_error(source)

    @settings(max_examples=200, deadline=None)
    @given(mutated_corpus_documents())
    def test_mutated_corpus_documents(self, source):
        assert_document_or_syntax_error(source)

    @settings(max_examples=200, deadline=None)
    @given(references)
    def test_reference_in_text_and_attribute(self, reference):
        assert_document_or_syntax_error(f"<a>{reference}</a>")
        assert_document_or_syntax_error(f'<a x="{reference}"/>')

    def test_unmutated_corpus_documents_parse(self):
        for source in CORPUS:
            assert parse_xml(source.decode("utf-8")).root.tag == "paper"
