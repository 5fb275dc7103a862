"""From-scratch XML toolkit: tokenizer, parser, DOM, DTD, serializer.

This is the document substrate the paper builds on: XML documents with
an explicit ``research-paper`` structure from which organizational
units at each level of detail are derived.
"""

from repro.util.lazy import lazy_exports

# ``select`` names both a function and its submodule, and importing a
# submodule rebinds the package attribute of its name, so this one
# import stays eager.
from repro.xmlkit.select import SelectorError, select, select_one

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "repro.xmlkit.errors": ("XmlError", "XmlSyntaxError", "XmlValidationError"),
    "repro.xmlkit.dom": ("Comment", "Document", "Element", "Text"),
    "repro.xmlkit.tokenizer": (
        "Token",
        "XmlTokenizer",
        "resolve_entities",
        "tokenize_xml",
    ),
    "repro.xmlkit.parser": ("parse_fragment", "parse_xml"),
    "repro.xmlkit.writer": ("escape_attribute", "escape_text", "serialize"),
    "repro.xmlkit.dtd": (
        "RESEARCH_PAPER",
        "DocumentType",
        "ElementDecl",
        "research_paper_dtd",
    ),
})

__all__ = [
    "XmlError",
    "XmlSyntaxError",
    "XmlValidationError",
    "Comment",
    "Document",
    "Element",
    "Text",
    "Token",
    "XmlTokenizer",
    "resolve_entities",
    "tokenize_xml",
    "parse_xml",
    "parse_fragment",
    "serialize",
    "escape_text",
    "escape_attribute",
    "select",
    "select_one",
    "SelectorError",
    "DocumentType",
    "ElementDecl",
    "research_paper_dtd",
    "RESEARCH_PAPER",
]
