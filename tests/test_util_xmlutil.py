"""Tests for the XML helpers (repro.util.xmlutil)."""

import pathlib
import xml.etree.ElementTree as ET

import pytest

from repro.errors import XMLError
from repro.util.xmlutil import (
    escape_attr,
    escape_text,
    int_attr,
    int_child_text,
    int_text,
    parse_xml,
    text_element,
)

VALUES = [
    "", "plain", "a&b", "&amp;", "<x>", "]]>", 'say "hi"', "it's", "tab\there",
    "line\nbreak", "cr\rlf\r\n", "&<>\"'\r\n\t", "café ☃", 42, -1,
    pathlib.Path("/img/a&b.img"),
]


class TestEscapers:
    @pytest.mark.parametrize("value", VALUES)
    def test_text_matches_elementtree(self, value):
        elem = ET.Element("e")
        elem.text = str(value)
        written = ET.tostring(elem, encoding="unicode", short_empty_elements=False)
        assert f"<e>{escape_text(value)}</e>" == written

    @pytest.mark.parametrize("value", VALUES)
    def test_attribute_matches_elementtree(self, value):
        written = ET.tostring(ET.Element("e", {"a": str(value)}), encoding="unicode")
        assert f'<e a="{escape_attr(value)}" />' == written

    @pytest.mark.parametrize("value", ["a&b<c>", 'q"\r\n\t'])
    def test_escaped_values_parse_back(self, value):
        elem = parse_xml(f'<e a="{escape_attr(value)}">{escape_text("a&b<c>")}</e>')
        assert elem.get("a") == value
        assert elem.text == "a&b<c>"

    @pytest.mark.parametrize("value", ["", "x", "a<b", 0])
    def test_text_element_matches_elementtree(self, value):
        elem = ET.Element("state")
        elem.text = str(value)
        assert text_element("state", value) == ET.tostring(elem, encoding="unicode")


class TestIntegers:
    def test_int_text(self):
        assert int_text(parse_xml("<n> 12 </n>")) == 12

    @pytest.mark.parametrize("doc", ["<n>five</n>", "<n />", "<n>1.5</n>", "<n><x/></n>"])
    def test_int_text_rejects_non_integers_naming_the_element(self, doc):
        with pytest.raises(XMLError, match="<n> must hold an integer"):
            int_text(parse_xml(doc))

    def test_int_child_text(self):
        root = parse_xml("<r><a>3</a><b /></r>")
        assert int_child_text(root, "a") == 3
        assert int_child_text(root, "b", 7) == 7
        assert int_child_text(root, "missing") is None
        with pytest.raises(XMLError, match="<a> must hold an integer"):
            int_child_text(parse_xml("<r><a>x</a></r>"), "a")

    def test_int_attr(self):
        elem = parse_xml('<e n="4" bad="four" />')
        assert int_attr(elem, "n") == 4
        assert int_attr(elem, "absent", 9) == 9
        with pytest.raises(XMLError, match="'bad' on <e> must be an integer"):
            int_attr(elem, "bad", 0)
        with pytest.raises(XMLError, match="missing required attribute 'absent'"):
            int_attr(elem, "absent")
