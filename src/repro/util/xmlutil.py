"""Thin helpers over ``xml.etree.ElementTree`` used by ``repro.xmlconfig``.

``ElementTree`` is the parser only: every ``to_xml()`` writes its lines
directly, through escapers that reproduce ``ElementTree``'s exactly.
All parse failures surface as :class:`repro.errors.XMLError` so callers
never have to catch ElementTree internals.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Optional

from repro.errors import XMLError


def parse_xml(text: str) -> ET.Element:
    """Parse an XML document, wrapping syntax errors in :class:`XMLError`."""
    try:
        return ET.fromstring(text)
    except ET.ParseError as exc:
        raise XMLError(f"malformed XML: {exc}") from exc


def element_to_string(root: ET.Element, pretty: bool = True) -> str:
    """Serialize a parsed element (a device fragment), pretty-printed by default."""
    if pretty:
        ET.indent(root)
    return ET.tostring(root, encoding="unicode")


def escape_text(value: object) -> str:
    """``str(value)`` escaped as ``ElementTree`` escapes element text."""
    text = str(value)
    if "&" in text or "<" in text or ">" in text:
        text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return text


def escape_attr(value: object) -> str:
    """``str(value)`` escaped as ``ElementTree`` escapes an attribute value."""
    text = escape_text(value)
    if '"' in text or "\r" in text or "\n" in text or "\t" in text:
        text = text.replace('"', "&quot;").replace("\r", "&#13;")
        text = text.replace("\n", "&#10;").replace("\t", "&#09;")
    return text


def text_element(tag: str, value: object) -> str:
    """``<tag>value</tag>`` for text that may be empty (``<tag />``, as
    ``ElementTree`` writes it); text known to be non-empty is written inline."""
    text = escape_text(value)
    return f"<{tag}>{text}</{tag}>" if text else f"<{tag} />"


def child_text(
    elem: ET.Element, tag: str, default: "Optional[str]" = None
) -> "Optional[str]":
    """Text content of the first ``tag`` child, or ``default``."""
    child = elem.find(tag)
    if child is None or child.text is None:
        return default
    return child.text.strip()


def require_attr(elem: ET.Element, name: str) -> str:
    """A mandatory attribute value, raising :class:`XMLError` if absent."""
    value = elem.get(name)
    if value is None:
        raise XMLError(f"missing required attribute {name!r} on <{elem.tag}>")
    return value


def int_text(elem: ET.Element) -> int:
    """Integer content of ``elem`` itself; anything else is an :class:`XMLError`."""
    text = (elem.text or "").strip()
    try:
        return int(text)
    except ValueError as exc:
        raise XMLError(f"element <{elem.tag}> must hold an integer, got {text!r}") from exc


def int_child_text(elem: ET.Element, tag: str, default: "Optional[int]" = None) -> "Optional[int]":
    """Integer content of a child element, or ``default``."""
    child = elem.find(tag)
    if child is None or child.text is None:
        return default
    return int_text(child)


def int_attr(elem: ET.Element, name: str, default: "Optional[int]" = None) -> int:
    """Integer attribute value; ``default`` when absent, mandatory without one."""
    value = require_attr(elem, name) if default is None else elem.get(name, default)
    try:
        return int(value)
    except ValueError as exc:
        raise XMLError(
            f"attribute {name!r} on <{elem.tag}> must be an integer, got {value!r}"
        ) from exc
