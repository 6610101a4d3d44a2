"""Importing the package stays lean: heavy standard modules load only when used."""

import subprocess
import sys
from xml.sax.saxutils import escape

import pytest

from uqeval.svg import _Canvas

LAZY = ("multiprocessing", "concurrent.futures", "xml.sax", "statistics", "fractions", "decimal")


def test_import_loads_no_pool_or_xml_modules():
    probe = (
        "import sys, uqeval, uqeval.cli; "
        f"print(','.join(m for m in {LAZY!r} if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == ""


def test_import_builds_no_rendering_tables():
    # the predictions writer's digit tables are built by its first save
    probe = ("import uqeval.cli, uqeval.tensor as t; "
             "print(t._digit_words.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["0"]


@pytest.mark.parametrize("text", ["plain", "a & b", "<tag>", "x > y < z", "&amp;",
                                  "\"quoted\" 'single'", "μ ≤ 0.3", ""])
def test_svg_text_escapes_as_xml_saxutils(text):
    canvas = _Canvas(10, 10, text)
    canvas.text(1, 2, text)
    svg = canvas.render()
    assert f"<metadata>manifest_digest={escape(text or 'none')}</metadata>" in svg
    assert f">{escape(text)}</text>" in svg
