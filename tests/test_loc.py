"""Tests of ``tools/loc.py``, the logical-line counter that size figures
in CHANGES.md quote."""
import importlib.util
import textwrap
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "loc", Path(__file__).resolve().parents[1] / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)


def test_skips_blank_comment_and_docstring_lines():
    source = textwrap.dedent('''\
        """Module docstring,
        two lines."""

        # a comment


        class K:
            """Class docstring."""

            def f(self):
                """Function docstring,
                over two lines."""
                return 1  # code with a comment
        ''')
    # class K, def f, return 1
    assert loc.count(source) == 3


def test_counts_every_line_of_a_multi_line_string_or_statement():
    source = textwrap.dedent('''\
        def f():
            x = 1
            text = """not a docstring:
        it is assigned,

        so all four lines count"""
            return g(x,

                     text)
        ''')
    # def, x = 1, the four string lines and the return's two lines with a
    # token (the blank line between its arguments holds none)
    assert loc.count(source) == 8
