"""The code-line counter behind the line counts of ROADMAP aim 2."""

from __future__ import annotations

from .codelines import code_lines

SNIPPET = '''"""Module docstring,
on two lines."""

import os  # a trailing comment keeps its line

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring,

        with a blank line inside."""
        s = """a string that is not a docstring
spans two lines"""
        return (x +
                1)


def g():
    return 1
'''


def test_counts_neither_docstring_comment_nor_blank():
    # import, class, def f, the two lines of s, the two of return, def g, return 1
    assert code_lines(SNIPPET) == 9


def test_empty_source_has_no_code():
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n# and a comment\n') == 0
