"""The docstring examples of the package, run as tests.

Each module's examples are counted too, so an example that stops being
collected (a lost `>>>`, say) fails here instead of going quiet.
"""

import doctest

import pytest

from solhom import fgab, intfactor, nfield, qpoly, rootcount

EXAMPLES = {rootcount: 4, qpoly: 2, intfactor: 4, fgab: 2, nfield: 1}


@pytest.mark.parametrize("module", list(EXAMPLES), ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted == EXAMPLES[module]
