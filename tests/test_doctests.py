"""Keep the examples in the docstrings honest."""

import doctest

import pytest

from looplab import algebra, closedform, ez, gf2, homology, rng


@pytest.mark.parametrize("module", [algebra, closedform, ez, gf2, homology, rng])
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0
