"""Run the executable examples embedded in docstrings.

Keeps the documentation honest: every ``>>>`` block in the public API must
stay runnable.
"""

import doctest

import pytest

import repro
import repro.core.preclusterer
import repro.fastmap.fastmap
import repro.index.vptree
import repro.metrics.base
import repro.observability.tracer

MODULES = [
    repro,
    repro.metrics.base,
    repro.fastmap.fastmap,
    repro.core.preclusterer,
    repro.index.vptree,
    repro.observability.tracer,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_docstring_examples(module):
    failures, tests = doctest.testmod(
        module, verbose=False, optionflags=doctest.ELLIPSIS
    )
    assert tests > 0, f"{module.__name__} has no doctests to run"
    assert failures == 0
