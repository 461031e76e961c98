"""The suite's warning filters let a failing hypothesis test end as one
failure.  Hypothesis reports a failing derandomized example through
``hypothesis.extra._patching``, whose libcst import warns a deprecation
(mypy_extensions.TypedDict); as an error under the filters, that warning
ended the whole session in INTERNALERROR and no later test ran.  Without
libcst (hypothesis's ``codemods`` extra) the import fails, hypothesis's
plugin skips the report and the session cannot end that way, so the test
is skipped."""

import importlib

import pytest


def test_hypothesis_patching_imports_under_the_suite_filters():
    pytest.importorskip("libcst")
    importlib.import_module("hypothesis.extra._patching")
