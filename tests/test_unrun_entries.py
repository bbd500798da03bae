"""scripts/corpus_traffic.py's check of the tests that scripts/unrun.txt names: each must be a def of its file."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import corpus_traffic  # noqa: E402


def test_every_named_test_is_a_def_of_its_file():
    named = [test for tests in corpus_traffic.explained().values() for test in tests]
    assert len(named) > 100 and corpus_traffic.missing_tests(named) == []


def test_a_name_that_is_no_def_of_its_file_is_missing():
    named = [
        "tests/test_cli.py::test_verify_pass",
        "tests/test_cli.py::test_window_and_scratch_out_of_range_are_usage_errors[verify---window-0]",
        "tests/test_cli.py::test_no_such_test",
        "tests/test_cli.py::test_verify_pass[",
        "tests/test_no_such_file.py::test_verify_pass",
        "test_cli.py::test_verify_pass",
        "tests/test_cli.py:test_verify_pass",
    ]
    assert corpus_traffic.missing_tests(named) == named[2:]
