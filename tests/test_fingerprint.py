"""The seeded outputs of ``tests/fingerprint.py``, pinned one sha256 per
section.  A failing section changed some output: diff
``python tests/fingerprint.py SECTION`` against the parent commit's.  A
change that means to alter an output updates the pin here and says why."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import fingerprint  # noqa: E402

PINS = {
    "sampling": "8e1a661606881dce0a95043b1f3661b0cb7772a0a682ab2e8b6b7bca0cb70739",
}


def test_every_section_is_pinned():
    assert set(PINS) == set(fingerprint.SECTIONS)


@pytest.mark.parametrize("section", sorted(PINS))
def test_section_matches_pin(section):
    assert fingerprint.digest(section) == PINS[section], f"section {section!r} changed"
