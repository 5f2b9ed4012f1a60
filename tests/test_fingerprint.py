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
    "geometry": "c8624f677e9e36d952f3e549edc8dd99354c2f1f4e61dd7fdb514ed81cf3aa97",
    "algebras": "1c179a56291ccb2e135bd2a4012afdde01b1f9cfa2499892f17c6b9ced974b9d",
    "tpois": "95f7f73cd02ad6c65d12652ac189fd18a0557d72ffdb878236eb648cd848d03a",
    "series": "289b18ac9b8a0c9a926557422190647277069c73c83596b086e890e3f61e833c",
    "json": "0f10daebe761641c7c9506f98308be2a657bb1859f3c4d5f9c4b3e5791448bab",
}


def test_every_section_is_pinned():
    assert set(PINS) == set(fingerprint.SECTIONS)


@pytest.mark.parametrize("section", sorted(PINS))
def test_section_matches_pin(section):
    assert fingerprint.digest(section) == PINS[section], f"section {section!r} changed"
