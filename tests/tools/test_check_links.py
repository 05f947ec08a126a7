"""Tests for ``tools/check_links.py``'s changelog rule: the newest
``- PR`` entry of ``CHANGES.md`` is at most 12 lines of at most 80
columns, and older entries are exempt."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "check_links.py"

spec = importlib.util.spec_from_file_location("check_links", TOOL)
check_links = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_links)

OLD = "- PR 1: " + "an old entry, far too wide " * 10 + "\n"


def problems(tmp_path, newest, after=""):
    changes = tmp_path / "CHANGES.md"
    changes.write_text(OLD + newest + after)
    return [reason for _, reason in check_links.check_changes(changes)]


def entry(lines, width=70):
    first = "- PR 2: " + "x" * (width - 8)
    return "\n".join([first] + ["  " + "y" * (width - 2)] * (lines - 1)) + "\n"


def test_short_newest_entry_passes(tmp_path):
    assert problems(tmp_path, entry(12, width=80),
                    after="FOUND: " + "z" * 100 + "\n") == []


@pytest.mark.parametrize("newest, expected", [
    (entry(13), "13 lines, limit 12"),
    (entry(3, width=81), "81 columns, limit 80"),
], ids=["too-long", "too-wide"])
def test_long_newest_entry_fails(tmp_path, newest, expected):
    assert any(expected in reason for reason in problems(tmp_path, newest))

