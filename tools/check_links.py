"""Check that relative links and documented names in the repo's
markdown docs resolve.

Scans every ``*.md`` at the repository root and under ``docs/`` for
inline markdown links/images ``[text](target)`` and verifies that each
relative target exists on disk (anchors are stripped; external
``http(s)``/``mailto`` targets and bare in-page anchors are ignored).
``README.md`` and ``docs/**/*.md`` are also scanned for backticked
dotted names under the package (`` `repro.kernel.Scenario` ``): each
must import, as a module or as an attribute chain of one.
``CHANGES.md`` and ``ROADMAP.md`` record deleted modules on purpose and
are not name-checked. The newest ``- PR`` entry of ``CHANGES.md`` (the
last one in the file) must be at most 12 lines of at most 80 columns;
older entries are exempt. The script puts ``src/`` on ``sys.path`` itself
(importing the package needs numpy). CI runs this as the docs
link-check step; run it locally with::

    python tools/check_links.py

Exit code 0 when every link and name resolves and the newest entry
fits, 1 otherwise (the failures are listed).
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: inline markdown link or image: [text](target) / ![alt](target)
LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")

#: a backticked dotted name under the package: `repro.kernel.Scenario`
NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")

#: the size limit of the newest CHANGES.md entry
ENTRY_LINES, ENTRY_COLUMNS = 12, 80


def markdown_files():
    files = sorted(REPO_ROOT.glob("*.md"))
    docs = REPO_ROOT / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.rglob("*.md")))
    return files


def name_files():
    """The files whose documented names must import: the README and
    the docs tree (the history files name deleted modules)."""
    return [REPO_ROOT / "README.md"] + sorted(
        (REPO_ROOT / "docs").rglob("*.md")
    )


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute chain of the
    longest importable module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def check_names(path: Path):
    """Yield (name, reason) for every documented name in ``path`` that
    does not import."""
    for name in sorted(set(NAME.findall(path.read_text(encoding="utf-8")))):
        if not resolves(name):
            yield name, "name does not import"


def check_file(path: Path):
    """Yield (link, reason) for every broken relative link in ``path``."""
    text = path.read_text(encoding="utf-8")
    for match in LINK.finditer(text):
        target = match.group(1)
        if target.startswith(SKIP_PREFIXES):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            try:
                shown = resolved.relative_to(REPO_ROOT)
            except ValueError:  # link escapes the repository root
                shown = resolved
            yield target, f"missing file {shown}"


def check_changes(path: Path):
    """Yield (where, reason) when the newest ``- PR`` entry of the
    changelog at ``path`` — its first line plus the indented lines
    under it — is over :data:`ENTRY_LINES` lines or has a line over
    :data:`ENTRY_COLUMNS` columns."""
    lines = path.read_text(encoding="utf-8").splitlines()
    starts = [i for i, line in enumerate(lines) if line.startswith("- PR")]
    if not starts:
        return
    end = starts[-1] + 1
    while end < len(lines) and lines[end].startswith("  "):
        end += 1
    if end - starts[-1] > ENTRY_LINES:
        yield (f"line {starts[-1] + 1}",
               f"newest entry is {end - starts[-1]} lines, limit "
               f"{ENTRY_LINES}")
    for number in range(starts[-1], end):
        if len(lines[number]) > ENTRY_COLUMNS:
            yield (f"line {number + 1}",
                   f"{len(lines[number])} columns, limit {ENTRY_COLUMNS}")


def main() -> int:
    too_long = list(check_changes(REPO_ROOT / "CHANGES.md"))
    for where, reason in too_long:
        print(f"CHANGES.md {where}: {reason}", file=sys.stderr)
    broken = []
    files = markdown_files()
    for path in files:
        for target, reason in check_file(path):
            broken.append((path.relative_to(REPO_ROOT), target, reason))
    for path in name_files():
        for name, reason in check_names(path):
            broken.append((path.relative_to(REPO_ROOT), name, reason))
    if broken:
        for origin, target, reason in broken:
            print(f"{origin}: broken reference '{target}' ({reason})",
                  file=sys.stderr)
        print(f"{len(broken)} broken reference(s) in {len(files)} file(s)",
              file=sys.stderr)
    if broken or too_long:
        return 1
    print(f"all relative links and documented names resolve across "
          f"{len(files)} markdown file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
