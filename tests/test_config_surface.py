"""The configuration surface is a reviewed list, not an accident.

Every environment variable ``src/`` reads and every constructor
argument of the sharded backend doubles the configurations the
equivalence suite would have to cover. Adding one means editing this
file — and the table in ``docs/architecture.md`` — in the same diff.
"""

import inspect
import re
from pathlib import Path

from repro.kernel import ShardedBackend

ROOT = Path(__file__).resolve().parent.parent
ENV_NAMES = {
    "REPRO_SHARD_TIMEOUT",
    "REPRO_SHARD_ON_FAILURE",
    "REPRO_STRICT_INVARIANTS",
}
SHARDED_ARGUMENTS = [
    "workers", "chunk", "inline_below", "on_failure", "max_respawns",
]


def test_env_vars_read_by_src():
    found = set()
    for path in (ROOT / "src").rglob("*.py"):
        found |= set(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    assert found == ENV_NAMES


def test_sharded_backend_arguments():
    parameters = inspect.signature(ShardedBackend.__init__).parameters
    assert list(parameters)[1:] == SHARDED_ARGUMENTS


def test_architecture_table_lists_the_same_surface():
    text = (ROOT / "docs" / "architecture.md").read_text()
    section = text.split("### Configuration surface", 1)[1]
    section = section.split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert sorted(rows) == sorted(SHARDED_ARGUMENTS + list(ENV_NAMES))
