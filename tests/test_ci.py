"""The CI workflow tests the oldest Python that pyproject.toml admits.

Both files are read as text: ``tomllib`` only arrived in Python 3.11.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _version(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split("."))


def test_lowest_ci_python_is_the_declared_floor():
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python\s*=\s*">=\s*([\d.]+)"', project, re.M)
    matrix = re.search(r"^\s*python-version:\s*\[([^\]]*)\]", workflow, re.M)
    assert floor and matrix
    versions = [_version(v.strip().strip("'\"")) for v in matrix.group(1).split(",")]
    assert min(versions) == _version(floor.group(1))
