"""The documents name only what exists.

DESIGN §2's module map lists every module under ``src/repro`` (package
``__init__.py`` files aside) and nothing else, and every repository path
that DESIGN.md, README.md or EXPERIMENTS.md cites — ``tests/…``,
``benchmarks/…``, ``scripts/…``, ``src/repro/…`` — exists.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")
PATH_RE = re.compile(r"\b(?:tests|benchmarks|scripts|src/repro)/[\w./*-]*")


def module_map():
    """``src/repro/<dir>/<module>.py`` for every entry in DESIGN §2."""
    text = (ROOT / "DESIGN.md").read_text()
    block = text.split("## 2. System inventory", 1)[1].split("```")[1]
    listed, package = set(), None
    for line in block.splitlines():
        m = re.match(r"  (\w+)/\s", line)
        if m:
            package = m.group(1)
            continue
        m = re.match(r"    ([\w]+\.py)\s", line)
        if m:
            listed.add(f"src/repro/{package}/{m.group(1)}")
    return listed


def test_module_map_lists_every_module_and_only_those():
    listed = module_map()
    present = {str(p.relative_to(ROOT))
               for p in (ROOT / "src/repro").glob("*/*.py")
               if p.name != "__init__.py"}
    assert sorted(present - listed) == [], "modules missing from DESIGN §2"
    assert sorted(listed - present) == [], "DESIGN §2 names no such module"


@pytest.mark.parametrize("doc", DOCS)
def test_cited_repo_paths_exist(doc):
    missing = []
    for cited in sorted(set(PATH_RE.findall((ROOT / doc).read_text()))):
        path = cited.rstrip(".")
        found = (any(ROOT.glob(path)) if "*" in path
                 else (ROOT / path).exists())
        if not found:
            missing.append(path)
    assert missing == [], f"{doc} cites paths that do not exist"
