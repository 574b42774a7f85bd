"""The docs name only what exists.

Every backticked dotted ``repro.`` name in the user-facing docs must
import or resolve to an attribute, and every backticked ``src/``,
``tests/`` or ``bench/`` path must exist in the tree (``::node`` and
``:line`` suffixes are dropped; a glob must match something). A doc that
keeps naming a deleted module, class or file fails here, not in a
reader's shell.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ["DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"]

DOTTED = re.compile(r"(?<![\w./])repro(?:\.[A-Za-z_]\w*)+")
TREE_PATH = re.compile(r"(?<![\w./-])(?:src|tests|bench)/[\w./*-]*[\w*]")


def code_spans(text: str) -> "list[str]":
    """Inline code spans, fenced blocks included (each block is one span)."""
    spans = []

    def fence(match):
        spans.append(match.group(1))
        return ""

    text = re.sub(r"```[^\n]*\n(.*?)```", fence, text, flags=re.S)
    return spans + re.findall(r"`([^`\n]+)`", text)


def resolve(dotted: str):
    """Import the longest module prefix of ``dotted``, then walk attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


def stale_names(text: str) -> "list[str]":
    stale = []
    for span in code_spans(text):
        for dotted in DOTTED.findall(span):
            try:
                resolve(dotted)
            except (ImportError, AttributeError):
                stale.append(dotted)
    return stale


def missing_paths(text: str) -> "list[str]":
    missing = []
    for span in code_spans(text):
        for path in TREE_PATH.findall(span):
            path = path.rstrip(".")
            found = list(ROOT.glob(path)) if "*" in path else (ROOT / path).exists()
            if not found:
                missing.append(path)
    return missing


@pytest.mark.parametrize("doc", DOCS)
def test_dotted_repro_names_resolve(doc):
    assert stale_names((ROOT / doc).read_text()) == []


@pytest.mark.parametrize("doc", DOCS)
def test_tree_paths_exist(doc):
    assert missing_paths((ROOT / doc).read_text()) == []


def test_the_guard_sees_stale_names_and_paths():
    text = (
        "`repro.engine.engine.StagedEngine` and `repro.runtime` and\n"
        "```bash\npython -m pytest tests/no_such_test.py::TestX\n```\n"
        "`src/repro/engine/engine.py:42` `bench/*.py` `bench/nothing*.txt`"
    )
    assert stale_names(text) == ["repro.runtime"]
    assert missing_paths(text) == ["tests/no_such_test.py", "bench/nothing*.txt"]
