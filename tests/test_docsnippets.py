"""Executable documentation: fenced ``python`` snippets in the docs run.

Every ```` ```python ```` block in the documented files is executed, in
order, with one shared namespace per file (so a quickstart can build on
names an earlier block defined, the way a reader follows the page).
Blocks that are intentionally illustrative — pseudo-code, slow full
benchmark sweeps — opt out with an HTML comment on the line above the
fence::

    <!-- snippet: no-run -->
    ```python
    ...

Snippets execute inside a temporary working directory, so examples may
freely write artifact files (``faults.json``, ``artifacts/``).
"""

from __future__ import annotations

import dataclasses
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DOC_FILES = ["README.md", "docs/API.md"]
NO_RUN_MARKER = "<!-- snippet: no-run -->"


@dataclasses.dataclass
class Snippet:
    """One fenced python block: where it lives and whether it runs."""

    path: str
    line: int  # 1-based line of the first code line
    code: str
    no_run: bool


def extract_snippets(relpath: str) -> list[Snippet]:
    """All ```` ```python ```` blocks of one doc file, in page order."""
    lines = (REPO_ROOT / relpath).read_text().splitlines()
    snippets = []
    i = 0
    while i < len(lines):
        if lines[i].strip().startswith("```python"):
            no_run = any(NO_RUN_MARKER in prev
                         for prev in lines[max(0, i - 2):i])
            j = i + 1
            while j < len(lines) and lines[j].strip() != "```":
                j += 1
            if j == len(lines):
                pytest.fail(f"{relpath}:{i + 1}: unterminated code fence")
            snippets.append(Snippet(relpath, i + 2,
                                    "\n".join(lines[i + 1:j]), no_run))
            i = j + 1
        else:
            i += 1
    return snippets


@pytest.mark.parametrize("relpath", DOC_FILES)
def test_documented_snippets_execute(relpath, tmp_path, monkeypatch):
    """Each doc file's runnable snippets execute cleanly in sequence."""
    snippets = extract_snippets(relpath)
    runnable = [s for s in snippets if not s.no_run]
    assert runnable, f"{relpath} has no runnable python snippets"
    monkeypatch.chdir(tmp_path)
    namespace: dict = {"__name__": f"docsnippet_{relpath}"}
    for snippet in runnable:
        code = compile(snippet.code, f"{relpath}:{snippet.line}", "exec")
        try:
            exec(code, namespace)  # noqa: S102 - executing our own docs
        except Exception as error:  # pragma: no cover - failure reporting
            pytest.fail(f"{relpath}:{snippet.line}: snippet raised "
                        f"{type(error).__name__}: {error}")


def test_no_run_marker_is_exceptional():
    """Most snippets must stay runnable; no-run is a narrow escape hatch."""
    all_snippets = [s for relpath in DOC_FILES
                    for s in extract_snippets(relpath)]
    skipped = [s for s in all_snippets if s.no_run]
    assert len(skipped) <= max(1, len(all_snippets) // 3), (
        "too many doc snippets are marked no-run: "
        + ", ".join(f"{s.path}:{s.line}" for s in skipped))
