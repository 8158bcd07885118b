#!/usr/bin/env python
"""Fail on broken relative links and on config/CLI drift in the docs.

Links: scans README.md and docs/*.md (plus the other top-level .md
files) for markdown links `[text](target)` and verifies that every
relative target exists on disk. External links (http/https/mailto) and
pure anchors are skipped; an anchor suffix on a relative link is
stripped before the existence check.

Drift: in the markdown tables of README.md and docs/configuration.md,
every backticked name in a field column (headed "Field", "Fields",
"Knob" or "Maps to") must be a field of ``StudyConfig``, ``SimulatorConfig`` or
``TrainerConfig``, and every ``--flag`` in a flag column (headed "CLI"
or "Flag") must exist on the ``repro`` CLI parser. A row documenting a
removed knob or flag therefore fails the check.

Exit status 1 lists every finding.

Usage: python tools/check_docs_links.py [root]
"""

from __future__ import annotations

import re
import sys
from dataclasses import fields
from pathlib import Path

# Markdown inline links, tolerating one level of parentheses in text.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")

DRIFT_FILES = ("README.md", "docs/configuration.md")
FIELD_COLUMNS = ("Field", "Fields", "Knob", "Maps to")
FLAG_COLUMNS = ("CLI", "Flag")
TICKED_RE = re.compile(r"`([^`]+)`")
FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")


def doc_files(root: Path) -> list[Path]:
    files = sorted(root.glob("*.md"))
    docs = root / "docs"
    if docs.is_dir():
        files += sorted(docs.glob("*.md"))
    return files


def broken_links(path: Path) -> list[str]:
    broken = []
    for target in LINK_RE.findall(path.read_text(encoding="utf-8")):
        if target.startswith(SKIP_PREFIXES):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            broken.append(target)
    return broken


def _cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def table_columns(text: str, headers: tuple[str, ...]) -> list[tuple[int, str]]:
    """(line number, cell) for every body cell under one of ``headers``."""
    out = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        if not (
            lines[i].lstrip().startswith("|")
            and i + 1 < len(lines)
            and re.fullmatch(r"\s*\|[\s:|-]+\|\s*", lines[i + 1])
        ):
            i += 1
            continue
        wanted = [j for j, h in enumerate(_cells(lines[i])) if h in headers]
        i += 2
        while i < len(lines) and lines[i].lstrip().startswith("|"):
            row = _cells(lines[i])
            out.extend((i + 1, row[j]) for j in wanted if j < len(row))
            i += 1
    return out


def known_fields() -> set[str]:
    from repro.core.config import StudyConfig
    from repro.gossip.simulator import SimulatorConfig
    from repro.gossip.trainer import TrainerConfig

    return {
        f.name
        for cls in (StudyConfig, SimulatorConfig, TrainerConfig)
        for f in fields(cls)
    }


def known_flags() -> set[str]:
    import argparse

    from repro.cli import build_parser

    flags: set[str] = set()
    parsers = [build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            flags.update(s for s in action.option_strings if s.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    return flags


def drift(path: Path, valid_fields: set[str], valid_flags: set[str]) -> list[str]:
    text = path.read_text(encoding="utf-8")
    found = []
    for line, cell in table_columns(text, FIELD_COLUMNS):
        for name in TICKED_RE.findall(cell):
            if name not in valid_fields:
                found.append(f"{path}:{line}: `{name}` is not a config field")
    for line, cell in table_columns(text, FLAG_COLUMNS):
        for flag in FLAG_RE.findall(cell):
            if flag not in valid_flags:
                found.append(f"{path}:{line}: {flag} is not a CLI flag")
    return found


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(".")
    failures = 0
    checked = 0
    for path in doc_files(root):
        checked += 1
        for target in broken_links(path):
            print(f"{path}: broken link -> {target}")
            failures += 1
    if not checked:
        print("no markdown files found", file=sys.stderr)
        return 1
    sys.path.insert(0, str((root / "src").resolve()))
    valid_fields, valid_flags = known_fields(), known_flags()
    drifted = 0
    for name in DRIFT_FILES:
        path = root / name
        if path.is_file():
            for finding in drift(path, valid_fields, valid_flags):
                print(finding)
                drifted += 1
    print(
        f"checked {checked} files: {failures} broken links, "
        f"{drifted} stale config/CLI entries"
    )
    return 1 if failures or drifted else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
