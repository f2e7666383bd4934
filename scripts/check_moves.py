#!/usr/bin/env python3
"""Check that the artifacts which moved are exactly the ones named.

    python scripts/check_moves.py BASE_LISTING HEAD_LISTING NAMES

BASE_LISTING and HEAD_LISTING are outputs of scripts/artifact_digests.py,
one `sha256  relpath` line per file. NAMES holds one relpath per line: the
files a change moves on purpose, which CI reads off the `MOVED: relpath`
lines that the change adds to CHANGES.md:

    git diff BASE -- CHANGES.md | sed -n 's/^+MOVED: //p' > NAMES

A file moved when its digest differs between the listings, or when only
one listing has it. The check fails unless the moved files are exactly the
named ones: a move left unnamed fails, and so does a name that did not
move. One line is printed per such file; the exit code is 1 if there is
any, else 0.
"""

import sys
from pathlib import Path


def read_listing(path: Path) -> dict[str, str]:
    """relpath -> sha256 of a digest listing."""
    digests = {}
    for line in path.read_text().splitlines():
        digest, _, name = line.partition("  ")
        if not name:
            raise ValueError(f"{path}: not a `sha256  relpath` line: {line!r}")
        digests[name] = digest
    return digests


def problems(base: dict[str, str], head: dict[str, str], names: set[str]) -> list[str]:
    """One line per moved file left unnamed and per named file that did not move."""
    moved = {n for n in base.keys() | head.keys() if base.get(n) != head.get(n)}
    lines = [f"{n}: moved, but no MOVED line names it" for n in sorted(moved - names)]
    lines += [f"{n}: named in a MOVED line, but did not move" for n in sorted(names - moved)]
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(f"usage: {sys.argv[0]} BASE_LISTING HEAD_LISTING NAMES")
    base_path, head_path, names_path = map(Path, sys.argv[1:])
    try:
        base, head = read_listing(base_path), read_listing(head_path)
        names = {n.strip() for n in names_path.read_text().splitlines() if n.strip()}
    except (OSError, ValueError) as err:
        sys.exit(f"error: {err}")
    found = problems(base, head, names)
    print("\n".join(found) or f"the {len(names)} named files moved, and no other")
    sys.exit(1 if found else 0)
