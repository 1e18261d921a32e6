#!/usr/bin/env python3
"""Count non-test Rust source lines per crate.

Usage: python3 scripts/rs_lines.py [ROOT ...]

Each ROOT (default: every directory under `crates/`, plus `src/` and
`examples/` of the root package) is walked for `.rs` files. Files under a
`tests/` directory are skipped, and a file's trailing unit-test module --
everything from a `#[cfg(test)]` line followed by `mod tests` to the end
of the file -- is not counted. Every other line counts, blank lines and
comments included, so the number moves only when code or its docs do.

Prints one `lines  root` row per root and a total.
"""

import os
import sys


def count_file(path):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        if line.strip() == "#[cfg(test)]" and i + 1 < len(lines):
            if lines[i + 1].strip().startswith("mod tests"):
                return i
    return len(lines)


def count_root(root):
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in ("tests", "target"))
        for name in sorted(filenames):
            if name.endswith(".rs"):
                total += count_file(os.path.join(dirpath, name))
    return total


def default_roots(repo):
    crates = os.path.join(repo, "crates")
    roots = [os.path.join("crates", c, "src") for c in sorted(os.listdir(crates))]
    roots += ["src", "examples"]
    return [r for r in roots if os.path.isdir(os.path.join(repo, r))]


def main(argv):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    roots = argv[1:] or default_roots(repo)
    grand = 0
    for root in roots:
        path = root if os.path.isabs(root) else os.path.join(repo, root)
        n = count_root(path)
        grand += n
        print(f"{n:7d}  {root}")
    print(f"{grand:7d}  total")


if __name__ == "__main__":
    main(sys.argv)
