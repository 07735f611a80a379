#!/usr/bin/env python3
"""Count the non-test source lines of the workspace crates.

A file under crates/*/src counts every line above its first `#[cfg(test)]`
(all of it when it has none); blank and comment lines count too. This is
the figure ROADMAP.md and CHANGES.md quote as "non-test lines".

Usage:
  nontest_lines.py [ROOT]
      Prints one line per crate (`<lines>  <crate>`), then the total.
      ROOT defaults to the repository this script sits in.

Standard library only.
"""

import os
import sys


def nontest_lines(path):
    """Lines of `path` above its first `#[cfg(test)]`."""
    n = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.lstrip().startswith("#[cfg(test)]"):
                break
            n += 1
    return n


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    crates = os.path.join(root, "crates")
    total = 0
    for crate in sorted(os.listdir(crates)):
        src = os.path.join(crates, crate, "src")
        if not os.path.isdir(src):
            continue
        lines = 0
        for dirpath, _, files in os.walk(src):
            for name in files:
                if name.endswith(".rs"):
                    lines += nontest_lines(os.path.join(dirpath, name))
        print(f"{lines:6}  {crate}")
        total += lines
    print(f"{total:6}  total")


if __name__ == "__main__":
    main(sys.argv)
