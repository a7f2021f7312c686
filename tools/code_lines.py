#!/usr/bin/env python3
"""Counts the Scala code lines of two checkouts, file by file.

    python3 tools/code_lines.py --parent DIR --change DIR [--tests]

A code line is a line of a ``.scala`` file under ``src/main/scala`` or
``jobs/`` (and ``src/test/scala`` and ``bench/src/test/scala`` with
``--tests``) that holds something other than whitespace and comments: blank
lines, ``//`` lines and the lines of ``/* ... */`` and scaladoc blocks do
not count, so deleting or rewording comments does not move the count. The
scanner knows string literals (plain, interpolated and triple-quoted) and
character literals, so a ``//`` or ``/*`` inside one is not a comment, and
Scala's nested block comments.

It prints the before and after counts of every file that differs between
the checkouts (``-`` where the file is absent), then the totals and their
difference.
"""

import argparse
import os
import sys

ROOTS = [os.path.join("src", "main", "scala"), "jobs"]
TEST_ROOTS = [os.path.join("src", "test", "scala"), os.path.join("bench", "src", "test", "scala")]


def code_lines(text):
    """The number of lines of `text` that hold code outside comments."""
    count = 0
    depth = 0  # block-comment nesting, carried across lines
    in_triple = False  # inside a triple-quoted string, carried across lines
    for line in text.splitlines():
        code = in_triple
        i, n = 0, len(line)
        while i < n:
            two = line[i:i + 2]
            if depth:
                if two == "/*":
                    depth += 1; i += 2
                elif two == "*/":
                    depth -= 1; i += 2
                else:
                    i += 1
            elif in_triple:
                if line.startswith('"""', i):
                    in_triple = False; i += 3
                else:
                    i += 1
            elif two == "//":
                break
            elif two == "/*":
                depth = 1; i += 2
            elif line.startswith('"""', i):
                code = True; in_triple = True; i += 3
            elif line[i] == '"':
                code = True; i += 1
                while i < n and line[i] != '"':
                    i += 2 if line[i] == "\\" else 1
                i += 1
            elif line[i] == "'" and (line[i + 1:i + 2] == "\\" or line[i + 2:i + 3] == "'"):
                # A character literal: 'x' or an escape such as '\n'.
                code = True
                end = line.find("'", i + 3 if line[i + 1] == "\\" else i + 2)
                i = n if end < 0 else end + 1
            else:
                if not line[i].isspace():
                    code = True
                i += 1
        if code:
            count += 1
    return count


def scala_files(checkout, roots):
    """Relative path -> file text, for every Scala file under `roots`."""
    files = {}
    for root in roots:
        for dirpath, _, names in os.walk(os.path.join(checkout, root)):
            for name in names:
                if name.endswith(".scala"):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as fh:
                        files[os.path.relpath(path, checkout)] = fh.read()
    return files


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--tests", action="store_true", help="count src/test/scala and bench/src/test/scala too")
    a = ap.parse_args()
    roots = ROOTS + (TEST_ROOTS if a.tests else [])
    old, new = scala_files(a.parent, roots), scala_files(a.change, roots)

    rows = []
    for path in sorted(set(old) | set(new)):
        if old.get(path) != new.get(path):
            before = code_lines(old[path]) if path in old else None
            after = code_lines(new[path]) if path in new else None
            rows.append((path, before, after))
    width = max([len(p) for p, _, _ in rows] + [len("total")])

    def cell(v):
        return "-" if v is None else str(v)

    print(f"{'file':<{width}}  {'parent':>7}  {'change':>7}")
    for path, before, after in rows:
        print(f"{path:<{width}}  {cell(before):>7}  {cell(after):>7}")
    total_old = sum(code_lines(t) for t in old.values())
    total_new = sum(code_lines(t) for t in new.values())
    print(f"{'total':<{width}}  {total_old:>7}  {total_new:>7}  ({total_new - total_old:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
