"""Counts the workspace's Rust lines, product and test, for simplicity PRs.

Product: `crates/*/src`, `src/` and `examples/`, outside `#[cfg(test)]`
modules. Test: those modules, plus `crates/*/tests` and `tests/`. Every
line counts (blank, comment, code); a `#[cfg(test)]` module is one whose
`mod NAME {` follows the attribute and whose closing brace sits at the
`mod` line's indentation.

Usage: python3 tools/rust_lines.py [REPO_ROOT]
"""

import glob
import os
import sys


def split(path):
    """(product, test) line counts of one source file."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    product = test = i = 0
    while i < len(lines):
        head = lines[i + 1] if i + 1 < len(lines) else ""
        opens_module = head.lstrip().startswith(("mod ", "pub mod ", "pub(crate) mod "))
        if lines[i].strip() == "#[cfg(test)]" and opens_module and head.rstrip().endswith("{"):
            close = head[: len(head) - len(head.lstrip())] + "}"
            j = i + 2
            while lines[j] != close:
                j += 1
            test += j + 1 - i
            i = j + 1
            continue
        product += 1
        i += 1
    return product, test


def main():
    os.chdir(sys.argv[1] if len(sys.argv) > 1 else ".")
    product = test = 0
    for pattern in ("crates/*/src/**/*.rs", "src/**/*.rs", "examples/**/*.rs"):
        for path in glob.glob(pattern, recursive=True):
            p, t = split(path)
            product += p
            test += t
    for pattern in ("crates/*/tests/**/*.rs", "tests/**/*.rs"):
        for path in glob.glob(pattern, recursive=True):
            with open(path, encoding="utf-8") as f:
                test += sum(1 for _ in f)
    print(f"product {product} test {test}")


if __name__ == "__main__":
    main()
