#!/usr/bin/env python3
"""Mutation check of the falsifier: every named edit must fail its tests.

Each mutant is one textual edit of ``src/dstab/falsifier.py``.  It is
applied to a copy of ``src/`` in a temporary directory, next to copies of
``tests/test_falsifier.py``, ``tests/conftest.py`` and ``pyproject.toml``,
and pytest runs that test file against the copy.  A mutant is killed when
pytest reports failing tests (exit code 1); any other outcome, including
an import or collection error, counts as a survivor.  The unedited copy
runs first and must pass.  The script prints the kill table and exits 1
when a mutant survives or an edit no longer applies.  From the root of a
checkout:

    python tests/mutants.py

It uses the standard library only, and pytest does not collect it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = Path("src", "dstab", "falsifier.py")
COPIED = [Path("src"), Path("tests", "test_falsifier.py"),
          Path("tests", "conftest.py"), Path("pyproject.toml")]

# a memo like the lru_cache on _draw_block, but with the arguments at the
# given positions left out of its key
KEY_WITHOUT = '''
def _memo_without(*positions):
    import functools

    def wrap(fn):
        cache, calls = {}, [0, 0]

        def cached(*args):
            key = tuple(x for i, x in enumerate(args) if i not in positions)
            calls[key in cache] += 1
            if key not in cache:
                cache[key] = fn(*args)
            return cache[key]
        def cache_clear():
            cache.clear()
            calls[:] = [0, 0]
        cached.cache_clear = cache_clear
        cached.cache_info = lambda: functools._CacheInfo(
            calls[1], calls[0], None, len(cache))
        return cached
    return wrap


'''
MEMO = "@lru_cache(maxsize=64)\ndef _draw_block("

# name -> (text in falsifier.py, replacement); each text occurs once
MUTANTS = {
    "block offset off by one": (
        "range(p + max(start - p, 0) // CHUNK * CHUNK, stop, CHUNK)",
        "range(p + 1 + max(start - p, 0) // CHUNK * CHUNK, stop, CHUNK)"),
    "drawn index off by one": (
        "h.update(repr(i).encode())", "h.update(repr(i + 1).encode())"),
    "whole block drawn past stop": (
        "                                 min(stop, base + CHUNK))\n",
        "                                 base + CHUNK)[:min(stop, base + CHUNK)"
        " - first]\n"),
    "cache key without seed": (
        MEMO, KEY_WITHOUT + "@_memo_without(1)\ndef _draw_block("),
    "cache key without lo/hi": (
        MEMO, KEY_WITHOUT + "@_memo_without(2, 3)\ndef _draw_block("),
    "_verify_exact always True": (
        "    return not is_positive_stable(da)\n", "    return True\n"),
    "screen radius forced to 0": (
        "proved = ((lead_mid - lead_rad > 0)",
        "proved = ((lead_mid - 0 * lead_rad > 0)"),
    "screen lead test mid + rad > 0": (
        "proved = ((lead_mid - lead_rad > 0)",
        "proved = ((lead_mid + lead_rad > 0)"),
    "popcount grouping off by one": (
        "np.searchsorted(orders[by_order], np.arange(n + 1))",
        "np.searchsorted(orders[by_order], np.arange(n + 1))"
        " - (np.arange(n + 1) > 0)"),
    "Routh divisor taken from the wrong row": (
        "q = _div(above[:, :1], row[:, :1])",
        "q = _div(row[:, :1], above[:, :1])"),
}


def run(edit: tuple[str, str] | None) -> tuple[int, list[str]]:
    """pytest's exit code and failed tests on a copy with ``edit`` made."""
    with tempfile.TemporaryDirectory(prefix="dstab-mutant-") as tmp:
        for rel in COPIED:
            (Path(tmp) / rel).parent.mkdir(parents=True, exist_ok=True)
            if (ROOT / rel).is_dir():
                shutil.copytree(ROOT / rel, Path(tmp) / rel,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(ROOT / rel, Path(tmp) / rel)
        if edit is not None:
            path = Path(tmp) / TARGET
            text = path.read_text()
            old, new = edit
            if text.count(old) != 1:
                raise SystemExit(f"mutants: {old!r} does not occur exactly "
                                 f"once in {TARGET}")
            path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p",
             "no:cacheprovider", str(Path("tests", "test_falsifier.py"))],
            cwd=tmp, env=env, capture_output=True, text=True)
    failed = re.findall(r"^FAILED \S+::(\w+)", proc.stdout, re.MULTILINE)
    return proc.returncode, failed


def main() -> int:
    code, failed = run(None)
    if code != 0:
        print(f"mutants: the unedited copy fails (pytest exit {code}): "
              f"{failed}")
        return 1
    print("| mutant | result | failing tests |")
    print("|---|---|---|")
    survivors = 0
    for name, edit in MUTANTS.items():
        code, failed = run(edit)
        killed = code == 1 and bool(failed)
        survivors += not killed
        result = "killed" if killed else f"SURVIVED (pytest exit {code})"
        print(f"| {name} | {result} | {len(failed)}: {', '.join(failed)} |")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
