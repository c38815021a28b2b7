"""Tiny ``key = value`` file format used by structure and scenario files.

One assignment per line, ``#`` starts a comment, blank lines ignored.
Values are kept as raw strings; callers parse them.
"""

from __future__ import annotations

import os


def read_kv_file(path: str | os.PathLike, error: type[Exception]) -> dict[str, str]:
    """The file's assignments; a malformed file raises ``error`` naming its
    path and, for a bad line, the line number."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as err:
            raise error(f"{path}: not UTF-8 text ({err.reason})") from None
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise error(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if not key:
                raise error(f"{path}:{lineno}: empty key")
            if key in out:
                raise error(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value.strip()
    return out


def split_list(value: str) -> list[str]:
    """Comma-separated list with whitespace tolerance; empty string -> []."""
    if not value.strip():
        return []
    return [item.strip() for item in value.split(",")]
