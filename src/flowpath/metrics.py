"""Metrics files: one CSV per run plus a JSON summary, written atomically.

Floats are serialized with repr (shortest round-trip form) so identical runs
produce identical bytes; wall-clock columns are the single physically
non-reproducible quantity and are masked by determinism comparisons.
"""

from __future__ import annotations

import json
import os


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError("row length does not match header")
        lines.append(",".join(_fmt(v) for v in row))
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_json(path, data: dict) -> None:
    write_text_atomic(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def write_text_atomic(path, text: str) -> None:
    """Write to a temp file beside `path`, then rename it over `path`."""
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def read_csv_without_columns(path, drop: set[str]) -> str:
    """CSV content with the named columns removed (for determinism compares)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        return ""
    header = lines[0].split(",")
    keep = [i for i, h in enumerate(header) if h not in drop]
    out = []
    for line in lines:
        cells = line.split(",")
        out.append(",".join(cells[i] for i in keep))
    return "\n".join(out) + "\n"
