"""Metrics CSV and JSON files, and `write_atomic`, the writer every artifact goes through.

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
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_json(path, data: dict) -> None:
    write_atomic(path, (json.dumps(data, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def write_atomic(path, data: bytes) -> bytes:
    """Write `data` to a temp file beside `path`, rename it over `path`; returns `data`."""
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)
    return data


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
