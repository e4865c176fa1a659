"""Binary checkpoints, format version 2: one checksummed blob per trained object.

A 20-byte header, little-endian like every integer here, holds the magic
"FPCK", the u32 version (2), the u64 body length and the `zlib.crc32` of the
body.  The body is a run of sections, each a u32-length UTF-8 name, a u64
payload length and the payload: JSON `config`, `meta` and optional `rng`,
and per trained object `params/<group>`, with `opt/<group>` (Adam moments
m0..mK then v0..vK) and JSON `optmeta/<group>` for its optimizer.  An array
section is a u32-length JSON index ``[[name, [shape...]], ...]`` and then
one float64 blob holding exactly what the index lists, decoded with one
`np.frombuffer`.  The model is the `model` group, in `AgingModel.parameters()`
order (its store's layout); the IRL nets are `cost` and `policy`.  Loading
then saving produces identical bytes.  A load given `groups` decodes only
those `params/<group>` arrays, yet checks every section's frame, name, CRC
and JSON.  Version 1 files are refused: re-run the stage that wrote them.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .errors import CheckpointError
from .metrics import write_atomic

MAGIC = b"FPCK"
VERSION = 2
_HEADER = struct.Struct("<4sIQI")  # magic, version, body length, body CRC32


@dataclass
class Checkpoint:
    config: RunConfig
    params: dict[str, list[tuple[str, np.ndarray]]] = field(default_factory=dict)
    opt_states: dict[str, dict] = field(default_factory=dict)
    rng_state: dict | None = None
    meta: dict = field(default_factory=dict)


class _Reader:
    def __init__(self, data: memoryview):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise CheckpointError("truncated checkpoint payload")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    @property
    def exhausted(self) -> bool:
        return self.pos == len(self.data)


def _text(raw, what: str) -> str:
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{what} is not valid UTF-8") from exc


def _json(raw, what: str):
    try:
        return json.loads(_text(raw, what))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"malformed JSON in {what}: {exc}") from exc


def _json_section(sections: dict[str, memoryview], name: str):
    if name not in sections:
        raise CheckpointError(f"checkpoint missing section {name}")
    return _json(sections[name], f"section {name}")


def _pack_group(arrays: list[tuple[str, np.ndarray]]) -> bytes:
    index = json.dumps([[name, list(np.shape(a))] for name, a in arrays],
                       separators=(",", ":")).encode("utf-8")
    return b"".join([struct.pack("<I", len(index)), index] +
                    [np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in arrays])


def _unpack_group(payload: memoryview, section: str) -> list[tuple[str, np.ndarray]]:
    """The (name, array) pairs of an array section, as views of one decoded blob."""
    r = _Reader(payload)
    index = _json(r.take(r.u32()), f"the index of section {section}")
    if not isinstance(index, list):
        raise CheckpointError(f"section {section} has a malformed index")
    ends = [0]
    for entry in index:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                and isinstance(entry[1], list)):
            raise CheckpointError(f"section {section} has a malformed index")
        name, shape = entry
        if not all(type(d) is int and d >= 0 for d in shape) or math.prod(shape) >= 2**63:
            raise CheckpointError(f"array {name} has a corrupt shape {shape}")
        ends.append(ends[-1] + math.prod(shape))
    values = len(payload) - r.pos
    if values != 8 * ends[-1]:
        raise CheckpointError(f"section {section} holds {values} bytes of values, "
                              f"its index lists {8 * ends[-1]}")
    blob = np.frombuffer(payload, dtype="<f8", offset=r.pos)
    out = []
    for (name, shape), start, stop in zip(index, ends, ends[1:]):
        try:
            out.append((name, blob[start:stop].reshape(shape)))
        except ValueError as exc:
            raise CheckpointError(f"array {name} has a corrupt shape {shape}") from exc
    return out


def _opt_to_arrays(state: dict) -> tuple[list[tuple[str, np.ndarray]], dict]:
    arrays = [(f"{key}{i}", np.asarray(a)) for key in "mv" for i, a in enumerate(state[key])]
    scalars = {k: state[k] for k in
               ("learning_rate", "beta1", "beta2", "eps", "step_count")}
    return arrays, scalars


def _opt_from_arrays(arrays: list[tuple[str, np.ndarray]], scalars: dict, section: str) -> dict:
    k = len(arrays) // 2
    if [n for n, _ in arrays] != [f"{key}{i}" for key in "mv" for i in range(k)]:
        raise CheckpointError(f"section {section} must hold arrays m0..mK then v0..vK")
    return dict(scalars, m=[a for _, a in arrays[:k]], v=[a for _, a in arrays[k:]])


def save_checkpoint(path, ckpt: Checkpoint) -> bytes:
    """Write atomically, returning the bytes written; section order is deterministic."""
    sections: list[tuple[str, bytes]] = []
    sections.append(("config", ckpt.config.to_json().encode("utf-8")))
    for group in sorted(ckpt.params):
        sections.append((f"params/{group}", _pack_group(ckpt.params[group])))
    for group in sorted(ckpt.opt_states):
        arrays, scalars = _opt_to_arrays(ckpt.opt_states[group])
        sections.append((f"opt/{group}", _pack_group(arrays)))
        sections.append((f"optmeta/{group}",
                         json.dumps(scalars, sort_keys=True).encode("utf-8")))
    if ckpt.rng_state is not None:
        sections.append(("rng", json.dumps(ckpt.rng_state, sort_keys=True).encode("utf-8")))
    sections.append(("meta", json.dumps(ckpt.meta, sort_keys=True).encode("utf-8")))

    body = []
    for name, payload in sections:
        name_b = name.encode("utf-8")
        body += [struct.pack("<I", len(name_b)), name_b, struct.pack("<Q", len(payload)),
                 payload]
    body = b"".join(body)
    return write_atomic(path, _HEADER.pack(MAGIC, VERSION, len(body), zlib.crc32(body)) + body)


def _checked_body(data: memoryview) -> memoryview:
    """The body of a whole checkpoint file, once its header has been checked."""
    if data[:4] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    if len(data) < 8:
        raise CheckpointError("truncated checkpoint header")
    version = struct.unpack_from("<I", data, 4)[0]
    if version != VERSION:
        hint = "; re-run the stage that wrote it" if version == 1 else ""
        raise CheckpointError(f"unsupported checkpoint version {version}{hint}")
    if len(data) < _HEADER.size:
        raise CheckpointError("truncated checkpoint header")
    _, _, length, crc = _HEADER.unpack_from(data)
    body = data[_HEADER.size:]
    if len(body) < length:
        raise CheckpointError(f"truncated checkpoint: {len(body)} of {length} body bytes")
    if len(body) > length:
        raise CheckpointError(f"trailing bytes: {len(body) - length} after the checkpoint body")
    if zlib.crc32(body) != crc:
        raise CheckpointError("checksum mismatch: the checkpoint is corrupt")
    return body


def load_checkpoint(path, groups=None) -> Checkpoint:
    """Read a checkpoint; any corrupt, missing, repeated or unknown content raises
    CheckpointError.  Its arrays are writable views of the bytes read.  With `groups`, only
    those `params/<group>` array sections are decoded and `opt_states` stays empty; every
    section is still framed, name-checked and CRC-checked, and every JSON section parsed."""
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size)
        r = _Reader(_checked_body(memoryview(data)[:fh.readinto(data)]))
    sections: dict[str, memoryview] = {}
    while not r.exhausted:
        name = _text(r.take(r.u32()), "section name")
        if name in sections:
            raise CheckpointError(f"duplicate section {name}")
        sections[name] = r.take(r.u64())

    try:
        config = RunConfig.from_dict(_json_section(sections, "config"))
    except (ValueError, TypeError, AttributeError) as exc:
        raise CheckpointError(f"invalid config section: {exc}") from exc
    ckpt = Checkpoint(config=config, meta=_json_section(sections, "meta"))
    if not isinstance(ckpt.meta, dict):
        raise CheckpointError("section meta is not a JSON object")
    if "rng" in sections:
        ckpt.rng_state = _json_section(sections, "rng")
    for name, payload in sections.items():
        kind, _, group = name.partition("/")
        if not (group and kind in ("params", "opt", "optmeta")
                or name in ("config", "meta", "rng")):
            raise CheckpointError(f"unknown section {name}")
        if kind == "params" and (groups is None or group in groups):
            ckpt.params[group] = _unpack_group(payload, name)
        elif kind == "opt":
            scalars = _json_section(sections, f"optmeta/{group}")
            if not isinstance(scalars, dict):
                raise CheckpointError(f"section optmeta/{group} is not a JSON object")
            if groups is None:
                ckpt.opt_states[group] = _opt_from_arrays(_unpack_group(payload, name),
                                                          scalars, name)
        elif kind == "optmeta" and f"opt/{group}" not in sections:
            raise CheckpointError(f"section {name} has no opt/{group} section")
    return ckpt


def restore_group(parameters: list[tuple[str, np.ndarray]],
                  stored: list[tuple[str, np.ndarray]], group: str = "") -> None:
    """Copy stored values into live model arrays, matching by name.

    Every stored array is checked before any is copied: a missing, extra or
    duplicate name, a wrong shape or a non-finite value raises CheckpointError
    naming `group.parameter`.
    """
    label = f"{group}." if group else ""
    by_name = dict(stored)
    if len(by_name) != len(stored):
        names = [n for n, _ in stored]
        dup = next(n for i, n in enumerate(names) if n in names[:i])
        raise CheckpointError(f"duplicate parameter {label}{dup}")
    for name, arr in parameters:
        if name not in by_name:
            raise CheckpointError(f"checkpoint missing parameter {label}{name}")
        if by_name[name].shape != arr.shape:
            raise CheckpointError(f"shape mismatch for {label}{name}: "
                                  f"{by_name[name].shape} vs {arr.shape}")
    if len(by_name) != len(parameters):
        live = {name for name, _ in parameters}
        extra = next(n for n, _ in stored if n not in live)
        raise CheckpointError(f"unexpected parameter {label}{extra}")
    if stored and not np.isfinite(np.concatenate([a for _, a in stored], axis=None)).all():
        bad = next(n for n, a in stored if not np.isfinite(a).all())
        raise CheckpointError(f"non-finite values in {label}{bad}")
    for name, arr in parameters:
        arr[...] = by_name[name]
