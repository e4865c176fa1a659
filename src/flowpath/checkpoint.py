"""Binary checkpoints: magic "FPCK", u32 version, length-prefixed sections.

All multi-byte integers are little-endian.  Parameter groups are stored as
(name, shape, flat float64 little-endian values) records so a checkpoint can
be rebuilt byte-for-byte: loading then saving produces identical bytes.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .errors import CheckpointError

MAGIC = b"FPCK"
VERSION = 1


@dataclass
class Checkpoint:
    config: RunConfig
    params: dict[str, list[tuple[str, np.ndarray]]] = field(default_factory=dict)
    opt_states: dict[str, dict] = field(default_factory=dict)
    rng_state: dict | None = None
    meta: dict = field(default_factory=dict)


def _pack_array(name: str, arr: np.ndarray) -> bytes:
    data = np.ascontiguousarray(arr, dtype="<f8")
    name_b = name.encode("utf-8")
    out = [struct.pack("<I", len(name_b)), name_b,
           struct.pack("<I", data.ndim)]
    out.extend(struct.pack("<Q", int(d)) for d in data.shape)
    out.append(data.tobytes())
    return b"".join(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
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


def _text(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{what} is not valid UTF-8") from exc


def _json_section(sections: dict[str, bytes], name: str):
    if name not in sections:
        raise CheckpointError(f"checkpoint missing section {name}")
    try:
        return json.loads(_text(sections[name], f"section {name}"))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"malformed JSON in section {name}: {exc}") from exc


def _unpack_arrays(payload: bytes) -> list[tuple[str, np.ndarray]]:
    r = _Reader(payload)
    count = r.u32()
    out = []
    for _ in range(count):
        name = _text(r.take(r.u32()), "array name")
        ndim = r.u32()
        shape = tuple(r.u64() for _ in range(ndim))
        data = np.frombuffer(r.take(8 * math.prod(shape)), dtype="<f8")
        try:
            arr = data.reshape(shape).copy()
        except ValueError as exc:
            raise CheckpointError(f"array {name} has a corrupt shape {shape}") from exc
        out.append((name, arr))
    if not r.exhausted:
        raise CheckpointError("trailing bytes in a parameter section")
    return out


def _pack_group(arrays: list[tuple[str, np.ndarray]]) -> bytes:
    return struct.pack("<I", len(arrays)) + b"".join(
        _pack_array(n, a) for n, a in arrays)


def _opt_to_arrays(state: dict) -> tuple[list[tuple[str, np.ndarray]], dict]:
    arrays = []
    for i, a in enumerate(state["m"]):
        arrays.append((f"m{i}", np.asarray(a)))
    for i, a in enumerate(state["v"]):
        arrays.append((f"v{i}", np.asarray(a)))
    scalars = {k: state[k] for k in
               ("learning_rate", "beta1", "beta2", "eps", "step_count")}
    return arrays, scalars


def _opt_from_arrays(arrays: list[tuple[str, np.ndarray]], scalars: dict) -> dict:
    m = [a for n, a in arrays if n.startswith("m")]
    v = [a for n, a in arrays if n.startswith("v")]
    return dict(scalars, m=m, v=v)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write atomically (temp file + rename); section order is deterministic."""
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

    blob = [MAGIC, struct.pack("<I", VERSION)]
    for name, payload in sections:
        name_b = name.encode("utf-8")
        blob.append(struct.pack("<I", len(name_b)))
        blob.append(name_b)
        blob.append(struct.pack("<Q", len(payload)))
        blob.append(payload)
    data = b"".join(blob)

    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any corrupt or missing content raises CheckpointError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8 or data[:4] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    version = struct.unpack("<I", data[4:8])[0]
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    r = _Reader(data)
    r.pos = 8
    sections: dict[str, bytes] = {}
    while not r.exhausted:
        name = _text(r.take(r.u32()), "section name")
        payload_len = r.u64()
        sections[name] = r.take(payload_len)

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
        if name.startswith("params/"):
            ckpt.params[name.split("/", 1)[1]] = _unpack_arrays(payload)
    for name, payload in sections.items():
        if name.startswith("opt/"):
            group = name.split("/", 1)[1]
            scalars = _json_section(sections, f"optmeta/{group}")
            if not isinstance(scalars, dict):
                raise CheckpointError(f"section optmeta/{group} is not a JSON object")
            ckpt.opt_states[group] = _opt_from_arrays(_unpack_arrays(payload), scalars)
    return ckpt


def group_from_model(parameters: list[tuple[str, np.ndarray]]
                     ) -> list[tuple[str, np.ndarray]]:
    return [(name, arr.copy()) for name, arr in parameters]


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
