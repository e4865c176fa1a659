"""Checkpoint robustness: every single-bit flip and every truncation of a saved
checkpoint is refused with CheckpointError, never loaded silently."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowpath.checkpoint import load_checkpoint, save_checkpoint
from flowpath.errors import CheckpointError
from flowpath.nets import flat_store
from flowpath.pipeline import cost_from_checkpoint, model_from_checkpoint, policy_from_checkpoint

from test_harness import sample_checkpoint

FUZZ = settings(max_examples=150, deadline=None, database=None)


@pytest.fixture(scope="module")
def saved(tmp_path_factory, tiny_run):
    """The raw bytes of a sample checkpoint and a trained model.ckpt, and a
    scratch path that each example overwrites."""
    path = tmp_path_factory.mktemp("fuzz") / "edited.ckpt"
    save_checkpoint(path, sample_checkpoint())
    return {"sample": path.read_bytes(),
            "model": (tiny_run["out"] / "model.ckpt").read_bytes(), "path": path}


def load_everything(path) -> None:
    """Load a checkpoint and fill every trained object it holds."""
    ckpt = load_checkpoint(path)
    if "model" in ckpt.params:
        model_from_checkpoint(ckpt)
        policy_from_checkpoint(ckpt)
        cost_from_checkpoint(ckpt)


@pytest.mark.parametrize("which", ["sample", "model"])
def test_unedited_checkpoints_load(saved, which):
    saved["path"].write_bytes(saved[which])
    load_everything(saved["path"])


@pytest.mark.parametrize("which", ["sample", "model"])
@FUZZ
@given(data=st.data())
def test_every_single_bit_flip_is_refused(saved, which, data):
    raw = bytearray(saved[which])
    flip = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
    raw[flip // 8] ^= 1 << flip % 8
    saved["path"].write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_everything(saved["path"])


@pytest.mark.parametrize("which", ["sample", "model"])
@FUZZ
@given(data=st.data())
def test_every_truncation_is_refused(saved, which, data):
    raw = saved[which]
    saved["path"].write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="length")])
    with pytest.raises(CheckpointError):
        load_everything(saved["path"])


def test_loaded_groups_are_views_of_one_blob(saved):
    saved["path"].write_bytes(saved["model"])
    ckpt = load_checkpoint(saved["path"])
    for group in ("model", "cost", "policy"):
        assert flat_store([a for _, a in ckpt.params[group]]) is not None, group
    model = model_from_checkpoint(ckpt)
    stored = flat_store([a for _, a in ckpt.params["model"]])
    assert np.array_equal(model.store, stored)
    assert not np.shares_memory(model.store, stored)
