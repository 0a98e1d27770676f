"""Binary checkpoint format: roundtrips, determinism, corruption handling."""

import numpy as np
import pytest

from mtvlm.autograd import ParameterSet
from mtvlm.checkpoint import MAGIC, read_checkpoint, write_checkpoint
from mtvlm.errors import ContractError, ShapeError


def sample_params():
    ps = ParameterSet()
    ps.add("lm.embed", np.arange(12.0).reshape(3, 4))
    ps.add("lm.bias", np.array([-1.0, 2.5]))
    ps.add("change.w", np.ones((2, 2, 1, 1)) * 0.25)
    return ps


def test_roundtrip_preserves_values_and_order(tmp_path):
    ps = sample_params()
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, ps.state())
    state = read_checkpoint(path)
    assert list(state) == ["lm.embed", "lm.bias", "change.w"]
    for name, arr in state.items():
        np.testing.assert_array_equal(arr, ps[name].data)
        assert arr.dtype == np.float64


def test_write_accepts_plain_state_dict(tmp_path):
    state = {"a": np.arange(6.0).reshape(2, 3), "s": np.asarray(7.0)}
    path = tmp_path / "dict.ckpt"
    write_checkpoint(path, state)
    back = read_checkpoint(path)
    np.testing.assert_array_equal(back["a"], state["a"])
    assert back["s"].shape == ()
    assert back["s"] == 7.0


def test_rerun_is_byte_identical(tmp_path):
    ps = sample_params()
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    write_checkpoint(a, ps.state())
    write_checkpoint(b, ps.state())
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes()[:4] == MAGIC


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ContractError, match="magic"):
        read_checkpoint(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "future.ckpt"
    path.write_bytes(MAGIC + (99).to_bytes(4, "little"))
    with pytest.raises(ContractError, match="version"):
        read_checkpoint(path)


def test_non_utf8_parameter_name_rejected(tmp_path):
    path = tmp_path / "name.ckpt"
    write_checkpoint(path, {"w": np.ones(2)})
    blob = bytearray(path.read_bytes())
    blob[12] = 0xFF                     # first byte of the name
    path.write_bytes(bytes(blob))
    with pytest.raises(ContractError, match="UTF-8"):
        read_checkpoint(path)


def test_duplicate_parameter_rejected(tmp_path):
    path = tmp_path / "dup.ckpt"
    write_checkpoint(path, {"w": np.ones(2)})
    blob = path.read_bytes()
    path.write_bytes(blob + blob[8:])   # repeat the single record
    with pytest.raises(ContractError, match="duplicate"):
        read_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_payload_rejected_naming_the_parameter(tmp_path, bad):
    state = sample_params().state()
    state["lm.bias"][1] = bad
    path = tmp_path / "bad.ckpt"
    write_checkpoint(path, state)
    with pytest.raises(ContractError, match="'lm.bias' holds NaN or inf"):
        read_checkpoint(path)


def test_every_truncation_is_rejected_or_a_record_prefix(tmp_path):
    ps = sample_params()
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, ps.state())
    blob = path.read_bytes()
    names = list(ps.state())
    cut_path = tmp_path / "cut.ckpt"
    prefixes = 0
    for cut in range(len(blob)):
        cut_path.write_bytes(blob[:cut])
        try:
            state = read_checkpoint(cut_path)
        except ContractError:
            continue
        # The format has no record count, so a cut on a record boundary
        # reads as the leading records; strict loading then rejects it.
        assert list(state) == names[:len(state)] and len(state) < len(names)
        for name, arr in state.items():
            np.testing.assert_array_equal(arr, ps[name].data)
        with pytest.raises(ContractError, match="missing"):
            sample_params().load_state(read_checkpoint(cut_path))
        prefixes += 1
    assert prefixes == len(names)      # the bare header and each record end


@pytest.mark.parametrize("fill", [b"\x00", b"\xff"], ids=["zeros", "ones"])
def test_trailing_bytes_rejected(tmp_path, fill):
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, sample_params().state())
    blob = path.read_bytes()
    for extra in range(1, 16):
        path.write_bytes(blob + fill * extra)
        with pytest.raises(ContractError, match="trailing"):
            read_checkpoint(path)


def test_load_into_strict_and_shapes(tmp_path):
    ps = sample_params()
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, ps.state())

    fresh = sample_params()
    fresh["lm.bias"].data = np.zeros(2)
    fresh.load_state(read_checkpoint(path))
    np.testing.assert_array_equal(fresh["lm.bias"].data, [-1.0, 2.5])

    partial = ParameterSet()
    partial.add("lm.bias", np.zeros(2))
    with pytest.raises(ContractError):
        partial.load_state(read_checkpoint(path))  # unknown params in checkpoint
    partial.load_state(read_checkpoint(path), strict=False)
    np.testing.assert_array_equal(partial["lm.bias"].data, [-1.0, 2.5])

    wrong = ParameterSet()
    wrong.add("lm.embed", np.zeros((3, 4)))
    wrong.add("lm.bias", np.zeros(3))
    wrong.add("change.w", np.zeros((2, 2, 1, 1)))
    with pytest.raises(ShapeError):
        wrong.load_state(read_checkpoint(path))
