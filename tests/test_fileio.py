"""Every run file is replaced whole: a failed write leaves the old file.
Every text file is read as UTF-8, and one that is not is a documented error."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from mtvlm import fileio
from mtvlm.errors import ConfigurationError, ContractError
from mtvlm.checkpoint import read_checkpoint, write_checkpoint
from mtvlm.cli import load_run_config
from mtvlm.data import ManifestError, SampleRecord, load_manifest, save_manifest
from mtvlm.lm import Vocab
from mtvlm.metrics import read_predictions, write_predictions
from mtvlm.prompting import ClueCache
from mtvlm.training import write_log
from mtvlm.vision import read_pixels, write_pixels


def manifest(n):
    return [SampleRecord(id=f"r{k}", dataset_tag="geochat", kind="single",
                         visual_refs=["a.f64"], instruction="Say hi.", target="hi")
            for k in range(n)]


def clue_cache(clue):
    cache = ClueCache()
    cache.put("h", "p", clue)
    return cache


# name -> (write(path, version), read(path)); versions 1 and 2 differ
WRITERS = {
    "checkpoint": (lambda p, i: write_checkpoint(p, {"w": np.full((3, 4), float(i))}),
                   read_checkpoint),
    "log": (lambda p, i: write_log(p, [{"step": s, "loss": 1.0 / (s + i)}
                                       for s in range(5)]),
            lambda p: [json.loads(line) for line in p.read_text().splitlines()]),
    "vocab": (lambda p, i: Vocab(["<pad>", "<bos>", "<eos>", *["a", "b", "c"][:i]]).save(p),
              Vocab.load),
    "predictions": (lambda p, i: write_predictions(
                        p, [{"id": str(k), "prediction": "yes " * i, "gold": "yes"}
                            for k in range(4)]),
                    read_predictions),
    "clue_cache": (lambda p, i: clue_cache("clue " * i).save(p), ClueCache.load),
    "manifest": (lambda p, i: save_manifest(p, manifest(2 * i)), load_manifest),
}


class HalfWrite:
    """A file that writes half of what it is given, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError("disk full")


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_leaves_previous_file(tmp_path, monkeypatch, name):
    write, read = WRITERS[name]
    path = tmp_path / "out"
    write(path, 1)
    before = path.read_bytes()
    read(path)

    monkeypatch.setattr(fileio, "open", lambda *a, **k: HalfWrite(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        write(path, 2)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]   # no temp file left

    monkeypatch.undo()
    write(path, 2)
    assert path.read_bytes() != before
    read(path)


@pytest.mark.parametrize("failing", ["frame.f64", "frame.json"])
def test_failed_pixel_write_leaves_previous_files(tmp_path, monkeypatch, failing):
    # the pixel writer replaces two files, the payload and then its sidecar,
    # so it cannot join WRITERS, whose test expects one file in the directory
    path = tmp_path / "frame.f64"
    write_pixels(path, np.full((1, 3, 2, 2), 0.25))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def half_write_one(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        return HalfWrite(fh) if Path(file).name.startswith(f".{failing}.") else fh

    monkeypatch.setattr(fileio, "open", half_write_one, raising=False)
    with pytest.raises(OSError, match="disk full"):
        write_pixels(path, np.full((2, 3, 4, 2), 0.5))
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(after) == ["frame.f64", "frame.json"]     # no temp file left
    assert after[failing] == before[failing]
    if failing == "frame.f64":      # the sidecar is written after the payload
        assert after == before
        np.testing.assert_array_equal(read_pixels(path), np.full((1, 3, 2, 2), 0.25))

    monkeypatch.undo()
    write_pixels(path, np.full((2, 3, 4, 2), 0.5))
    np.testing.assert_array_equal(read_pixels(path), np.full((2, 3, 4, 2), 0.5))


def test_new_payload_under_old_sidecar_of_same_size_is_rejected(tmp_path, monkeypatch):
    # (1, 3, 8, 2) and (2, 3, 4, 2) payloads are both 384 bytes, so only
    # the sidecar's crc32 tells the new payload from the old one
    path = tmp_path / "frame.f64"
    write_pixels(path, np.full((1, 3, 8, 2), 0.25))

    def half_write_sidecar(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        return HalfWrite(fh) if Path(file).name.startswith(".frame.json.") else fh

    monkeypatch.setattr(fileio, "open", half_write_sidecar, raising=False)
    with pytest.raises(OSError, match="disk full"):
        write_pixels(path, np.full((2, 3, 4, 2), 0.5))
    monkeypatch.undo()
    assert json.loads(path.with_suffix(".json").read_text())["k"] == 1
    with pytest.raises(ContractError, match="crc32"):
        read_pixels(path)


@pytest.mark.parametrize("read, error", [
    (load_manifest, ManifestError),
    (Vocab.load, ContractError),
    (ClueCache.load, ContractError),
    (read_predictions, ContractError),
    (lambda path: load_run_config(str(path), []), ConfigurationError),
], ids=["manifest", "vocab", "clue_cache", "predictions", "run_config"])
def test_non_utf8_file_raises_documented_error_naming_it(tmp_path, read, error):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff{}\n")
    with pytest.raises(error, match=re.escape(str(path))):
        read(path)
