import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _tape_recording_is_restored():
    """Fail a test that ends with tape recording off. A leaked ``no_grad``
    would otherwise silently drop gradients in every later test."""
    from mtvlm import autograd

    yield
    if not autograd._recording.get():
        autograd._recording.set(True)
        pytest.fail("test ended inside no_grad(): tape recording was left off")


@pytest.fixture
def synth_dir(tmp_path):
    """A small mixed synthetic corpus on disk, one subdir per run."""
    from mtvlm.data import save_manifest, synth_generate

    out = tmp_path / "data"
    records = (synth_generate("single", 3, 21, out)
               + synth_generate("pair", 3, 22, out)
               + synth_generate("video", 2, 23, out))
    save_manifest(out / "manifest.jsonl", records)
    return out, records
