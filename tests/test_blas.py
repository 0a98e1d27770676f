"""The one-thread BLAS pin: set inside, restored after, absent without the
library, and entered by training and by prediction."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mtvlm import blas
from mtvlm.lm import TinyCausalLM
from mtvlm.training import AdamW, train_joint
from test_training import joint_cfg, make_model


@pytest.fixture
def count():
    """(get, set) of the bundled OpenBLAS thread count, put back as found."""
    calls = blas._thread_calls()
    if calls is None:
        pytest.skip("numpy's bundled OpenBLAS is not present")
    get, set_ = calls
    before = get()
    yield get, set_
    set_(before)


def test_the_count_is_one_inside_and_restored_after(count):
    get, set_ = count
    set_(2)
    with blas.one_thread():
        assert get() == 1
        with blas.one_thread():
            assert get() == 1
        assert get() == 1
    assert get() == 2


def test_the_count_is_restored_when_the_body_raises(count):
    get, set_ = count
    set_(2)
    with pytest.raises(KeyError):
        with blas.one_thread():
            assert get() == 1
            raise KeyError("body")
    assert get() == 2


def test_without_the_library_nothing_changes(count, monkeypatch):
    get, set_ = count
    set_(2)
    monkeypatch.setattr(blas, "_thread_calls", lambda: None)
    with blas.one_thread():
        assert get() == 2
    assert get() == 2


def test_importing_mtvlm_looks_nothing_up():
    code = ("import mtvlm, mtvlm.cli; from mtvlm import blas; "
            "print(blas._thread_calls.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": str(Path(blas.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "0"


def spy(monkeypatch, owner, name, get, seen):
    orig = getattr(owner, name)

    def wrapper(*args, **kwargs):
        seen.append(get())
        return orig(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)


def test_training_steps_run_on_one_thread_and_the_callers_count_returns(
        count, monkeypatch, synth_dir):
    get, set_ = count
    out, records = synth_dir
    seen = []
    spy(monkeypatch, AdamW, "step", get, seen)
    set_(2)
    train_joint(make_model(out, records), records, joint_cfg(total_steps=3))
    assert seen == [1, 1, 1]
    assert get() == 2


def test_prediction_runs_on_one_thread_and_the_callers_count_returns(
        count, monkeypatch, synth_dir):
    get, set_ = count
    out, records = synth_dir
    model = make_model(out, records, gen_max_new=2)
    seen = []
    spy(monkeypatch, TinyCausalLM, "generate", get, seen)
    set_(2)
    model.predict(records[0])
    model.predict(records[-1])
    assert seen == [1, 1]
    assert get() == 2


def test_training_losses_do_not_depend_on_the_callers_count(count, synth_dir):
    _, set_ = count
    out, records = synth_dir
    losses = []
    for caller in (1, 2):
        set_(caller)
        log = train_joint(make_model(out, records), records, joint_cfg(total_steps=4))
        losses.append([row["loss"].hex() for row in log])
    assert losses[0] == losses[1]
