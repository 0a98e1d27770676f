"""End-to-end model assembly: routing, vocabulary closure, determinism."""

import dataclasses

import numpy as np
import pytest

from mtvlm import training
from mtvlm.checkpoint import read_checkpoint, write_checkpoint
from mtvlm.errors import ContractError, SequenceLengthError
from mtvlm.packing import MARKER_CHANGE
from mtvlm.pipeline import MultiTemporalModel, PipelineConfig, build_vocab
from mtvlm.prompting import ClueCache
from mtvlm.training import JOINT_FREEZE

CFG = PipelineConfig(patch=8, d_v=4, dim=16, lm_layers=1, lm_heads=2,
                     max_seq=128, video_frames=4, seed=0)


def by_kind(records):
    out = {}
    for r in records:
        out.setdefault(r.kind, []).append(r)
    return out


@pytest.fixture
def model(synth_dir):
    out, records = synth_dir
    return MultiTemporalModel.build(CFG, records, out)


def test_config_validation():
    with pytest.raises(Exception):
        PipelineConfig(dim=0)


def test_vocab_closure_over_rendered_text(synth_dir):
    out, records = synth_dir
    vocab = build_vocab(records)
    model = MultiTemporalModel.build(CFG, records, out)
    for r in records:
        # tokenizing the prompt and the target must never hit OOV
        vocab.tokenize_prompt(model.render_prompt(r))
        vocab.encode(r.target)
        for ref in r.references or []:
            vocab.encode(ref)


def test_unit_routing(synth_dir):
    out, records = synth_dir
    kinds = by_kind(records)
    model = MultiTemporalModel.build(CFG, records, out)

    single = model.visual_units(kinds["single"][0])
    assert len(single) == 1
    assert single[0].shape == (4, 16)      # 32/8 -> 4x4 grid -> l_d 4

    pair = model.visual_units(kinds["pair"][0])
    assert len(pair) == 1                  # fused change unit
    assert MARKER_CHANGE in model.render_prompt(kinds["pair"][0])

    video = model.visual_units(kinds["video"][0])
    assert len(video) == CFG.video_frames


def test_pair_fallback_without_change_module(synth_dir):
    out, records = synth_dir
    cfg = dataclasses.replace(CFG, use_change_module=False)
    model = MultiTemporalModel.build(cfg, records, out)
    pair = by_kind(records)["pair"][0]
    units = model.visual_units(pair)
    assert len(units) == 2                 # one unit per frame
    prompt = model.render_prompt(pair)
    assert "⟨Frame 1⟩⟨Frame 2⟩" in prompt
    assert MARKER_CHANGE not in prompt
    assert "Remote sensing change captioning:" in prompt


def test_clue_toggle_changes_only_the_suffix(synth_dir):
    out, records = synth_dir
    with_clues = MultiTemporalModel.build(CFG, records, out)
    without = MultiTemporalModel.build(
        dataclasses.replace(CFG, use_clues=False), records, out)
    for r in records:
        a = without.render_prompt(r)
        b = with_clues.render_prompt(r)
        assert b.startswith(a)
        assert b != a
        assert b[len(a):].startswith(" Clue: ")


def test_clue_failure_falls_back_to_plain_prompt(synth_dir):
    out, records = synth_dir

    def broken(vi, p_g):
        raise RuntimeError("offline")

    model = MultiTemporalModel.build(CFG, records, out, clue_generator=broken)
    plain = MultiTemporalModel.build(
        dataclasses.replace(CFG, use_clues=False), records, out)
    r = records[0]
    assert model.render_prompt(r) == plain.render_prompt(r)


def test_clues_populate_the_shared_cache(synth_dir):
    out, records = synth_dir
    cache = ClueCache()
    model = MultiTemporalModel.build(CFG, records, out, clue_cache=cache)
    for r in records:
        model.render_prompt(r)
    assert len(cache) == len(records)


def test_training_example_law(model, synth_dir):
    out, records = synth_dir
    for r in records:
        packed, targets = model.training_example(r)
        mask = packed.loss_mask
        prompt = model.vocab.tokenize_prompt(model.render_prompt(r))
        answer = model.vocab.encode(r.target) + [model.vocab.eos_id]
        n_markers = len(prompt.marker_slots)
        l_d = 4
        want_n = prompt.text_len + len(answer) + n_markers * l_d
        assert packed.n == want_n
        assert len(targets) == want_n and mask.shape == (want_n,)
        # supervision covers exactly the answer tokens
        assert int(mask.sum()) == len(answer)
        for row, (src, idx) in enumerate(packed.segment_map):
            if src == "visual":
                assert not mask[row]
        # masked rows predict the answer ids in order
        got = [targets[row] for row in np.flatnonzero(mask)]
        assert got == answer


def test_training_example_rejects_empty_target(model, synth_dir):
    out, records = synth_dir
    r = dataclasses.replace(records[0], target="")
    with pytest.raises(ContractError, match="empty target"):
        model.training_example(r)


def test_unit_caching_only_when_frozen(model, synth_dir):
    out, records = synth_dir
    r = records[0]
    assert model.visual_units(r) is not model.visual_units(r)
    model.params.freeze(JOINT_FREEZE)
    first = model.visual_units(r)
    assert model.visual_units(r) is first
    assert all(not u.requires_grad and u._parents == () for u in first)


def test_predict_is_deterministic(model, synth_dir):
    out, records = synth_dir
    r = records[0]
    a = model.predict(r)
    assert isinstance(a, str)
    assert model.predict(r) == a


def test_predict_rejects_a_record_longer_than_max_seq(synth_dir):
    out, records = synth_dir
    model = MultiTemporalModel.build(dataclasses.replace(CFG, max_seq=40), records, out)
    single, video = by_kind(records)["single"][0], by_kind(records)["video"][0]
    assert isinstance(model.predict(single), str)
    assert model.packed_example(video, [])[0].n > 40
    # predicting fails as training on the same record does
    with pytest.raises(SequenceLengthError, match="max_seq=40"):
        model.predict(video)
    with pytest.raises(SequenceLengthError, match="max_seq=40"):
        training._batch_loss(model, [video])


# Checkpoints store parameters by name, in insertion order, so these names
# are a file format: a renamed or reordered parameter breaks every
# checkpoint written before.
DEFAULT_VISUAL_PARAMS = [
    ("encoder.proj.weight", (16, 192)), ("encoder.proj.bias", (16,)),
    ("change.enhance.w_embed", (32,)),
    ("change.fusion.conv_half.weight", (16, 32, 1, 1)),
    ("change.fusion.conv_half.bias", (16,)),
    ("change.fusion.conv1.weight", (16, 16, 1, 1)), ("change.fusion.conv1.bias", (16,)),
    ("change.fusion.conv2.weight", (16, 16, 3, 3)), ("change.fusion.conv2.bias", (16,)),
    ("change.fusion.conv3.weight", (16, 16, 1, 1)), ("change.fusion.conv3.bias", (16,)),
    ("projector.fc1.weight", (64, 64)), ("projector.fc1.bias", (64,)),
    ("projector.fc2.weight", (64, 64)), ("projector.fc2.bias", (64,)),
]
DEFAULT_LM_BLOCK_PARAMS = [
    ("ln1.gain", (64,)), ("ln1.bias", (64,)),
    *((f"attn.{w}.{p}", shape) for w in ("wq", "wk", "wv", "wo")
      for p, shape in (("weight", (64, 64)), ("bias", (64,)))),
    ("ln2.gain", (64,)), ("ln2.bias", (64,)),
    ("mlp.fc1.weight", (256, 64)), ("mlp.fc1.bias", (256,)),
    ("mlp.fc2.weight", (64, 256)), ("mlp.fc2.bias", (64,)),
]


def test_default_model_parameter_names_are_the_checkpoint_layout(synth_dir):
    out, records = synth_dir
    model = MultiTemporalModel.build(PipelineConfig(), records, out)
    v = len(model.vocab)
    lm = [("lm.embed.weight", (v, 64)), ("lm.pos.weight", (512, 64))]
    lm += [(f"lm.block{i}.{name}", shape) for i in range(2)
           for name, shape in DEFAULT_LM_BLOCK_PARAMS]
    lm += [("lm.ln_f.gain", (64,)), ("lm.ln_f.bias", (64,)),
           ("lm.head.weight", (v, 64)), ("lm.head.bias", (v,))]
    got = [(name, p.data.shape) for name, p in model.params.items()]
    assert got[:15] == DEFAULT_VISUAL_PARAMS
    assert got[15:] == lm and len(lm) == 38


def test_checkpoint_roundtrip_preserves_predictions(synth_dir, tmp_path):
    out, records = synth_dir
    source = MultiTemporalModel.build(CFG, records, out)
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, source.params.state())

    target = MultiTemporalModel.build(
        dataclasses.replace(CFG, seed=9), records, out)
    # loaded before the first visual_units call, as the unit cache requires
    target.params.load_state(read_checkpoint(path))
    for r in records:
        assert target.predict(r) == source.predict(r)


def test_predict_runs_the_whole_request_off_the_tape(synth_dir, tmp_path, monkeypatch):
    out, records = synth_dir
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, MultiTemporalModel.build(CFG, records, out).params.state())
    model = MultiTemporalModel.build(CFG, records, out)
    model.params.load_state(read_checkpoint(path))
    assert not model._visual_frozen()      # a fresh model's units are not cached

    generate, prefixes = model.lm.generate, []

    def spy(prefix, *args):
        prefixes.append(prefix)
        return generate(prefix, *args)

    monkeypatch.setattr(model.lm, "generate", spy)
    for r in records:
        # the same request with the tape recording up to generate
        packed = model.packed_example(r, [])[0]
        assert packed.embeddings._parents
        taped = model.vocab.decode(generate(packed.embeddings, CFG.gen_max_new,
                                            model.vocab.eos_id))
        prefixes.clear()
        assert model.predict(r) == taped
        [prefix] = prefixes
        assert not prefix.requires_grad and prefix._parents == ()
