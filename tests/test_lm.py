"""Tokenizer round trips, causal exactness, greedy decoding, clue stub."""

import numpy as np
import pytest

from gradcheck import gradcheck, tape_nodes
from mtvlm.autograd import ParameterSet, Tensor
from mtvlm.errors import ConfigurationError, ContractError, SequenceLengthError
from mtvlm.lm import (
    BOS, CLUE_TABLES, EOS, PAD, LMConfig, TinyCausalLM, Vocab, clue_for_hash,
    stub_clue,
)
from mtvlm.packing import MARKER_CHANGE, MARKER_IMAGE, Marker
from mtvlm.vision import VisualInput


# -- tokenizer ------------------------------------------------------------------

def test_split_keeps_markers_atomic():
    got = Vocab.split("⟨Frame 12⟩\nRemote change captioning: hello, world.")
    assert got == ["⟨Frame 12⟩", "Remote", "change", "captioning", ":",
                   "hello", ",", "world", "."]


def test_split_punctuation_and_whitespace():
    assert Vocab.split("a  b\t\nc") == ["a", "b", "c"]
    assert Vocab.split("yes/no?") == ["yes", "/", "no", "?"]
    assert Vocab.split("") == []


def test_vocab_roundtrip_and_specials():
    v = Vocab.from_texts(["the cat sat.", "the dog ran!"], max_frames=2)
    assert v.tokens[:5] == [PAD, BOS, EOS, MARKER_IMAGE, MARKER_CHANGE]
    assert v.tokens[5:7] == ["⟨Frame 1⟩", "⟨Frame 2⟩"]
    # word block is sorted and deduplicated
    assert v.tokens[7:] == sorted(v.tokens[7:])
    text = "the cat ran !"
    assert v.decode(v.encode(text)) == text
    assert v.decode([v.bos_id, v.index["cat"], v.eos_id]) == "cat"
    assert v.decode([v.bos_id, v.index["cat"]], skip_special=False) == "<bos> cat"


def test_vocab_validation():
    with pytest.raises(ContractError, match="duplicate"):
        Vocab([PAD, BOS, EOS, "a", "a"])
    with pytest.raises(ContractError, match="<eos>"):
        Vocab([PAD, BOS, "a"])
    v = Vocab.from_texts(["hello"])
    with pytest.raises(ContractError, match="not in the vocabulary"):
        v.encode("goodbye")


def test_vocab_save_load(tmp_path):
    v = Vocab.from_texts(["a b ⟨image⟩ c"])
    v.save(tmp_path / "vocab.json")
    again = Vocab.load(tmp_path / "vocab.json")
    assert again.tokens == v.tokens
    assert again.pad_id == v.pad_id


def test_tokenize_prompt_slots():
    v = Vocab.from_texts(["⟨image⟩ describe the scene"])
    tp = v.tokenize_prompt("⟨image⟩\ndescribe the scene")
    assert tp.tokens[0] == v.bos_id
    assert tp.marker_slots == [(1, Marker("image"))]
    assert tp.text_len == len(tp.tokens) - 1

    tp = v.tokenize_prompt("⟨image⟩ describe", add_bos=False)
    assert tp.marker_slots == [(0, Marker("image"))]

    v2 = Vocab.from_texts(["x"], max_frames=3)
    tp = v2.tokenize_prompt("⟨Frame 1⟩⟨Frame 2⟩⟨Frame 3⟩ x")
    assert [m for _, m in tp.marker_slots] == [
        Marker("frame", 1), Marker("frame", 2), Marker("frame", 3)]
    assert tp.text_len == 2       # bos and "x"


# -- model construction -----------------------------------------------------------

def tiny_model(dim=8, layers=2, heads=2, max_seq=16, vocab=11, seed=0):
    cfg = LMConfig(dim=dim, layers=layers, heads=heads, max_seq=max_seq)
    params = ParameterSet()
    model = TinyCausalLM(cfg, vocab, params, np.random.default_rng(seed))
    return model, params


def test_lm_config_validation():
    with pytest.raises(ConfigurationError, match="divisible"):
        LMConfig(dim=10, heads=4)
    with pytest.raises(ConfigurationError):
        LMConfig(dim=8, heads=2, layers=0)


def test_forward_shape_checks():
    model, _ = tiny_model()
    with pytest.raises(ConfigurationError):
        model.forward(Tensor(np.zeros((3, 9))))
    with pytest.raises(ConfigurationError):
        model.forward(Tensor(np.zeros(8)))
    with pytest.raises(SequenceLengthError):
        model.forward(Tensor(np.zeros((17, 8))))
    out = model.forward(Tensor(np.zeros((3, 8))))
    assert out.shape == (3, 11)


def test_forward_is_exactly_causal():
    model, _ = tiny_model(seed=3)
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(6, 8))
    base = model.forward(Tensor(rows)).data.copy()

    bumped = rows.copy()
    bumped[4] += 10.0
    out = model.forward(Tensor(bumped)).data
    # rows before the edit are bit-identical, not merely close
    assert out[:4].tobytes() == base[:4].tobytes()
    assert not np.array_equal(out[4:], base[4:])


def test_forward_prefix_stability():
    model, _ = tiny_model(seed=3)
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(5, 8))
    full = model.forward(Tensor(rows)).data
    head = model.forward(Tensor(rows[:3].copy())).data
    assert head.tobytes() == full[:3].tobytes()


def numpy_forward(model, rows):
    """Plain-numpy forward with one explicit loop over heads."""

    def ln(x, gain, bias):
        mu = x.mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5) * gain.data + bias.data

    def lin(x, w, bias):
        return x @ w.data.T + bias.data

    n = rows.shape[0]
    heads = model.cfg.heads
    dh = model.cfg.dim // heads
    mask = np.triu(np.full((n, n), -np.inf), k=1)
    x = rows + model.pos.data[:n]
    for b in model.blocks:
        a = ln(x, b["ln1_g"], b["ln1_b"])
        q, k, v = (lin(a, b["w" + c], b["b" + c]) for c in "qkv")
        outs = []
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            s = q[:, cols] @ k[:, cols].T / np.sqrt(dh) + mask
            p = np.exp(s - s.max(axis=-1, keepdims=True))
            outs.append(p / p.sum(axis=-1, keepdims=True) @ v[:, cols])
        x = x + lin(np.concatenate(outs, axis=1), b["wo"], b["bo"])
        m = np.maximum(lin(ln(x, b["ln2_g"], b["ln2_b"]), b["fc1_w"], b["fc1_b"]), 0.0)
        x = x + lin(m, b["fc2_w"], b["fc2_b"])
    return lin(ln(x, model.lnf_g, model.lnf_b), model.head_w, model.head_b)


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_forward_matches_per_head_numpy_reference(heads):
    model, params = tiny_model(heads=heads, seed=7)
    rng = np.random.default_rng(8)
    for p in params.values():                # weights large enough to matter
        p.data = p.data + rng.normal(0.0, 0.3, p.data.shape)
    rows = rng.normal(size=(6, 8))
    got = model.forward(Tensor(rows)).data
    np.testing.assert_allclose(got, numpy_forward(model, rows), rtol=0, atol=1e-12)


def test_forward_tape_size_is_independent_of_heads():
    rows = Tensor(np.random.default_rng(9).normal(size=(5, 8)))
    sizes = {heads: tape_nodes(tiny_model(heads=heads)[0].forward(rows))
             for heads in (1, 2, 4, 8)}
    assert len(set(sizes.values())) == 1, sizes


# -- greedy decoding --------------------------------------------------------------

def rigged_model(favored: int):
    model, params = tiny_model(vocab=7)
    params["lm.head.weight"].data = np.zeros((7, 8))
    bias = np.zeros(7)
    bias[favored] = 1.0
    params["lm.head.bias"].data = bias
    return model


def test_generate_caps_at_max_new():
    model = rigged_model(favored=5)
    prefix = Tensor(np.random.default_rng(0).normal(size=(2, 8)))
    assert model.generate(prefix, max_new=4, eos_id=2) == [5, 5, 5, 5]


def test_generate_stops_at_eos():
    model = rigged_model(favored=2)
    prefix = Tensor(np.random.default_rng(0).normal(size=(2, 8)))
    assert model.generate(prefix, max_new=4, eos_id=2) == []


def test_generate_ties_break_low():
    model = rigged_model(favored=5)
    model.head_b.data = np.zeros(7)        # all logits equal
    prefix = Tensor(np.zeros((1, 8)))
    assert model.generate(prefix, max_new=3, eos_id=2) == [0, 0, 0]


def test_generate_respects_max_seq():
    model = rigged_model(favored=5)
    full = Tensor(np.zeros((16, 8)))
    assert model.generate(full, max_new=3, eos_id=2) == []
    near = Tensor(np.zeros((14, 8)))
    assert model.generate(near, max_new=5, eos_id=2) == [5, 5]


def test_generate_validation():
    model, _ = tiny_model()
    with pytest.raises(ContractError):
        model.generate(Tensor(np.zeros((1, 8))), max_new=0, eos_id=2)


# -- gradients through the stack ----------------------------------------------------

def test_lm_gradcheck():
    model, params = tiny_model(dim=4, layers=1, heads=2, max_seq=4, vocab=5,
                               seed=1)
    rng = np.random.default_rng(2)
    rows = Tensor(rng.normal(size=(3, 4)))
    w = rng.normal(size=(3, 5))

    def loss():
        return (model.forward(rows) * Tensor(w)).sum()

    leaves = [rows, params["lm.block0.attn.wq.weight"].tensor,
              params["lm.pos.weight"].tensor,
              params["lm.block0.mlp.fc1.weight"].tensor,
              params["lm.ln_f.gain"].tensor,
              params["lm.head.bias"].tensor]
    gradcheck(loss, leaves)


# -- clue stub ----------------------------------------------------------------------

def test_clue_tables_indexing():
    assert clue_for_hash("pair", 0) == CLUE_TABLES["pair"][0]
    assert clue_for_hash("pair", 6) == CLUE_TABLES["pair"][2]
    with pytest.raises(ContractError):
        clue_for_hash("stereo", 0)


def test_stub_clue_is_deterministic():
    vi = VisualInput("video", np.linspace(0, 1, 2 * 3 * 4 * 4).reshape(2, 3, 4, 4))
    first = stub_clue(vi, "prompt a")
    assert first in CLUE_TABLES["video"]
    assert stub_clue(vi, "prompt b") == first
    other = VisualInput("video", np.zeros((2, 3, 4, 4)))
    assert stub_clue(other) in CLUE_TABLES["video"]
