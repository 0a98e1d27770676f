"""Tokenizer round trips, causal exactness, greedy decoding, clue stub."""

import numpy as np
import pytest

from gradcheck import gradcheck, tape_nodes
from mtvlm import lm
from mtvlm.autograd import ParameterSet, Tensor
from mtvlm.data import mix, synth_generate
from mtvlm.errors import ConfigurationError, ContractError, SequenceLengthError
from mtvlm.lm import (
    BOS, CLUE_TABLES, EOS, PAD, LMConfig, TinyCausalLM, Vocab, clue_for_hash,
    stub_clue,
)
from mtvlm.packing import MARKER_CHANGE, MARKER_IMAGE, Marker
from mtvlm.pipeline import MultiTemporalModel, PipelineConfig
from mtvlm.training import JOINT_FREEZE, TrainConfig, train_joint
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


@pytest.mark.parametrize("content", [
    "5", "null", '"<pad>"', '{"tokens": ["<pad>", "<bos>", "<eos>"]}',
    '["<pad>", "<bos>", "<eos>", 7]', '["<pad>", "<bos>", "<eos>", null]',
    '["<pad>", "<bos>"', ""])
def test_vocab_load_rejects_other_json(tmp_path, content):
    path = tmp_path / "vocab.json"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ContractError, match="vocab.json"):
        Vocab.load(path)


def test_tokenize_prompt_slots():
    v = Vocab.from_texts(["⟨image⟩ describe the scene"])
    tp = v.tokenize_prompt("⟨image⟩\ndescribe the scene")
    assert tp.tokens[0] == v.bos_id
    assert tp.marker_slots == [(1, Marker("image"))]
    assert tp.text_len == len(tp.tokens) - 1

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


# -- segments laid end to end ----------------------------------------------------

def test_segmented_forward_gradcheck():
    # a length-1 segment gets pad slots in every position but its first
    model, params = tiny_model(dim=4, layers=1, heads=2, max_seq=4, vocab=5, seed=1)
    rng = np.random.default_rng(3)
    rows = Tensor(rng.normal(size=(6, 4)))
    w = rng.normal(size=(6, 5))

    def loss():
        return (model.forward(rows, lengths=[2, 1, 3]) * Tensor(w)).sum()

    leaves = [rows, params["lm.block0.attn.wq.weight"],
              params["lm.block0.attn.wv.bias"],
              params["lm.pos.weight"],
              params["lm.block0.mlp.fc1.weight"],
              params["lm.ln_f.gain"],
              params["lm.head.bias"]]
    gradcheck(loss, leaves)


@pytest.mark.parametrize("lengths", [[1, 5, 3, 7], [4, 4], [16, 1]])
def test_segmented_logits_match_per_sample_forward(lengths):
    model, params = tiny_model(seed=5)
    rng = np.random.default_rng(11)
    for p in params.values():                # weights large enough to matter
        p.data = p.data + rng.normal(0.0, 0.3, p.data.shape)
    rows = rng.normal(size=(sum(lengths), 8))
    w = rng.normal(size=(sum(lengths), 11))
    x = Tensor(rows, requires_grad=True)
    got = model.forward(x, lengths=lengths)
    (got * Tensor(w)).sum().backward()
    batched = {n: p.grad.copy() for n, p in params.items() if p.grad is not None}
    params.zero_grads()

    start = 0
    for n in lengths:
        seg = Tensor(rows[start:start + n], requires_grad=True)
        want = model.forward(seg)
        np.testing.assert_allclose(got.data[start:start + n], want.data, rtol=0, atol=1e-12)
        (want * Tensor(w[start:start + n])).sum().backward()
        np.testing.assert_allclose(x.grad[start:start + n], seg.grad, rtol=0, atol=1e-12)
        start += n
    assert sorted(batched) == sorted(n for n, p in params.items() if p.grad is not None)
    for name, grad in batched.items():
        np.testing.assert_allclose(grad, params[name].grad, rtol=0, atol=1e-12,
                                   err_msg=name)


def test_segmented_tape_size_is_independent_of_segment_count():
    model, _ = tiny_model()
    rng = np.random.default_rng(13)
    sizes = {}
    for lengths in ([3, 2], [3, 2, 4], [1, 3, 2, 4, 5]):
        rows = Tensor(rng.normal(size=(sum(lengths), 8)), requires_grad=True)
        sizes[len(lengths)] = tape_nodes(model.forward(rows, lengths=lengths))
    assert len(set(sizes.values())) == 1, sizes


def test_segmented_forward_rejections():
    model, _ = tiny_model()
    rows = Tensor(np.zeros((5, 8)))
    with pytest.raises(ContractError, match="not both"):
        model.forward(rows, cache=[], lengths=[5])
    for bad in ([2, 2], [2, 4], [0, 5], [-1, 6], [], [[2, 3]], [2.7, 3.2]):
        with pytest.raises(ContractError, match="sum to 5"):
            model.forward(rows, lengths=bad)
    # max_seq bounds the longest segment, not the rows laid end to end
    assert model.forward(Tensor(np.zeros((30, 8))), lengths=[16, 14]).shape == (30, 11)
    with pytest.raises(SequenceLengthError, match="17 rows"):
        model.forward(Tensor(np.zeros((20, 8))), lengths=[3, 17])


@pytest.mark.parametrize("lengths", [None, [5, 3, 8]])
def test_forward_rows_are_those_rows_of_the_full_logits(lengths):
    model, params = tiny_model(seed=6)
    rng = np.random.default_rng(17)
    for p in params.values():
        p.data = p.data + rng.normal(0.0, 0.3, p.data.shape)
    rows = rng.normal(size=(16, 8))
    pick = [15, 2, 2, 7, 0, 5]                  # any order, repeats allowed
    w = rng.normal(size=(len(pick), 11))
    x_full = Tensor(rows, requires_grad=True)
    full = model.forward(x_full, lengths=lengths)
    w_full = np.zeros((16, 11))
    np.add.at(w_full, pick, w)
    (full * Tensor(w_full)).sum().backward()
    want = {n: p.grad.copy() for n, p in params.items() if p.grad is not None}
    params.zero_grads()

    x = Tensor(rows, requires_grad=True)
    got = model.forward(x, lengths=lengths, rows=pick)
    assert got.shape == (len(pick), 11)
    np.testing.assert_allclose(got.data, full.data[pick], rtol=0, atol=1e-12)
    (got * Tensor(w)).sum().backward()
    np.testing.assert_allclose(x.grad, x_full.grad, rtol=0, atol=1e-12)
    assert sorted(want) == sorted(n for n, p in params.items() if p.grad is not None)
    for name, grad in want.items():
        np.testing.assert_allclose(params[name].grad, grad, rtol=0, atol=1e-12, err_msg=name)


def test_forward_rows_gradcheck():
    model, params = tiny_model(dim=4, layers=1, heads=2, max_seq=4, vocab=5, seed=1)
    rng = np.random.default_rng(3)
    rows = Tensor(rng.normal(size=(6, 4)))
    w = rng.normal(size=(3, 5))

    def loss():
        return (model.forward(rows, lengths=[2, 1, 3], rows=[5, 0, 1]) * Tensor(w)).sum()

    gradcheck(loss, [rows, params["lm.block0.attn.wq.weight"], params["lm.ln_f.gain"],
                     params["lm.head.weight"], params["lm.head.bias"]])


@pytest.mark.parametrize("lengths,rows,out", [([5, 3, 8], [15, 2, 2, 7], 4),
                                               ([5, 3, 8], None, 16),
                                               (None, [15, 0, 4], 3),
                                               (None, None, 16)])
def test_only_the_last_block_past_its_keys_runs_on_the_selected_rows(
        monkeypatch, lengths, rows, out):
    """Every earlier block feeds the next block's keys, so it runs on every
    slot (3 segments of 8 with ``lengths``); so do the last block's key and
    value projections. Its queries, output projection and MLP, and the
    head, see only the rows whose logits come out."""
    model, params = tiny_model(layers=3, seed=8)
    name = {id(p): n for n, p in params.items()}
    seen = []
    real_linear = lm.linear

    def spy(x, weight, bias=None):
        seen.append((name[id(weight)], x.shape[0]))
        return real_linear(x, weight, bias)

    monkeypatch.setattr(lm, "linear", spy)
    x = Tensor(np.random.default_rng(4).normal(size=(16, 8)))
    assert model.forward(x, lengths=lengths, rows=rows).shape == (out, 11)
    slots = 24 if lengths else 16
    want = []
    for i in range(3):
        cut = out if i == 2 else slots
        want += [(f"lm.block{i}.attn.wq.weight", cut), (f"lm.block{i}.attn.wk.weight", slots),
                 (f"lm.block{i}.attn.wv.weight", slots), (f"lm.block{i}.attn.wo.weight", cut),
                 (f"lm.block{i}.mlp.fc1.weight", cut), (f"lm.block{i}.mlp.fc2.weight", cut)]
    assert seen == want + [("lm.head.weight", out)]


def test_forward_rejects_rows_outside_the_input():
    model, _ = tiny_model()
    x = Tensor(np.zeros((5, 8)))
    for lengths in (None, [2, 3]):
        for bad in ([5], [-1], [0, 9], [[0, 1]]):
            with pytest.raises(ContractError, match="logit rows"):
                model.forward(x, lengths=lengths, rows=bad)
    assert model.forward(x, rows=[]).shape == (0, 11)


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


def test_generate_rejects_a_prefix_longer_than_max_seq():
    model, _ = tiny_model(max_seq=16)
    with pytest.raises(SequenceLengthError, match="17 rows exceeds max_seq=16"):
        model.generate(Tensor(np.zeros((17, 8))), max_new=3, eos_id=2)


def test_generate_validation():
    model, _ = tiny_model()
    with pytest.raises(ContractError):
        model.generate(Tensor(np.zeros((1, 8))), max_new=0, eos_id=2)


def rerun_prefix_generate(model, prefix, max_new, eos_id):
    """Greedy decoding that re-runs the whole prefix for every token: the
    reference the cached decoder must agree with token for token."""
    rows = prefix.data.copy()
    out = []
    for _ in range(max_new):
        if rows.shape[0] >= model.cfg.max_seq:
            break
        nxt = int(np.argmax(model.forward(Tensor(rows)).data[-1]))
        if nxt == eos_id:
            break
        out.append(nxt)
        rows = np.concatenate([rows, model.embed.data[nxt:nxt + 1]])
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A pipeline tuned for 80 steps on criterion 08's corpus shape, and
    its 32 records: answers of one and of three tokens, not all right."""
    data = tmp_path_factory.mktemp("decode")
    records = (synth_generate("single", 12, 11, data)
               + synth_generate("pair", 10, 12, data)
               + synth_generate("video", 10, 13, data))
    model = MultiTemporalModel.build(PipelineConfig(seed=0), records, data)
    train_joint(model, mix([records], 0),
                TrainConfig(total_steps=80, batch_size=8, max_lr=3e-3, seed=0,
                            freeze=JOINT_FREEZE))
    return model, records


@pytest.mark.parametrize("stop", ["eos", "never"])
def test_cached_decoding_matches_rerun_prefix_reference(trained, stop):
    """Decoding that stops at <eos> (answers of one to three tokens), and
    decoding that never stops (24 tokens each), where later steps depend on
    every position and key cached so far."""
    model, records = trained
    eos_id = model.vocab.eos_id if stop == "eos" else -1
    lengths = []
    for r in records:
        prefix = model.packed_example(r, [])[0].embeddings
        got = model.lm.generate(prefix, model.cfg.gen_max_new, eos_id)
        assert got == rerun_prefix_generate(model.lm, prefix, model.cfg.gen_max_new,
                                            eos_id), r.id
        lengths.append(len(got))
    if stop == "eos":
        assert min(lengths) >= 1 and max(lengths) >= 3
    else:
        assert set(lengths) == {model.cfg.gen_max_new}


@pytest.mark.parametrize("chunks", [(5, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
                                    (1, 3, 1, 6, 5)])
def test_cached_logits_match_full_forward(chunks):
    """The first chunk runs once for every row's logits and once, as
    ``generate``'s prefix call does, for its last row's alone. Either way
    the cache gets every row's keys and values, and later chunks fed
    against it match the full forward."""
    model, params = tiny_model(seed=4)
    rng = np.random.default_rng(10)
    for p in params.values():                # weights large enough to matter
        p.data = p.data + rng.normal(0.0, 0.3, p.data.shape)
    rows = rng.normal(size=(sum(chunks), 8))
    want = model.forward(Tensor(rows[:chunks[0]])).data
    for last_only in (False, True):
        cache = []
        if last_only:
            first = model.forward(Tensor(rows[:chunks[0]]), cache, rows=[chunks[0] - 1])
            np.testing.assert_allclose(first.data, want[-1:], rtol=0, atol=1e-12)
        else:
            first = model.forward(Tensor(rows[:chunks[0]]), cache)
            assert first.data.tobytes() == want.tobytes()
        end = chunks[0]
        for n in chunks[1:]:
            got = model.forward(Tensor(rows[end:end + n]), cache).data
            end += n
            full = model.forward(Tensor(rows[:end])).data
            np.testing.assert_allclose(got, full[-n:], rtol=0, atol=1e-12)
        assert all(k.shape == v.shape == (end, 8) for k, v in cache)


def test_cached_forward_respects_max_seq():
    model, _ = tiny_model()
    cache = []
    model.forward(Tensor(np.zeros((14, 8))), cache)
    with pytest.raises(SequenceLengthError, match="17 rows"):
        model.forward(Tensor(np.zeros((3, 8))), cache)
    assert all(k.shape[0] == 14 for k, _ in cache)
    assert model.forward(Tensor(np.zeros((2, 8))), cache).shape == (2, 11)
    with pytest.raises(SequenceLengthError):
        model.forward(Tensor(np.zeros((1, 8))), cache)


def test_decoding_keeps_one_mask_row_per_step():
    model, _ = tiny_model(max_seq=64)
    out = model.generate(Tensor(np.zeros((40, 8))), max_new=20, eos_id=99)
    assert len(out) == 20
    rows = sum(m.shape[0] * m.shape[1] for m in model._masks.values())
    assert rows == 40 * 40 + sum(range(41, 60))      # not a 41..59-square each


def test_generate_logits_carry_no_tape(monkeypatch):
    model, _ = tiny_model(seed=2)
    seen, fed = [], []
    forward = TinyCausalLM.forward

    def spy(self, embeddings, *args, **kwargs):
        fed.append(embeddings.shape[0])
        seen.append(forward(self, embeddings, *args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(TinyCausalLM, "forward", spy)
    prefix = Tensor(np.random.default_rng(1).normal(size=(3, 8)), requires_grad=True)
    out = model.generate(prefix, max_new=4, eos_id=99)
    assert not any(t.requires_grad or t._parents for t in seen)
    assert len(out) == 4
    assert fed == [3, 1, 1, 1]                          # prefix once, then one row
    assert [t.shape for t in seen] == [(1, 11)] * 4     # the last row's logits only


# -- gradients through the stack ----------------------------------------------------

def test_lm_gradcheck():
    model, params = tiny_model(dim=4, layers=1, heads=2, max_seq=4, vocab=5,
                               seed=1)
    rng = np.random.default_rng(2)
    rows = Tensor(rng.normal(size=(3, 4)))
    w = rng.normal(size=(3, 5))

    def loss():
        return (model.forward(rows) * Tensor(w)).sum()

    leaves = [rows, params["lm.block0.attn.wq.weight"],
              params["lm.pos.weight"],
              params["lm.block0.mlp.fc1.weight"],
              params["lm.ln_f.gain"],
              params["lm.head.bias"]]
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
