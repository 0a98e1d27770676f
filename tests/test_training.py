"""Schedule exactness, the loss, AdamW against a hand oracle, both stages."""

import math
import weakref

import numpy as np
import pytest

from gradcheck import gradcheck
from mtvlm import change, training, vision
from mtvlm.autograd import Tensor
from mtvlm.data import synth_generate
from mtvlm.errors import ConfigurationError, ContractError, DivergenceError
from mtvlm.lm import TinyCausalLM
from mtvlm.pipeline import MultiTemporalModel, PipelineConfig
from mtvlm.training import (
    JOINT_FREEZE, AdamW, TrainConfig, clip_gradients,
    cross_entropy_next_token, lr_at, pretrain_change_module, train_joint,
)

CFG = TrainConfig(max_lr=1.0, min_lr=0.1, warmup_ratio=0.1, total_steps=1000)


# -- schedule -------------------------------------------------------------------

def test_schedule_endpoints_and_midpoint():
    w = CFG.warmup_steps
    assert w == 100
    assert lr_at(0, CFG) == 0.0
    assert abs(lr_at(w, CFG) - CFG.max_lr) <= 1e-15
    assert abs(lr_at(CFG.total_steps, CFG) - CFG.min_lr) <= 1e-15
    mid = w + (CFG.total_steps - w) // 2
    assert abs(lr_at(mid, CFG) - (CFG.max_lr + CFG.min_lr) / 2) <= 1e-15


def test_schedule_warmup_is_linear():
    for k in range(CFG.warmup_steps):
        assert lr_at(k, CFG) == CFG.max_lr * k / CFG.warmup_steps


def test_schedule_monotone_after_warmup():
    values = [lr_at(s, CFG) for s in range(CFG.warmup_steps, CFG.total_steps + 1)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert all(CFG.min_lr <= v <= CFG.max_lr for v in values)


def test_schedule_without_warmup():
    cfg = TrainConfig(max_lr=2.0, warmup_ratio=0.0, total_steps=10)
    assert lr_at(0, cfg) == 2.0
    assert abs(lr_at(10, cfg)) <= 1e-15


def test_schedule_with_zero_steps():
    cfg = TrainConfig(max_lr=0.5, min_lr=0.1, total_steps=0)
    assert lr_at(0, cfg) == 0.5
    with pytest.raises(ContractError):
        lr_at(1, cfg)


def test_schedule_range_check():
    with pytest.raises(ContractError):
        lr_at(-1, CFG)
    with pytest.raises(ContractError):
        lr_at(CFG.total_steps + 1, CFG)


def test_train_config_validation():
    with pytest.raises(ConfigurationError, match="warmup_ratio"):
        TrainConfig(warmup_ratio=1.0)
    with pytest.raises(ConfigurationError, match="min_lr"):
        TrainConfig(max_lr=1e-5, min_lr=1e-4)
    with pytest.raises(ConfigurationError, match="total_steps"):
        TrainConfig(total_steps=-1)
    with pytest.raises(ConfigurationError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigurationError, match="spans the whole run"):
        TrainConfig(total_steps=10, warmup_ratio=0.95)


@pytest.mark.parametrize("bad, match", [
    (dict(grad_clip=-1.0), "grad_clip"), (dict(grad_clip=0.0), "grad_clip"),
    (dict(grad_clip=math.nan), "grad_clip"), (dict(grad_clip=math.inf), "grad_clip"),
    (dict(beta1=1.5), "beta1"), (dict(beta1=1.0), "beta1"), (dict(beta1=-0.1), "beta1"),
    (dict(beta2=1.0), "beta2"), (dict(beta2=math.nan), "beta2"),
    (dict(eps=-1.0), "eps"), (dict(eps=0.0), "eps"), (dict(eps=math.inf), "eps"),
    (dict(weight_decay=-3.0), "weight_decay"),
    (dict(weight_decay=math.nan), "weight_decay"),
    (dict(weight_decay=math.inf), "weight_decay"),
])
def test_train_config_rejects_optimizer_values_that_break_training(bad, match):
    with pytest.raises(ConfigurationError, match=match):
        TrainConfig(**bad)


def test_train_config_accepts_optimizer_edge_values():
    TrainConfig(grad_clip=1e-6, beta1=0.0, beta2=0.0, eps=1e-30, weight_decay=0.0)
    TrainConfig(max_lr=math.nan)        # the CLI's divergence test relies on it


# -- loss ------------------------------------------------------------------------

def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((4, 7)))
    mask = np.array([False, True, True, True])
    loss = cross_entropy_next_token(logits, [0, 1, 2, 3], mask)
    assert loss.item() == pytest.approx(math.log(7), rel=1e-14)


def test_cross_entropy_matches_numpy_oracle():
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(3, 4))
    targets = [0, 2, 1]
    mask = np.array([False, True, True])
    loss = cross_entropy_next_token(Tensor(raw), targets, mask)

    lsm = raw - raw.max(axis=1, keepdims=True)
    lsm = lsm - np.log(np.exp(lsm).sum(axis=1, keepdims=True))
    expected = -(lsm[0, 2] + lsm[1, 1]) / 2
    assert loss.item() == pytest.approx(expected, rel=1e-13)


def test_cross_entropy_contract_errors():
    logits = Tensor(np.zeros((3, 4)))
    with pytest.raises(ContractError, match="position 0"):
        cross_entropy_next_token(logits, [0, 0, 0], np.array([True, False, False]))
    with pytest.raises(ContractError, match="no positions"):
        cross_entropy_next_token(logits, [0, 0, 0], np.zeros(3, dtype=bool))
    with pytest.raises(ContractError, match="disagree"):
        cross_entropy_next_token(logits, [0, 0], np.array([False, True, True]))


def test_cross_entropy_rejects_an_empty_batch_or_segment():
    with pytest.raises(ContractError, match="no positions"):
        cross_entropy_next_token(Tensor(np.zeros((0, 4))), [], np.zeros(0, dtype=bool))
    with pytest.raises(ContractError, match=r"no positions in segments \[1\]"):
        cross_entropy_next_token(Tensor(np.zeros((3, 4))), [0, 0, 0],
                                 np.array([False, True, True]), [3, 0])


def test_cross_entropy_gradcheck():
    rng = np.random.default_rng(4)
    logits = Tensor(rng.normal(size=(3, 4)))
    mask = np.array([False, True, True])
    gradcheck(lambda: cross_entropy_next_token(logits, [3, 1, 2], mask), [logits])


# -- optimizer --------------------------------------------------------------------

def param(name: str, value, grad=None) -> Tensor:
    p = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
    if grad is not None:
        p.grad = np.asarray(grad, dtype=np.float64)
    return p


def test_adamw_zero_lr_is_identity():
    p = param("w", [1.0, -2.0, 3.0], grad=[0.5, 0.5, 0.5])
    before = p.data.tobytes()
    AdamW([p], TrainConfig(weight_decay=0.5)).step(lr=0.0)
    assert p.data.tobytes() == before


def test_adamw_single_step_oracle():
    cfg = TrainConfig(weight_decay=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    p0 = np.array([1.0, -2.0, 0.5])
    g = np.array([0.3, -0.1, 0.0])
    p = param("w", p0, grad=g)
    AdamW([p], cfg).step(lr=0.01)
    # bias-corrected first step reduces to g / (|g| + eps)
    update = g / (np.abs(g) + cfg.eps)
    expected = p0 - 0.01 * update - 0.01 * cfg.weight_decay * p0
    np.testing.assert_allclose(p.data, expected, rtol=1e-14)


def test_adamw_two_step_oracle():
    cfg = TrainConfig(weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8)
    p0 = np.array([0.7, -1.3])
    g1 = np.array([0.2, -0.4])
    g2 = np.array([-0.1, 0.6])
    p = param("w", p0, grad=g1)
    opt = AdamW([p], cfg)
    opt.step(lr=0.05)
    p.grad = g2
    opt.step(lr=0.02)

    m = v = np.zeros(2)
    x = p0.copy()
    for lr, g in ((0.05, g1), (0.02, g2)):
        t = 1 if g is g1 else 2
        m = cfg.beta1 * m + (1 - cfg.beta1) * g
        v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
        mhat = m / (1 - cfg.beta1 ** t)
        vhat = v / (1 - cfg.beta2 ** t)
        x = x - lr * mhat / (np.sqrt(vhat) + cfg.eps)
    np.testing.assert_allclose(p.data, x, rtol=1e-14)


def test_adamw_matches_the_plain_expressions_byte_for_byte():
    # parameters of several shapes share one scratch pair; the reference is
    # the update written out in the same arithmetic order
    cfg = TrainConfig(weight_decay=0.05, beta1=0.8, beta2=0.99, eps=1e-6)
    r = np.random.default_rng(7)
    shapes = [(3, 4), (7,), (1,), (2, 3, 2), (5, 1)]
    params = [Tensor(r.normal(size=s), requires_grad=True) for s in shapes]
    gradless = params[3]
    opt = AdamW(params, cfg)
    ref = [[p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)] for p in params]
    for t, lr in enumerate((0.1, 0.03, 0.007), start=1):
        for p in params:
            p.grad = None if p is gradless else r.normal(size=p.shape) * 10.0 ** r.uniform(-3, 1)
        held = [p.data for p in params]
        opt.step(lr)
        for p, row in zip(params, ref):
            if p.grad is None:
                continue
            x, m, v = row
            g = p.grad
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
            update = (m / (1 - cfg.beta1 ** t)) / (np.sqrt(v / (1 - cfg.beta2 ** t)) + cfg.eps)
            row[:] = [x - update * lr - x * (lr * cfg.weight_decay), m, v]
        for p, (x, m, v), before in zip(params, ref, held):
            assert p.data.shape == x.shape and p.data.tobytes() == x.tobytes()
            assert p.data is not before or p is gradless
        for got, (_, m, v) in zip(zip(opt.m, opt.v), ref):
            assert got[0].tobytes() == m.tobytes() and got[1].tobytes() == v.tobytes()
    assert gradless.data.tobytes() == ref[3][0].tobytes()
    largest = max(p.data.size for p in params)
    for a, b in opt._scratch:
        assert np.shares_memory(a, opt._scratch[0][0]) and np.shares_memory(b, opt._scratch[0][1])
        assert a.base.size == b.base.size == largest


def test_adamw_steps_a_0d_parameter_as_it_steps_a_1_element_one():
    cfg = TrainConfig(weight_decay=0.05)
    scalar = param("s", 1.5, grad=0.25)
    vector = param("v", [1.5], grad=[0.25])
    opt = AdamW([scalar, vector], cfg)
    for lr in (0.1, 0.03):
        held = scalar.data
        opt.step(lr)
        assert isinstance(scalar.data, np.ndarray) and scalar.data.shape == ()
        assert scalar.data is not held
        assert scalar.data.tobytes() == vector.data.tobytes()


def test_adamw_skips_gradless_params():
    p = param("w", [1.0, 2.0])          # no grad at all
    AdamW([p], TrainConfig(weight_decay=0.5)).step(lr=0.1)
    np.testing.assert_array_equal(p.data, [1.0, 2.0])


def test_adamw_decay_is_decoupled():
    cfg = TrainConfig(weight_decay=0.1)
    p = param("w", [2.0, -4.0], grad=[0.0, 0.0])
    AdamW([p], cfg).step(lr=0.5)
    # zero gradient leaves only the decay term
    np.testing.assert_allclose(p.data, [2.0 * 0.95, -4.0 * 0.95], rtol=1e-15)


def test_clip_gradients():
    a = param("a", [3.0, 0.0], grad=[3.0, 0.0])
    b = param("b", [0.0], grad=[4.0])
    c = param("c", [1.0])              # gradless, ignored
    norm = clip_gradients([a, b, c], max_norm=10.0)
    assert norm == 5.0
    np.testing.assert_array_equal(a.grad, [3.0, 0.0])    # under the cap

    norm = clip_gradients([a, b, c], max_norm=1.0)
    assert norm == 5.0                  # reports the pre-clip norm
    np.testing.assert_allclose(a.grad, [0.6, 0.0], rtol=1e-15)
    np.testing.assert_allclose(b.grad, [0.8], rtol=1e-15)
    total = math.sqrt(float(np.sum(a.grad ** 2) + np.sum(b.grad ** 2)))
    assert total == pytest.approx(1.0, rel=1e-12)


# -- stage 1 ---------------------------------------------------------------------

def stage1_cfg(**kw) -> TrainConfig:
    base = dict(max_lr=3e-3, warmup_ratio=0.1, total_steps=20, batch_size=3,
                seed=0)
    base.update(kw)
    return TrainConfig(**base)


def pairs_of(records):
    return [r for r in records if r.kind == "pair"]


def test_pretrain_validation(synth_dir):
    out, records = synth_dir
    with pytest.raises(ContractError, match="at least one"):
        pretrain_change_module([], stage1_cfg(), out)
    with pytest.raises(ContractError, match="pair"):
        pretrain_change_module(records, stage1_cfg(), out)


def test_pretrain_zero_steps_returns_seeded_init(synth_dir):
    out, records = synth_dir
    pairs = pairs_of(records)
    s1, log1 = pretrain_change_module(pairs, stage1_cfg(total_steps=0), out,
                                      d_v=4, dim=16)
    s2, log2 = pretrain_change_module(pairs, stage1_cfg(total_steps=0), out,
                                      d_v=4, dim=16)
    assert log1 == [] and log2 == []
    assert sorted(s1) == sorted(s2)
    assert all(k.startswith(("change.", "projector.")) for k in s1)
    for k in s1:
        assert s1[k].tobytes() == s2[k].tobytes()

    other = pretrain_change_module(pairs, stage1_cfg(total_steps=0, seed=1),
                                   out, d_v=4, dim=16)[0]
    assert any(s1[k].tobytes() != other[k].tobytes() for k in s1)


def test_pretrain_trains_and_logs(synth_dir):
    out, records = synth_dir
    pairs = pairs_of(records)
    cfg = stage1_cfg()
    state, log = pretrain_change_module(pairs, cfg, out, d_v=4, dim=16,
                                        max_seq=32)
    assert [row["step"] for row in log] == list(range(20))
    assert [row["lr"] for row in log] == [lr_at(s, cfg) for s in range(20)]
    assert log[-1]["loss"] < log[0]["loss"]

    init = pretrain_change_module(pairs, stage1_cfg(total_steps=0), out,
                                  d_v=4, dim=16, max_seq=32)[0]
    assert any(state[k].tobytes() != init[k].tobytes() for k in state)


def test_pretrain_loads_each_record_once_per_run(synth_dir, monkeypatch):
    # the encoder is frozen, so a run reads and encodes each pair once; a
    # new run starts with no features, so it reads them all again
    out, records = synth_dir
    pairs = pairs_of(records)
    loaded = []
    original = training.load_visual

    def counting(kind, refs, *args, **kwargs):
        loaded.append(tuple(refs))
        return original(kind, refs, *args, **kwargs)

    monkeypatch.setattr(training, "load_visual", counting)
    cfg = stage1_cfg(total_steps=6, batch_size=2)
    first = pretrain_change_module(pairs, cfg, out, d_v=4, dim=16, max_seq=32)
    assert sorted(loaded) == sorted(tuple(r.visual_refs) for r in pairs)
    second = pretrain_change_module(pairs, cfg, out, d_v=4, dim=16, max_seq=32)
    assert len(loaded) == 2 * len(pairs)
    assert sorted(loaded[len(pairs):]) == sorted(loaded[:len(pairs)])
    assert first[1] == second[1]


def test_pretrain_divergence(synth_dir):
    out, records = synth_dir
    cfg = stage1_cfg(max_lr=float("nan"), warmup_ratio=0.0)
    with pytest.raises(DivergenceError) as err:
        pretrain_change_module(pairs_of(records), cfg, out, d_v=4, dim=16,
                               max_seq=32)
    assert err.value.step == 0


@pytest.mark.parametrize("seed", [0, 7])
def test_pretrain_starts_from_the_models_visual_weights(synth_dir, seed):
    # both stages build the visual side in one place, drawn before the LM
    # or the caption head, so stage 1 warms up the very arrays stage 2 loads
    out, records = synth_dir
    dims = dict(patch=8, d_v=4, dim=16)
    state, _ = pretrain_change_module(pairs_of(records),
                                      stage1_cfg(total_steps=0, seed=seed),
                                      out, **dims)
    model = MultiTemporalModel.build(PipelineConfig(seed=seed, **dims),
                                     records, out)
    expected = {k: v for k, v in model.params.state().items()
                if k.startswith(("change.", "projector."))}
    assert sorted(state) == sorted(expected)
    for k in state:
        assert state[k].tobytes() == expected[k].tobytes(), k


# -- stage 2 ---------------------------------------------------------------------

def make_model(out, records, **cfg_kw):
    base = dict(patch=8, d_v=4, dim=16, lm_layers=1, lm_heads=2,
                max_seq=128, video_frames=4, seed=0)
    base.update(cfg_kw)
    return MultiTemporalModel.build(PipelineConfig(**base), records, out)


def joint_cfg(**kw) -> TrainConfig:
    base = dict(max_lr=3e-3, warmup_ratio=0.1, total_steps=10, batch_size=4,
                seed=0, freeze=JOINT_FREEZE)
    base.update(kw)
    return TrainConfig(**base)


def test_train_joint_freezes_and_logs(synth_dir, tmp_path):
    out, records = synth_dir
    model = make_model(out, records)
    frozen_before = {k: v.tobytes() for k, v in model.params.state().items()
                     if k.startswith(JOINT_FREEZE)}
    cfg = joint_cfg()
    log = train_joint(model, records, cfg,
                      log_path=tmp_path / "log.jsonl",
                      checkpoint_path=tmp_path / "model.ckpt")
    assert [row["lr"] for row in log] == [lr_at(s, cfg) for s in range(10)]
    assert log[-1]["loss"] < log[0]["loss"]
    after = model.params.state()
    for k, blob in frozen_before.items():
        assert after[k].tobytes() == blob
    assert any(after[k].tobytes() != frozen_before.get(k) for k in after
               if k.startswith("lm."))
    assert (tmp_path / "log.jsonl").exists()
    assert (tmp_path / "model.ckpt").exists()


def test_train_joint_is_deterministic(synth_dir):
    out, records = synth_dir
    log1 = train_joint(make_model(out, records), records, joint_cfg())
    log2 = train_joint(make_model(out, records), records, joint_cfg())
    assert log1 == log2


def test_train_joint_divergence(synth_dir, tmp_path):
    out, records = synth_dir
    model = make_model(out, records)
    cfg = joint_cfg(max_lr=float("nan"), warmup_ratio=0.0)
    ckpt = tmp_path / "model.ckpt"
    with pytest.raises(DivergenceError) as err:
        train_joint(model, records, cfg, checkpoint_path=ckpt)
    assert err.value.step == 0
    assert not ckpt.exists()      # nothing is written after a divergence


def test_train_joint_rejects_empty(synth_dir):
    out, records = synth_dir
    with pytest.raises(ContractError):
        train_joint(make_model(out, records), [], joint_cfg())


# -- one forward per joint step ------------------------------------------------------

def test_segmented_loss_is_mean_of_segment_means():
    rng = np.random.default_rng(5)
    lengths = [3, 2, 6]
    logits = rng.normal(size=(sum(lengths), 7))
    targets = rng.integers(0, 7, size=sum(lengths)).tolist()
    masks = [np.array([False, True, True]), np.array([False, True]),
             np.array([False, False, True, False, True, True])]
    got = cross_entropy_next_token(Tensor(logits), targets, np.concatenate(masks), lengths)
    want, start = [], 0
    for n, m in zip(lengths, masks):
        want.append(cross_entropy_next_token(Tensor(logits[start:start + n]),
                                             targets[start:start + n], m).item())
        start += n
    assert got.item() == pytest.approx(np.mean(want), rel=1e-14)
    leaf = Tensor(logits)
    gradcheck(lambda: cross_entropy_next_token(leaf, targets, np.concatenate(masks),
                                               lengths), [leaf])


def test_loss_on_the_read_rows_equals_the_loss_on_every_row():
    rng = np.random.default_rng(6)
    lengths = [3, 2, 6]
    logits = rng.normal(size=(sum(lengths), 7))
    targets = rng.integers(0, 7, size=sum(lengths)).tolist()
    mask = np.array([False, True, True, False, True,
                     False, False, True, False, True, True])
    every = Tensor(logits, requires_grad=True)
    want = cross_entropy_next_token(every, targets, mask, lengths)
    want.backward()
    rows = np.flatnonzero(mask) - 1
    read = Tensor(logits[rows], requires_grad=True)
    got = cross_entropy_next_token(read, targets, mask, lengths)
    got.backward()
    assert got.item() == want.item()
    assert read.grad.tobytes() == every.grad[rows].tobytes()
    assert not np.delete(every.grad, rows, axis=0).any()
    gradcheck(lambda: cross_entropy_next_token(read, targets, mask, lengths), [read])
    for n in (4, 10):                       # neither a row per position nor per read
        with pytest.raises(ContractError, match="disagree"):
            cross_entropy_next_token(Tensor(logits[:n]), targets, mask, lengths)


def test_batch_loss_projects_only_the_rows_the_loss_reads(synth_dir, monkeypatch):
    out, records = synth_dir
    model = make_model(out, records)
    batch = [records[i] for i in (0, 3, 6, 1)]
    shapes = []
    forward = TinyCausalLM.forward

    def spy(lm, *args, **kwargs):
        shapes.append(forward(lm, *args, **kwargs).shape)
        return forward(lm, *args, **kwargs)

    monkeypatch.setattr(TinyCausalLM, "forward", spy)
    training._batch_loss(model, batch)
    read = sum(int(packed.loss_mask.sum()) for packed, _ in model.training_examples(batch))
    assert shapes == [(read, len(model.vocab))]


def test_segmented_loss_rejections():
    logits = Tensor(np.zeros((5, 4)))
    targets = [0] * 5
    with pytest.raises(ContractError, match="position 0"):     # second segment's first row
        cross_entropy_next_token(logits, targets,
                                 np.array([False, True, True, False, True]), [2, 3])
    with pytest.raises(ContractError, match=r"segments \[1\]"):
        cross_entropy_next_token(logits, targets,
                                 np.array([False, True, False, False, False]), [2, 3])
    with pytest.raises(ContractError, match="disagree"):
        cross_entropy_next_token(logits, targets,
                                 np.array([False, True, False, True, True]), [2, 2])


def per_record_loss(model, batch):
    """The mean of per-record losses, one LM forward each."""
    loss = None
    for record in batch:
        packed, targets = model.training_examples([record])[0]
        one = cross_entropy_next_token(model.lm.forward(packed.embeddings), targets,
                                       packed.loss_mask)
        loss = one if loss is None else loss + one
    return loss.scale(1.0 / len(batch))


def tape(root):
    seen, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def check_batch_loss_matches_per_record_step(model, batch):
    loss = training._batch_loss(model, batch)
    nodes = tape(loss)
    loss.backward()
    interior = [t for t in nodes if t._backward is not None]
    assert interior and all(t.grad is None for t in interior)
    trainable = {n: p for n, p in model.params.items() if p.requires_grad}
    batched = {n: p.grad.copy() for n, p in trainable.items()}

    model.params.zero_grads()
    want = per_record_loss(model, batch)
    assert loss.item() == pytest.approx(want.item(), rel=1e-12)
    want.backward()
    for n, p in trainable.items():
        np.testing.assert_allclose(batched[n], p.grad, rtol=0, atol=1e-12, err_msg=n)


def test_joint_batch_loss_and_gradients_match_per_record_step(synth_dir):
    out, records = synth_dir
    model = make_model(out, records)
    model.params.freeze(JOINT_FREEZE)
    batch = [records[i] for i in (0, 3, 6, 1)]          # single, pair, video, single
    check_batch_loss_matches_per_record_step(model, batch)


STUB_DIMS = dict(patch=8, d_v=4, dim=16, heads=4, max_seq=32)


def test_stage1_batch_loss_and_gradients_match_per_record_step(tmp_path):
    # the caption head's per-record sum, as stage 1 ran it before it shared
    # the joint path, is the reference for its one segmented forward
    out = tmp_path / "pairs"
    pairs = synth_generate("pair", 4, 22, out)
    stub = training._CaptionStub(pairs, out, 0, **STUB_DIMS)
    lengths = {stub.training_examples([r])[0][0].n for r in pairs}
    assert len(lengths) > 1                             # pad slots are exercised
    check_batch_loss_matches_per_record_step(stub, pairs)


@pytest.mark.parametrize("n_pairs", [1, 2, 4])
def test_stage1_step_runs_one_change_extraction_for_the_batch(tmp_path, monkeypatch,
                                                              n_pairs):
    # the fusion stack has four convs; a chain per pair would run 4 * n_pairs
    out = tmp_path / "pairs"
    pairs = synth_generate("pair", n_pairs, 23, out)
    stub = training._CaptionStub(pairs, out, 0, **STUB_DIMS)
    calls = []
    real = change.conv2d

    def counting(x, *args, **kwargs):
        calls.append(x.shape[0] if x.ndim == 4 else None)
        return real(x, *args, **kwargs)

    monkeypatch.setattr(change, "conv2d", counting)
    training._batch_loss(stub, pairs).backward()
    assert calls == [n_pairs] * 4


def test_stage1_batch_passes_each_unchanged_pair_through_as_concatenation(tmp_path,
                                                                           monkeypatch):
    out = tmp_path / "pairs"
    pairs = synth_generate("pair", 8, 24, out)
    assert {r.changed for r in pairs} == {True, False}
    stub = training._CaptionStub(pairs, out, 0, **STUB_DIMS)
    stub.visual.enhance.w_embed.data = np.random.default_rng(5).normal(
        size=stub.visual.enhance.w_embed.data.shape)     # nonzero on purpose
    seen = []
    real = change.spatial_enhance

    def recording(d, p):
        enhanced = real(d, p)
        seen.append((d, enhanced))
        return enhanced

    monkeypatch.setattr(change, "spatial_enhance", recording)
    training._batch_loss(stub, pairs)
    [(d, enhanced)] = seen
    assert enhanced.shape[0] == len(pairs)
    h, w = d.grid
    for b, record in enumerate(pairs):
        f1, f2 = d.f1.data[b], d.f2.data[b]
        assert (f1.tobytes() == f2.tobytes()) == (not record.changed)
        concat = np.concatenate([f1, f2], axis=1).T.reshape(-1, h, w)
        assert (enhanced.data[b].tobytes() == concat.tobytes()) == (not record.changed)


def test_stage1_batch_of_two_frame_sizes_matches_per_record_step(tmp_path, monkeypatch):
    # pairs on different grids cannot share one change extraction, so each
    # grid gets its own
    out = tmp_path / "pairs"
    pairs = synth_generate("pair", 2, 25, out) + synth_generate("pair", 2, 26, out,
                                                                h=16, w=16)
    pairs = [pairs[0], pairs[2], pairs[1], pairs[3]]
    stub = training._CaptionStub(pairs, out, 0, **STUB_DIMS)
    extractions = []
    real = vision.change_extract

    def recording(d, *args):
        extractions.append(d.f1.shape)
        return real(d, *args)

    monkeypatch.setattr(vision, "change_extract", recording)
    training._batch_loss(stub, pairs)
    assert sorted(extractions) == [(2, 4, 4), (2, 16, 4)]
    check_batch_loss_matches_per_record_step(stub, pairs)


def test_joint_leaf_gradients_are_separate_arrays(synth_dir):
    out, records = synth_dir
    model = make_model(out, records)
    model.params.freeze(JOINT_FREEZE)
    training._batch_loss(model, records[:4]).backward()
    named = [(n, p) for n, p in model.params.items() if p.requires_grad]
    before = [p.grad.copy() for _, p in named]
    for i, (n, p) in enumerate(named):
        p.grad[...] = 1e3 + i
        for (m, q), old in zip(named[i + 1:], before[i + 1:]):
            assert q.grad.tobytes() == old.tobytes(), (n, m)


def stage_under_test(stage, out, records):
    """A model that builds the stage's training examples, the records the
    stage cycles through, and a run of that stage for a number of steps."""
    if stage == "joint":
        model = make_model(out, records)
        return model, records, lambda steps: train_joint(
            model, records, joint_cfg(total_steps=steps))
    pairs = pairs_of(records)
    stub = training._CaptionStub(pairs, out, 0, **STUB_DIMS)
    return stub, pairs, lambda steps: pretrain_change_module(
        pairs, stage1_cfg(total_steps=steps, batch_size=4), out, **STUB_DIMS)


@pytest.mark.parametrize("stage", ["joint", "stage1"])
def test_joint_runs_one_lm_forward_per_step(synth_dir, monkeypatch, stage):
    model, records, train = stage_under_test(stage, *synth_dir)
    rows = []
    forward = TinyCausalLM.forward

    def counting(lm, embeddings, *args, **kwargs):
        rows.append(embeddings.shape[0])
        return forward(lm, embeddings, *args, **kwargs)

    monkeypatch.setattr(TinyCausalLM, "forward", counting)
    train(5)
    assert len(rows) == 5
    per_record = {r.id: model.training_examples([r])[0][0].n for r in records}
    size = min(4, len(records))
    assert rows == [sum(per_record[records[(s * size + j) % len(records)].id]
                        for j in range(size)) for s in range(5)]


@pytest.mark.parametrize("stage", ["joint", "stage1"])
def test_joint_step_graph_is_dropped_before_next_forward(synth_dir, monkeypatch, stage):
    _, _, train = stage_under_test(stage, *synth_dir)
    refs, live = [], []
    forward = TinyCausalLM.forward

    def watching(*args, **kwargs):
        live.append([r() is not None for r in refs])
        logits = forward(*args, **kwargs)
        refs.append(weakref.ref(logits))
        return logits

    monkeypatch.setattr(TinyCausalLM, "forward", watching)
    train(4)
    assert live == [[], [False], [False] * 2, [False] * 3]
