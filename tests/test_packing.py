"""Packing laws: marker grammar, conservation, order, mask disjointness."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradcheck import gradcheck, scalarizer, tape_nodes
from mtvlm.autograd import Tensor
from mtvlm.errors import ContractError, ShapeError
from mtvlm.packing import (
    MARKER_CHANGE, MARKER_IMAGE, Marker, PackedSequence, PackingError,
    TokenizedPrompt, debug_dump, frame_marker, marker_for_token, markers_for,
    pack, supervision_mask, validate_packed,
)


# -- marker grammar -------------------------------------------------------------

def test_marker_fragments():
    assert markers_for("single", 1) == "⟨image⟩"
    assert markers_for("pair", 2) == "⟨Change Feature⟩"
    assert markers_for("video", 3) == "⟨Frame 1⟩⟨Frame 2⟩⟨Frame 3⟩"
    assert frame_marker(12) == "⟨Frame 12⟩"


def test_marker_fragment_validation():
    with pytest.raises(ContractError):
        markers_for("single", 2)
    with pytest.raises(ContractError):
        markers_for("pair", 1)
    with pytest.raises(ContractError):
        markers_for("video", 0)
    with pytest.raises(ContractError):
        markers_for("hologram", 1)
    with pytest.raises(ContractError):
        frame_marker(0)


def test_marker_for_token_classification():
    assert marker_for_token(MARKER_IMAGE) == Marker("image")
    assert marker_for_token(MARKER_CHANGE) == Marker("change_feature")
    assert marker_for_token("⟨Frame 7⟩") == Marker("frame", 7)
    assert marker_for_token("⟨Frame 12⟩") == Marker("frame", 12)
    assert marker_for_token("⟨Frame 0⟩") is None
    assert marker_for_token("⟨Frame x⟩") is None
    assert marker_for_token("plain") is None


def test_marker_dataclass_validation():
    with pytest.raises(ContractError):
        Marker("volumetric")
    with pytest.raises(ContractError):
        Marker("frame")
    with pytest.raises(ContractError):
        Marker("image", 3)


def test_tokenized_prompt_validation():
    with pytest.raises(ContractError):
        TokenizedPrompt([1, 2], [(1, Marker("image")), (0, Marker("image"))], 0)
    with pytest.raises(ContractError):
        TokenizedPrompt([1, 2], [(5, Marker("image"))], 1)
    with pytest.raises(ContractError):
        TokenizedPrompt([1, 2], [(0, Marker("image"))], 2)
    with pytest.raises(ContractError):
        TokenizedPrompt([1, 2], [(0, "image")], 1)


# -- pack fixture ------------------------------------------------------------------

def fixture_prompt():
    return TokenizedPrompt(tokens=[10, 11, 12],
                           marker_slots=[(1, Marker("image"))], text_len=2)


def test_pack_hand_fixture():
    prompt = fixture_prompt()
    text = Tensor(np.array([[100.0] * 3, [101.0] * 3]))
    unit = Tensor(np.full((2, 3), 7.0))
    ps = pack(prompt, text, [unit])
    assert ps.n == 4
    np.testing.assert_array_equal(
        ps.embeddings.data,
        [[100.0] * 3, [7.0] * 3, [7.0] * 3, [101.0] * 3])
    assert ps.segment_map == [("text", 0), ("visual", 0), ("visual", 0), ("text", 2)]
    assert not ps.loss_mask.any()
    validate_packed(ps, prompt, 2)


def test_pack_validation_errors():
    prompt = fixture_prompt()
    text = Tensor(np.zeros((2, 3)))
    with pytest.raises(PackingError):
        pack(prompt, text, [])
    with pytest.raises(ShapeError):
        pack(prompt, Tensor(np.zeros((1, 3))), [Tensor(np.zeros((2, 3)))])
    with pytest.raises(ShapeError):
        pack(prompt, text, [Tensor(np.zeros(3))])
    with pytest.raises(ShapeError):
        pack(prompt, text, [Tensor(np.zeros((2, 4)))])
    two = TokenizedPrompt([1, 2, 3], [(0, Marker("frame", 1)),
                                      (2, Marker("frame", 2))], 1)
    with pytest.raises(ShapeError):
        pack(two, Tensor(np.zeros((1, 3))),
             [Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))])


def two_unit_prompt(text_len):
    """``text_len - 1`` tokens, two adjacent frame markers, one more token."""
    head = text_len - 1
    tokens = list(range(text_len + 2))
    slots = [(head, Marker("frame", 1)), (head + 1, Marker("frame", 2))]
    return TokenizedPrompt(tokens=tokens, marker_slots=slots, text_len=text_len)


def test_pack_gradcheck():
    rng = np.random.default_rng(0)
    prompt = two_unit_prompt(3)
    text = Tensor(rng.normal(size=(3, 2)))
    units = [Tensor(rng.normal(size=(2, 2))) for _ in range(2)]
    project = scalarizer((3 + 2 * 2, 2), rng)
    gradcheck(lambda: project(pack(prompt, text, units).embeddings),
              [text, *units])


def test_pack_tape_size_is_independent_of_text_length():
    counts = set()
    for text_len in (1, 4, 32):
        text = Tensor(np.zeros((text_len, 3)), requires_grad=True)
        units = [Tensor(np.zeros((2, 3)), requires_grad=True) for _ in range(2)]
        ps = pack(two_unit_prompt(text_len), text, units)
        counts.add(tape_nodes(ps.embeddings))
    assert len(counts) == 1, counts


# -- supervision mask ----------------------------------------------------------------

def test_supervision_mask_fixture():
    prompt = fixture_prompt()
    mask = supervision_mask(prompt, (2, 3), l_d=2)
    np.testing.assert_array_equal(mask, [False, False, False, True])


def test_supervision_mask_errors():
    prompt = fixture_prompt()
    with pytest.raises(ContractError):
        supervision_mask(prompt, (0, 2), l_d=2)     # crosses the marker
    with pytest.raises(ContractError):
        supervision_mask(prompt, (1, 9), l_d=2)
    with pytest.raises(ContractError):
        supervision_mask(prompt, (2, 1), l_d=2)


def test_validate_packed_detects_corruption():
    prompt = fixture_prompt()
    text = Tensor(np.zeros((2, 3)))
    unit = Tensor(np.zeros((2, 3)))
    ps = pack(prompt, text, [unit])
    validate_packed(ps, prompt, 2)

    with pytest.raises(PackingError, match="conservation"):
        validate_packed(ps, prompt, 3)

    bad_mask = pack(prompt, text, [unit])
    bad_mask.loss_mask[1] = True        # a visual row
    with pytest.raises(PackingError, match="visual row"):
        validate_packed(bad_mask, prompt, 2)

    shuffled = pack(prompt, text, [unit])
    shuffled.segment_map[0], shuffled.segment_map[-1] = (
        shuffled.segment_map[-1], shuffled.segment_map[0])
    with pytest.raises(PackingError, match="order"):
        validate_packed(shuffled, prompt, 2)

    short = PackedSequence(embeddings=ps.embeddings,
                           loss_mask=np.zeros(3, dtype=bool),
                           segment_map=ps.segment_map)
    with pytest.raises(PackingError):
        validate_packed(short, prompt, 2)


def test_debug_dump_rows():
    prompt = fixture_prompt()
    ps = pack(prompt, Tensor(np.zeros((2, 3))), [Tensor(np.zeros((2, 3)))])
    dump = debug_dump(ps, prompt)
    assert dump["n"] == 4 and dump["text_len"] == 2 and dump["markers"] == 1
    assert dump["rows"][0] == {"index": 0, "source": "text", "loss": False,
                               "token": 10}
    assert dump["rows"][1] == {"index": 1, "source": "visual", "loss": False,
                               "unit": 0}


# -- conservation property --------------------------------------------------------------

@st.composite
def packing_cases(draw):
    pattern = draw(st.lists(st.sampled_from("tticf"), min_size=1, max_size=18))
    l_d = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 4))
    tokens, slots = [], []
    frame = 1
    for pos, p in enumerate(pattern):
        tokens.append(draw(st.integers(0, 99)))
        if p == "i":
            slots.append((pos, Marker("image")))
        elif p == "c":
            slots.append((pos, Marker("change_feature")))
        elif p == "f":
            slots.append((pos, Marker("frame", frame)))
            frame += 1
    prompt = TokenizedPrompt(tokens=tokens, marker_slots=slots,
                             text_len=len(tokens) - len(slots))
    return prompt, l_d, dim


@given(packing_cases())
def test_packing_conservation_property(case):
    prompt, l_d, dim = case
    # value-coded rows make provenance visible in the packed output
    text = Tensor(np.full((prompt.text_len, dim), 1.0)
                  * np.arange(100, 100 + prompt.text_len).reshape(-1, 1)
                  if prompt.text_len else np.zeros((0, dim)))
    units = [Tensor(np.full((l_d, dim), float(i)))
             for i in range(len(prompt.marker_slots))]
    ps = pack(prompt, text, units)

    assert ps.n == prompt.text_len + len(prompt.marker_slots) * l_d
    validate_packed(ps, prompt, l_d)

    marker_at = dict(prompt.marker_slots)
    expected_rows = []
    text_row = 0
    for pos in range(len(prompt.tokens)):
        if pos in marker_at:
            idx = [i for i, (p, _) in enumerate(prompt.marker_slots) if p == pos][0]
            expected_rows.extend([float(idx)] * l_d)
        else:
            expected_rows.append(100.0 + text_row)
            text_row += 1
    np.testing.assert_array_equal(ps.embeddings.data[:, 0], expected_rows)

    # a legal answer span keeps mask and visual rows disjoint
    marker_positions = {p for p, _ in prompt.marker_slots}
    runs, run = [], []
    for pos in range(len(prompt.tokens)):
        if pos in marker_positions:
            if run:
                runs.append(run)
            run = []
        else:
            run.append(pos)
    if run:
        runs.append(run)
    if runs:
        span = (runs[-1][0], runs[-1][-1] + 1)
        mask = supervision_mask(prompt, span, l_d)
        ps.loss_mask = mask
        validate_packed(ps, prompt, l_d)
        assert mask.sum() == span[1] - span[0]
