"""Independent numpy oracle for the packing laws, shared by the test modules.

It rebuilds a packed sequence's expected rows from the prompt alone, with
``np.repeat`` over per-token row counts, not through ``packing.row_layout``.
"""

from __future__ import annotations

import numpy as np


def packing_law_violations(ps, prompt, l_d: int) -> list[str]:
    """The packing laws ``ps`` breaks, empty when it keeps them all:

    * conservation: N = text_len + markers * l_d rows, and a mask of N;
    * order and source: the segment map lists each token in tokenizer order,
      a plain token as ``("text", position)`` and a marker as ``l_d`` rows of
      ``("visual", unit index)``;
    * no loss on any visual row.
    """
    n_tokens = len(prompt.tokens)
    is_marker = np.zeros(n_tokens, dtype=bool)
    is_marker[[pos for pos, _ in prompt.marker_slots]] = True
    unit = np.cumsum(is_marker) - 1
    row_pos = np.repeat(np.arange(n_tokens), np.where(is_marker, l_d, 1))
    visual = is_marker[row_pos]
    want = [("visual", int(unit[p])) if v else ("text", int(p))
            for p, v in zip(row_pos, visual)]

    found = []
    n = prompt.text_len + len(prompt.marker_slots) * l_d
    if ps.n != n or len(ps.segment_map) != n or ps.loss_mask.shape != (n,):
        found.append(f"conservation: N={ps.n}, segment map "
                     f"{len(ps.segment_map)}, mask {ps.loss_mask.shape}; want {n}")
    if list(ps.segment_map) != want:
        found.append("order: segment map does not follow the tokenizer order")
    if ps.loss_mask.shape == (n,) and ps.loss_mask[visual].any():
        found.append(f"loss: on visual rows {np.flatnonzero(ps.loss_mask & visual).tolist()}")
    return found
