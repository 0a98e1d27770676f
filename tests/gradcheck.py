"""Central finite-difference gradient oracle shared by the test modules.

The checker re-runs a closure that rebuilds the computation graph from
scratch on every call, perturbing one leaf element at a time. Leaves are
mutated in place, so the closure must read ``leaf.data`` fresh each time.
``tape_nodes`` counts the ops a result was built from, for tape-size tests.
"""

from __future__ import annotations

import numpy as np

from mtvlm.autograd import Tensor

EPS = 1e-5
TOL = 1e-4


def numeric_grad(f, leaf: Tensor, eps: float = EPS) -> np.ndarray:
    out = np.zeros_like(leaf.data)
    flat = leaf.data.reshape(-1)
    gflat = out.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f().item()
        flat[i] = orig - eps
        down = f().item()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * eps)
    return out


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / scale))


def gradcheck(f, leaves: list[Tensor], eps: float = EPS, tol: float = TOL) -> float:
    """Assert analytic gradients of ``f()`` match central differences.

    ``f`` must return a scalar Tensor built from ``leaves``; returns the
    worst relative error over all leaf elements.
    """
    for leaf in leaves:
        leaf.requires_grad = True
        leaf.grad = None
    out = f()
    if out.shape != ():
        raise AssertionError(f"gradcheck needs a scalar loss, got {out.shape}")
    out.backward()
    worst = 0.0
    for leaf in leaves:
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        numeric = numeric_grad(f, leaf, eps)
        err = max_rel_error(analytic, numeric)
        worst = max(worst, err)
        assert err < tol, (
            f"gradient mismatch on leaf {leaf.shape}: rel err {err:.3e} >= {tol}")
    return worst


def scalarizer(shape: tuple[int, ...], rng: np.random.Generator):
    """A fixed random projection to a scalar, touching every output element.

    The weights are drawn once so the returned closure is deterministic
    across the repeated evaluations the checker performs.
    """
    w = Tensor(rng.normal(size=shape))
    return lambda t: (t * w).sum()


def tape_nodes(t: Tensor) -> int:
    """Recorded ops reachable from ``t`` (leaves carry no backward)."""
    seen, stack = set(), [t]
    while stack:
        node = stack.pop()
        if node._backward is None or id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)
