"""Dense float64 tensors with reverse-mode automatic differentiation.

Every differentiable computation in the pipeline (change extraction, the
projector MLP, the causal language model) is expressed through the ops in
this module. Design constraints, chosen for auditability over speed:

* float64 only, row-major storage, no views that alias gradients;
* ops take ``Tensor`` operands and do not convert arrays or numbers;
  wrap a constant in ``Tensor`` first (``scale`` alone takes a float);
* elementwise binary ops require exactly matching shapes (the only
  broadcast anywhere is the bias add inside ``linear`` and ``conv2d``);
* the tape is built eagerly by closures and walked once per ``backward``;
  inside ``no_grad()`` ops record nothing, for forward-only inference;
* ``backward`` sets ``.grad`` on leaves only, and repeated calls
  accumulate into it until the caller zeroes it;
* a parameter is a named leaf tensor: ``ParameterSet`` maps each name to
  a ``Tensor`` that ops take as is and optimizers update through ``.data``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ContractError, ShapeError


class Tensor:
    """An n-d float64 array plus an optional slot on the gradient tape."""

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        # ascontiguousarray would promote 0-d scalars to shape (1,)
        self.data = arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._pass_grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """A constant copy of this tensor, off the tape."""
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- tape -------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into .grad of every reachable leaf.

        ``self`` must be a scalar (0-d). A leaf is a tensor that no op
        produced: a parameter or an input. Only leaves get a ``.grad``, and
        each is an array of its own, so writing into one never changes
        another. An interior node's gradient lives only until its backward
        closure has consumed it, and its ``.grad`` stays None. Closures are
        kept, so repeated calls add another full pass of gradients; callers
        that want fresh gradients must zero them first.
        """
        if self.data.ndim != 0:
            raise ContractError(f"backward needs a scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise ContractError("backward on a tensor that is not on the tape")

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        self._pass_grad = np.ones((), dtype=np.float64)
        # consumers come before their inputs, so a node's gradient is
        # complete when its turn comes
        for node in reversed(topo):
            g, node._pass_grad = node._pass_grad, None
            if g is None:
                continue
            if node._backward is not None:
                node._backward(g)
            elif node.grad is None:
                node.grad = g
            else:
                node.grad = node.grad + g

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        _same_shape("add", self, other)
        return _op(self.data + other.data, (self, other),
                   lambda g: (_send(self, g), _send(other, g)))

    def __sub__(self, other: "Tensor") -> "Tensor":
        _same_shape("sub", self, other)
        return _op(self.data - other.data, (self, other),
                   lambda g: (_send(self, g), _send(other, -g)))

    def __mul__(self, other: "Tensor") -> "Tensor":
        _same_shape("mul", self, other)
        return _op(self.data * other.data, (self, other),
                   lambda g: (_send(self, g * other.data), _send(other, g * self.data)))

    def scale(self, s: float) -> "Tensor":
        """Multiply by a python float, a constant off the tape; a ``Tensor``
        factor is a ``TypeError``."""
        s = float(s)
        return _op(self.data * s, (self,), lambda g: _send(self, g * s))

    def matmul(self, other: "Tensor") -> "Tensor":
        """Product over the last two axes; leading (batch) axes must be equal."""
        a, b = self.shape, other.shape
        if min(len(a), len(b)) < 2 or a[:-2] != b[:-2] or a[-1] != b[-2]:
            raise ShapeError(f"matmul needs (..., n, k) @ (..., k, m) with equal "
                             f"batch dims, got {a} and {b}")
        return _op(self.data @ other.data, (self, other),
                   lambda g: (_send(self, g @ other.data.swapaxes(-1, -2)),
                              _send(other, self.data.swapaxes(-1, -2) @ g)))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    def relu(self) -> "Tensor":
        """``max(x, 0)`` elementwise: -0.0 and negative subnormals give +0.0,
        and a NaN stays NaN, so a NaN upstream is not hidden. The gradient
        passes where ``x > 0`` (not at 0, nor at NaN)."""
        mask = self.data > 0.0
        return _op(np.maximum(self.data, 0.0), (self,),
                   lambda g: _send(self, g * mask))

    def sum(self) -> "Tensor":
        return _op(np.asarray(self.data.sum()), (self,),
                   lambda g: _send(self, np.full_like(self.data, g)))

    # -- structure ---------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        """The same elements in a new shape. Every dimension is given: a
        negative one (numpy's "infer this one") is a ``ShapeError``."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        if min(shape, default=0) < 0:
            raise ShapeError(f"cannot reshape {self.shape} to {shape}: negative dimension")
        try:
            data = self.data.reshape(shape)
        except ValueError:
            raise ShapeError(f"cannot reshape {self.shape} to {shape}") from None
        # _send reshapes a gradient to its tensor's shape
        return _op(data, (self,), lambda g: _send(self, g))

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if sorted(axes) != list(range(self.ndim)):
            raise ShapeError(f"transpose axes {axes} invalid for shape {self.shape}")

        def bw(g):
            inverse = tuple(np.argsort(axes))
            _send(self, np.ascontiguousarray(g.transpose(inverse)))

        return _op(np.ascontiguousarray(self.data.transpose(axes)), (self,), bw)

    def narrow(self, axis: int, start: int, length: int) -> "Tensor":
        if not (0 <= axis < self.ndim):
            raise ShapeError(f"narrow axis {axis} out of range for shape {self.shape}")
        if start < 0 or length <= 0 or start + length > self.shape[axis]:
            raise ShapeError(
                f"narrow [{start}:{start + length}] exceeds axis {axis} of shape {self.shape}")
        index = (slice(None),) * axis + (slice(start, start + length),)

        def bw(g):
            full = np.zeros_like(self.data)
            full[index] = g
            _send(self, full)

        return _op(self.data[index].copy(), (self,), bw)

    # -- nonlinear reductions ----------------------------------------------

    def softmax(self, axis: int = -1) -> "Tensor":
        y = self.data - self.data.max(axis=axis, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=axis, keepdims=True)

        def bw(g):
            inner = (g * y).sum(axis=axis, keepdims=True)
            _send(self, y * (g - inner))

        return _op(y, (self,), bw)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        out = self.data - self.data.max(axis=axis, keepdims=True)
        out -= np.log(np.exp(out).sum(axis=axis, keepdims=True))

        def bw(g):
            _send(self, g - np.exp(out) * g.sum(axis=axis, keepdims=True))

        return _op(out, (self,), bw)


# -- tape plumbing ----------------------------------------------------------

def _same_shape(opname: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{opname} needs matching shapes, got {a.shape} and {b.shape}")


_recording: ContextVar[bool] = ContextVar("mtvlm_tape_recording", default=True)


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no tape inside the block: op results are constants with no
    parents. Recording is restored on exit, also when the block raises."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


_new_tensor = object.__new__


def _op(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """The result of an op, built without ``Tensor.__init__``'s checks.

    ``data`` must be a C-contiguous float64 array: every op hands over
    such an array (a test pins this for each of them), so the checks would
    only cost time. The one exception is numpy arithmetic on 0-d arrays,
    which returns a scalar.
    """
    out = _new_tensor(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.grad = out._pass_grad = None
    out.requires_grad = _recording.get() and any(p.requires_grad for p in parents)
    out._parents, out._backward = (parents, backward) if out.requires_grad else ((), None)
    return out


def _send(t: Tensor, g: np.ndarray) -> None:
    """Add a gradient contribution to ``t`` for the current backward pass."""
    if not t.requires_grad:
        return
    g = np.asarray(g, dtype=np.float64).reshape(t.data.shape)
    if t._pass_grad is not None:
        t._pass_grad = t._pass_grad + g
    elif t._backward is None:
        # a leaf's gradient becomes its .grad, so it gets an array of its own
        t._pass_grad = g.copy()
    else:
        # an interior node's gradient is only read, and only during this
        # pass, so it may share memory with the upstream gradient
        t._pass_grad = np.ascontiguousarray(g)


# -- free functions ----------------------------------------------------------

def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat of an empty sequence")
    nd = tensors[0].ndim
    for t in tensors[1:]:
        if t.ndim != nd:
            raise ShapeError(f"concat rank mismatch: {tensors[0].shape} vs {t.shape}")

    def bw(g):
        offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            index = tuple(slice(None) if a != (axis % nd) else slice(lo, hi)
                          for a in range(nd))
            _send(t, g[index])

    return _op(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bw)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight.T + bias`` with weight shaped (out, in) and x (n, in)."""
    xs, ws = x.data.shape, weight.data.shape
    if len(xs) != 2 or len(ws) != 2:
        raise ShapeError(f"linear needs 2-d x and weight, got {xs} and {ws}")
    if xs[1] != ws[1]:
        raise ShapeError(f"linear input width {xs} vs weight {ws}")
    out = x.data @ weight.data.T
    parents = (x, weight)
    if bias is not None:
        if bias.data.shape != ws[:1]:
            raise ShapeError(f"linear bias {bias.shape} vs weight {ws}")
        out += bias.data
        parents = (x, weight, bias)

    def bw(g):
        _send(x, g @ weight.data)
        _send(weight, g.T @ x.data)
        if bias is not None:
            _send(bias, g.sum(axis=0))

    return _op(out, parents, bw)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, padding: int = 0) -> Tensor:
    """2-d cross-correlation over a (C, H, W) input, or a (B, C, H, W) batch
    of them, with (O, C, K, K) weights.

    K must be odd; the output is (O, H', W'), or (B, O, H', W') for a batch,
    with H' = H - K + 1 + 2*padding and W' = W - K + 1 + 2*padding. A batch
    runs as one im2col matrix, so each direction is one matmul however many
    samples it holds.
    """
    if x.ndim not in (3, 4):
        raise ShapeError(f"conv2d input must be (C, H, W) or (B, C, H, W), got {x.shape}")
    if weight.ndim != 4:
        raise ShapeError(f"conv2d weight must be (O, C, K, K), got {weight.shape}")
    o, wc, kh, kw = weight.shape
    b = x.shape[0] if x.ndim == 4 else 1
    c, h, w = x.shape[-3:]
    if kh != kw:
        raise ShapeError(f"conv2d kernel must be square, got {weight.shape}")
    k = kh
    if k % 2 != 1:
        raise ShapeError(f"conv2d kernel size must be odd, got {k}")
    if wc != c:
        raise ShapeError(f"conv2d channels disagree: input {x.shape}, weight {weight.shape}")
    if padding < 0:
        raise ShapeError(f"conv2d padding must be >= 0, got {padding}")
    ho = h - k + 1 + 2 * padding
    wo = w - k + 1 + 2 * padding
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d output would be empty: input {x.shape}, k={k}, padding={padding}")

    # im2col: one (C*K*K, B*ho*wo) column matrix, so each direction is a matmul
    xp = x.data.reshape(b, c, h, w)
    if padding:     # by slice assignment: np.pad costs more than a small conv
        xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding))
        xp[:, :, padding:padding + h, padding:padding + w] = x.data.reshape(b, c, h, w)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    cols = windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * k * k, b * ho * wo)
    w2 = weight.data.reshape(o, c * k * k)
    out = w2 @ cols
    parents = [x, weight]
    if bias is not None:
        if bias.shape != (o,):
            raise ShapeError(f"conv2d bias {bias.shape} vs weight {weight.shape}")
        out += bias.data[:, None]
        parents.append(bias)
    out = np.ascontiguousarray(out.reshape(o, b, ho, wo).transpose(1, 0, 2, 3))
    out = out.reshape(x.shape[:-3] + (o, ho, wo))

    def bw(g):
        g2 = g.reshape(b, o, ho * wo).transpose(1, 0, 2).reshape(o, b * ho * wo)
        dcols = (w2.T @ g2).reshape(c, k, k, b, ho, wo)
        dxp = np.zeros((c, b) + xp.shape[2:])
        for i in range(k):
            for j in range(k):
                dxp[:, :, i:i + ho, j:j + wo] += dcols[:, i, j]
        _send(x, dxp[:, :, padding:padding + h, padding:padding + w].swapaxes(0, 1))
        _send(weight, g2 @ cols.T)
        if bias is not None:
            _send(bias, g2.sum(axis=1))

    return _op(out, tuple(parents), bw)


def cosine_similarity(a: Tensor, b: Tensor, eps: float = 1e-8) -> Tensor:
    """Cosine of two 1-d vectors, or row-wise cosines of two (L, D) matrices.

    Two vectors give a 0-d result and two matrices an (L,) one; a vector is
    handled as a single row. Each row's norms are clamped below at ``eps``.
    The dot product and both squared norms come from the same reduction,
    and an unclamped denominator is sqrt(|a|^2 * |b|^2) rather than a
    product of two square roots: for bitwise-identical rows that makes the
    result exactly 1.0 (sqrt(s*s) == s in IEEE double), which the
    identity-collapse property downstream relies on.
    """
    if a.ndim not in (1, 2) or b.ndim != a.ndim:
        raise ShapeError(f"cosine_similarity needs two 1-d vectors or two (L, D) "
                         f"matrices, got {a.shape} and {b.shape}")
    _same_shape("cosine_similarity", a, b)
    a2 = a.data.reshape(-1, a.shape[-1])
    b2 = b.data.reshape(-1, b.shape[-1])
    dot = np.einsum("ij,ij->i", a2, b2)
    sa = np.einsum("ij,ij->i", a2, a2)
    sb = np.einsum("ij,ij->i", b2, b2)
    clamp_a = np.sqrt(sa) <= eps
    clamp_b = np.sqrt(sb) <= eps
    denom = np.where(clamp_a | clamp_b,
                     np.maximum(np.sqrt(sa), eps) * np.maximum(np.sqrt(sb), eps),
                     np.sqrt(sa * sb))
    c = dot / denom

    def bw(g):
        # a clamped norm is a constant, so its branch contributes nothing
        ka = np.divide(c, sa, out=np.zeros_like(c), where=~clamp_a)[:, None]
        kb = np.divide(c, sb, out=np.zeros_like(c), where=~clamp_b)[:, None]
        g = g.reshape(-1, 1)
        _send(a, g * (b2 / denom[:, None] - ka * a2))
        _send(b, g * (a2 / denom[:, None] - kb * b2))

    return _op(c.reshape(a.shape[:-1]), (a, b), bw)


def embedding(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Gather rows ``ids`` from a (V, D) table.

    Backward scatter-adds each gradient row into its id's row with one
    ``np.bincount`` over flattened (id, column) bins. bincount adds in input
    order, as ``np.add.at`` does, so repeated ids sum in the order given."""
    if table.ndim != 2:
        raise ShapeError(f"embedding table must be 2-d, got {table.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"embedding ids must be 1-d, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ContractError(f"embedding id out of range for table of {table.shape[0]} rows")

    def bw(g):
        v, d = table.data.shape
        bins = (idx[:, None] * d + np.arange(d)).ravel()
        _send(table, np.bincount(bins, weights=g.ravel(), minlength=v * d))

    return _op(table.data[idx], (table,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply an elementwise affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine must be ({d},), got {gain.shape} and {bias.shape}")
    # the arithmetic of ndarray.mean and .var, centring once instead of twice
    xhat = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / d
    out = xhat * xhat
    inv = 1.0 / np.sqrt(np.add.reduce(out, axis=-1, keepdims=True) / d + eps)
    xhat *= inv

    def bw(g):
        lead = tuple(range(x.ndim - 1))
        _send(gain, (g * xhat).sum(axis=lead))
        _send(bias, g.sum(axis=lead))
        gg = g * gain.data
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        _send(x, inv * (gg - m1 - xhat * m2))

    np.multiply(xhat, gain.data, out=out)
    out += bias.data
    return _op(out, (x, gain, bias), bw)


def take(t: Tensor, rows: Sequence[int], cols: Sequence[int]) -> Tensor:
    """Pick entries (rows[i], cols[i]) from a 2-d tensor as a 1-d tensor.

    Backward scatter-adds like ``embedding``'s: one ``np.bincount`` over
    flattened (row, col) bins, in input order."""
    if t.ndim != 2:
        raise ShapeError(f"take needs a 2-d tensor, got {t.shape}")
    r = np.asarray(rows, dtype=np.int64)
    c = np.asarray(cols, dtype=np.int64)
    if r.shape != c.shape or r.ndim != 1:
        raise ShapeError(f"take indices must be matching 1-d arrays, got {r.shape} and {c.shape}")
    if r.size == 0:
        raise ContractError("take of zero positions")
    if r.min() < 0 or r.max() >= t.shape[0] or c.min() < 0 or c.max() >= t.shape[1]:
        raise ContractError(f"take index out of range for shape {t.shape}")

    def bw(g):
        n_rows, n_cols = t.data.shape
        _send(t, np.bincount(r * n_cols + c, weights=g, minlength=n_rows * n_cols))

    return _op(t.data[r, c], (t,), bw)


# -- parameters ---------------------------------------------------------------

class ParameterSet:
    """All parameters of a model: each a leaf ``Tensor`` (``requires_grad``
    while trainable) under a unique dotted name. The names live only here,
    as the set's keys."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        p = self._params[name] = Tensor(data, requires_grad=True)
        return p

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def values(self):
        return self._params.values()

    def freeze(self, prefixes: Iterable[str]) -> list[str]:
        """Mark matching parameters constant; returns the frozen names."""
        prefixes = tuple(prefixes)
        frozen = []
        for name, p in self._params.items():
            if name.startswith(prefixes):
                p.requires_grad = False
                p.grad = None
                frozen.append(name)
        return frozen

    def trainable(self) -> list[Tensor]:
        return [p for p in self._params.values() if p.requires_grad]

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad = None

    def state(self) -> dict[str, np.ndarray]:
        return {n: p.data.copy() for n, p in self._params.items()}

    def load_state(self, mapping: dict[str, np.ndarray], strict: bool = True) -> None:
        """Copy ``mapping``'s arrays into the named parameters, so the caller's
        arrays stay its own."""
        missing = [n for n in self._params if n not in mapping]
        if strict and missing:
            raise ContractError(f"checkpoint is missing parameters: {missing[:5]}")
        for n, arr in mapping.items():
            if n not in self._params:
                if strict:
                    raise ContractError(f"checkpoint has unknown parameter {n!r}")
                continue
            p = self._params[n]
            if p.data.shape != arr.shape:
                raise ShapeError(
                    f"checkpoint shape {arr.shape} does not match parameter "
                    f"{n!r} of shape {p.data.shape}")
            p.data = np.array(arr, dtype=np.float64, order="C")
