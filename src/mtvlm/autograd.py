"""Dense float64 tensors with reverse-mode automatic differentiation.

Every differentiable computation in the pipeline (change extraction, the
projector MLP, the causal language model) is expressed through the ops in
this module. Design constraints, chosen for auditability over speed:

* float64 only, row-major storage, no views that alias gradients;
* elementwise binary ops require exactly matching shapes (the only
  broadcast anywhere is the bias add inside ``linear`` and ``conv2d``);
* the tape is built eagerly by closures and walked once per ``backward``;
* repeated ``backward`` calls accumulate into ``.grad`` until the caller
  zeroes them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

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

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        """A constant copy of this tensor, off the tape."""
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- tape -------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(node) into .grad of every reachable node.

        ``self`` must be a scalar (0-d). Repeated calls add another full
        pass of gradients; callers that want fresh gradients must zero
        them first.
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
        for node in reversed(topo):
            if node._backward is not None and node._pass_grad is not None:
                node._backward(node._pass_grad)
        for node in topo:
            if node._pass_grad is None:
                continue
            if node.grad is None:
                node.grad = node._pass_grad
            else:
                node.grad = node.grad + node._pass_grad
            node._pass_grad = None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        other = _as_tensor(other)
        _same_shape("add", self, other)
        return _op(self.data + other.data, (self, other),
                   lambda g: (_send(self, g), _send(other, g)))

    def __sub__(self, other: "Tensor") -> "Tensor":
        other = _as_tensor(other)
        _same_shape("sub", self, other)
        return _op(self.data - other.data, (self, other),
                   lambda g: (_send(self, g), _send(other, -g)))

    def __neg__(self) -> "Tensor":
        return _op(-self.data, (self,), lambda g: _send(self, -g))

    def __mul__(self, other: "Tensor") -> "Tensor":
        other = _as_tensor(other)
        _same_shape("mul", self, other)
        return _op(self.data * other.data, (self, other),
                   lambda g: (_send(self, g * other.data), _send(other, g * self.data)))

    def scale(self, s) -> "Tensor":
        """Multiply by a python float or a scalar tensor."""
        if isinstance(s, Tensor):
            if s.data.ndim != 0:
                raise ShapeError(f"scale factor must be scalar, got shape {s.shape}")
            return _op(self.data * s.data, (self, s),
                       lambda g: (_send(self, g * s.data),
                                  _send(s, np.asarray((g * self.data).sum()))))
        s = float(s)
        return _op(self.data * s, (self,), lambda g: _send(self, g * s))

    def matmul(self, other: "Tensor") -> "Tensor":
        """Product over the last two axes; leading (batch) axes must be equal."""
        other = _as_tensor(other)
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
        mask = self.data > 0.0
        return _op(np.where(mask, self.data, 0.0), (self,),
                   lambda g: _send(self, g * mask))

    def sum(self) -> "Tensor":
        return _op(np.asarray(self.data.sum()), (self,),
                   lambda g: _send(self, np.full_like(self.data, g)))

    # -- structure ---------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        if int(np.prod(shape)) != self.data.size:
            raise ShapeError(f"cannot reshape {self.shape} to {tuple(shape)}")
        old = self.shape
        return _op(self.data.reshape(shape), (self,),
                   lambda g: _send(self, g.reshape(old)))

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if sorted(axes) != list(range(self.ndim)):
            raise ShapeError(f"transpose axes {axes} invalid for shape {self.shape}")
        inverse = tuple(np.argsort(axes))
        return _op(np.ascontiguousarray(self.data.transpose(axes)), (self,),
                   lambda g: _send(self, np.ascontiguousarray(g.transpose(inverse))))

    def narrow(self, axis: int, start: int, length: int) -> "Tensor":
        if not (0 <= axis < self.ndim):
            raise ShapeError(f"narrow axis {axis} out of range for shape {self.shape}")
        if start < 0 or length <= 0 or start + length > self.shape[axis]:
            raise ShapeError(
                f"narrow [{start}:{start + length}] exceeds axis {axis} of shape {self.shape}")
        index = tuple(slice(None) if a != axis else slice(start, start + length)
                      for a in range(self.ndim))

        def bw(g):
            full = np.zeros_like(self.data)
            full[index] = g
            _send(self, full)

        return _op(self.data[index].copy(), (self,), bw)

    # -- nonlinear reductions ----------------------------------------------

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=axis, keepdims=True)

        def bw(g):
            inner = (g * y).sum(axis=axis, keepdims=True)
            _send(self, y * (g - inner))

        return _op(y, (self,), bw)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        logz = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = shifted - logz
        soft = np.exp(out)

        def bw(g):
            _send(self, g - soft * g.sum(axis=axis, keepdims=True))

        return _op(out, (self,), bw)


# -- tape plumbing ----------------------------------------------------------

def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _same_shape(opname: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{opname} needs matching shapes, got {a.shape} and {b.shape}")


def _op(data: np.ndarray, parents: tuple, backward) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _send(t: Tensor, g: np.ndarray) -> None:
    """Add a gradient contribution to ``t`` for the current backward pass."""
    if not t.requires_grad:
        return
    g = np.asarray(g, dtype=np.float64)
    if t._pass_grad is None:
        t._pass_grad = g.reshape(t.data.shape).copy()
    else:
        t._pass_grad = t._pass_grad + g.reshape(t.data.shape)


# -- free functions ----------------------------------------------------------

def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ContractError("concat of an empty sequence")
    nd = tensors[0].ndim
    for t in tensors[1:]:
        if t.ndim != nd:
            raise ShapeError(f"concat rank mismatch: {tensors[0].shape} vs {t.shape}")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            index = tuple(slice(None) if a != (axis % nd) else slice(lo, hi)
                          for a in range(nd))
            _send(t, g[index])

    return _op(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bw)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight.T + bias`` with weight shaped (out, in) and x (n, in)."""
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.ndim != 2 or weight.ndim != 2:
        raise ShapeError(f"linear needs 2-d x and weight, got {x.shape} and {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear input width {x.shape} vs weight {weight.shape}")
    out = x.data @ weight.data.T
    parents = [x, weight]
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (weight.shape[0],):
            raise ShapeError(f"linear bias {bias.shape} vs weight {weight.shape}")
        out = out + bias.data
        parents.append(bias)

    def bw(g):
        _send(x, g @ weight.data)
        _send(weight, g.T @ x.data)
        if bias is not None:
            _send(bias, g.sum(axis=0))

    return _op(out, tuple(parents), bw)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, padding: int = 0) -> Tensor:
    """2-d cross-correlation over a (C, H, W) input with (O, C, K, K) weights.

    K must be odd; the output is (O, H - K + 1 + 2*padding, W - K + 1 + 2*padding).
    """
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.ndim != 3:
        raise ShapeError(f"conv2d input must be (C, H, W), got {x.shape}")
    if weight.ndim != 4:
        raise ShapeError(f"conv2d weight must be (O, C, K, K), got {weight.shape}")
    o, wc, kh, kw = weight.shape
    c, h, w = x.shape
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

    xp = np.pad(x.data, ((0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((o, ho, wo))
    for i in range(k):
        for j in range(k):
            # (O, C) x (C, ho, wo) contracted over C
            out += np.tensordot(weight.data[:, :, i, j], xp[:, i:i + ho, j:j + wo], axes=([1], [0]))
    parents = [x, weight]
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (o,):
            raise ShapeError(f"conv2d bias {bias.shape} vs weight {weight.shape}")
        out = out + bias.data[:, None, None]
        parents.append(bias)

    def bw(g):
        dw = np.zeros_like(weight.data)
        dxp = np.zeros_like(xp)
        for i in range(k):
            for j in range(k):
                patch = xp[:, i:i + ho, j:j + wo]
                dw[:, :, i, j] = np.tensordot(g, patch, axes=([1, 2], [1, 2]))
                dxp[:, i:i + ho, j:j + wo] += np.tensordot(weight.data[:, :, i, j], g,
                                                           axes=([0], [0]))
        if padding:
            dx = dxp[:, padding:-padding, padding:-padding]
        else:
            dx = dxp
        _send(x, dx)
        _send(weight, dw)
        if bias is not None:
            _send(bias, g.sum(axis=(1, 2)))

    return _op(out, tuple(parents), bw)


def cosine_similarity(a: Tensor, b: Tensor, eps: float = 1e-8) -> Tensor:
    """Cosine of two 1-d vectors with norms clamped below at ``eps``.

    The denominator is computed as sqrt(|a|^2 * |b|^2) rather than as a
    product of two square roots: for bitwise-identical inputs that makes
    the result exactly 1.0 (sqrt(s*s) == s in IEEE double), which the
    identity-collapse property downstream relies on.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 1 or b.ndim != 1:
        raise ShapeError(f"cosine_similarity needs 1-d vectors, got {a.shape} and {b.shape}")
    _same_shape("cosine_similarity", a, b)
    dot = float(a.data @ b.data)
    sa = float(a.data @ a.data)
    sb = float(b.data @ b.data)
    clamp_a = np.sqrt(sa) <= eps
    clamp_b = np.sqrt(sb) <= eps
    if clamp_a or clamp_b:
        denom = max(np.sqrt(sa), eps) * max(np.sqrt(sb), eps)
    else:
        denom = float(np.sqrt(sa * sb))
    c = dot / denom

    def bw(g):
        g = float(g)
        da = b.data / denom
        db = a.data / denom
        # a clamped norm is a constant, so its branch contributes nothing
        if not clamp_a:
            da = da - c * a.data / sa
        if not clamp_b:
            db = db - c * b.data / sb
        _send(a, g * da)
        _send(b, g * db)

    return _op(np.asarray(c), (a, b), bw)


def embedding(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Gather rows ``ids`` from a (V, D) table; backward scatter-adds."""
    table = _as_tensor(table)
    if table.ndim != 2:
        raise ShapeError(f"embedding table must be 2-d, got {table.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"embedding ids must be 1-d, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ContractError(f"embedding id out of range for table of {table.shape[0]} rows")

    def bw(g):
        dt = np.zeros_like(table.data)
        np.add.at(dt, idx, g)
        _send(table, dt)

    return _op(table.data[idx].copy(), (table,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply an elementwise affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine must be ({d},), got {gain.shape} and {bias.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv

    def bw(g):
        lead = tuple(range(x.ndim - 1))
        _send(gain, (g * xhat).sum(axis=lead))
        _send(bias, g.sum(axis=lead))
        gg = g * gain.data
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        _send(x, inv * (gg - m1 - xhat * m2))

    return _op(xhat * gain.data + bias.data, (x, gain, bias), bw)


def take(t: Tensor, rows: Sequence[int], cols: Sequence[int]) -> Tensor:
    """Pick entries (rows[i], cols[i]) from a 2-d tensor as a 1-d tensor."""
    t = _as_tensor(t)
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
        dt = np.zeros_like(t.data)
        np.add.at(dt, (r, c), g)
        _send(t, dt)

    return _op(t.data[r, c].copy(), (t,), bw)


# -- parameters ---------------------------------------------------------------

class Parameter:
    """A named leaf tensor that optimizers may update."""

    def __init__(self, name: str, tensor: Tensor):
        self.name = name
        self.tensor = tensor

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        self.tensor.data = np.ascontiguousarray(value, dtype=np.float64)

    @property
    def grad(self) -> np.ndarray | None:
        return self.tensor.grad

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


class ParameterSet:
    """All parameters of a model, keyed by unique dotted names."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def add(self, name: str, data) -> Parameter:
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=True)
        p = Parameter(name, t)
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def values(self):
        return self._params.values()

    def with_prefix(self, prefix: str) -> list[Parameter]:
        return [p for n, p in self._params.items() if n.startswith(prefix)]

    def freeze(self, prefixes: Iterable[str]) -> list[str]:
        """Mark matching parameters constant; returns the frozen names."""
        prefixes = tuple(prefixes)
        frozen = []
        for name, p in self._params.items():
            if name.startswith(prefixes):
                p.tensor.requires_grad = False
                p.tensor.grad = None
                frozen.append(name)
        return frozen

    def trainable(self) -> list[Parameter]:
        return [p for p in self._params.values() if p.tensor.requires_grad]

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.tensor.grad = None

    def state(self) -> dict[str, np.ndarray]:
        return {n: p.data.copy() for n, p in self._params.items()}

    def load_state(self, mapping: dict[str, np.ndarray], strict: bool = True) -> None:
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
            p.data = arr
