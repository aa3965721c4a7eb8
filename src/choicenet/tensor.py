"""Minimal dense-tensor library with reverse-mode automatic differentiation.

Tensors are float64 numpy arrays of rank <= 3 (batch x set x feature at most).
An op records a computation graph only while grad is enabled (outside
``no_grad()``) and some parent requires grad. ``Tensor.backward()`` on a
scalar runs the tape in reverse topological order and accumulates gradients
into every ``requires_grad`` tensor. Leaves created with ``requires_grad``
own a gradient buffer from the start; an op's output gets one only when
``backward()`` first reaches it, and tensors that do not require grad never
get one.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import platform
import threading

import numpy as np


def _keep_freed_memory() -> None:
    """Have glibc keep freed memory for reuse instead of handing it back.

    Every training step allocates and frees arrays of one to a few MB (the
    (B, N, N) attention maps and their gradients). Under glibc's default
    dynamic thresholds, whether such a block is reused from the heap or
    mapped again, page-faulting on first touch, depends on the heap's
    history: a bakery training epoch took 18k to 113k minor faults
    depending on the data seed, and up to a fifth longer. A fixed mmap
    threshold at glibc's 64-bit maximum (32 MB) and no heap trimming make
    every step reuse the same memory; the heap then stays at its peak size.
    Nothing is changed off glibc, or when either threshold is set through
    ``MALLOC_MMAP_THRESHOLD_`` / ``MALLOC_TRIM_THRESHOLD_``."""
    if platform.libc_ver()[0] != "glibc":
        return
    if "MALLOC_MMAP_THRESHOLD_" in os.environ or "MALLOC_TRIM_THRESHOLD_" in os.environ:
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    m_trim_threshold, m_mmap_threshold = -1, -3  # from <malloc.h>
    mallopt(m_mmap_threshold, 32 * 1024 * 1024)
    mallopt(m_trim_threshold, 2**31 - 1)


_keep_freed_memory()


class ShapeError(ValueError):
    pass


class DegenerateRowError(ValueError):
    """Raised when a softmax row has no unmasked entry."""


class NonFiniteError(FloatingPointError):
    pass


MAX_RANK = 3


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim > MAX_RANK:
        raise ShapeError(f"rank {arr.ndim} exceeds supported rank {MAX_RANK}")
    return arr


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values produced by '{op}'")


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Run ops in this thread without recording a graph: their outputs have no
    parents, no backward closure and no gradient. The previous mode is
    restored on exit."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _accumulate(t: "Tensor", g, fresh: bool = True) -> None:
    """Add ``g`` into ``t.grad``. A ``fresh`` array, which no other tensor
    holds, becomes the first gradient as it is; anything else (an upstream
    gradient, a view of one, or the numpy scalar a 0-d product gives) is
    copied into a new array, so no two tensors share a buffer."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if fresh and type(g) is np.ndarray else np.array(g, order="C")
    else:
        t.grad += g


class Tensor:
    """Dense float64 array participating in reverse-mode autodiff.

    A tensor produced by an op holds references to its parents and a backward
    closure; the graph is only recorded while grad is enabled and some parent
    requires grad.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zeros(*shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def _from_op(data: np.ndarray, parents: tuple, backward, op: str) -> "Tensor":
        _check_finite(data, op)
        out = Tensor(data)
        if _grad_mode.enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        if self.shape != other.shape:
            raise ShapeError(f"add shapes {self.shape} vs {other.shape}")

        def backward(dy, a=self, b=other):
            _accumulate(a, dy, fresh=False)
            _accumulate(b, dy, fresh=False)

        return Tensor._from_op(self.data + other.data, (self, other), backward, "add")

    def __mul__(self, other: "Tensor") -> "Tensor":
        if self.shape != other.shape:
            raise ShapeError(f"mul shapes {self.shape} vs {other.shape}")

        def backward(dy, a=self, b=other):
            if a.requires_grad:
                _accumulate(a, dy * b.data)
            if b.requires_grad:
                _accumulate(b, dy * a.data)

        return Tensor._from_op(self.data * other.data, (self, other), backward, "mul")

    def scale(self, c: float) -> "Tensor":
        c = float(c)

        def backward(dy, a=self):
            _accumulate(a, dy * c)

        return Tensor._from_op(self.data * c, (self,), backward, "scale")

    def shift(self, c: float) -> "Tensor":
        """Add a python scalar to every entry."""
        c = float(c)

        def backward(dy, a=self):
            _accumulate(a, dy, fresh=False)

        return Tensor._from_op(self.data + c, (self,), backward, "shift")

    def __sub__(self, other: "Tensor") -> "Tensor":
        return self + other.scale(-1.0)

    def add_bias(self, bias: "Tensor") -> "Tensor":
        """Add a rank-1 bias along the last axis."""
        if bias.data.ndim != 1 or bias.shape[0] != self.shape[-1]:
            raise ShapeError(f"bias shape {bias.shape} vs last dim {self.shape}")

        def backward(dy, a=self, b=bias):
            _accumulate(a, dy, fresh=False)
            if b.requires_grad:
                axes = tuple(range(dy.ndim - 1))
                _accumulate(b, dy.sum(axis=axes), fresh=bool(axes))

        return Tensor._from_op(self.data + bias.data, (self, bias), backward, "add_bias")

    # -- linear algebra -------------------------------------------------------

    def matmul(self, other: "Tensor") -> "Tensor":
        a, b = self.data, other.data
        if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
            raise ShapeError(f"matmul inner dims {a.shape} vs {b.shape}")

        def backward(dy, ta=self, tb=other):
            # collapse broadcast batch axes back onto the operand's shape
            if ta.requires_grad:
                da = np.matmul(dy, np.swapaxes(tb.data, -1, -2))
                while da.ndim > ta.data.ndim:
                    da = da.sum(axis=0)
                _accumulate(ta, da)
            if tb.requires_grad:
                db = np.matmul(np.swapaxes(ta.data, -1, -2), dy)
                while db.ndim > tb.data.ndim:
                    db = db.sum(axis=0)
                _accumulate(tb, db)

        return Tensor._from_op(np.matmul(a, b), (self, other), backward, "matmul")

    def transpose_last(self) -> "Tensor":
        if self.data.ndim < 2:
            raise ShapeError("transpose_last needs rank >= 2")

        def backward(dy, a=self):
            _accumulate(a, np.swapaxes(dy, -1, -2), fresh=False)

        return Tensor._from_op(np.swapaxes(self.data, -1, -2), (self,), backward, "transpose")

    # -- nonlinearities -------------------------------------------------------

    def relu(self) -> "Tensor":
        # subgradient at 0 is 0
        def backward(dy, a=self):
            _accumulate(a, dy * (a.data > 0))

        return Tensor._from_op(np.maximum(self.data, 0.0), (self,), backward, "relu")

    def one_plus_relu(self) -> "Tensor":
        def backward(dy, a=self):
            _accumulate(a, dy * (a.data > 0))

        return Tensor._from_op(1.0 + np.maximum(self.data, 0.0), (self,), backward, "one_plus_relu")

    def sigmoid(self) -> "Tensor":
        y = 1.0 / (1.0 + np.exp(-self.data))

        def backward(dy, a=self, yv=y):
            _accumulate(a, dy * yv * (1.0 - yv))

        return Tensor._from_op(y, (self,), backward, "sigmoid")

    def log(self, floor: float = 0.0) -> "Tensor":
        """Natural log; values below ``floor`` are clamped before the log."""
        x = np.maximum(self.data, floor) if floor > 0 else self.data
        if np.any(x <= 0):
            raise NonFiniteError("log of non-positive value without floor")

        def backward(dy, a=self, xv=x):
            g = dy / xv
            if floor > 0:
                g = np.where(a.data >= floor, g, 0.0)
            _accumulate(a, g)

        return Tensor._from_op(np.log(x), (self,), backward, "log")

    # -- reductions -----------------------------------------------------------

    def sum(self) -> "Tensor":
        def backward(dy, a=self):
            _accumulate(a, dy * np.ones_like(a.data))

        return Tensor._from_op(np.asarray(self.data.sum()), (self,), backward, "sum")

    def mean(self) -> "Tensor":
        n = self.data.size

        def backward(dy, a=self):
            _accumulate(a, dy * np.full_like(a.data, 1.0 / n))

        return Tensor._from_op(np.asarray(self.data.mean()), (self,), backward, "mean")

    def reshape(self, *shape) -> "Tensor":
        if int(np.prod(shape)) != self.data.size:
            raise ShapeError(f"cannot reshape {self.shape} to {shape}")

        def backward(dy, a=self):
            _accumulate(a, dy.reshape(a.data.shape), fresh=False)

        return Tensor._from_op(self.data.reshape(shape), (self,), backward, "reshape")

    # -- structured ops -------------------------------------------------------

    def masked_softmax(self, mask: np.ndarray, scale: float = 1.0) -> "Tensor":
        """Softmax over the last axis of ``scale * self``, restricted to
        unmasked (True) entries.

        ``mask`` may have any shape that broadcasts to this tensor's, such as
        a (B, 1, N) key mask for (B, M, N) scores. A 0/-inf bias built from it
        is added once, so masked entries are exactly 0 in the output; the row
        max is subtracted before the exponential for stability.
        """
        mask = np.asarray(mask, dtype=bool)
        if not mask.any(axis=-1).all():
            raise DegenerateRowError("masked_softmax: fully-masked row")
        scale = float(scale)
        y = self.data * scale
        y += np.where(mask, 0.0, -np.inf)
        y -= y.max(axis=-1, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=-1, keepdims=True)

        def backward(dy, a=self, yv=y):
            # masked entries of y are exactly 0, so they get no gradient
            g = dy - (dy * yv).sum(axis=-1, keepdims=True)
            g *= yv
            if scale != 1.0:
                g *= scale
            _accumulate(a, g)

        return Tensor._from_op(y, (self,), backward, "masked_softmax")

    def layer_norm(self, gain: "Tensor", bias: "Tensor", eps: float = 1e-5) -> "Tensor":
        d = self.shape[-1]
        if gain.shape != (d,) or bias.shape != (d,):
            raise ShapeError("layer_norm gain/bias must match last dim")
        mu = self.data.mean(axis=-1, keepdims=True)
        var = self.data.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (self.data - mu) * inv

        def backward(dy, a=self, g=gain, b=bias, xh=xhat, iv=inv):
            gdy = dy * g.data
            m1 = gdy.mean(axis=-1, keepdims=True)
            m2 = (gdy * xh).mean(axis=-1, keepdims=True)
            _accumulate(a, (gdy - m1 - xh * m2) * iv)
            axes = tuple(range(dy.ndim - 1))
            if g.requires_grad:
                _accumulate(g, (dy * xh).sum(axis=axes))
            if b.requires_grad:
                _accumulate(b, dy.sum(axis=axes), fresh=bool(axes))

        return Tensor._from_op(
            xhat * gain.data + bias.data, (self, gain, bias), backward, "layer_norm"
        )

    def dropout(self, rate: float, training: bool, rng: np.random.Generator) -> "Tensor":
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate {rate} outside [0, 1)")
        if not training or rate == 0.0:
            return self
        keep = rng.random(self.shape) >= rate
        scale = 1.0 / (1.0 - rate)

        def backward(dy, a=self, k=keep):
            _accumulate(a, dy * k * scale)

        return Tensor._from_op(self.data * keep * scale, (self,), backward, "dropout")

    # -- backward pass --------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode pass from a scalar; accumulates into the ``grad`` of
        every tensor on the graph that requires grad."""
        if self.data.ndim != 0 and self.data.size != 1:
            raise ShapeError("backward requires a scalar loss")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along ``axis`` with gradient routed back to each slice."""
    datas = [t.data for t in tensors]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(dy, ts=tensors, offs=offsets, ax=axis):
        for t, lo, hi in zip(ts, offs[:-1], offs[1:]):
            idx = [slice(None)] * dy.ndim
            idx[ax] = slice(lo, hi)
            _accumulate(t, dy[tuple(idx)], fresh=False)

    return Tensor._from_op(out, tuple(tensors), backward, "concat")
