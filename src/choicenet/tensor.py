"""Minimal dense-tensor library with reverse-mode automatic differentiation.

Tensors are float64 numpy arrays of rank <= 3 (batch x set x feature at most).
An op records a computation graph only while grad is enabled (outside
``no_grad()``) and some parent requires grad. ``Tensor.backward()`` on a
scalar runs the tape in reverse topological order and accumulates gradients
into every ``requires_grad`` tensor. Leaves created with ``requires_grad``
own a gradient buffer from the start; an op's output gets one only when
``backward()`` first reaches it, and tensors that do not require grad never
get one. ``backward()`` frees the graph as it goes: each node drops its
parents and its backward closure once that backward has run, so after the
pass only the tensors the caller still holds (the leaves, the root, any
intermediate it kept) have a ``grad``, and a second ``backward()`` through
the same graph raises.
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
    if not np.isfinite(arr).all():
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


def _freed(dy) -> None:
    """The backward of a node that ``backward()`` has already run and freed."""
    raise RuntimeError(
        "backward through a graph that an earlier backward() freed; "
        "run the forward again to get a new graph"
    )


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """``g`` summed back onto an operand of ``shape`` that broadcast against
    it: over the leading axes the operand lacks, and (kept) over every axis
    where the operand has size 1 and ``g`` does not."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, (n, m) in enumerate(zip(shape, g.shape)) if n == 1 and m != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


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
            if ta.requires_grad:
                _accumulate(ta, _unbroadcast(np.matmul(dy, np.swapaxes(tb.data, -1, -2)), ta.shape))
            if tb.requires_grad:
                _accumulate(tb, _unbroadcast(np.matmul(np.swapaxes(ta.data, -1, -2), dy), tb.shape))

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
        xc = self.data - self.data.sum(axis=-1, keepdims=True) / d
        inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / d + eps)
        xhat = xc * inv

        def backward(dy, a=self, g=gain, b=bias, xh=xhat, iv=inv):
            gdy = dy * g.data
            m1 = gdy.sum(axis=-1, keepdims=True) / d
            m2 = (gdy * xh).sum(axis=-1, keepdims=True) / d
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
        every tensor on the graph that requires grad, and frees the graph as
        it goes (see the module docstring). A second ``backward()`` through a
        freed node raises ``RuntimeError`` before any gradient moves."""
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
            if node._backward is _freed:
                _freed(None)
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node._backward, node._parents = _freed, ()


SOFTMAX = "softmax"
ONE_PLUS_RELU = "one_plus_relu"

# attention_heads runs its rows in blocks whose weights take at most this many
# bytes, so that a block's weights and the backward's scratch of the same
# size stay in a core's L2 cache between the passes over them
BLOCK_BYTES = 512 * 1024


def attention_heads(
    q: Tensor,
    kv: Tensor,
    key_mask: np.ndarray,
    n_heads: int,
    activation: str,
    scale: float = 1.0,
) -> tuple[Tensor, np.ndarray]:
    """Every head's attention ``phi(scale * Q_k K_k^T) V_k`` of one sublayer
    as a single op.

    ``q`` is B x N x h*dk with the heads side by side. ``kv`` is G x M x
    (h*dk + h*dv): every head's keys, then every head's values; G is B, or 1
    for one entry that serves every row. ``key_mask`` (B or 1) x M marks the
    keys each row attends to. With ``SOFTMAX`` a head's weights are the
    softmax of its scaled scores over the unmasked keys; with
    ``ONE_PLUS_RELU`` they are ``1 + relu`` of them on unmasked keys and 0
    elsewhere, not normalized.

    Returns the B x N x h*dv output, heads side by side, and the B x h x N x M
    weights. Only the weights (and, for ``ONE_PLUS_RELU``, which unmasked
    scores are positive) are kept for the backward. Every head's scores and
    the output are checked to be finite.

    Forward and backward run over blocks of rows, as many as fit
    ``BLOCK_BYTES`` of weights (at least one), so each pass over a block's
    weights finds them in cache; the block size follows from the shape
    alone. Every pass works per row, or per (row, head) for the matmuls, so
    the results do not depend on the blocks, bit for bit. A block whose rows
    mask no key skips the mask pass, which would change nothing.
    """
    bsz, n, dq = q.shape
    entries, m, width = kv.shape
    h = int(n_heads)
    if h < 1 or dq % h or width <= dq or (width - dq) % h or entries not in (1, bsz):
        raise ShapeError(f"attention_heads: q {q.shape} vs kv {kv.shape} with {h} heads")
    if activation not in (SOFTMAX, ONE_PLUS_RELU):
        raise ValueError(f"unknown attention activation {activation!r}")
    dk, dv = dq // h, (width - dq) // h
    keys = np.asarray(key_mask, dtype=bool)[:, None, None, :]
    scale = float(scale)
    qh = q.data.reshape(bsz, n, h, dk).transpose(0, 2, 1, 3)
    kh = kv.data[..., :dq].reshape(entries, m, h, dk).transpose(0, 2, 1, 3)
    vh = kv.data[..., dq:].reshape(entries, m, h, dv).transpose(0, 2, 1, 3)
    step = max(1, BLOCK_BYTES // (8 * h * n * m))
    blocks = range(0, bsz, step)

    def rows(a, lo):
        """The rows of ``a`` in the block from ``lo``; one entry serves all."""
        return a if len(a) == 1 else a[lo:lo + step]

    w = np.empty((bsz, h, n, m))  # B x h x N x M scores, then weights
    out = np.empty((bsz, n, h, dv))
    live = np.empty(w.shape, dtype=bool) if activation == ONE_PLUS_RELU else None
    for lo in blocks:
        wb = np.matmul(qh[lo:lo + step], rows(kh, lo).swapaxes(-1, -2), out=w[lo:lo + step])
        _check_finite(wb, "attention_heads")
        if scale != 1.0:
            wb *= scale
        kb = rows(keys, lo)
        masked = np.count_nonzero(kb) < kb.size
        if live is None:
            if masked:
                if np.count_nonzero(kb.any(axis=-1)) < len(kb):
                    raise DegenerateRowError("attention_heads: fully-masked row")
                wb += np.where(kb, 0.0, -np.inf)
            wb -= wb.max(axis=-1, keepdims=True)
            np.exp(wb, out=wb)
            wb /= wb.sum(axis=-1, keepdims=True)
        else:
            lb = np.greater(wb, 0.0, out=live[lo:lo + step])
            np.maximum(wb, 0.0, out=wb)
            wb += 1.0
            if masked:
                lb &= kb
                wb *= kb
        np.matmul(wb, rows(vh, lo), out=out[lo:lo + step].transpose(0, 2, 1, 3))
    out = out.reshape(bsz, n, h * dv)

    def backward(dy, tq=q, tkv=kv):
        dyh = dy.reshape(bsz, n, h, dv).transpose(0, 2, 1, 3)
        if tq.requires_grad:
            dq4 = np.empty((bsz, n, h, dk))
        if tkv.requires_grad:
            dkh = np.empty((bsz, h, dk, m))
            dvh = np.empty((bsz, h, m, dv))
        for lo in blocks:
            wb, dyb = w[lo:lo + step], dyh[lo:lo + step]
            g = np.matmul(dyb, rows(vh, lo).swapaxes(-1, -2))  # d weights
            if live is None:
                # masked entries of w are exactly 0, so they get no gradient
                g -= (g * wb).sum(axis=-1, keepdims=True)
                g *= wb
            else:
                g *= live[lo:lo + step]
            if scale != 1.0:
                g *= scale  # g is now d scores
            if tq.requires_grad:
                np.matmul(g, rows(kh, lo), out=dq4[lo:lo + step].transpose(0, 2, 1, 3))
            if tkv.requires_grad:
                np.matmul(qh[lo:lo + step].swapaxes(-1, -2), g, out=dkh[lo:lo + step])
                np.matmul(wb.swapaxes(-1, -2), dyb, out=dvh[lo:lo + step])
        if tq.requires_grad:
            _accumulate(tq, dq4.reshape(bsz, n, dq))
        if tkv.requires_grad:
            dkv = np.concatenate(
                [dkh.transpose(0, 3, 1, 2).reshape(bsz, m, dq),
                 dvh.transpose(0, 2, 1, 3).reshape(bsz, m, h * dv)],
                axis=-1,
            )
            _accumulate(tkv, _unbroadcast(dkv, tkv.shape))

    return Tensor._from_op(out, (q, kv), backward, "attention_heads"), w


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


def take(t: Tensor, rows) -> Tensor:
    """The entries ``rows`` of ``t`` along its first axis: ``out[b] =
    t[rows[b]]``, for one or more ``rows``. An entry may be taken by any
    number of rows or by none; the backward adds every row's gradient into
    its entry, so an entry no row takes gets 0. The values were checked
    finite when ``t`` was made and are not checked again."""
    rows = np.asarray(rows)
    if t.data.ndim < 1 or rows.ndim != 1 or rows.dtype.kind not in "iu" or not rows.size:
        raise ShapeError(f"take: rows of shape {rows.shape} from {t.shape}")
    try:
        if rows.min() < 0:
            raise IndexError
        out = Tensor(t.data.take(rows, axis=0))  # IndexError past the last entry
    except IndexError:
        raise ShapeError(f"take: rows outside the {t.shape[0]} entries") from None
    if _grad_mode.enabled and t.requires_grad:
        # each entry's rows become one contiguous run, summed by reduceat
        order = np.argsort(rows, kind="stable")
        runs = rows[order]
        starts = np.flatnonzero(np.r_[True, runs[1:] != runs[:-1]])

        def backward(dy, a=t):
            g = np.zeros_like(a.data)
            g[runs[starts]] = np.add.reduceat(dy[order], starts, axis=0)
            _accumulate(a, g)

        out.requires_grad = True
        out._parents = (t,)
        out._backward = backward
    return out
