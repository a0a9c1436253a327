"""Dense float tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a ``numpy.ndarray`` and records the operations
applied to it.  Calling :meth:`Tensor.backward` on a scalar result walks
the recorded graph in reverse topological order and accumulates gradients
into every leaf that has ``requires_grad=True``.

The dtype follows the data: a float32 array stays float32 and every other
input becomes float64.  Each op computes in its inputs' dtype (conv1d and
linear in their weights'), so float32 weights give a float32 forward pass
(the no-grad decode) and float64 ones a float64 pass (training and the
gradchecks).  A gradient is accumulated in its tensor's dtype.

An operation states only its gradient rule: :func:`make_node` takes
``rule(g)``, which adds the input gradients for an output gradient ``g``,
and is the one place that knows how a node stores and runs it.

Memory contract: what a graph keeps between forward and backward is its
nodes' data plus what their rules hold.  A rule may hold its inputs, its
own output array and reduced statistics (a group norm's per-group mean and
inverse deviation); anything else of input size it rebuilds from those
when it runs.  Two copies no training step makes are the exception:
conv1d and linear keep ``x`` cast to their weights' dtype when the dtypes
differ, and a max or min over axes that are not trailing keeps the
transposed input it reduced.  Rules read their inputs' ``data`` at
backward time, so no code writes into a tensor's ``data`` after a node
has read it.
"""
from __future__ import annotations

from functools import partial

import numpy as np


class NumcoreError(Exception):
    """Base class for tensor-engine errors."""


class DimensionError(NumcoreError):
    """Shapes are incompatible for the requested operation."""


class DomainError(NumcoreError):
    """Input values are outside an operation's mathematical domain."""


class UsageError(NumcoreError):
    """The operation was called in an unsupported way."""


_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph recording (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._saved = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._saved
        return False


class Tensor:
    """Row-major float array participating in a differentiation graph.

    ``data`` is float32 when given a float32 array and float64 otherwise
    (ints, lists, float16 and float64 alike)."""

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_prev")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = (data if data.dtype == np.float32
                     else data.astype(np.float64, copy=False))
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward = None
        self._prev: tuple[Tensor, ...] = ()

    # -- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- gradient bookkeeping ------------------------------------------
    def is_leaf(self) -> bool:
        return not self._prev

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar root.

        Interior nodes are freed during the sweep: once a node's rule has
        run, its gradient, rule and inputs are dropped, so only leaf
        gradients survive, and they accumulate additively across calls.
        A second ``backward`` on the same non-leaf root raises
        :class:`UsageError`.
        """
        if self._backward is _RELEASED:
            raise UsageError("backward: graph already released")
        if self.data.size != 1:
            raise UsageError(
                f"backward requires a scalar root, got shape {self.shape}"
            )
        order = _toposort(self)
        interior = bool(self._prev)
        seed = np.ones_like(self.data)
        self.grad = seed if interior or self.grad is None else self.grad + seed
        while order:
            node = order.pop()
            if not node._prev:
                continue
            if node.grad is not None:
                node._backward(node)()
            node.grad = None
            node._backward = None
            node._prev = ()
        if interior:
            self._backward = _RELEASED


# marks a root whose graph a sweep has already freed
_RELEASED = object()


def _toposort(root: Tensor) -> list[Tensor]:
    """Iterative post-order topological sort (acyclic by construction)."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._prev:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def accumulate(t: Tensor, grad: np.ndarray) -> None:
    """Add ``grad`` into ``t.grad`` in ``t``'s dtype, reducing over
    broadcast axes."""
    if not t.requires_grad:
        return
    grad = unbroadcast(np.asarray(grad, dtype=t.data.dtype), t.data.shape)
    t.grad = grad if t.grad is None else t.grad + grad


def _bind(rule, node: Tensor):
    """The zero-argument closure that runs ``rule`` on ``node.grad``."""
    return lambda: rule(node.grad)


def make_node(data: np.ndarray, inputs: tuple[Tensor, ...], rule):
    """Create an output tensor; record the graph edge if grads are live.

    ``rule(g)`` adds the inputs' gradients for the output gradient ``g``
    (through :func:`accumulate`) and must not refer to the output tensor.
    It may hold the inputs, ``data`` and reduced statistics, and rebuilds
    any other array of input size when it runs; it reads the inputs'
    ``data`` then, so nothing may write into them in between.
    The node stores ``partial(_bind, rule)`` as ``_backward``, and the
    sweep calls ``node._backward(node)()``, which binds ``node.grad`` only
    then.  So a node never holds a closure referencing itself: finished
    graphs are freed by reference counting alone instead of waiting for
    cycle collection.
    """
    track = _GRAD_ENABLED and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=track)
    if track:
        out._prev = tuple(inputs)
        out._backward = partial(_bind, rule)
    return out
