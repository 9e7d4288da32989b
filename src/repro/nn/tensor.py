"""Reverse-mode automatic differentiation on top of numpy arrays.

This module is the foundation of :mod:`repro.nn`, the small deep-learning
framework that stands in for PyTorch in this reproduction.  A
:class:`Tensor` wraps a ``numpy.ndarray`` together with an optional
gradient buffer and a closure describing how to propagate gradients to its
parents.  Calling :meth:`Tensor.backward` on a scalar result runs a
topological sweep over the recorded computation graph, exactly like
``torch.Tensor.backward``.

The design follows the classic "define-by-run" tape:

* every differentiable operation builds a child tensor whose
  ``_backward`` closure knows how to turn the child's gradient into
  parent gradients;
* broadcasting is handled uniformly by :func:`unbroadcast`, which sums a
  gradient back down to the shape of the tensor that produced it;
* non-differentiable bookkeeping (shapes, dtype checks) lives here, while
  the actual operator zoo lives in :mod:`repro.nn.functional`.
"""

from __future__ import annotations

import contextvars
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "Parameter", "unbroadcast", "no_grad", "is_grad_enabled"]

#: Grad mode lives in a context variable, not a module global: every
#: thread (and asyncio task) sees its own flag, so a ``no_grad`` block on
#: one thread can never switch autograd off for another, whatever order
#: overlapping blocks exit in.
_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_grad_enabled", default=True)


class no_grad:
    """Context manager that disables graph recording, like ``torch.no_grad``.

    Inside the context, operations still compute values but never attach
    backward closures, which makes pure-inference code paths (evaluation,
    ranking over every candidate entity) dramatically cheaper.  The
    switch is local to the calling thread's context.
    """

    def __enter__(self) -> "no_grad":
        self._token = _GRAD_ENABLED.set(False)
        return self

    def __exit__(self, *exc_info) -> None:
        _GRAD_ENABLED.reset(self._token)


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED.get()


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has exactly ``shape``.

    Numpy broadcasting can expand an operand along leading axes and along
    axes of size one.  The gradient of a broadcast is the sum over the
    broadcast axes, which this helper performs.

    Parameters
    ----------
    grad:
        Gradient with the shape of the broadcast *result*.
    shape:
        Shape of the original operand the gradient belongs to.
    """
    if grad.shape == shape:
        return grad
    # Sum out the extra leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape but expanded.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value, dtype=np.float64) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype != dtype and np.issubdtype(value.dtype, np.floating):
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype)


class Tensor:
    """A numpy array with reverse-mode autograd support.

    Parameters
    ----------
    data:
        Anything convertible to a ``numpy.ndarray`` of floats.
    requires_grad:
        When true, gradients flowing into this tensor are accumulated in
        :attr:`grad` during :meth:`backward`.
    parents:
        The input tensors of the operation that created this tensor.
        Leaf tensors have no parents.
    backward_fn:
        Closure invoked with this tensor's gradient; it must route
        gradient contributions into each parent via ``parent._accumulate``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fn: Callable[[np.ndarray], None] | None = None,
        name: str | None = None,
    ) -> None:
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._parents: tuple[Tensor, ...] = tuple(parents) if self.requires_grad else ()
        self._backward_fn = backward_fn if self.requires_grad else None
        self.name = name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an op result tensor; grad tracking follows its parents."""
        needs = is_grad_enabled() and any(p.requires_grad for p in parents)
        return Tensor(data, requires_grad=needs, parents=parents if needs else (), backward_fn=backward_fn if needs else None)

    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Autograd machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer."""
        if not self.requires_grad:
            return
        grad = unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to ``1.0`` which requires this tensor
            to be a scalar (the usual loss case).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a gradient argument requires a scalar tensor")
            grad = np.ones_like(self.data)

        order: list[Tensor] = []
        seen: set[int] = set()
        # Iterative post-order DFS: recursion would overflow on deep graphs
        # such as unrolled training loops.
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
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
                # Intermediate results never have their gradient read back;
                # freeing it eagerly keeps peak memory proportional to the
                # number of leaves rather than the graph size.
                if node._parents and not isinstance(node, Parameter) and node is not self:
                    node.grad = None

    # ------------------------------------------------------------------
    # Operator sugar (implemented in repro.nn.functional)
    # ------------------------------------------------------------------
    def __add__(self, other):
        from . import functional as F

        return F.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from . import functional as F

        return F.sub(self, other)

    def __rsub__(self, other):
        from . import functional as F

        return F.sub(other, self)

    def __mul__(self, other):
        from . import functional as F

        return F.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from . import functional as F

        return F.div(self, other)

    def __rtruediv__(self, other):
        from . import functional as F

        return F.div(other, self)

    def __neg__(self):
        from . import functional as F

        return F.neg(self)

    def __pow__(self, exponent: float):
        from . import functional as F

        return F.pow(self, exponent)

    def __matmul__(self, other):
        from . import functional as F

        return F.matmul(self, other)

    def __getitem__(self, index):
        from . import functional as F

        return F.index(self, index)

    # Convenience wrappers -------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        from . import functional as F

        return F.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        from . import functional as F

        return F.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from . import functional as F

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return F.reshape(self, shape)

    def transpose(self, *axes):
        from . import functional as F

        return F.transpose(self, axes or None)

    @property
    def T(self):
        return self.transpose()

    def flatten(self):
        from . import functional as F

        return F.reshape(self, (-1,))


class Parameter(Tensor):
    """A trainable :class:`Tensor`; always requires grad.

    Modules discover their parameters by type, mirroring
    ``torch.nn.Parameter``.
    """

    __slots__ = ()

    def __init__(self, data, name: str | None = None) -> None:
        super().__init__(data, requires_grad=True, name=name)
        # Parameters must track gradients even when created under no_grad.
        self.requires_grad = True


def _tensor_list(values: Iterable) -> list[Tensor]:
    return [v if isinstance(v, Tensor) else Tensor(v) for v in values]
