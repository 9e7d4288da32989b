"""Module base class: parameter registration, modes, and state dicts.

Mirrors the parts of ``torch.nn.Module`` used by the reproduction:
recursive parameter discovery, ``train()``/``eval()`` mode switching
(needed by dropout and batch-norm), and flat ``state_dict`` round-trips
for checkpointing.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from .tensor import Parameter, no_grad

__all__ = ["Module", "ModuleList", "inference_mode"]


@contextmanager
def inference_mode(model):
    """Run ``model`` with autograd off and eval-mode layers.

    Every ``predict_tails``-style inference path must score under
    ``no_grad()`` with dropout and batch-norm switched to eval mode;
    this context manager is the single place that pattern lives so
    implementations cannot drift.  A model in training mode is switched
    to eval mode and back on exit, even on error.  A model already in
    eval mode (every served model) is left alone: no mode is written,
    so overlapping inference blocks on other threads cannot flip it,
    and no module tree is walked.  Objects that are not :class:`Module`
    (no mode switching) still get the ``no_grad`` part.
    """
    training = getattr(model, "training", False)
    if training:
        model.eval()
    try:
        with no_grad():
            yield
    finally:
        if training:
            model.train(True)


class Module:
    """Base class for all neural network modules.

    Subclasses assign :class:`Parameter`, :class:`Module`, or
    :class:`ModuleList` instances as attributes; this class walks the
    attribute tree to enumerate parameters and serialise state.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield every parameter in this module and its submodules."""
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for key, value in vars(self).items():
            name = f"{prefix}{key}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()

    def buffers(self) -> Iterator[tuple[str, np.ndarray]]:
        """Yield named non-trainable arrays (e.g. batch-norm statistics)."""
        for name, value in self._named_buffers(""):
            yield name, value

    def _named_buffers(self, prefix: str) -> Iterator[tuple[str, np.ndarray]]:
        buffer_names = getattr(self, "_buffer_names", ())
        for key in buffer_names:
            yield f"{prefix}{key}", getattr(self, key)
        for key, value in vars(self).items():
            if isinstance(value, Module):
                yield from value._named_buffers(f"{prefix}{key}.")

    def register_buffer(self, name: str, array: np.ndarray) -> None:
        """Attach a persistent non-trainable array to this module."""
        names = list(getattr(self, "_buffer_names", ()))
        if name not in names:
            names.append(name)
        self._buffer_names = tuple(names)
        setattr(self, name, array)

    # ------------------------------------------------------------------
    # Modes
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Switch this module (and children) to training mode."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Switch to evaluation mode (disables dropout, freezes BN stats)."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return int(np.sum([p.data.size for p in self.parameters()], dtype=np.int64))

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a flat name -> array mapping of parameters and buffers."""
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        for name, buf in self.buffers():
            state[f"buffer::{name}"] = np.array(buf, copy=True)
        return state

    def load_state_dict(self, state: dict[str, np.ndarray],
                        strict: bool = True) -> tuple[list[str], list[str]]:
        """Load arrays produced by :meth:`state_dict`.

        With ``strict=True`` (default) a single ``KeyError`` is raised
        that lists *all* missing and unexpected entries at once, so a
        mismatched checkpoint is diagnosable in one shot.  With
        ``strict=False`` the intersection of keys is loaded and the
        ``(missing, unexpected)`` name lists are returned instead of
        raising.  Shape mismatches are always an error.
        """
        params = dict(self.named_parameters())
        buffers = dict(self.buffers())
        expected = set(params) | {f"buffer::{name}" for name in buffers}
        unexpected = sorted(set(state) - expected)
        missing = sorted(expected - set(state))
        if strict and (missing or unexpected):
            raise KeyError(
                "state dict does not match module: "
                f"missing keys {missing}; unexpected keys {unexpected}"
            )
        for name, array in state.items():
            if name in unexpected:
                continue
            if name.startswith("buffer::"):
                key = name[len("buffer::"):]
                target = buffers[key]
                if np.shape(target) != np.shape(array):
                    raise ValueError(
                        f"shape mismatch for buffer {key!r}: model "
                        f"{np.shape(target)}, state {np.shape(array)}"
                    )
                target[...] = array
                continue
            if params[name].data.shape != array.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: model {params[name].data.shape}, "
                    f"state {array.shape}"
                )
            params[name].data[...] = array
        return missing, unexpected

    # ------------------------------------------------------------------
    # Callable protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """A list of submodules that participates in parameter discovery."""

    def __init__(self, modules=()) -> None:
        super().__init__()
        self._items: list[Module] = list(modules)

    def append(self, module: Module) -> None:
        self._items.append(module)

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i: int) -> Module:
        return self._items[i]

    def named_parameters(self, prefix: str = ""):
        for i, module in enumerate(self._items):
            yield from module.named_parameters(prefix=f"{prefix}{i}.")

    def modules(self):
        yield self
        for module in self._items:
            yield from module.modules()

    def _named_buffers(self, prefix: str):
        for i, module in enumerate(self._items):
            yield from module._named_buffers(f"{prefix}{i}.")

    def forward(self, *args, **kwargs):  # pragma: no cover
        raise RuntimeError("ModuleList is a container and cannot be called")
