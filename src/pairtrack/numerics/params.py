"""Named parameters and the store that owns them.

A Parameter is a named leaf tensor. Its ``requires_grad`` is the single
frozen/trainable bit: a frozen parameter records no gradient and stays fixed
under ``sgd_step``, which is how the frozen backbone is enforced.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterator

import numpy as np

from ..errors import ContractError
from .rng import RngStream
from .tensor import Tensor


class Parameter(Tensor):
    __slots__ = ("name",)

    def __init__(self, name: str, values, requires_grad: bool = True):
        super().__init__(values, requires_grad=requires_grad)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape}, requires_grad={self.requires_grad})"


class ParamStore:
    """Ordered collection of uniquely named parameters."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def add(self, name: str, values, trainable: bool = True) -> Parameter:
        if name in self._params:
            raise ContractError(f"duplicate parameter name: {name}")
        # frozen parameters opt out of the tape: they never receive updates,
        # so computing their gradients would be pure overhead
        p = Parameter(name, values, requires_grad=trainable)
        self._params[name] = p
        return p

    def uniform_init(
        self, name: str, shape: tuple[int, ...], fan_in: int, rng: RngStream,
        trainable: bool = True,
    ) -> Parameter:
        """Weight init: uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
        bound = 1.0 / np.sqrt(fan_in)
        return self.add(name, rng.uniform(-bound, bound, shape), trainable=trainable)

    def zeros_init(self, name: str, shape: tuple[int, ...], trainable: bool = True) -> Parameter:
        return self.add(name, np.zeros(shape), trainable=trainable)

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._params.values())

    def count(self, predicate: Callable[[Parameter], bool] | None = None) -> int:
        """Total number of scalar entries across matching parameters."""
        return sum(p.size for p in self if predicate is None or predicate(p))

    def zero_grad(self) -> None:
        for p in self:
            p.zero_grad()

    def sgd_step(self, lr: float) -> None:
        """In-place gradient-descent update on trainable parameters."""
        for p in self:
            if p.requires_grad and p.grad is not None:
                p.data -= lr * p.grad

    def set_values(self, name: str, values: np.ndarray) -> None:
        p = self._params[name]
        values = np.asarray(values, dtype=np.float64)
        if values.shape != p.shape:
            raise ContractError(
                f"parameter {name}: cannot assign shape {values.shape} to {p.shape}"
            )
        p.data = np.asarray(values, dtype=np.float64, order="C")

    def checksum(self, predicate: Callable[[Parameter], bool] | None = None) -> str:
        """SHA-256 over the raw bytes of matching parameters, in name order."""
        h = hashlib.sha256()
        for p in self:
            if predicate is None or predicate(p):
                h.update(p.name.encode("utf-8"))
                h.update(p.data.astype("<f8").tobytes())
        return h.hexdigest()
