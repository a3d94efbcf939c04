"""Desk-scale encoder/projector MLP.

The encoder maps flattened inputs to the representation Y used by the
evaluators; the projector maps Y to the embedding Z the losses operate
on.  Layers are plain affine+ReLU with no batch norm, so the forward
pass of one sample never depends on the rest of the batch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError
from .tensor import Tape, Tensor, affine, relu

ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True)
class Arch:
    """Layer widths for the encoder and projector stacks."""

    input_width: int
    encoder: tuple[int, ...] = (128, 64)
    projector: tuple[int, ...] = (64, 64, 32)
    activation: str = "relu"

    def __post_init__(self):
        widths = (self.input_width,) + tuple(self.encoder) + tuple(self.projector)
        if not self.encoder or not self.projector:
            raise ContractError("arch: encoder and projector need at least one layer each")
        if any(int(w) < 1 for w in widths):
            raise ContractError(f"arch: all widths must be >= 1, got {list(widths)}")
        if self.activation not in ACTIVATIONS:
            raise ContractError(f"arch: activation must be one of {ACTIVATIONS}, got {self.activation!r}")

    @property
    def representation_width(self) -> int:
        return self.encoder[-1]

    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """Every parameter's name and shape, in the one order that
        `ModelParams`, gradients, Adam moments and checkpoint arrays share:
        encoder layers, then projector layers, each weight (fan_in, fan_out)
        then bias (fan_out,)."""
        shapes = []
        for stack, widths in (("encoder", (self.input_width, *self.encoder)),
                              ("projector", (self.encoder[-1], *self.projector))):
            for i, (din, dout) in enumerate(zip(widths, widths[1:])):
                shapes += [(f"{stack}.{i}.weight", (din, dout)), (f"{stack}.{i}.bias", (dout,))]
        return shapes

    def param_count(self) -> int:
        return sum(math.prod(shape) for _, shape in self.param_shapes())

    def to_dict(self) -> dict:
        return {
            "input_width": self.input_width,
            "encoder": list(self.encoder),
            "projector": list(self.projector),
            "activation": self.activation,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Arch":
        return cls(
            input_width=int(d["input_width"]),
            encoder=tuple(int(w) for w in d["encoder"]),
            projector=tuple(int(w) for w in d["projector"]),
            activation=str(d["activation"]),
        )


@dataclass
class ModelParams:
    """Parameter tensors in `arch.param_shapes()` order.  An encoder-only
    set, enough for `encode`, is the first `encoder_end` of them."""

    arch: Arch
    flat: list
    encoder_end: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the encoder/projector split, computed once: the forward pass
        # indexes `flat` and builds no per-call lists
        self.encoder_end = 2 * len(self.arch.encoder)
        if len(self.flat) not in (self.encoder_end, self.encoder_end + 2 * len(self.arch.projector)):
            raise ContractError(f"model params: {len(self.flat)} tensors fit neither the arch nor its encoder")

    def tensors(self) -> list[Tensor]:
        return list(self.flat)

    def names(self) -> list[str]:
        return [name for name, _ in self.arch.param_shapes()[:len(self.flat)]]

    def attach(self, tape: Tape) -> "ModelParams":
        """Register every parameter as a tape leaf (storage is shared), in
        `tensors()` and `names()` order: the order `backward` returns their
        gradients in."""
        return ModelParams(self.arch, [tape.leaf(t) for t in self.flat])

    def copy(self) -> "ModelParams":
        return ModelParams(self.arch, [Tensor(t.data.copy()) for t in self.flat])


@dataclass
class ForwardResult:
    y: Tensor  # representation (encoder output)
    z: Tensor  # embedding (projector output)


def init_params(arch: Arch, seed: int) -> ModelParams:
    """Uniform(-s, s) weights with s = sqrt(6/(fan_in+fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    flat = []
    for _, shape in arch.param_shapes():
        if len(shape) == 2:  # a weight (fan_in, fan_out)
            s = np.sqrt(6.0 / (shape[0] + shape[1]))
            flat.append(Tensor(rng.uniform(-s, s, size=shape)))
        else:
            flat.append(Tensor(np.zeros(shape)))
    return ModelParams(arch, flat)


def _stack(h: Tensor, flat: list, lo: int, hi: int, activation: str) -> Tensor:
    """The affine layers whose (weight, bias) are flat[lo:hi], with ReLU
    between consecutive layers under the relu activation."""
    use_relu = activation == "relu"
    for i in range(lo, hi, 2):
        if use_relu and i != lo:
            h = relu(h)
        h = affine(h, flat[i], flat[i + 1])
    return h


def encode(x: Tensor, params: ModelParams) -> Tensor:
    """Encoder stack only: the representation Y of a flattened Bxin batch,
    or of a stack of them marked by `x.bounds` (see `tensor.affine`)."""
    shape = x.data.shape
    if len(shape) != 2:
        raise DimensionError(f"forward: expected a flattened Bxin batch, got shape {list(shape)}")
    if shape[1] != params.arch.input_width:
        raise DimensionError(
            f"forward: input width {shape[1]} does not match arch input {params.arch.input_width}"
        )
    return _stack(x, params.flat, 0, params.encoder_end, params.arch.activation)


def forward(x: Tensor, params: ModelParams) -> ForwardResult:
    """Run encoder then projector on a flattened Bxin batch, or on a
    stack of them; Y and Z keep the stack's row blocks."""
    if len(params.flat) == params.encoder_end:
        raise ContractError("forward: the parameter set is encoder-only; it has no projector")
    y = encode(x, params)
    return ForwardResult(y=y, z=_stack(y, params.flat, params.encoder_end, len(params.flat),
                                       params.arch.activation))
