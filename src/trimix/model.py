"""Desk-scale encoder/projector MLP.

The encoder maps flattened inputs to the representation Y used by the
evaluators; the projector maps Y to the embedding Z the losses operate
on.  Layers are plain affine+ReLU with no batch norm, so the forward
pass of one sample never depends on the rest of the batch.
"""
from __future__ import annotations

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

    def encoder_dims(self) -> list[tuple[int, int]]:
        widths = [self.input_width, *self.encoder]
        return list(zip(widths[:-1], widths[1:]))

    def projector_dims(self) -> list[tuple[int, int]]:
        widths = [self.encoder[-1], *self.projector]
        return list(zip(widths[:-1], widths[1:]))

    def param_count(self) -> int:
        return sum(din * dout + dout for din, dout in self.encoder_dims() + self.projector_dims())

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
    """Encoder and projector layer parameters, in declaration order."""

    arch: Arch
    encoder_layers: list = field(default_factory=list)  # [(weight, bias), ...]
    projector_layers: list = field(default_factory=list)

    def tensors(self) -> list[Tensor]:
        flat = []
        for w, b in self.encoder_layers + self.projector_layers:
            flat.append(w)
            flat.append(b)
        return flat

    def names(self) -> list[str]:
        out = []
        for stack, layers in (("encoder", self.encoder_layers), ("projector", self.projector_layers)):
            for i in range(len(layers)):
                out.append(f"{stack}.{i}.weight")
                out.append(f"{stack}.{i}.bias")
        return out

    def attach(self, tape: Tape) -> "ModelParams":
        """Register every parameter as a tape leaf (storage is shared)."""
        enc = [(tape.leaf(w), tape.leaf(b)) for w, b in self.encoder_layers]
        proj = [(tape.leaf(w), tape.leaf(b)) for w, b in self.projector_layers]
        return ModelParams(arch=self.arch, encoder_layers=enc, projector_layers=proj)

    def copy(self) -> "ModelParams":
        enc = [(Tensor(w.data.copy()), Tensor(b.data.copy())) for w, b in self.encoder_layers]
        proj = [(Tensor(w.data.copy()), Tensor(b.data.copy())) for w, b in self.projector_layers]
        return ModelParams(arch=self.arch, encoder_layers=enc, projector_layers=proj)


@dataclass
class ForwardResult:
    y: Tensor  # representation (encoder output)
    z: Tensor  # embedding (projector output)


def init_params(arch: Arch, seed: int) -> ModelParams:
    """Uniform(-s, s) weights with s = sqrt(6/(fan_in+fan_out)); zero biases."""
    rng = np.random.default_rng(seed)

    def layer(din: int, dout: int):
        s = np.sqrt(6.0 / (din + dout))
        w = Tensor(rng.uniform(-s, s, size=(din, dout)))
        b = Tensor(np.zeros(dout))
        return w, b

    enc = [layer(din, dout) for din, dout in arch.encoder_dims()]
    proj = [layer(din, dout) for din, dout in arch.projector_dims()]
    return ModelParams(arch=arch, encoder_layers=enc, projector_layers=proj)


def _stack(x: Tensor, layers: list, activation: str) -> Tensor:
    h = x
    last = len(layers) - 1
    use_relu = activation == "relu"
    for i, (w, b) in enumerate(layers):
        h = affine(h, w, b)
        if use_relu and i != last:
            h = relu(h)
    return h


def encode(x: Tensor, params: ModelParams) -> Tensor:
    """Encoder stack only: the representation Y of a flattened Bxin batch."""
    if x.ndim != 2:
        raise DimensionError(f"forward: expected a flattened Bxin batch, got shape {list(x.shape)}")
    if x.shape[1] != params.arch.input_width:
        raise DimensionError(
            f"forward: input width {x.shape[1]} does not match arch input {params.arch.input_width}"
        )
    return _stack(x, params.encoder_layers, params.arch.activation)


def forward(x: Tensor, params: ModelParams) -> ForwardResult:
    """Run encoder then projector on a flattened Bxin batch."""
    y = encode(x, params)
    return ForwardResult(y=y, z=_stack(y, params.projector_layers, params.arch.activation))
