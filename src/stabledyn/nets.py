"""Plain fully connected networks on top of the tape primitives.

The same forward code serves raw numpy evaluation and tape recording; which
one you get depends on whether a Tape is supplied. Weight layout is (out, in).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .validate import check_count

ACTIVATIONS = ("identity", "smooth_relu", "tanh")

# smooth_relu's knot: quadratic on [0, D], linear past it
D = 0.1


def apply_activation(name: str, u):
    if name == "identity":
        return u
    if name == "smooth_relu":
        return ad.smooth_relu(u, D)
    if name == "tanh":
        return ad.tanh(u)
    raise ValueError(f"unknown activation {name!r}")


def activation_deriv(name: str, u):
    """Derivative of a V stack's activation as an expression in the pre-activation."""
    if name == "identity":
        return None
    if name == "smooth_relu":
        return ad.smooth_relu_deriv(u, D)
    raise ValueError(f"no derivative for activation {name!r}")


@dataclass
class Mlp:
    """Fully connected stack; hidden layers share one activation.

    layer_dims includes input and output sizes, e.g. [2, 25, 25, 2].
    Parameters live in a ParamStore under "<prefix>.W0", "<prefix>.b0", ...
    """

    layer_dims: list[int]
    activation: str = "tanh"
    output_activation: str = "identity"
    prefix: str = "net"
    use_bias: bool = True

    def __post_init__(self):
        if len(self.layer_dims) < 2:
            raise ValueError("need at least input and output dims")
        for w in self.layer_dims:
            check_count("a layer width", w)
        if self.activation not in ACTIVATIONS or self.output_activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

    def init_params(self, store: ad.ParamStore, rng: np.random.Generator) -> None:
        for i in range(self.n_layers):
            fan_in = self.layer_dims[i]
            fan_out = self.layer_dims[i + 1]
            bound = 1.0 / np.sqrt(fan_in)
            store.add(f"{self.prefix}.W{i}", rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            if self.use_bias:
                store.add(f"{self.prefix}.b{i}", rng.uniform(-bound, bound, size=fan_out))

    def _params(self, store: ad.ParamStore, tape: ad.Tape | None, i: int):
        wname = f"{self.prefix}.W{i}"
        bname = f"{self.prefix}.b{i}"
        if tape is None:
            W = store.values[wname]
            b = store.values[bname] if self.use_bias else None
        else:
            W = tape.param(store, wname)
            b = tape.param(store, bname) if self.use_bias else None
        return W, b

    def _act_name(self, i: int) -> str:
        return self.activation if i < self.n_layers - 1 else self.output_activation

    def forward(self, x, store: ad.ParamStore, tape: ad.Tape | None = None, cache: list | None = None):
        h = x
        for i in range(self.n_layers):
            W, b = self._params(store, tape, i)
            a = ad.linear(h, W, b)
            if cache is not None:
                cache.append(a)
            h = apply_activation(self._act_name(i), a)
        return h

    def vjp_input(self, dout, cache: list, store: ad.ParamStore, tape: ad.Tape | None = None):
        """Pull a cotangent on the output back to the input.

        cache must come from a forward() call on the same x/store/tape. The
        result is itself an expression, so it stays differentiable w.r.t. the
        weights when recorded on a tape.
        """
        d_h = dout
        for i in reversed(range(self.n_layers)):
            deriv = activation_deriv(self._act_name(i), cache[i])
            d_a = d_h if deriv is None else ad.mul(d_h, deriv)
            W, _ = self._params(store, tape, i)
            d_h = ad.linear_t(d_a, W)
        return d_h
