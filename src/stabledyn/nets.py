"""The plain fully connected network on top of the tape primitives.

Mlp serves fhat and the mixture's trunk and coeff heads: tanh hidden layers
and a linear output, each layer with a bias. The same forward code serves
raw numpy evaluation and tape recording; which one you get depends on
whether a Tape is supplied. Weight layout is (out, in).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .validate import check_widths

# smooth_relu's knot, the Lyapunov net's (lyapunov.py): quadratic on [0, D],
# linear past it
D = 0.1


@dataclass
class Mlp:
    """Fully connected stack: tanh hidden layers, a linear output.

    layer_dims includes input and output sizes, e.g. [2, 25, 25, 2].
    Parameters live in a ParamStore under "<prefix>.W0", "<prefix>.b0", ...
    """

    layer_dims: list[int]
    prefix: str = "net"

    def __post_init__(self):
        self.layer_dims = list(check_widths("layer_dims", self.layer_dims, "a layer width"))
        if len(self.layer_dims) < 2:
            raise ValueError("need at least input and output dims")

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

    def init_params(self, store: ad.ParamStore, rng: np.random.Generator) -> None:
        for i in range(self.n_layers):
            fan_in = self.layer_dims[i]
            fan_out = self.layer_dims[i + 1]
            bound = 1.0 / np.sqrt(fan_in)
            store.add(f"{self.prefix}.W{i}", rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            store.add(f"{self.prefix}.b{i}", rng.uniform(-bound, bound, size=fan_out))

    def forward(self, x, store: ad.ParamStore, tape: ad.Tape | None = None):
        def P(name):
            return store.values[name] if tape is None else tape.param(store, name)

        h = x
        for i in range(self.n_layers):
            h = ad.linear(h, P(f"{self.prefix}.W{i}"), P(f"{self.prefix}.b{i}"))
            if i < self.n_layers - 1:
                h = ad.tanh(h)
        return h
