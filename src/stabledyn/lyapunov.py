"""Learnable candidate Lyapunov functions.

Three constructions, all satisfying V(0) = 0 and V(x) >= EPSILON*||x||^2:

* "lnn"         warped sum of squares phi(x)^T phi(x) with a bias-free net,
                smooth_relu hidden layers, linear output. Positive definite
                but not necessarily convex.
* "icnn"        input-convex network: two smooth_relu z-layers, of widths
                hidden[0] and hidden[-1] (one or two widths), with direct
                input skips; the z-path weights are kept elementwise
                nonnegative, so g is convex in x.
* "convex_lnn"  bias-free stack with smooth_relu at every layer and all
                weights past the first kept nonnegative; g = phi^T phi is
                convex and nonnegative.

The convex variants wrap g(x) - g(0) in smooth_relu before adding the
quadratic floor; lnn adds the floor to g(x) - g(0) directly.

g(0) is never computed by running the net on a zero input. lnn and
convex_lnn are bias-free and smooth_relu(0) = 0, so phi(0) = 0 and
g(0) = 0 exactly: g itself is the excess. In the icnn every input term
linear(0, W) is an exact +-0 and adding it changes no bit, so g(0) follows
from the biases alone: z1 = smooth_relu(b0), z2 = smooth_relu(U1 z1 + b1),
g(0) = u2 z2 + b2. Both equal, bit for bit, what the full pass on
np.zeros(dim) returns, and that pass's tape nodes would carry only
exact-zero gradients. A raw value call, or a ray, builds g(0) itself
unless it is given one as g0=; g(0) is built once per raw certified step
(origin) and passed to its V calls and its ray, which changes no bit. A
recorded call always builds its own, so the tape holds g(0)'s nodes where
the parameters' gradients need them.

Along one ray gamma*Y the input's projections W0 Y (and the icnn's W1 Y and
w2.Y) and |Y|^2 do not depend on gamma. ray(Y, store) makes them once, and
its at(gamma) gives V(gamma*Y) with dV/dgamma by pushing one tangent through
each layer (forward mode), with no reverse sweep: the pair the gamma solve
iterates on. It serves raw arrays only. Value calls, the tape and the ray
share one smooth_relu (ad.smooth_relu_and_slope): at gamma = 1 a ray reads a
value call's bits on the same rows.

Gradients w.r.t. the input are built as expressions from the
same primitives, so they can be recorded on a tape and differentiated again
w.r.t. the weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .nets import D, Mlp
from .validate import check_count

VARIANTS = ("lnn", "icnn", "convex_lnn")

# V's parameters are stored as "V.<name>"; saved model files use these names
PREFIX = "V"

# weight of the quadratic floor every variant adds
EPSILON = 0.001


@dataclass
class LyapunovNet:
    variant: str
    dim: int
    hidden: tuple = (25, 25)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        check_count("dim", self.dim)
        for h in self.hidden:
            check_count("a hidden width", h)
        self.hidden = tuple(int(h) for h in self.hidden)
        if self.variant in ("lnn", "convex_lnn"):
            out_act = "identity" if self.variant == "lnn" else "smooth_relu"
            self._mlp = Mlp(
                layer_dims=[self.dim, *self.hidden, self.dim],
                activation="smooth_relu",
                output_activation=out_act,
                prefix=PREFIX,
                use_bias=False,
            )
            if self.variant == "convex_lnn":
                self._clamped = [f"{PREFIX}.W{i}" for i in range(1, self._mlp.n_layers)]
            else:
                self._clamped = []
        else:
            if not 1 <= len(self.hidden) <= 2:
                raise ValueError(f"icnn takes one or two hidden widths, got {self.hidden}")
            self._widths = (self.hidden[0], self.hidden[-1])
            self._clamped = [f"{PREFIX}.U1", f"{PREFIX}.u2"]

    # -- parameters --------------------------------------------------------

    def init_params(self, store: ad.ParamStore, rng: np.random.Generator) -> None:
        if self.variant in ("lnn", "convex_lnn"):
            self._mlp.init_params(store, rng)
        else:
            p, n = PREFIX, self.dim
            h1, h2 = self._widths
            bn, b1, b2 = 1.0 / np.sqrt(n), 1.0 / np.sqrt(h1), 1.0 / np.sqrt(h2)
            store.add(f"{p}.W0", rng.uniform(-bn, bn, size=(h1, n)))
            store.add(f"{p}.b0", rng.uniform(-bn, bn, size=h1))
            store.add(f"{p}.U1", rng.uniform(0.0, b1, size=(h2, h1)))
            store.add(f"{p}.W1", rng.uniform(-bn, bn, size=(h2, n)))
            store.add(f"{p}.b1", rng.uniform(-b1, b1, size=h2))
            store.add(f"{p}.u2", rng.uniform(0.0, b2, size=(1, h2)))
            store.add(f"{p}.w2", rng.uniform(-bn, bn, size=(1, n)))
            store.add(f"{p}.b2", rng.uniform(-b2, b2, size=1))
        # nonnegativity holds from the start, not just after the first clamp
        for name in self._clamped:
            np.abs(store.values[name], out=store.values[name])

    def clamp(self, store: ad.ParamStore) -> None:
        """Project constrained weights back to the nonnegative orthant."""
        for name in self._clamped:
            np.maximum(store.values[name], 0.0, out=store.values[name])

    # -- evaluation --------------------------------------------------------

    def value(self, x, store: ad.ParamStore, tape: ad.Tape | None = None, *, g0=None):
        return self._eval(x, store, tape, g0, need_grad=False)[0]

    def grad(self, x, store: ad.ParamStore, tape: ad.Tape | None = None):
        return self._eval(x, store, tape, None, need_grad=True)[1]

    def value_and_grad(self, x, store: ad.ParamStore, tape: ad.Tape | None = None):
        return self._eval(x, store, tape, None, need_grad=True)

    def origin(self, store: ad.ParamStore):
        """g(0) on raw arrays, to pass as g0= to the raw V calls and the ray of
        one step.

        None for lnn and convex_lnn, whose g(0) is exactly 0 and never built.
        """
        if self.variant != "icnn":
            return None
        return _icnn_origin(*(store.values[f"{PREFIX}.{n}"]
                              for n in ("b0", "U1", "b1", "u2", "b2")))

    def ray(self, Y, store: ad.ParamStore, g0=None) -> Ray:
        """V and dV/dgamma along the rays gamma*Y_b of the raw (R, dim) rows Y.

        g0, if given, is the icnn's g(0) (origin).
        """
        def P(name):
            return store.values[f"{PREFIX}.{name}"]

        if self.variant == "icnn":
            fixed = (Y @ P("W0").T, Y @ P("W1").T, Y @ P("w2")[0])
            g0 = self.origin(store) if g0 is None else g0
        else:
            fixed = (Y @ P("W0").T,)
        return Ray(self, store, g0, (Y * Y).sum(axis=-1), fixed)

    def _eval(self, x, store, tape, g0, need_grad: bool):
        if g0 is not None and tape is not None:
            raise ValueError("g0 serves raw calls only; a recorded V builds its own")
        if self.variant in ("lnn", "convex_lnn"):
            excess, seed_fn = self._mlp_body(x, store, tape)
        else:
            excess, seed_fn = self._icnn_body(x, store, tape, g0)

        quad = ad.mul(ad.rowdot(x, x), EPSILON)
        if self.variant == "lnn":
            V = ad.add(excess, quad)
        else:
            V = ad.add(ad.smooth_relu(excess, D), quad)
        if not need_grad:
            return V, None

        if self.variant == "lnn":
            d_x = seed_fn(None)
        else:
            s = ad.smooth_relu_deriv(excess, D)
            d_x = seed_fn(s)
        gradV = ad.add(d_x, ad.mul(x, 2.0 * EPSILON))
        return V, gradV

    def _mlp_body(self, x, store, tape):
        cache = []
        phi = self._mlp.forward(x, store, tape, cache)
        # bias-free with act(0) = 0, so phi(0) = 0 and g(0) = 0 exactly
        g = ad.rowdot(phi, phi)

        def seed_fn(s):
            dphi = ad.mul(phi, 2.0)
            if s is not None:
                dphi = ad.mul(ad.expand_last(s), dphi)
            return self._mlp.vjp_input(dphi, cache, store, tape)

        return g, seed_fn

    def _icnn_body(self, x, store, tape, g0=None):
        def P(name):
            full = f"{PREFIX}.{name}"
            return store.values[full] if tape is None else tape.param(store, full)

        W0, b0 = P("W0"), P("b0")
        U1, W1, b1 = P("U1"), P("W1"), P("b1")
        u2, w2, b2 = P("u2"), P("w2"), P("b2")

        a1 = ad.linear(x, W0, b0)
        z1 = ad.smooth_relu(a1, D)
        a2 = ad.add(ad.linear(z1, U1, b1), ad.linear(x, W1))
        z2 = ad.smooth_relu(a2, D)
        g = ad.squeeze_last(ad.add(ad.linear(z2, u2, b2), ad.linear(x, w2)))
        if g0 is None:
            g0 = _icnn_origin(b0, U1, b1, u2, b2)

        def seed_fn(s):
            se = ad.expand_last(s)
            d_z2 = ad.linear_t(se, u2)
            d_a2 = ad.mul(d_z2, ad.smooth_relu_deriv(a2, D))
            d_z1 = ad.linear_t(d_a2, U1)
            d_a1 = ad.mul(d_z1, ad.smooth_relu_deriv(a1, D))
            return ad.add(
                ad.add(ad.linear_t(d_a1, W0), ad.linear_t(d_a2, W1)),
                ad.linear_t(se, w2),
            )

        return ad.sub(g, g0), seed_fn


def _icnn_origin(b0, U1, b1, u2, b2):
    """The icnn's g(0) from its biases: each dropped linear(0, W) term is an exact +-0."""
    z1_0 = ad.smooth_relu(b0, D)
    z2_0 = ad.smooth_relu(ad.linear(z1_0, U1, b1), D)
    return ad.squeeze_last(ad.linear(z2_0, u2, b2))


class Ray:
    """V(gamma*Y) and dV/dgamma for fixed raw rows Y (LyapunovNet.ray).

    Holds what every gamma shares: the input's projections `fixed` (W0 Y;
    for the icnn also W1 Y and w2.Y), |Y|^2 as `sq`, and g(0).
    """

    def __init__(self, lyap: LyapunovNet, store: ad.ParamStore, g0, sq, fixed):
        self.lyap, self.store, self.g0 = lyap, store, g0
        self.sq, self.fixed = sq, fixed

    def take(self, rows) -> Ray:
        """The ray of the rows Y[rows] (an index array, a boolean mask or a slice)."""
        return Ray(self.lyap, self.store, self.g0, self.sq[rows],
                   tuple(f[rows] for f in self.fixed))

    def at(self, gamma):
        """(V(gamma_b Y_b), dV/dgamma at gamma_b) for the (R,) factors gamma.

        Every temporary is the call's own, so the arithmetic runs in place,
        one operation at a time in the order of the plain expressions (given
        in the comments where they are not plain to see), to the same bits.
        """
        p, variant = self.store.values, self.lyap.variant
        gc = gamma[:, None]
        if variant == "icnn":
            W0Y, W1Y, w2Y = self.fixed
            U1T, u2T = p[f"{PREFIX}.U1"].T, p[f"{PREFIX}.u2"].T
            a = gc * W0Y
            a += p[f"{PREFIX}.b0"]
            z, dz = _sr_pair(a, W0Y)
            # (z U1^T + b1) + gamma W1 Y, and its tangent dz U1^T + W1 Y
            a = z @ U1T
            a += p[f"{PREFIX}.b1"]
            a += gc * W1Y
            da = dz @ U1T
            da += W1Y
            z, dz = _sr_pair(a, da)
            # ((z u2^T + b2) + gamma w2.Y) - g(0), and dz u2^T + w2.Y
            e = z @ u2T
            e += p[f"{PREFIX}.b2"]
            excess = e[:, 0]
            excess += gamma * w2Y
            excess -= self.g0
            d_excess = (dz @ u2T)[:, 0]
            d_excess += w2Y
        else:
            mlp = self.lyap._mlp
            (W0Y,) = self.fixed
            a, da = gc * W0Y, W0Y
            for i in range(mlp.n_layers):
                if i:
                    WT = p[f"{PREFIX}.W{i}"].T
                    a, da = z @ WT, dz @ WT
                if mlp._act_name(i) == "smooth_relu":
                    z, dz = _sr_pair(a, da)
                else:
                    z, dz = a, da
            # |z|^2 and 2 (z.dz); dz may be W0 Y itself, z never is
            d_excess = (z * dz).sum(axis=-1)
            d_excess *= 2.0
            z *= z
            excess = z.sum(axis=-1)
        # (gamma^2 |Y|^2) EPSILON and (2 EPSILON) gamma |Y|^2
        quad = gamma * gamma
        quad *= self.sq
        quad *= EPSILON
        d_quad = gamma * (2.0 * EPSILON)
        d_quad *= self.sq
        if variant != "lnn":
            excess, d_excess = _sr_pair(excess, d_excess)
        excess += quad
        d_excess += d_quad
        return excess, d_excess


def _sr_pair(a, da):
    """smooth_relu(a), written over a, and its tangent s*da for the tangent da of a."""
    a, s = ad.smooth_relu_and_slope(a, D, out=a)
    s *= da
    return a, s
