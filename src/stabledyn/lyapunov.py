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
exact-zero gradients. A raw V call, or a ray, builds g(0) itself (origin)
unless it is given one as g0=; a certified step builds it once wherever
its V pass runs raw and passes it to its V calls and its ray, which changes
no bit. A recorded call always builds its own, so the tape holds g(0)'s
nodes where the parameters' gradients need them.

V has two bodies. Raw calls (no tape) and rays run one in-place kernel:
_layers goes forward through V's layers from the input's projections, W0 x
(and the icnn's W1 x and w2.x), keeping each smooth_relu's slope for
_input_grad's reverse sweep, or pushing a tangent alongside for a ray; it
builds g(0) too. The recorded body (_eval) builds V and grad V from the
autodiff primitives, so the tape can differentiate them again w.r.t. the
weights. Both make the same operations in the same order and share one
smooth_relu (ad.smooth_relu_and_slope): on the same rows a raw and a
recorded V, or grad V, read the same bits, and so does a ray at gamma = 1.

Along one ray gamma*Y the input's projections W0 Y (and the icnn's W1 Y and
w2.Y) and |Y|^2 do not depend on gamma. ray(Y, store) makes them once, and
its at(gamma) gives V(gamma*Y) with dV/dgamma from the kernel fed gamma
times each projection, with the projection as its tangent (forward mode, no
reverse sweep): the pair the gamma solve iterates on. It serves raw arrays
only.

An input of the wrong width is refused by name, raw and recorded alike: x
is one state of dimension dim or a (batch, dim) array, and a ray's Y a
(batch, dim) array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .nets import D, Mlp
from .validate import check_count, check_states

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
        return self._pass(x, store, tape, g0, need_grad=False)[0]

    def grad(self, x, store: ad.ParamStore, tape: ad.Tape | None = None):
        return self._pass(x, store, tape, None, need_grad=True)[1]

    def value_and_grad(self, x, store: ad.ParamStore, tape: ad.Tape | None = None):
        return self._pass(x, store, tape, None, need_grad=True)

    def origin(self, store: ad.ParamStore):
        """g(0) on raw arrays, to pass as g0= to the raw V calls and the ray of
        one step.

        None for lnn and convex_lnn, whose g(0) is exactly 0 and never built.
        """
        if self.variant != "icnn":
            return None
        return self._layers(store.values, (None, None, None))[0]

    def ray(self, Y, store: ad.ParamStore, g0=None) -> Ray:
        """V and dV/dgamma along the rays gamma*Y_b of the raw (R, dim) rows Y.

        g0, if given, is the icnn's g(0) (origin).
        """
        check_states("Y", np.shape(Y), self.dim, single=False)

        def P(name):
            return store.values[f"{PREFIX}.{name}"]

        if self.variant == "icnn":
            fixed = (Y @ P("W0").T, Y @ P("W1").T, Y @ P("w2")[0])
            g0 = self.origin(store) if g0 is None else g0
        else:
            fixed = (Y @ P("W0").T,)
        return Ray(self, store, g0, (Y * Y).sum(axis=-1), fixed)

    def _pass(self, x, store, tape, g0, need_grad: bool):
        """(V, grad V or None): the kernel on raw arrays, the primitives on a tape."""
        xv = ad.value_of(x)
        check_states("x", xv.shape, self.dim)
        if tape is None:
            return self._raw(xv, store, g0, need_grad)
        if g0 is not None:
            raise ValueError("g0 serves raw calls only; a recorded V builds its own")
        return self._eval(x, store, tape, need_grad)

    # -- the raw kernel ----------------------------------------------------

    def _raw(self, x, store, g0, need_grad: bool):
        """V(x) and, with need_grad, grad V(x), on the raw array x: the
        primitives' expressions (_eval) one operation at a time, to their bits."""
        p = store.values
        W0 = p[f"{PREFIX}.W0"]
        if self.variant == "icnn":
            proj = (x @ W0.T, x @ p[f"{PREFIX}.W1"].T, (x @ p[f"{PREFIX}.w2"].T)[..., 0])
            g0 = self.origin(store) if g0 is None else g0
        else:
            proj = (x @ W0.T,)
        keep = [] if need_grad else None
        excess, _ = self._layers(p, proj, g0, keep=keep)
        quad = (x * x).sum(axis=-1) * EPSILON
        s = None
        if self.variant != "lnn":
            # not in place: a single state's excess may be a numpy scalar
            excess, s = ad.smooth_relu_and_slope(excess, D)
        V = excess + quad
        if not need_grad:
            return V, None
        gradV = self._input_grad(p, keep, s)
        gradV += x * (2.0 * EPSILON)
        return V, gradV

    def _layers(self, p, proj, g0=None, tangent=None, keep=None):
        """(g(x) - g(0), its tangent or None) through V's layers, in place.

        proj holds the input's projections, each the caller's own array: W0 x
        for lnn and convex_lnn; W0 x, W1 x and w2.x for the icnn, where None
        stands for a zero input (origin). tangent, if given, holds their
        tangents, pushed through each layer by forward mode (Ray.at).
        Otherwise keep, if a list, receives what _input_grad reads: each
        smooth_relu's slope (None for an identity layer), and then phi for
        lnn and convex_lnn. The operations run in the order of the plain
        expressions and of the primitives, to the same bits.
        """
        if self.variant == "icnn":
            P0, P1, P2 = proj
            dP0, dP1, dP2 = tangent or (None, None, None)
            b0 = p[f"{PREFIX}.b0"]
            U1T, u2T = p[f"{PREFIX}.U1"].T, p[f"{PREFIX}.u2"].T
            a = b0.copy() if P0 is None else np.add(P0, b0, out=P0)
            z, dz = _sr_pair(a, dP0, keep)
            # (z U1^T + b1) + W1 x, and its tangent dz U1^T + d(W1 x)
            a = z @ U1T
            a += p[f"{PREFIX}.b1"]
            if P1 is not None:
                a += P1
            da = None
            if dz is not None:
                da = dz @ U1T
                da += dP1
            z, dz = _sr_pair(a, da, keep)
            # ((z u2^T + b2) + w2.x) - g(0), and dz u2^T + d(w2.x)
            e = z @ u2T
            e += p[f"{PREFIX}.b2"]
            excess = e[..., 0]
            if P2 is not None:
                excess += P2
            if g0 is not None:
                excess -= g0
            if dz is None:
                return excess, None
            d_excess = (dz @ u2T)[..., 0]
            d_excess += dP2
            return excess, d_excess

        mlp = self._mlp
        (a,) = proj
        da = tangent[0] if tangent else None
        for i in range(mlp.n_layers):
            if i:
                WT = p[f"{PREFIX}.W{i}"].T
                a = z @ WT
                if dz is not None:
                    da = dz @ WT
            if mlp._act_name(i) == "smooth_relu":
                z, dz = _sr_pair(a, da, keep)
            else:
                z, dz = a, da
                if keep is not None:
                    keep.append(None)
        # |phi|^2, bias-free with act(0) = 0, so g(0) = 0 exactly; and 2 (phi.dphi)
        excess = (z * z).sum(axis=-1)
        if dz is None:
            if keep is not None:
                keep.append(z)
            return excess, None
        d_excess = (z * dz).sum(axis=-1)
        d_excess *= 2.0
        return excess, d_excess

    def _input_grad(self, p, keep, s):
        """The gradient w.r.t. x of smooth_relu(g(x) - g(0)), or for lnn (s
        None) of g(x) - g(0), from the slopes _layers kept and the outer
        slope s: the recorded body's reverse expressions (seed_fn), in place."""
        if self.variant == "icnn":
            s1, s2 = keep
            se = s[..., None]
            # d_a2 = (s u2) * s2, d_a1 = (d_a2 U1) * s1
            d2 = se @ p[f"{PREFIX}.u2"]
            d2 *= s2
            d1 = d2 @ p[f"{PREFIX}.U1"]
            d1 *= s1
            # (d_a1 W0 + d_a2 W1) + s w2
            d = d1 @ p[f"{PREFIX}.W0"]
            d += d2 @ p[f"{PREFIX}.W1"]
            d += se @ p[f"{PREFIX}.w2"]
            return d
        *slopes, phi = keep
        d = phi * 2.0
        if s is not None:
            d *= s[..., None]
        for i in reversed(range(len(slopes))):
            if slopes[i] is not None:
                d *= slopes[i]
            d = d @ p[f"{PREFIX}.W{i}"]
        return d

    # -- the recorded body -------------------------------------------------

    def _eval(self, x, store, tape, need_grad: bool):
        if self.variant in ("lnn", "convex_lnn"):
            excess, seed_fn = self._mlp_body(x, store, tape)
        else:
            excess, seed_fn = self._icnn_body(x, store, tape)

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

    def _icnn_body(self, x, store, tape):
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
        # g(0) from the biases: each dropped linear(0, W) term is an exact +-0
        z1_0 = ad.smooth_relu(b0, D)
        z2_0 = ad.smooth_relu(ad.linear(z1_0, U1, b1), D)
        g0 = ad.squeeze_last(ad.linear(z2_0, u2, b2))

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

        The layers are the raw kernel's (LyapunovNet._layers), fed gamma
        times each projection of Y with the projection itself as its
        tangent. Every temporary is the call's own, so the arithmetic runs
        in place, one operation at a time in the order of the plain
        expressions (given in comments where they are not plain to see),
        to the same bits.
        """
        gc = gamma[:, None]
        if self.lyap.variant == "icnn":
            W0Y, W1Y, w2Y = self.fixed
            proj = (gc * W0Y, gc * W1Y, gamma * w2Y)
        else:
            proj = (gc * self.fixed[0],)
        excess, d_excess = self.lyap._layers(self.store.values, proj, self.g0, self.fixed)
        # (gamma^2 |Y|^2) EPSILON and (2 EPSILON) gamma |Y|^2
        quad = gamma * gamma
        quad *= self.sq
        quad *= EPSILON
        d_quad = gamma * (2.0 * EPSILON)
        d_quad *= self.sq
        if self.lyap.variant != "lnn":
            excess, d_excess = _sr_pair(excess, d_excess)
        excess += quad
        d_excess += d_quad
        return excess, d_excess


def _sr_pair(a, da, keep=None):
    """smooth_relu(a), written over a, and its tangent s*da for the tangent
    da of a; without da, None in its place, and keep, if a list, receives
    the slope s."""
    a, s = ad.smooth_relu_and_slope(a, D, out=a)
    if da is None:
        if keep is not None:
            keep.append(s)
        return a, None
    s *= da
    return a, s
