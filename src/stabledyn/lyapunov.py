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
exact-zero gradients. A raw V call, or a ray, builds g(0) itself unless it
is given one as g0= (origin); a certified step builds it once wherever its
V pass runs raw and passes it to its V calls and its ray, which changes no
bit. A recorded call always builds its own, after the input's pass, so the
tape holds g(0)'s nodes where the parameters' gradients need them.

V has one body, the kernel. _layers goes forward through V's layers from
the input's projections, W0 x (and the icnn's W1 x and w2.x), keeping what
_input_grad's reverse sweep reads, or pushing a tangent alongside for a ray;
it builds g(0) too. Raw calls (no tape) and rays feed it raw arrays, and its
arithmetic runs in place on them. A recorded call feeds it the tape's leaves
for the parameters: each operation then records its autodiff primitive, so
the tape can differentiate V and grad V again w.r.t. the weights. Either
way the operations run in one order and share one smooth_relu
(ad.smooth_relu_and_slope): on the same rows a raw and a recorded V, or
grad V, read the same bits, and so does a ray at gamma = 1.

Along one ray gamma*Y the input's projections W0 Y (and the icnn's W1 Y and
w2.Y) and |Y|^2 do not depend on gamma. ray(Y, store) makes them once, and
its at(gamma) gives V(gamma*Y) with dV/dgamma from the kernel fed gamma
times each projection, with the projection as its tangent (forward mode, no
reverse sweep): the pair the gamma solve iterates on. It serves raw arrays
only.

An input of the wrong width is refused by name, raw and recorded alike
(validate.check_states): x is one state of dimension dim or a (batch, dim)
array, and a ray's Y a (batch, dim) array, converted to float64 as x is.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .nets import D
from .validate import check_count, check_states, check_widths

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
        self.hidden = check_widths("hidden", self.hidden, "a hidden width")
        n = self.dim
        # (low, high, shape) of each parameter's uniform draw, in draw order
        if self.variant == "icnn":
            if not 1 <= len(self.hidden) <= 2:
                raise ValueError(f"icnn takes one or two hidden widths, got {self.hidden}")
            h1, h2 = self.hidden[0], self.hidden[-1]
            bn, b1, b2 = 1.0 / np.sqrt(n), 1.0 / np.sqrt(h1), 1.0 / np.sqrt(h2)
            draws = {"W0": (-bn, bn, (h1, n)), "b0": (-bn, bn, (h1,)),
                     "U1": (0.0, b1, (h2, h1)), "W1": (-bn, bn, (h2, n)),
                     "b1": (-b1, b1, (h2,)), "u2": (0.0, b2, (1, h2)),
                     "w2": (-bn, bn, (1, n)), "b2": (-b2, b2, (1,))}
            clamped = ["U1", "u2"]
        else:
            dims = (n, *self.hidden, n)
            draws = {}
            for i in range(len(dims) - 1):
                bound = 1.0 / np.sqrt(dims[i])
                draws[f"W{i}"] = (-bound, bound, (dims[i + 1], dims[i]))
            clamped = list(draws)[1:] if self.variant == "convex_lnn" else []
        self.draws = {f"{PREFIX}.{k}": v for k, v in draws.items()}
        self._clamped = [f"{PREFIX}.{k}" for k in clamped]

    # -- parameters --------------------------------------------------------

    def init_params(self, store: ad.ParamStore, rng: np.random.Generator) -> None:
        for name, (low, high, shape) in self.draws.items():
            store.add(name, rng.uniform(low, high, size=shape))
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
        Y, _ = check_states("Y", Y, self.dim, single=False)
        p = store.values
        W0Y = Y @ p[f"{PREFIX}.W0"].T
        if self.variant == "icnn":
            # w2.Y as a column, the shape of the layers' w2 x
            fixed = (W0Y, Y @ p[f"{PREFIX}.W1"].T, (Y @ p[f"{PREFIX}.w2"][0])[:, None])
            if g0 is None:
                g0 = self._layers(p, (None, None, None))[0]
        else:
            fixed = (W0Y,)
        return Ray(self, store, g0, (Y * Y).sum(axis=-1), fixed)

    def _pass(self, x, store, tape, g0, need_grad: bool):
        """(V, grad V or None) from the kernel: on raw arrays without a tape,
        recorded on the tape's parameter leaves with one."""
        xv = ad.value_of(x)
        check_states("x", xv, self.dim)
        if tape is None:
            x, p = xv, store.values
        elif g0 is not None:
            raise ValueError("g0 serves raw calls only; a recorded V builds its own")
        else:
            x = x if type(x) is ad.Var else xv
            p = {name: tape.param(store, name) for name in self.draws}
        W0 = p[f"{PREFIX}.W0"]
        if self.variant == "icnn":
            proj = (_linear(x, W0, p[f"{PREFIX}.b0"]), _linear(x, p[f"{PREFIX}.W1"]),
                    _linear(x, p[f"{PREFIX}.w2"]))
        else:
            proj = (_linear(x, W0),)
        keep, outer = [], []
        excess, _ = self._layers(p, proj, g0, keep=keep)
        quad = _mul(_sq(x), EPSILON)
        if self.variant != "lnn":
            excess, _ = _sr(excess, keep=outer)
        V = _add(excess, quad)
        if not need_grad:
            return V, None
        se = _expand(_slope(outer[0])) if outer else None
        return V, _add(self._input_grad(p, keep, se), _scale(x, 2.0 * EPSILON))

    # -- the kernel --------------------------------------------------------

    def _layers(self, p, proj, g0=None, tangent=None, keep=None):
        """(g(x) - g(0), its tangent or None) through V's layers.

        p maps V's parameter names to raw arrays (store.values) or to a
        tape's leaves. proj holds the input's projections, each the caller's
        own: W0 x for lnn and convex_lnn; W0 x + b0, W1 x and w2.x (a
        column) for the icnn, where (None, None, None) stands for a zero
        input and gives g(0) itself (origin). The icnn subtracts g0, built
        after the input's pass when it is None. tangent, if given, holds
        the projections' raw tangents, pushed through each layer by forward
        mode (Ray.at). Otherwise keep, if a list, receives what _input_grad
        reads: each smooth_relu's slope, or its recorded pre-activation
        (None for an identity layer), and then phi for lnn and convex_lnn.
        """
        if self.variant == "icnn":
            a, P1, P2 = proj
            dP0, dP1, dP2 = tangent or (None, None, None)
            if a is None:
                b0 = p[f"{PREFIX}.b0"]
                a = b0.copy() if type(b0) is np.ndarray else b0
            U1, u2 = p[f"{PREFIX}.U1"], p[f"{PREFIX}.u2"]
            z, dz = _sr(a, dP0, keep)
            # (z U1^T + b1) + W1 x, and its tangent dz U1^T + d(W1 x)
            a = _linear(z, U1, p[f"{PREFIX}.b1"])
            if P1 is not None:
                a = _add(a, P1)
            da = None
            if dz is not None:
                da = dz @ U1.T
                da += dP1
            z, dz = _sr(a, da, keep)
            # ((z u2^T + b2) + w2.x) - g(0), and dz u2^T + d(w2.x)
            e = _linear(z, u2, p[f"{PREFIX}.b2"])
            if P2 is None:
                return _squeeze(e), None
            excess = _squeeze(_add(e, P2))
            if g0 is None:
                g0 = self._layers(p, (None, None, None))[0]
            excess = _sub(excess, g0)
            if dz is None:
                return excess, None
            de = dz @ u2.T
            de += dP2
            return excess, de[..., 0]

        (a,) = proj
        da = tangent[0] if tangent else None
        last = len(self.hidden)
        for i in range(last + 1):
            if i:
                W = p[f"{PREFIX}.W{i}"]
                a = _linear(z, W)
                if dz is not None:
                    da = dz @ W.T
            if i < last or self.variant == "convex_lnn":
                z, dz = _sr(a, da, keep)
            else:
                z, dz = a, da
                if keep is not None:
                    keep.append(None)
        # |phi|^2, bias-free with act(0) = 0, so g(0) = 0 exactly; and 2 (phi.dphi)
        excess = _sq(z)
        if dz is None:
            if keep is not None:
                keep.append(z)
            return excess, None
        d_excess = (z * dz).sum(axis=-1)
        d_excess *= 2.0
        return excess, d_excess

    def _input_grad(self, p, keep, se):
        """The gradient w.r.t. x of smooth_relu(g(x) - g(0)), or for lnn (se
        None) of g(x) - g(0), from what _layers kept and the outer slope se
        (a column)."""
        if self.variant == "icnn":
            s1, s2 = keep
            # d_a2 = (s u2) * s2, d_a1 = (d_a2 U1) * s1
            d2 = _mul(_linear_t(se, p[f"{PREFIX}.u2"]), _slope(s2))
            d1 = _mul(_linear_t(d2, p[f"{PREFIX}.U1"]), _slope(s1))
            # (d_a1 W0 + d_a2 W1) + s w2
            d = _add(_linear_t(d1, p[f"{PREFIX}.W0"]), _linear_t(d2, p[f"{PREFIX}.W1"]))
            return _add(d, _linear_t(se, p[f"{PREFIX}.w2"]))
        *slopes, phi = keep
        d = _mul(phi, 2.0)
        if se is not None:
            d = _mul(d, se)
        for i in reversed(range(len(slopes))):
            if slopes[i] is not None:
                d = _mul(d, _slope(slopes[i]))
            d = _linear_t(d, p[f"{PREFIX}.W{i}"])
        return d


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

        The layers are the kernel's (LyapunovNet._layers), fed gamma times
        each projection of Y with the projection itself as its tangent.
        Every temporary is the call's own, so the arithmetic runs in place,
        one operation at a time in the order of the plain expressions
        (given in comments where they are not plain to see), to the same
        bits.
        """
        gc = gamma[:, None]
        p = self.store.values
        if self.lyap.variant == "icnn":
            W0Y, W1Y, w2Y = self.fixed
            a = gc * W0Y
            a += p[f"{PREFIX}.b0"]
            proj = (a, gc * W1Y, gc * w2Y)
        else:
            proj = (gc * self.fixed[0],)
        excess, d_excess = self.lyap._layers(p, proj, self.g0, self.fixed)
        # (gamma^2 |Y|^2) EPSILON and (2 EPSILON) gamma |Y|^2
        quad = gamma * gamma
        quad *= self.sq
        quad *= EPSILON
        d_quad = gamma * (2.0 * EPSILON)
        d_quad *= self.sq
        if self.lyap.variant != "lnn":
            excess, d_excess = _sr(excess, d_excess)
        excess += quad
        d_excess += d_quad
        return excess, d_excess


# The kernel's operations. Each takes raw arrays or recorded Vars, and tells
# them apart by a type(a) is np.ndarray test on the operand that decides
# (the parameter W for a linear map): a raw operand's partners are raw too.
# On raw arrays it computes in place where it can, over its first operand
# (which must be the caller's own); on a Var it records the autodiff
# primitive, which computes the same bits.

def _in_place(prim, iop):
    def op(a, b):
        return iop(a, b) if type(a) is np.ndarray else prim(a, b)
    return op


# a raw single state's V is a numpy scalar, which the primitive serves raw
_add = _in_place(ad.add, operator.iadd)
_sub = _in_place(ad.sub, operator.isub)
_mul = _in_place(ad.mul, operator.imul)


def _linear(x, W, b=None):
    """x W^T (+ b)."""
    if type(W) is not np.ndarray:
        return ad.linear(x, W, b)
    a = x @ W.T
    if b is not None:
        a += b
    return a


def _linear_t(u, W):
    """u W."""
    return u @ W if type(W) is np.ndarray else ad.linear_t(u, W)


def _sq(a):
    """|a|^2 over the last axis."""
    return (a * a).sum(axis=-1) if type(a) is np.ndarray else ad.rowdot(a, a)


def _scale(a, c):
    """a c, a new array: a is the caller's."""
    return a * c if type(a) is np.ndarray else ad.mul(a, c)


def _squeeze(a):
    return a[..., 0] if type(a) is np.ndarray else ad.squeeze_last(a)


def _expand(a):
    return a[..., None] if type(a) is np.ndarray else ad.expand_last(a)


def _sr(a, da=None, keep=None):
    """smooth_relu(a), written over a raw array a, and its tangent s*da for
    the raw tangent da of a; without da, None in its place, and keep, if a
    list, receives the slope s. A recorded a goes to keep itself, and the
    reverse sweep records its slope (_slope)."""
    if type(a) is ad.Var:
        if keep is not None:
            keep.append(a)
        return ad.smooth_relu(a, D), None
    a, s = ad.smooth_relu_and_slope(a, D, out=a if type(a) is np.ndarray else None)
    if da is None:
        if keep is not None:
            keep.append(s)
        return a, None
    s *= da
    return a, s


def _slope(kept):
    """The slope _sr kept: raw as it is, recorded from the pre-activation."""
    return kept if type(kept) is np.ndarray else ad.smooth_relu_deriv(kept, D)
