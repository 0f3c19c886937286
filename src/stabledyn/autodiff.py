"""Minimal reverse-mode differentiation over scalar losses.

Computations are built from a small set of primitives that accept either raw
numpy arrays or tape-recorded variables. The raw path is the fast inference
path; the recorded path builds a per-evaluation tape that supports exactly one
reverse sweep, accumulating parameter gradients into a ParamStore.

The sweep releases the graph: every recorded Var drops its pullback and its
tape, so the batch's arrays are freed by reference counting as soon as the
caller drops the tape, with no work left for the cyclic collector. A swept
Var keeps its value and .grad but cannot enter a new primitive. Gradients are
passed on without copies, so a leaf's .grad may be a read-only view or share
memory with another leaf's; ParamStore.grads are the store's own arrays.

All arithmetic is float64; root-finding tolerances and the finite-difference
checks need the headroom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


_F64 = np.dtype(np.float64)


def _arr(x) -> np.ndarray:
    if type(x) is np.ndarray and x.dtype is _F64:
        return x
    return np.asarray(x, dtype=np.float64)


class ParamStore:
    """Flat named collection of parameter arrays with matching gradient slots."""

    def __init__(self):
        self.values: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def add(self, name: str, values) -> None:
        if name in self.values:
            raise ValueError(f"parameter {name!r} already registered")
        v = _arr(values).copy()
        self.values[name] = v
        self.grads[name] = np.zeros_like(v)

    def shapes(self) -> dict[str, tuple]:
        return {k: v.shape for k, v in self.values.items()}

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0


class Var:
    """A tape-recorded value. Created only through Tape or the primitives."""

    __slots__ = ("value", "grad", "tape", "_backward")

    def __init__(self, value, tape: "Tape"):
        self.value = _arr(value)
        self.grad = None
        self.tape = tape
        self._backward = None


class Tape:
    """Ordered record of one forward evaluation, good for one reverse sweep."""

    def __init__(self):
        self._nodes: list[Var] = []
        self._param_leaves: dict[tuple[int, str], Var] = {}
        self._stores: dict[int, ParamStore] = {}
        self._swept = False

    def _register(self, v: Var) -> Var:
        self._nodes.append(v)
        return v

    def input(self, x) -> Var:
        """Record an input leaf; its .grad is readable after the sweep."""
        return self._register(Var(x, self))

    def param(self, store: ParamStore, name: str) -> Var:
        """Leaf view of a parameter; repeated requests share one leaf."""
        key = (id(store), name)
        leaf = self._param_leaves.get(key)
        if leaf is None:
            leaf = self._register(Var(store.values[name], self))
            self._param_leaves[key] = leaf
            self._stores[id(store)] = store
        return leaf

    def backward(self, root: Var) -> None:
        """Reverse sweep from a scalar root; adds into ParamStore.grads."""
        if self._swept:
            raise RuntimeError("tape already swept; build a new tape per evaluation")
        if root.tape is not self:
            raise ValueError("root does not belong to this tape")
        if root.value.size != 1:
            raise ValueError(f"backward requires a scalar root, got shape {root.value.shape}")
        self._swept = True
        root.grad = np.ones_like(root.value)
        for node in reversed(self._nodes):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)
            # Var.tape -> Tape._nodes -> Var is the graph's only cycle
            node._backward = node.tape = None
        for (sid, name), leaf in self._param_leaves.items():
            if leaf.grad is not None:
                self._stores[sid].grads[name] += leaf.grad


def _accum(v: Var, g: np.ndarray) -> None:
    if v.grad is None:
        v.grad = g
    else:
        v.grad = v.grad + g


def _tape_of(*args) -> Tape | None:
    tape = None
    for a in args:
        if isinstance(a, Var):
            t = a.tape
            if t is None:
                raise ValueError("variable from a swept tape")
            if tape is None:
                tape = t
            elif t is not tape:
                raise ValueError("mixing variables from different tapes")
    return tape


def value_of(x):
    """Raw numpy value of a Var or passthrough for plain arrays/scalars."""
    if type(x) is np.ndarray and x.dtype is _F64:
        return x
    return x.value if isinstance(x, Var) else _arr(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _node(tape: Tape, value, parents_and_pulls) -> Var:
    """Record value; operands that are not Vars get no gradient and are dropped."""
    out = Var(value, tape)
    parents_and_pulls = [pp for pp in parents_and_pulls if isinstance(pp[0], Var)]

    def backward(g):
        for parent, pull in parents_and_pulls:
            _accum(parent, _unbroadcast(pull(g), parent.value.shape))

    out._backward = backward
    return tape._register(out)


# ---------------------------------------------------------------------------
# Elementwise arithmetic (numpy broadcasting rules)

def add(a, b):
    tape = _tape_of(a, b)
    av, bv = value_of(a), value_of(b)
    val = av + bv
    if tape is None:
        return val
    return _node(tape, val, [(a, lambda g: g), (b, lambda g: g)])


def sub(a, b):
    tape = _tape_of(a, b)
    av, bv = value_of(a), value_of(b)
    val = av - bv
    if tape is None:
        return val
    return _node(tape, val, [(a, lambda g: g), (b, lambda g: -g)])


def neg(a):
    tape = _tape_of(a)
    val = -value_of(a)
    if tape is None:
        return val
    return _node(tape, val, [(a, lambda g: -g)])


def mul(a, b):
    tape = _tape_of(a, b)
    av, bv = value_of(a), value_of(b)
    val = av * bv
    if tape is None:
        return val
    return _node(tape, val, [(a, lambda g: g * bv), (b, lambda g: g * av)])


def div(a, b):
    tape = _tape_of(a, b)
    av, bv = value_of(a), value_of(b)
    val = av / bv
    if tape is None:
        return val
    return _node(tape, val, [(a, lambda g: g / bv), (b, lambda g: -g * av / (bv * bv))])


# ---------------------------------------------------------------------------
# Linear maps. Weight matrices are (out, in); inputs are (in,) or (batch, in).

def linear(x, W, b=None):
    """x @ W.T (+ b)."""
    tape = _tape_of(x, W, b)
    xv, Wv = value_of(x), value_of(W)
    val = xv @ Wv.T
    if b is not None:
        val += value_of(b)
    if tape is None:
        return val
    pull_W = (lambda g: np.outer(g, xv)) if xv.ndim == 1 else (lambda g: g.T @ xv)
    return _node(tape, val, [(x, lambda g: g @ Wv), (W, pull_W), (b, lambda g: g)])


def linear_t(u, W):
    """u @ W: applies the transpose map, used for input-gradient expressions."""
    tape = _tape_of(u, W)
    uv, Wv = value_of(u), value_of(W)
    val = uv @ Wv
    if tape is None:
        return val
    pull_W = (lambda g: np.outer(uv, g)) if uv.ndim == 1 else (lambda g: uv.T @ g)
    return _node(tape, val, [(u, lambda g: g @ Wv.T), (W, pull_W)])


# ---------------------------------------------------------------------------
# Reductions and shape helpers

def rowdot(a, b):
    """Inner product over the last axis: (..., n) x (..., n) -> (...)."""
    tape = _tape_of(a, b)
    av, bv = value_of(a), value_of(b)
    val = (av * bv).sum(axis=-1)
    if tape is None:
        return val
    return _node(tape, val, [(a, lambda g: np.expand_dims(g, -1) * bv),
                             (b, lambda g: np.expand_dims(g, -1) * av)])


def vsum(a):
    tape = _tape_of(a)
    av = value_of(a)
    val = av.sum()
    if tape is None:
        return val
    return _node(tape, val, [(a, lambda g: np.broadcast_to(g, av.shape))])


def mean(a):
    tape = _tape_of(a)
    av = value_of(a)
    val = av.mean()
    if tape is None:
        return val
    return _node(tape, val, [(a, lambda g: np.broadcast_to(g / av.size, av.shape))])


def reshape(a, shape):
    tape = _tape_of(a)
    av = value_of(a)
    val = av.reshape(shape)
    if tape is None:
        return val
    return _node(tape, val, [(a, lambda g: g.reshape(av.shape))])


def sum_axis(a, axis: int):
    tape = _tape_of(a)
    av = value_of(a)
    val = av.sum(axis=axis)
    if tape is None:
        return val
    return _node(tape, val, [(a, lambda g: np.broadcast_to(np.expand_dims(g, axis), av.shape))])


def expand_last(a):
    """(...,) -> (..., 1)."""
    tape = _tape_of(a)
    val = value_of(a)[..., None]
    if tape is None:
        return val
    return _node(tape, val, [(a, lambda g: g[..., 0])])


def squeeze_last(a):
    """(..., 1) -> (...,)."""
    tape = _tape_of(a)
    val = value_of(a)[..., 0]
    if tape is None:
        return val
    return _node(tape, val, [(a, lambda g: np.expand_dims(g, -1))])


def col_slice(a, start, stop):
    """a[..., start:stop], gradient scattered back into place."""
    tape = _tape_of(a)
    av = value_of(a)
    val = av[..., start:stop]
    if tape is None:
        return val

    def pull(g):
        full = np.zeros_like(av)
        full[..., start:stop] = g
        return full

    return _node(tape, val, [(a, pull)])


def gather_rows(a, idx):
    tape = _tape_of(a)
    av = value_of(a)
    idx = np.asarray(idx)
    val = av[idx]
    if tape is None:
        return val

    def pull(g):
        full = np.zeros_like(av)
        np.add.at(full, idx, g)
        return full

    return _node(tape, val, [(a, pull)])


def scatter_rows(vals, idx, size: int, fill: float = 1.0):
    """Length-`size` vector equal to `fill` except vals at idx."""
    tape = _tape_of(vals)
    vv = value_of(vals)
    idx = np.asarray(idx)
    val = np.full(size, fill, dtype=np.float64)
    val[idx] = vv
    if tape is None:
        return val
    return _node(tape, val, [(vals, lambda g: g[idx])])


def scale_rows(x, s):
    """Row-wise scaling: (..., n) * (...,) -> (..., n)."""
    return mul(x, expand_last(s) if not np.isscalar(s) else s)


# ---------------------------------------------------------------------------
# Nonlinearities

def tanh(a):
    tape = _tape_of(a)
    t = np.tanh(value_of(a))
    if tape is None:
        return t
    return _node(tape, t, [(a, lambda g: g * (1.0 - t * t))])


def sigmoid(a):
    tape = _tape_of(a)
    av = value_of(a)
    # 1/(1 + e) and e/(1 + e) with e = exp(-|a|), which never overflows
    e = np.exp(-np.abs(av))
    d = 1.0 + e
    s = np.where(av >= 0, 1.0 / d, e / d)
    if tape is None:
        return s
    return _node(tape, s, [(a, lambda g: g * s * (1.0 - s))])


def exp(a):
    tape = _tape_of(a)
    e = np.exp(value_of(a))
    if tape is None:
        return e
    return _node(tape, e, [(a, lambda g: g * e)])


def log(a):
    tape = _tape_of(a)
    av = value_of(a)
    val = np.log(av)
    if tape is None:
        return val
    return _node(tape, val, [(a, lambda g: g / av)])


def sqrt(a):
    tape = _tape_of(a)
    r = np.sqrt(value_of(a))
    if tape is None:
        return r
    return _node(tape, r, [(a, lambda g: g / (2.0 * r))])


def _unit_clip(m, d: float):
    """clip(u/d, 0, 1) as min(m/d, 1) from m = max(u, 0): +0.0 for u < 0, a
    zero of np.maximum's sign at u = -0.0. Always an array, 0-d included."""
    s = np.asarray(m / d)
    return np.minimum(s, 1.0, out=s)


def smooth_relu_and_slope(u, d: float, out=None):
    """(smooth_relu(u), its slope) on raw arrays, for value calls, the tape and
    LyapunovNet.ray alike. The value goes to out, which may be u itself."""
    val = np.maximum(u, 0.0, out=out)
    s = _unit_clip(val, d)
    val -= s * (0.5 * d)
    val *= s
    return val, s


def smooth_relu(a, d: float):
    """C1 ramp s*(max(u, 0) - s*d/2) with slope s = clip(u/d, 0, 1): +0.0 for
    u < 0 (the sign of the zero at u = -0.0 is unspecified), u^2/(2d) to 3 ulp
    for 0 < u < d, u - d/2 beyond (NaN stays NaN)."""
    if d <= 0:
        raise ValueError("smooth_relu knot d must be positive")
    tape = _tape_of(a)
    val, slope = smooth_relu_and_slope(value_of(a), d)
    if tape is None:
        return val
    return _node(tape, val, [(a, lambda g: g * slope)])


def smooth_relu_deriv(a, d: float):
    """Derivative of smooth_relu as a differentiable expression."""
    if d <= 0:
        raise ValueError("smooth_relu knot d must be positive")
    tape = _tape_of(a)
    av = value_of(a)
    val = _unit_clip(np.maximum(av, 0.0), d)
    if tape is None:
        return val
    inside = ((av > 0.0) & (av < d)) / d
    return _node(tape, val, [(a, lambda g: g * inside)])


def logsumexp(a):
    """Row-wise log-sum-exp over the last axis."""
    tape = _tape_of(a)
    av = value_of(a)
    m = av.max(axis=-1, keepdims=True)
    val = np.log(np.exp(av - m).sum(axis=-1)) + m[..., 0]
    if tape is None:
        return val
    soft = np.exp(av - np.expand_dims(val, -1))
    return _node(tape, val, [(a, lambda g: np.expand_dims(g, -1) * soft)])


def softmax(a):
    """Row-wise softmax over the last axis."""
    tape = _tape_of(a)
    av = value_of(a)
    m = av.max(axis=-1, keepdims=True)
    e = np.exp(av - m)
    s = e / e.sum(axis=-1, keepdims=True)
    if tape is None:
        return s

    def pull(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return s * (g - inner)

    return _node(tape, s, [(a, pull)])


def override_value(a, value):
    """Passthrough node carrying `value` forward and identity backward.

    Used where an iterative solve determines the forward value but gradients
    should flow through a surrogate expression built around the solution.
    """
    if not isinstance(a, Var):
        raise ValueError("override_value needs a recorded variable")
    val = _arr(value)
    if val.shape != a.value.shape:
        raise ValueError("override value shape mismatch")
    return _node(_tape_of(a), val, [(a, lambda g: g)])


# ---------------------------------------------------------------------------
# Gradient checking

@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str = ""


def grad_check(f, params: ParamStore, h: float = 1e-5) -> GradCheckReport:
    """Compare tape gradients of f against central finite differences.

    f(params, tape) must return the scalar loss as a Var when a tape is given
    and as a plain float when tape is None. Relative error per entry is
    |analytic - numeric| / max(1, |numeric|).
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    params.zero_grads()
    tape = Tape()
    root = f(params, tape)
    if not np.all(np.isfinite(root.value)):
        raise FloatingPointError("non-finite loss in grad_check")
    tape.backward(root)
    analytic = {k: g.copy() for k, g in params.grads.items()}

    worst = 0.0
    worst_name = ""
    for name, v in params.values.items():
        flat = v.reshape(-1)
        err_here = 0.0
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = float(f(params, None))
            flat[i] = keep - h
            dn = float(f(params, None))
            flat[i] = keep
            if not (math.isfinite(up) and math.isfinite(dn)):
                raise FloatingPointError(f"non-finite loss while perturbing {name!r}")
            numeric = (up - dn) / (2.0 * h)
            a = analytic[name].reshape(-1)[i]
            rel = abs(a - numeric) / max(1.0, abs(numeric))
            err_here = max(err_here, rel)
        if err_here > worst:
            worst, worst_name = err_here, name
    return GradCheckReport(max_rel_err=worst, worst_param=worst_name)
