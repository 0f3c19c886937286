"""Spans around the library's public calls, recorded from outside.

A Tracer replaces public functions and methods with timing wrappers, at the
attribute where the caller looks them up (for example `training.step_expr`,
which the training loop imported by name), and puts the originals back on
uninstall. Spans are kept in flat `array` buffers, which hold raw numbers and
are invisible to the cyclic garbage collector, so recording them neither
creates GC work nor inflates the GC time the tracer also measures. Nothing
is written until the run ends.

Each span records its name, start, end, parent span, whether it ran on the
raw path or recorded a tape, the enclosing round and an optional label; a
few carry one number read from the call (tape nodes at backward, the most
iterations any row of a gamma solve took).
"""

from __future__ import annotations

import gc
import functools
import time
from array import array

import numpy as np

IN_STEP = 1     # inside deterministic.model_step
IN_TRAIN = 2    # inside training.train

LYAP = ("lyapunov.value", "lyapunov.grad", "lyapunov.value_and_grad")


def _tape_arg(pos: int):
    """Flag reader: the call recorded a tape if argument `pos` (or tape=) is set."""
    def read(args, kwargs):
        tape = kwargs.get("tape", args[pos] if len(args) > pos else None)
        return tape is not None
    return read


def _never(args, kwargs):
    return False


def _always(args, kwargs):
    return True


class Tracer:
    def __init__(self):
        self._name_id: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.tape = array("b")
        self.ctx = array("l")
        self.round = array("l")
        self.label = array("l")
        self.x1 = array("d")      # a number read from the call, where one is
        self._label_id: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.active = False
        self.cur_round = -1
        self.cur_label = -1
        # counts read off return values: key -> {round: total}
        self.counts: dict[str, dict[int, float]] = {}
        self.gc_s: dict[int, float] = {}
        self.gc_objects: dict[int, float] = {}
        self._gc_t0 = None

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        return self._name_id.setdefault(name, len(self._name_id))

    def set_label(self, label: str | None) -> None:
        if label is None:
            self.cur_label = -1
            return
        self.cur_label = self._label_id.setdefault(label, len(self._label_id))

    def label_id(self, label: str) -> int:
        """Id of a label, or -2 (matching no span) if it was never set."""
        return self._label_id.get(label, -2)

    def count(self, key: str, value: float) -> None:
        per_round = self.counts.setdefault(key, {})
        per_round[self.cur_round] = per_round.get(self.cur_round, 0.0) + value

    def _open(self, nid: int, flag: bool, ctx_bit: int) -> int:
        idx = len(self.start)
        if self._stack:
            parent = self._stack[-1]
            ctx = self.ctx[parent] | ctx_bit
        else:
            parent, ctx = -1, ctx_bit
        self.parent.append(parent)
        self.name.append(nid)
        self.tape.append(flag)
        self.ctx.append(ctx)
        self.round.append(self.cur_round)
        self.label.append(self.cur_label)
        self.x1.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, name: str, fn, flag_of, ctx_bit: int = 0, after=None):
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(nid, flag_of(args, kwargs), ctx_bit)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(idx, args, out)
            return out

        return traced

    def _counter(self, fn, note):
        """Wrapper that only reads counts off a call's arguments and result; no span."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer.active:
                note(args, out)
            return out

        return counted

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _gc_callback(self, phase, info) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        elif self._gc_t0 is not None:
            r = self.cur_round
            self.gc_s[r] = self.gc_s.get(r, 0.0) + time.perf_counter() - self._gc_t0
            self.gc_objects[r] = self.gc_objects.get(r, 0.0) + info.get("collected", 0)
            self._gc_t0 = None

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        from stabledyn import (autodiff, deterministic, lyapunov, model_io, nets,
                               stochastic, systems, training)

        P = self._patch
        W = self._wrapper

        P(nets.Mlp, "forward", W("nets.forward", nets.Mlp.forward, _tape_arg(3)))
        for meth in ("value", "grad", "value_and_grad"):
            orig = getattr(lyapunov.LyapunovNet, meth)
            P(lyapunov.LyapunovNet, meth, W(f"lyapunov.{meth}", orig, _tape_arg(3)))

        def after_backward(idx, args, out):
            self.x1[idx] = len(args[0]._nodes)
        P(autodiff.Tape, "backward",
          W("autodiff.backward", autodiff.Tape.backward, _always, after=after_backward))

        def after_solve(idx, args, out):
            _, _, n_newton, n_bisect = out
            iters = n_newton + n_bisect
            self.x1[idx] = iters.max() if iters.size else 0
            self.count("solve_rows", iters.size)
            self.count("solve_iters", float(iters.sum()))
        P(deterministic, "solve_gamma_batch",
          W("deterministic.solve", deterministic.solve_gamma_batch, _never,
            after=after_solve))

        # model_step always asks for its StepInfo so intervention can be counted;
        # the returned state is the same object either way
        orig_step = deterministic.model_step

        def step_with_info(model, store, x, want_info=False):
            out, info = orig_step(model, store, x, want_info=True)
            if self.active and model.mode != "none":
                self.count("decided_rows", info.intervened.size)
                self.count("intervened_rows", float(info.intervened.sum()))
            return (out, info) if want_info else out
        step = W("deterministic.model_step", step_with_info, _never, IN_STEP)
        P(deterministic, "model_step", step)
        P(training, "model_step", step)
        P(training, "step_expr", W("deterministic.step_expr", training.step_expr, _always))

        def note_gamma(args, out):
            mask = out[1]
            self.count("decided_rows", mask.size)
            self.count("intervened_rows", float(mask.sum()))
        P(stochastic, "certified_gamma_raw",
          self._counter(stochastic.certified_gamma_raw, note_gamma))

        # the recorded twin, in training steps: None when no row intervenes,
        # otherwise per-row factors that are exactly 1.0 where it does not
        def note_gamma_expr(args, out):
            self.count("decided_rows", autodiff.value_of(args[3]).shape[0])
            if out is not None:
                self.count("intervened_rows", float((autodiff.value_of(out) != 1.0).sum()))
        for owner in (deterministic, stochastic):
            P(owner, "certified_gamma_expr",
              self._counter(owner.certified_gamma_expr, note_gamma_expr))

        P(training, "train", W("training.train", training.train, _always, IN_TRAIN))
        P(training, "adam_step", W("training.adam_step", training.adam_step, _always))
        P(training, "mdn_forward", W("stochastic.forward", training.mdn_forward, _tape_arg(3)))
        P(stochastic, "mdn_forward", W("stochastic.forward", stochastic.mdn_forward,
                                       _tape_arg(3)))
        P(training, "mdn_nll", W("stochastic.nll", training.mdn_nll,
                                 lambda a, k: isinstance(a[0].mu, autodiff.Var)))
        P(stochastic, "mdn_sample", W("stochastic.sample", stochastic.mdn_sample, _never))
        P(model_io, "save_model", W("model_io.save", model_io.save_model, _never))
        P(model_io, "load_model", W("model_io.load", model_io.load_model, _never))
        P(systems, "generate_transitions",
          W("systems.generate", systems.generate_transitions, _never))
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        self.active = False
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # -- reading -----------------------------------------------------------

    def table(self, rounds: set[int]):
        """Per-span numpy columns restricted to the given rounds, plus self time."""
        n = len(self.start)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        rnd = np.asarray(self.round, dtype=np.int64)
        keep = np.isin(rnd, sorted(rounds))
        return {
            "name": np.asarray(self.name, dtype=np.int64)[keep],
            "dur": dur[keep],
            "self": (dur - child)[keep],
            "tape": np.asarray(self.tape, dtype=bool)[keep],
            "ctx": np.asarray(self.ctx, dtype=np.int64)[keep],
            "round": rnd[keep],
            "label": np.asarray(self.label, dtype=np.int64)[keep],
            "x1": np.array(self.x1)[keep],
        }

    def name_mask(self, tab, *names: str) -> np.ndarray:
        ids = [self._name_id[n] for n in names if n in self._name_id]
        return np.isin(tab["name"], ids)
