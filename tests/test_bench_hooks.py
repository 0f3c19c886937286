"""The benchmark's tracer must find, wrap and restore every call it hooks.

perfbench/spans.py wraps library functions by attribute name from outside
the library. A renamed or removed function breaks `perfbench/run.py --trace 1`
only when the benchmark runs; these tests catch that in the unit suite.
"""

import gc
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stabledyn import (autodiff, deterministic, lyapunov, model_io, nets,
                       stochastic, systems, training)
from stabledyn.autodiff import ParamStore
from stabledyn.deterministic import make_model
from stabledyn.stochastic import make_stochastic_model

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"

OWNERS = (autodiff, deterministic, lyapunov, model_io, nets, stochastic, systems,
          training, autodiff.Tape, lyapunov.LyapunovNet, nets.Mlp)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _snapshot():
    return {(owner, attr): val for owner in OWNERS for attr, val in vars(owner).items()}


@pytest.fixture
def tracer():
    before = _snapshot()
    t = _load_spans().Tracer()
    try:
        t.install()
        yield t, before
    finally:
        t.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    moved = [f"{getattr(o, '__name__', o)}.{a}" for (o, a), v in before.items()
             if after[(o, a)] is not v]
    assert not moved, f"not restored: {moved}"
    assert t._gc_callback not in gc.callbacks


def test_every_hooked_attribute_exists_and_is_wrapped(tracer):
    t, before = tracer
    assert t._saved
    for owner, attr, orig in t._saved:
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        assert before.get((owner, attr)) is orig, f"{name} did not exist before install"
        assert getattr(owner, attr) is not orig, f"{name} was not replaced"


def test_flag_readers_match_the_hooked_signatures():
    # the tracer reads `tape` as the third argument after self
    for fn in (lyapunov.LyapunovNet.value, lyapunov.LyapunovNet.grad,
               lyapunov.LyapunovNet.value_and_grad, nets.Mlp.forward):
        assert list(inspect.signature(fn).parameters)[3] == "tape", fn.__qualname__
    assert list(inspect.signature(stochastic.mdn_forward).parameters)[3] == "tape"


def test_traced_calls_match_untraced_ones(tracer):
    t, _ = tracer
    model = make_model("implicit", 2, "icnn", hidden_f=(6,), hidden_v=(5,))
    store = ParamStore()
    model.init_params(store, np.random.default_rng(0))
    store.values["f.W1"] *= 20.0      # every row intervenes
    X = np.random.default_rng(1).uniform(-4.0, 4.0, size=(12, 2))
    Y = 0.9 * X

    plain_step = deterministic.model_step(model, store, X)
    t.active = True
    traced_step = deterministic.model_step(model, store, X)
    s_plain, s_traced = ParamStore(), ParamStore()
    for name, v in store.values.items():
        s_plain.add(name, v)
        s_traced.add(name, v)
    cfg = training.TrainConfig(epochs=1, batch_size=6)
    rep_traced = training.train(model, s_traced, X, Y, cfg)
    t.active = False
    rep_plain = training.train(model, s_plain, X, Y, cfg)

    assert np.array_equal(traced_step, plain_step)
    assert rep_traced.losses == rep_plain.losses
    for name in store.values:
        assert np.array_equal(s_traced.values[name], s_plain.values[name]), name
    assert len(t.start) > 0
    assert t.counts["solve_rows"] and t.counts["intervened_rows"]

    # a mixture's forward decides every row once, under stochastic's own names
    mdn = make_stochastic_model("implicit", 2, "icnn", k=2, hidden_f=(6,), hidden_v=(5,))
    mstore = ParamStore()
    mdn.init_params(mstore, np.random.default_rng(2))
    t.active = True
    for tape in (None, autodiff.Tape()):
        before = sum(t.counts["decided_rows"].values())
        stochastic.mdn_forward(mdn, mstore, X, tape)
        assert sum(t.counts["decided_rows"].values()) == before + X.shape[0]
    t.active = False


@pytest.mark.parametrize("workload", ["rollout", "mixture"])
def test_a_traced_benchmark_run_passes_its_checks(workload):
    # the whole tracer against the whole library, in the benchmark's own
    # process: a change in what a hooked call returns fails here, not only
    # when the benchmark runs. Only a mixture run reaches the mixture head,
    # the sigma tether and sampling
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    lines = run.stdout.splitlines()
    assert not [line for line in lines if line.startswith("FAILED CHECK")]
    assert json.loads(lines[-1])["correct"] is True
