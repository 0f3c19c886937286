"""One rule for states: every entry that takes a state array applies
validate.check_states, so each refuses a wrong shape and, where it needs
finite states, a NaN with the same message, and takes a list as an array."""

import copy
import re

import numpy as np
import pytest

from stabledyn import autodiff as ad
from stabledyn import (ParamStore, Tape, TrainConfig, evaluate_violations, make_model,
                       make_stochastic_model, mdn_forward, mdn_sample, model_step, rollout,
                       simulate, step_expr, stochastic_rollout, train)

BATCH = np.array([[0.5, -0.4], [1.2, 0.3]])


def _built(model):
    store = ParamStore()
    model.init_params(store, np.random.default_rng(4))
    return model, store


DET, DET_STORE = _built(make_model("implicit", 2, "icnn", hidden_f=(6,), hidden_v=(5,)))
MIX, MIX_STORE = _built(make_stochastic_model("implicit", 2, "icnn", k=2, hidden_f=(6,),
                                              hidden_v=(5,)))
LYAP = DET.lyap


def _trained(x):
    # train moves the weights: each call starts from its own copy
    return train(DET, copy.deepcopy(DET_STORE), x, x, TrainConfig(epochs=1)).final_loss


# (call on the states, the argument's name, the shapes it takes, whether it
# refuses a state that is not finite)
ENTRIES = {
    "value": (lambda x: LYAP.value(x, DET_STORE), "x", "single or batch", False),
    "ray": (lambda x: LYAP.ray(x, DET_STORE).at(np.ones(len(x)))[0], "Y", "batch", False),
    "model_step": (lambda x: model_step(DET, DET_STORE, x), "x", "single or batch", True),
    "step_expr": (lambda x: ad.value_of(step_expr(DET, DET_STORE, Tape(), x)), "X", "batch",
                  True),
    "rollout": (lambda x: rollout(DET, DET_STORE, x, 3), "x0", "single or batch", True),
    "mdn_forward-raw": (lambda x: mdn_forward(MIX, MIX_STORE, x).mu_mix, "X", "batch", True),
    "mdn_forward-taped": (lambda x: ad.value_of(mdn_forward(MIX, MIX_STORE, x, Tape()).mu_mix),
                          "X", "batch", True),
    "mdn_sample": (lambda x: mdn_sample(MIX, MIX_STORE, x, np.random.default_rng(0)), "x",
                   "single or batch", True),
    "stochastic_rollout": (lambda x: stochastic_rollout(MIX, MIX_STORE, x, 3, 2,
                                                        np.random.default_rng(0))[0],
                           "x0", "single", True),
    "evaluate_violations": (lambda x: evaluate_violations(DET, DET_STORE, x), "X",
                            "single or batch", True),
    "train": (_trained, "X", "batch", True),
    "simulate": (lambda x: simulate("saturated", x, 3), "x0", "single or batch", True),
}

TAKES = {"single or batch": "a state of dimension 2 or a (batch, 2) array",
         "batch": "a (batch, 2) array",
         "single": "a single state of dimension 2"}


@pytest.mark.parametrize("entry", ENTRIES)
def test_every_entry_applies_the_one_rule_for_states(entry):
    call, name, takes, finite = ENTRIES[entry]
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be {TAKES[takes]}, got shape (3, 3)") + "$"):
        call(np.ones((3, 3)))

    # a single-state entry takes the batch's first row, so its bad row is 0
    good, row = (BATCH[0], 0) if takes == "single" else (BATCH, 1)
    bad = good.copy()
    np.atleast_2d(bad)[row, 0] = np.nan
    if finite:
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must hold finite states; rows [{row}] are not") + "$"):
            call(bad)
    else:
        assert np.isnan(call(bad)[row])

    assert np.array_equal(call(good.tolist()), call(good))
