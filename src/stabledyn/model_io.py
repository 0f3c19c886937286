"""JSON persistence for trained models.

Weights are stored as nested lists; json writes Python floats through repr,
which round-trips every float64 bit-exactly, so save followed by load
reproduces the model down to the last ulp.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .autodiff import ParamStore
from .deterministic import StableModel, make_model
from .stochastic import StochasticModel, make_stochastic_model

FORMAT_VERSION = 1


def save_model(path, model, store: ParamStore) -> None:
    if not isinstance(model, (StableModel, StochasticModel)):
        raise ValueError(f"cannot save a {type(model).__name__}")
    doc = {
        "format_version": FORMAT_VERSION,
        "mode": model.mode,
        "beta": model.beta,
        "rootfind_tol": model.rootfind_tol,
        "max_newton": model.max_newton,
        "max_bisect": model.max_bisect,
        "backward_route": model.backward_route,
        "variant": model.lyap.variant,
        "dim": model.lyap.dim,
        "hidden_v": list(model.lyap.hidden),
        "epsilon": model.lyap.epsilon,
        "d": model.lyap.d,
    }
    if isinstance(model, StochasticModel):
        doc["kind"] = "mdn"
        doc["k"] = model.k
        doc["sigma_cap"] = model.sigma_cap
        doc["hidden_f"] = list(model.trunk.layer_dims[1:-1])
        doc["activation"] = model.trunk.activation
    else:
        doc["kind"] = "deterministic"
        doc["integrating"] = model.integrating
        doc["hidden_f"] = list(model.fhat.layer_dims[1:-1])
        doc["activation"] = model.fhat.activation
    doc["params"] = {k: v.tolist() for k, v in store.values.items()}
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_model(path):
    """Rebuild (model, store) from a saved file.

    Raises ValueError when the saved parameters do not match, by name and
    shape, the architecture the file describes.
    """
    doc = json.loads(Path(path).read_text())
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    kind = doc["kind"]
    common = dict(mode=doc["mode"], dim=doc["dim"], variant=doc["variant"],
                  hidden_f=tuple(doc["hidden_f"]), hidden_v=tuple(doc["hidden_v"]),
                  activation=doc["activation"], beta=doc["beta"],
                  rootfind_tol=doc["rootfind_tol"], epsilon=doc["epsilon"],
                  d=doc["d"], backward_route=doc["backward_route"])
    if kind == "deterministic":
        model = make_model(integrating=doc["integrating"], **common)
    elif kind == "mdn":
        model = make_stochastic_model(k=doc["k"], sigma_cap=doc["sigma_cap"],
                                      **common)
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    model.max_newton = doc["max_newton"]
    model.max_bisect = doc["max_bisect"]

    store = ParamStore()
    for name, vals in doc["params"].items():
        store.add(name, np.asarray(vals, dtype=np.float64))
    _check_params(model, store)
    return model, store


def _check_params(model, store: ParamStore) -> None:
    """Refuse parameters that do not fit the architecture the file names."""
    expected = ParamStore()
    model.init_params(expected, np.random.default_rng(0))
    want, got = expected.shapes(), store.shapes()
    for name, shape in want.items():
        if name not in got:
            raise ValueError(f"saved model lacks parameter {name!r}")
        if got[name] != shape:
            raise ValueError(f"parameter {name!r} has shape {got[name]}, "
                             f"the architecture needs {shape}")
    for name in got:
        if name not in want:
            raise ValueError(f"saved model has unexpected parameter {name!r}")
