"""JSON persistence for trained models.

Weights are stored as nested lists; json writes Python floats through repr,
which round-trips every float64 bit-exactly, so save followed by load
reproduces the model down to the last ulp.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .autodiff import ParamStore
from .deterministic import MAX_BISECT, MAX_NEWTON, StableModel
from .lyapunov import EPSILON
from .nets import D
from .stochastic import StochasticModel

FORMAT_VERSION = 1

KINDS = {"deterministic": StableModel, "mdn": StochasticModel}

# older files record these settings, which are now fixed; a file holding the
# fixed value loads, any other value is refused
FIXED = {"max_newton": MAX_NEWTON, "max_bisect": MAX_BISECT, "epsilon": EPSILON, "d": D,
         "activation": "tanh"}


def save_model(path, model, store: ParamStore) -> None:
    """Write the model's settings (its dataclass fields) and parameters."""
    kind = next((k for k, cls in KINDS.items() if type(model) is cls), None)
    if kind is None:
        raise ValueError(f"cannot save a {type(model).__name__}")
    doc = {"format_version": FORMAT_VERSION, "kind": kind, **asdict(model),
           "params": {k: v.tolist() for k, v in store.values.items()}}
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_model(path):
    """Rebuild (model, store) from a saved file.

    Raises ValueError when the file is not a model's JSON object, or its
    parameters are not finite or do not match, by name and shape, the
    architecture it describes.
    """
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"a model file holds one JSON object, not a {type(doc).__name__}")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    kind = doc.get("kind")
    cls = KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"model kind must be one of {list(KINDS)}, got {kind!r}")
    for key, value in FIXED.items():
        if doc.get(key, value) != value:
            raise ValueError(f"{key} = {doc[key]!r} is not supported; it is fixed at {value}")
    missing = [f.name for f in fields(cls) if f.name not in doc]
    if missing:
        raise ValueError(f"saved model lacks settings {missing}")
    model = cls(**{f.name: doc[f.name] for f in fields(cls)})

    params = doc.get("params")
    if not isinstance(params, dict):
        raise ValueError(f"saved params must map names to arrays, not {type(params).__name__}")
    store = ParamStore()
    for name, vals in params.items():
        try:
            store.add(name, np.asarray(vals, dtype=np.float64))
        except (TypeError, ValueError):
            raise ValueError(f"parameter {name!r} is not a numeric array") from None
        if not np.isfinite(store.values[name]).all():
            raise ValueError(f"parameter {name!r} holds a value that is not finite")
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
