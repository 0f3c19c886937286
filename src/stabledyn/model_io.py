"""JSON persistence for trained models.

A model file is one JSON object. Its header holds format_version, kind and
the model's settings (its dataclass fields), one per line; then "params"
maps each parameter's name to its nested list of floats, one parameter per
line. The text comes from json's C encoder, which writes every float
through repr, so save followed by load reproduces the model down to the
last ulp. Saving refuses a parameter holding NaN or infinity, which strict
JSON has no token for; loading refuses, by name, a parameter that is not an
array of JSON numbers (a string, a bool or null where a number belongs) or
does not fit the architecture the settings describe.
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
    for name, v in store.values.items():
        if not np.isfinite(v).all():
            raise ValueError(f"parameter {name!r} holds a value that is not finite; "
                             "a model file holds finite numbers only")
    settings = {"format_version": FORMAT_VERSION, "kind": kind, **asdict(model)}
    head = "".join(f" {json.dumps(k)}: {json.dumps(v)},\n" for k, v in settings.items())
    params = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v.tolist())}"
                        for k, v in store.values.items())
    Path(path).write_text(f'{{\n{head} "params": {{\n{params}\n }}\n}}\n')


def load_model(path):
    """Rebuild (model, store) from a saved file.

    Raises ValueError when the file is not a model's JSON object, or its
    parameters are not arrays of finite JSON numbers or do not match, by
    name and shape, the architecture it describes.
    """
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"a model file holds one JSON object, not a {type(doc).__name__}")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
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
        store.add(name, _numbers(name, vals))
    _check_params(model, store)
    return model, store


def _numbers(name: str, vals) -> np.ndarray:
    """vals, a JSON array of finite numbers, as a float array; anything else
    (strings and bools, which numpy would convert, too) is refused by name."""
    try:
        leaves = np.array(vals, dtype=object)
        numeric = set(map(type, leaves.flat)) <= {float, int}
    except (ValueError, RuntimeError):   # nested past numpy's dimension limit
        numeric = False
    if not numeric:
        raise ValueError(f"parameter {name!r} is not a numeric array")
    try:
        values = leaves.astype(np.float64)
        finite = np.isfinite(values).all()
    except OverflowError:   # an integer past float64's range
        finite = False
    if not finite:
        raise ValueError(f"parameter {name!r} holds a value that is not finite")
    return values


def _check_params(model, store: ParamStore) -> None:
    """Refuse parameters that do not fit the architecture the file names:
    each net's draw table gives the names and shapes it needs."""
    want = {name: shape for net in model.nets for name, (_, _, shape) in net.draws.items()}
    got = store.shapes()
    for name, shape in want.items():
        if name not in got:
            raise ValueError(f"saved model lacks parameter {name!r}")
        if got[name] != shape:
            raise ValueError(f"parameter {name!r} has shape {got[name]}, "
                             f"the architecture needs {shape}")
    for name in got:
        if name not in want:
            raise ValueError(f"saved model has unexpected parameter {name!r}")
