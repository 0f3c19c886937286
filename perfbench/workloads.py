"""The three workloads: fixed, deterministic rounds of work built from a seed.

Every workload is a closed loop: each library call starts only after the
previous one returned, as in a training or simulation loop. Inputs come from
the workload seed; model initialisations are fixed constants, so a round is
the same work every time it runs, and its outputs hash to the same digest.

Users train for a hundred epochs or more, and the solver's load grows as a
model trains: the share of rows the certificate intervenes on rises from
about 0.75 after 2 epochs to 0.95-0.99 after 20. So the training workloads
first train every model to a steady state once per run (`warm_start`,
untimed by the rounds), and every round resumes from that state.

A round is a list of cells, each timed on its own and normalised by the
reference kernel around it (see refclock). A cell is "implicit" when its
model runs the gamma root-finder (implicit mode); the rest (none, convex,
projection) are "closed form". All library calls go through module
attributes so that a Tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stabledyn import deterministic, model_io, stochastic, systems, training
from stabledyn.autodiff import ParamStore

import checks

LR = 0.0025
BATCH = 256

TRAIN_PAIRS = (("none", "icnn"), ("convex", "icnn"), ("implicit", "icnn"),
               ("implicit", "lnn"), ("projection", "icnn"))
TRAIN_INIT_SEED = 8
TRAIN_WARM_EPOCHS = 20
TRAIN_EPOCHS = 1         # short cells: the reference around each tracks the machine closer

ROLL_PAIRS = (("convex", "icnn"), ("implicit", "icnn"), ("implicit", "lnn"),
              ("projection", "icnn"))
ROLL_BATCHES = (1, 20, 256)
ROLL_STEPS = 30
ROLL_EXPAND = 20.0        # criterion 1: half the models get the last fhat layer x20
ROLL_INIT_SEED = 100

MIX_MODES = ("convex", "implicit")
MIX_K = 6
MIX_INIT_SEED = 17
MIX_DATA_SEED = 0
MIX_WARM_EPOCHS = 30
MIX_EPOCHS = 3
MIX_STARTS = 20
MIX_PATHS = 5
MIX_STEPS = 20

# exceptions a library call raises on a failed operation
CALL_ERRORS = (FloatingPointError, RuntimeError, ValueError)
# batch order of the warm start; the rounds' order comes from the seed
WARM_SEED = 0


@dataclass
class Cell:
    label: str        # what ran, e.g. "implicit-icnn.x20.b20"
    group: str        # detail metric it feeds, e.g. "step_us.b20"
    implicit: bool
    raw_s: float
    norm_s: float
    units: int        # epochs or steps in the cell


@dataclass
class RoundResult:
    cells: list = field(default_factory=list)
    digest: str = ""
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)   # failed rows per check
    strict_rows: int = 0
    strict_breaches: int = 0
    losses: list = field(default_factory=list)

    def fail(self, check: str, rows: int) -> None:
        """A call raised or its result was flagged: `rows` of it failed."""
        self.failed += rows
        self.failures[check] += rows

    def checked(self, masks: dict) -> None:
        """Rows the harness checked: each is attempted once, and failed when
        any counted check fails on it."""
        bad = checks.failed_rows(masks)
        self.attempted += bad.size
        self.failed += int(bad.sum())
        for name, mask in masks.items():
            if name == "strict_breach":
                self.strict_rows += mask.size
                self.strict_breaches += int(mask.sum())
            elif mask.any():
                self.failures[name] += int(mask.sum())


@contextmanager
def _paused(tracer):
    """Suspends a tracer (if any) around the benchmark's own checking calls."""
    if tracer is None:
        yield
        return
    was, tracer.active = tracer.active, False
    try:
        yield
    finally:
        tracer.active = was


def _fresh_store(init: dict) -> ParamStore:
    store = ParamStore()
    for name, values in init.items():
        store.add(name, values)
    return store


def _hash_store(h, store: ParamStore) -> None:
    for name in sorted(store.values):
        h.update(name.encode())
        h.update(np.ascontiguousarray(store.values[name]).tobytes())


def _persist(workdir: Path, tag: str, model, store):
    """Save and reload through the JSON format, as the CLI does."""
    path = workdir / f"{tag}.json"
    model_io.save_model(path, model, store)
    return model_io.load_model(path)


def _warm(models, X, Y, epochs: int) -> list[str]:
    """Train each (name, model, values) from its values for `epochs`, in place.

    Returns the errors of models whose training raised; those keep their
    initial values, and the run reports the error as a failed check.
    """
    config = training.TrainConfig(epochs=epochs, lr=LR, batch_size=BATCH, seed=WARM_SEED)
    errors = []
    for i, (name, model, values) in enumerate(models):
        store = _fresh_store(values)
        try:
            training.train(model, store, X, Y, config)
        except CALL_ERRORS as exc:
            errors.append(f"warm_start.{name}: {type(exc).__name__}: {exc}")
            continue
        models[i] = (name, model, {k: v.copy() for k, v in store.values.items()})
    return errors


class Train:
    """Adam on the saturated transitions for five (mode, V) pairs."""

    name = "train"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        # the saturated system is an ODE on a fixed grid, so the seed reaches
        # this workload through the batch order, not the data
        X, Y, _ = systems.generate_transitions("saturated", seed=self.seed, steps=40)
        models = []
        for mode, variant in TRAIN_PAIRS:
            model = deterministic.make_model(mode, 2, variant)
            store = ParamStore()
            model.init_params(store, np.random.default_rng(TRAIN_INIT_SEED))
            model, store = _persist(self.workdir, f"train-{mode}-{variant}", model, store)
            models.append((f"{mode}-{variant}", model,
                           {k: v.copy() for k, v in store.values.items()}))
        self.X, self.Y, self.models = X, Y, models

    def warm_start(self) -> list[str]:
        return _warm(self.models, self.X, self.Y, TRAIN_WARM_EPOCHS)

    def round(self, clock, tracer=None) -> RoundResult:
        res = RoundResult()
        h = hashlib.sha256()
        X, Y = self.X, self.Y
        batches = TRAIN_EPOCHS * math.ceil(X.shape[0] / BATCH)
        config = training.TrainConfig(epochs=TRAIN_EPOCHS, lr=LR, batch_size=BATCH,
                                      seed=self.seed)
        for pair, model, warm in self.models:
            store = _fresh_store(warm)
            res.attempted += batches
            try:
                report, raw, norm = clock.time_cell(
                    lambda: training.train(model, store, X, Y, config))
            except CALL_ERRORS:
                res.fail("train.batch_error", batches)
                continue
            res.cells.append(Cell(pair, f"epoch_s.{pair}", model.mode == "implicit",
                                  raw, norm, TRAIN_EPOCHS))
            res.losses.append(report.final_loss)
            # every data row is checked twice: by the library's own audit,
            # which returns a count, and by the harness, row by row
            with _paused(tracer):
                flagged = training.evaluate_violations(model, store, X)
                pred = deterministic.model_step(model, store, X)
                masks = checks.step_checks(model, store, X, pred)
            res.attempted += X.shape[0]
            if flagged:
                res.fail("train.evaluate_violations", flagged)
            res.checked(masks)
            h.update(pair.encode())
            _hash_store(h, store)
            h.update(float(report.final_loss).hex().encode())
        res.digest = h.hexdigest()
        return res


class Rollout:
    """Certified raw steps of random models at batch 1, 20 and 256."""

    name = "rollout"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def warm_start(self) -> list[str]:
        return []      # random models, criterion 1's recipe: nothing to train

    def setup(self):
        rng = np.random.default_rng(self.seed)
        starts = {b: rng.uniform(-6.0, 6.0, size=(b, 2)) for b in ROLL_BATCHES}
        models = []
        for i, (mode, variant) in enumerate(ROLL_PAIRS):
            for j, expand in enumerate((None, ROLL_EXPAND)):
                model = deterministic.make_model(mode, 2, variant)
                store = ParamStore()
                model.init_params(store, np.random.default_rng(ROLL_INIT_SEED + 2 * i + j))
                if expand:
                    store.values[f"f.W{model.fhat.n_layers - 1}"] *= expand
                tag = f"{mode}-{variant}" + (".x20" if expand else "")
                model, store = _persist(self.workdir, f"rollout-{tag}", model, store)
                models.append((f"{mode}-{variant}", tag, model, store))
        self.starts, self.models = starts, models

    def round(self, clock, tracer=None) -> RoundResult:
        res = RoundResult()
        h = hashlib.sha256()
        for pair, tag, model, store in self.models:
            for b in ROLL_BATCHES:
                if tracer is not None:
                    tracer.set_label(f"{pair}.b{b}")

                def run(x=self.starts[b]):
                    states = [x]
                    try:
                        for _ in range(ROLL_STEPS):
                            x = deterministic.model_step(model, store, x)
                            states.append(x)
                    except deterministic.RootFindError:
                        return states, True
                    return states, False

                (states, stalled), raw, norm = clock.time_cell(run)
                steps = len(states) - 1
                if stalled:
                    res.attempted += b
                    res.fail("step.root_find_error", b)
                if steps:
                    res.cells.append(Cell(f"{tag}.b{b}", f"step_us.b{b}",
                                          model.mode == "implicit", raw, norm, steps))
                traj = np.stack(states)
                with _paused(tracer):
                    masks = checks.step_checks(model, store, traj[:-1].reshape(-1, 2),
                                               traj[1:].reshape(-1, 2))
                res.checked(masks)
                h.update(traj.tobytes())
        if tracer is not None:
            tracer.set_label(None)
        res.digest = h.hexdigest()
        return res


class Mixture:
    """MDN training on sde transitions, then sampled rollouts (criterion 9's shape)."""

    name = "mixture"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        # data and batch order are fixed (criterion 9's seed): the solver's
        # load while sampling depends on the trained model, which changes with
        # either, and that would turn a spread between seeds into a difference
        # of work; the seed draws the sampling
        X, Y, _ = systems.generate_transitions("sde", seed=MIX_DATA_SEED, steps=10)
        starts = np.random.default_rng(self.seed).uniform(-6.0, 6.0, size=(MIX_STARTS, 2))
        models = []
        for mode in MIX_MODES:
            model = stochastic.make_stochastic_model(mode, 2, "icnn", k=MIX_K)
            store = ParamStore()
            model.init_params(store, np.random.default_rng(MIX_INIT_SEED))
            model, store = _persist(self.workdir, f"mdn-{mode}", model, store)
            models.append((f"mdn-{mode}", model,
                           {k: v.copy() for k, v in store.values.items()}))
        self.X, self.Y, self.starts, self.models = X, Y, starts, models

    def warm_start(self) -> list[str]:
        return _warm(self.models, self.X, self.Y, MIX_WARM_EPOCHS)

    def round(self, clock, tracer=None) -> RoundResult:
        res = RoundResult()
        h = hashlib.sha256()
        X, Y = self.X, self.Y
        batches = MIX_EPOCHS * math.ceil(X.shape[0] / BATCH)
        config = training.TrainConfig(epochs=MIX_EPOCHS, lr=LR, batch_size=BATCH,
                                      seed=MIX_DATA_SEED)
        for name, model, warm in self.models:
            implicit = model.mode == "implicit"
            store = _fresh_store(warm)
            res.attempted += batches
            try:
                report, raw, norm = clock.time_cell(
                    lambda: training.train(model, store, X, Y, config))
            except CALL_ERRORS:
                res.fail("train.batch_error", batches)
                continue
            res.cells.append(Cell(f"{name}.train", "mix_epoch_s", implicit, raw, norm,
                                  MIX_EPOCHS))
            res.losses.append(report.final_loss)

            # one cell per start: shorter cells let the reference track the
            # machine's speed more closely
            rng = np.random.default_rng(self.seed + 1)
            rollouts = []
            for i, x0 in enumerate(self.starts):
                try:
                    out, raw, norm = clock.time_cell(
                        lambda: stochastic.stochastic_rollout(model, store, x0, MIX_STEPS,
                                                              MIX_PATHS, rng))
                except CALL_ERRORS:
                    rows = (MIX_PATHS + 1) * MIX_STEPS
                    res.attempted += rows
                    res.fail("mixture.sample_error", rows)
                    continue
                res.cells.append(Cell(f"{name}.sample{i}", "sample_us", implicit, raw, norm,
                                      MIX_STEPS))
                rollouts.append(out)
            h.update(name.encode())
            _hash_store(h, store)
            if rollouts:
                # checked after the loop, so the sampling cells run back to back
                with _paused(tracer):
                    masks = checks.rollout_checks(model, store, rollouts)
                res.checked(masks)
                for samples, means in rollouts:
                    h.update(samples.tobytes())
                    h.update(means.tobytes())
        res.digest = h.hexdigest()
        return res


WORKLOADS = {w.name: w for w in (Train, Rollout, Mixture)}
