"""Minibatch training with early stopping, and the multi-run protocol."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import knn
from .conformal import evaluate, scored
from .data import FRACTIONS, Dataset, split
from .network import AdamState, LocalizerNet, adam_step
from .objective import LossBatch, erc_error_fit_loss, loss_batch, pairwise_size_loss
from .transforms import DEFAULT_GAMMA, checked_gamma, make_family
from .workers import map_in_workers

# CLI label -> (transform kind, label whose localizer it uses); exp and sigma
# are the paper's exp(z) and sigmoid(z) of linear's z, which rank as z does
FAMILY_LABELS = {"fixed": ("fixed", "fixed"), "erc": ("erc", "erc"),
                 "erc-fit": ("erc", "erc-fit"), "linear": ("linear", "linear"),
                 "exp": ("linear", "linear"), "sigma": ("linear", "linear")}
CLI_FAMILIES = tuple(FAMILY_LABELS)


@dataclass(frozen=True)
class TrainConfig:
    """How one localizer is trained; the CLI's defaults come from here."""

    seed: int = 0
    epochs: int = 200
    batch_size: int = 16
    learning_rate: float = 1e-3
    patience: int = 20
    gamma: float = DEFAULT_GAMMA

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:  # NaN fails too
            raise ValueError("learning_rate must be finite and positive, "
                             f"got {self.learning_rate}")
        checked_gamma(self.gamma)  # as make_family refuses it for erc
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass
class TrainTrace:
    """Per-epoch train/validation losses; epoch 0 is the initialization.

    ``steps`` counts the Adam steps taken. ``stop_reason`` is "patience"
    when early stopping ended the training before its last epoch, "epochs"
    when every epoch ran (none, at ``epochs=0``), and None when nothing was
    trained ("fixed").
    """

    epochs: list = field(default_factory=list)  # (epoch, train_loss, val_loss)
    best_epoch: int = 0
    steps: int = 0
    stop_reason: str | None = None


class TrainingDiverged(ValueError):
    """Training met a non-finite loss, gradient or transformed score."""


def _batches(n, batch_size, rng):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        idx = perm[start:start + batch_size]
        if idx.size >= 2:  # pair terms need at least two elements
            yield idx


def _loop(fam, step_fn, config, cp: LossBatch, val: LossBatch):
    """Shared epoch loop: minibatch updates, validation, best-epoch snapshot.

    ``step_fn(batch, out)`` returns the batch's ``LossValue`` with its
    gradients written into ``out``, the Adam state's gradient vector.
    """
    net = fam.localizer
    trace = TrainTrace(stop_reason="epochs")
    if config.epochs == 0:
        return fam, trace
    rng = np.random.default_rng(config.seed)
    state = AdamState(net.shapes, config.learning_rate)

    best_val = pairwise_size_loss(fam, val.x, val.a)
    best_snap = net.snapshot()
    trace.epochs.append((0, None, best_val))  # init: no training loss yet
    trace.best_epoch = 0

    for epoch in range(1, config.epochs + 1):
        epoch_losses = []
        try:
            for idx in _batches(cp.m, config.batch_size, rng):
                loss = step_fn(cp.rows(idx), state.grad)
                adam_step(net, loss.grads, state)
                trace.steps += 1
                epoch_losses.append(loss.value)
            val_loss = pairwise_size_loss(fam, val.x, val.a)
        except ValueError as exc:
            # blown-up parameters surface as NaN losses, NaN or huge gradients,
            # or degenerate (overflowed) transformed scores
            raise TrainingDiverged(
                f"training diverged at epoch {epoch}: {exc}") from exc
        trace.epochs.append((epoch, float(np.mean(epoch_losses)), val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_snap = net.snapshot()
            trace.best_epoch = epoch
        elif epoch - trace.best_epoch >= config.patience:
            if epoch < config.epochs:
                trace.stop_reason = "patience"
            break
    net.restore(best_snap)
    return fam, trace


def family_kind(label: str) -> str:
    """Transform kind of a CLI label ("erc-fit" is a training mode of erc)."""
    if label not in FAMILY_LABELS:
        raise ValueError(f"unknown family label '{label}'")
    return FAMILY_LABELS[label][0]


def point_model(dataset: Dataset, seed: int, k=None):
    """Every command's ``(model, parts)``: ``parts = split(dataset, seed)``
    and KNN on ``parts.proper``, with ``k`` neighbours or a CV-chosen k."""
    parts = split(dataset, seed)
    if k is None:
        if parts.proper.n < knn.FOLDS:
            raise ValueError(
                f"the data has {dataset.n} rows; cross-validating the point "
                f"model's k takes at least "
                f"{math.ceil(knn.FOLDS / FRACTIONS[0])}, for a proper "
                f"training part of {knn.FOLDS} rows, one per fold")
        return knn.fit(parts.proper, seed=seed), parts
    return knn.KnnModel(parts.proper.x, parts.proper.y, k), parts


def score(model, *datasets) -> list:
    """Each dataset's rows with their base scores under ``model``."""
    return [scored(d, model.predict_batch(d.x)) for d in datasets]


def train(label: str, cp_train: LossBatch, validation: LossBatch,
          config: TrainConfig = TrainConfig()):
    """(family, trace) for any CLI label.

    "fixed" needs no training and gives an empty trace. "erc-fit" trains
    erc by fitting g to the squared residuals; every other label minimizes
    the pairwise size loss. Early stopping returns the family frozen at the
    epoch with the best validation size loss.
    """
    kind = family_kind(label)
    if kind == "fixed":
        return make_family("fixed"), TrainTrace()
    if cp_train.m < config.batch_size:
        raise ValueError(f"training set of {cp_train.m} rows is smaller "
                         f"than one batch of {config.batch_size}")
    net = LocalizerNet.init(cp_train.x.shape[1], config.seed)
    fam = make_family(kind, localizer=net, gamma=config.gamma)
    step = ((lambda b, out: erc_error_fit_loss(net, b, out=out))
            if label == "erc-fit"
            else (lambda b, out: loss_batch(fam, b, out=out)))
    return _loop(fam, step, config, cp_train, validation)


@dataclass(frozen=True)
class ProtocolRow:
    family: str
    alpha: float
    run_seed: int
    mean_size: float | None
    validity: float | None
    error: str = ""  # non-empty when the cell could not be evaluated


@dataclass(frozen=True)
class ProtocolAggregate:
    family: str
    alpha: float
    size_mean: float
    size_sd: float
    validity_mean: float
    validity_sd: float


@dataclass(frozen=True)
class ProtocolResult:
    rows: list
    knn_ks: dict  # run_seed -> selected k
    job_seconds: list  # (run_seed, trained label, seconds) per job, in order


def aggregate(rows, families, alphas) -> list:
    """Mean and population sd over runs for every (family, alpha) cell.

    Error rows are skipped; a cell with no other row is left out.
    """
    out = []
    for name in families:
        for alpha in alphas:
            cell = [row for row in rows if row.family == name
                    and row.alpha == float(alpha) and not row.error]
            if not cell:
                continue
            sizes = np.asarray([c.mean_size for c in cell])
            vals = np.asarray([c.validity for c in cell])
            out.append(ProtocolAggregate(
                name, float(alpha), float(sizes.mean()), float(sizes.std()),
                float(vals.mean()), float(vals.std())))
    return out


def protocol_rows(label: str, run_seed: int, alphas, evaluate_all) -> list:
    """Report rows of one (family, run) from ``evaluate_all()``'s reports;
    a ``ValueError`` it raises, ``TrainingDiverged`` included, gives one
    error row per alpha."""
    try:
        reports = evaluate_all()
    except ValueError as exc:
        return [ProtocolRow(label, float(alpha), run_seed, None, None,
                            str(exc)) for alpha in alphas]
    return [ProtocolRow(label, r.alpha, run_seed, r.mean_size,
                        r.empirical_validity, r.error) for r in reports]


def protocol_job(dataset: Dataset, families, alphas, job, config: TrainConfig):
    """One job of ``run_protocol``, ``job = (run_seed, trained label)``:
    (the report rows of the families that use that label's localizer, the
    point model's k, the job's seconds).

    ``run_seed`` seeds the split, the point model's cross-validation and
    the training, which otherwise follows ``config``. Every job of a run
    redoes the run's split, KNN fit and scoring, which are deterministic.
    """
    start = time.perf_counter()
    run_seed, trained = job
    model, parts = point_model(dataset, run_seed)
    cp, val, te = score(model, parts.cp_train, parts.validation, parts.test)

    def evaluate_trained():
        fam, _ = train(trained, cp, val, replace(config, seed=run_seed))
        return evaluate(fam, cp, te, alphas)

    rows = protocol_rows(trained, run_seed, alphas, evaluate_trained)
    return ([replace(row, family=name) for name in families
             if FAMILY_LABELS[name][1] == trained for row in rows],
            model.k, time.perf_counter() - start)


def run_protocol(dataset: Dataset, families, alphas, runs: int, seed0: int,
                 config: TrainConfig = TrainConfig()) -> ProtocolResult:
    """Repeat split / point-model fit / family training / evaluation.

    Run r uses seed0 + r for the split (in ``data.FRACTIONS``),
    the point model's cross-validation (``knn.fit``) and the family
    training, which otherwise follows ``config``; its ``seed`` is unread.
    Labels that share a localizer in ``FAMILY_LABELS`` share one training
    and one evaluation per run, so they get the same rows, or the same error
    rows. Rows come in (run, family, alpha) order; ``aggregate`` summarizes
    them per cell.

    One job is one (run, trained label); the jobs share no state, and run
    side by side in worker processes (``workers.map_in_workers``), each on
    one BLAS thread, so a run's rows depend neither on ``runs`` nor on the
    host's core count.
    """
    families = list(families)
    unknown = [f for f in families if f not in CLI_FAMILIES]
    if unknown:
        raise ValueError(f"unknown families {unknown}; choose from {CLI_FAMILIES}")
    if not families:
        raise ValueError("no families given")
    for name in families:
        if families.count(name) > 1:
            raise ValueError(f"family '{name}' given twice")
    one_job = partial(protocol_job, dataset, families, list(alphas),
                      config=config)
    trained = dict.fromkeys(FAMILY_LABELS[f][1] for f in families)
    jobs = [(run_seed, label) for run_seed in range(seed0, seed0 + runs)
            for label in trained]
    rows = []
    knn_ks = {}
    job_seconds = []
    for (run_seed, label), (job_rows, k, seconds) in zip(
            jobs, map_in_workers(one_job, jobs)):
        rows += job_rows
        knn_ks[run_seed] = k
        job_seconds.append((run_seed, label, seconds))
    rank = {name: i for i, name in enumerate(families)}
    rows.sort(key=lambda row: (row.run_seed, rank[row.family]))  # stable
    return ProtocolResult(rows, knn_ks, job_seconds)
