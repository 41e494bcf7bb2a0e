"""The three benchmark workloads, as lists of ``scoremorph`` command lines.

Every training runs a fixed number of epochs (``--patience`` equal to
``--epochs``), so the work a run does is the same for every seed. Under the
default early stopping one ``eval --runs 5`` protocol ran 160 to 368
epochs depending on the seed, which would read as timing noise.
"""

from __future__ import annotations

from dataclasses import dataclass

FAMILIES = "fixed,erc,erc-fit,linear,exp,sigma"
ALPHAS = (0.05, 0.1, 0.32)
# test and calibration shares of every split (the CLI's DEFAULT_FRACTIONS)
TEST_FRACTION = 0.1
CAL_FRACTION = 0.4
# a --seed selects one of this many input sets; reference.json holds the
# expected outputs of each
CORPUS = 16
# seed offset of the second data file a workload synthesizes
SECOND_FILE_SEED = 1000


@dataclass(frozen=True)
class Size:
    n: int        # rows of the data file the timed phase reads
    runs: int     # eval --runs
    epochs: int   # epochs of every training
    n_side: int   # rows of the second file (train-large's check file,
                  # frozen-eval's training file)


SIZES = {
    "protocol": Size(n=1000, runs=5, epochs=37, n_side=0),
    "train-large": Size(n=10000, runs=2, epochs=48, n_side=2000),
    "frozen-eval": Size(n=6000, runs=2, epochs=40, n_side=1000),
}

# harness self-test: tiny files, two epochs
TINY = Size(n=200, runs=2, epochs=2, n_side=200)


@dataclass(frozen=True)
class Plan:
    setup: list        # argv lists, set-up phase
    timed: list        # argv lists, timed phase
    report: str        # eval report; its .aggregate.csv gives size_ratio
    n_eval: int        # rows of the file that report evaluates
    runs: int
    train_trace: str   # trace CSV of the workload's training


def _synth(n, seed, out):
    return ["synth", "--kind", "cos", "--n", str(n), "--seed", str(seed),
            "--out", out]


def _train(data, seed, epochs, out):
    return ["train", "--data", data, "--family", "linear", "--seed",
            str(seed), "--epochs", str(epochs), "--patience", str(epochs),
            "--model-out", out]


def _eval_frozen(data, seed, runs):
    return ["eval", "--data", data, "--model", "model.json", "--runs",
            str(runs), "--seed", str(seed), "--alphas",
            ",".join(map(repr, ALPHAS)), "--report", "report.csv"]


def plan(workload: str, seed: int, size: Size) -> Plan:
    """Command lines of one workload; files are relative to the work dir."""
    s = seed % CORPUS
    if workload == "protocol":
        # the paper's protocol: 5 splits x 5 trained families, m = 16
        return Plan(
            setup=[_synth(size.n, s, "data.csv")],
            timed=[["eval", "--data", "data.csv", "--families", FAMILIES,
                    "--alphas", ",".join(map(repr, ALPHAS)),
                    "--runs", str(size.runs), "--seed", str(s),
                    "--epochs", str(size.epochs),
                    "--patience", str(size.epochs),
                    "--report", "report.csv"]],
            report="report.csv", n_eval=size.n, runs=size.runs,
            train_trace="")
    if workload == "train-large":
        # one long training, past the ~7k Adam steps where first moments of
        # dead units turn subnormal; the frozen eval on a fresh file reads
        # the trained model's interval sizes
        return Plan(
            setup=[_synth(size.n, s, "data.csv"),
                   _synth(size.n_side, s + SECOND_FILE_SEED, "check.csv")],
            timed=[_train("data.csv", s, size.epochs, "model.json"),
                   _eval_frozen("check.csv", s, size.runs)],
            report="report.csv", n_eval=size.n_side, runs=size.runs,
            train_trace="model.trace.csv")
    if workload == "frozen-eval":
        # the read path: no training in the timed phase, KNN prediction
        # dominates
        return Plan(
            setup=[_synth(size.n_side, s, "train.csv"),
                   _train("train.csv", s, size.epochs, "model.json"),
                   _synth(size.n, s + SECOND_FILE_SEED, "data.csv")],
            timed=[_eval_frozen("data.csv", s, size.runs),
                   ["plot", "--data", "data.csv", "--model", "model.json",
                    "--out", "band.svg"]],
            report="report.csv", n_eval=size.n, runs=size.runs,
            train_trace="model.trace.csv")
    raise ValueError(f"unknown workload '{workload}'")
