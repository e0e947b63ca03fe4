"""The two network shapes the benchmark trains and verifies.

Both the runner and the regeneration script read these settings, so the
frozen networks, the train-prune workload and the verify instances always
come from the same data and the same training recipe.
"""

from dataclasses import dataclass

import numpy as np

from prunemip import Dataset, SprConfig, TrainConfig, gen_synthetic, init_mlp, prune_pipeline, sgd_train

SAMPLES = 600
DATA_SEED = 0
BATCH = 32
LEARNING_RATE = 0.1
ALPHAS = (0.1, 0.5, 0.9)
FREEZE_SEED = 0  # init seed of the frozen verify networks
ACC_FLOOR = 0.005  # prune_pipeline's default floor, restated for the checks
# Over 64 desk pairs a pair took about 51 us per pivot plus 2.6 ns per tableau
# cell updated (log residual 9%, against 16% for the pivot count alone).
PIVOT_CELLS = 20_000


@dataclass(frozen=True)
class Shape:
    name: str
    dims: int
    classes: int
    margin: float
    scale01: bool  # min-max scale the blobs into [0, 1], like pixel data
    widths: tuple
    epochs: int
    lambdas: tuple
    deltas: tuple  # in `units`
    units: str
    clamp: bool
    pool: int  # clean inputs taken into the candidate pool of a verify workload
    strata: int  # verify pairs per round, one drawn from each difficulty stratum


DESK = Shape("desk", dims=6, classes=3, margin=6.0, scale01=False, widths=(12, 12), epochs=30,
             lambdas=(0.1, 0.5, 1.0), deltas=(1.0, 2.0), units="scaled", clamp=False,
             pool=240, strata=32)
# lambda >= 0.05 empties a hidden layer at this input width, hence the lower grid
WIDE = Shape("wide", dims=196, classes=10, margin=40.0, scale01=True, widths=(20, 20), epochs=15,
             lambdas=(0.01, 0.02, 0.03), deltas=(2.0, 5.0), units="raw-pixel", clamp=True,
             pool=40, strata=6)
SHAPES = {s.name: s for s in (DESK, WIDE)}


def make_data(shape):
    data = gen_synthetic(shape.dims, shape.classes, SAMPLES, shape.margin, DATA_SEED)
    if shape.scale01:
        X = data.inputs
        data = Dataset((X - X.min()) / (X.max() - X.min()), data.labels, data.num_classes)
    return data


def effective_delta(shape, delta):
    return delta / 255.0 if shape.units == "raw-pixel" else delta


def train_config(shape, seed):
    return TrainConfig(shape.epochs, BATCH, LEARNING_RATE, seed)


def run_pipeline(shape, data, init_seed):
    """The `prunemip prune` path: SPR grid search, threshold prune, fine-tune."""
    grid = [SprConfig(lam, alpha, 1.0) for lam in shape.lambdas for alpha in ALPHAS]
    return prune_pipeline(list(shape.widths), data, grid, train_config(shape, init_seed),
                          acc_floor=ACC_FLOOR)


def train_baseline(shape, data, init_seed):
    """Plain SGD at the pipeline's init seed and config, as `prunemip bench` does."""
    init = init_mlp(data.inputs.shape[1], list(shape.widths), data.num_classes, init_seed)
    net, _ = sgd_train(init, data, train_config(shape, init_seed))
    return net


def stratified_pick(candidates, strata, seed):
    """One candidate from each of `strata` equal-count strata of the pool
    ordered by difficulty, in a seeded order.

    Instance difficulty is heavy-tailed (one desk pair takes 0.1-5.6 s), so
    a plain random draw of a few dozen pairs moves the median from seed to
    seed far more than any code change should; a stratified draw keeps each
    seed's difficulty profile the same while the inputs themselves change.
    """
    order = sorted(range(len(candidates)),
                   key=lambda i: (pair_cost(candidates[i]), candidates[i]["index"],
                                  candidates[i]["delta"]))
    rng = np.random.default_rng(seed)
    picks = [int(group[rng.integers(len(group))])
             for group in np.array_split(np.array(order), strata)]
    return [candidates[i] for i in rng.permutation(picks)]


def pair_cost(candidate):
    """A pair's simplex work in tableau cells: each pivot updates its tableau
    and also pays a fixed interpreter cost worth about PIVOT_CELLS cells."""
    return candidate["pivots"] * PIVOT_CELLS + candidate["pivot_cells"]
