"""A realized sampling design belongs to the dataset it was drawn on.

The weights and the intercept shift of a design hold only on the rows
whose labels drew it, so fit_estimator rejects a design drawn on any other
dataset, even one of the same length or an equal copy.  A design does not
change after it is made, so the helper thread that draws it and the main
thread that fits it share it as it is.
"""

import copy
import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from rarelogit import (
    ConditionalGaussianDesign,
    Dataset,
    DesignKind,
    EstimatorFamily,
    EstimatorKind,
    ExperimentConfig,
    SampleDesign,
    fit_estimator,
    realize_design,
    run_experiment,
    simulation,
    substream,
)

F = EstimatorFamily
DESIGNED = [
    EstimatorKind(F.UNDER_WEIGHTED, 0.1),
    EstimatorKind(F.UNDER_BIAS_CORRECTED, 0.1),
    EstimatorKind(F.OVER_WEIGHTED, 5.0),
    EstimatorKind(F.OVER_BIAS_CORRECTED, 5.0),
]


def rare_data(seed, n, beta=(1.0,)):
    """n rows of standard normal covariates with labels at alpha = -4."""
    rng = substream(seed)
    x = rng.standard_normal((n, len(beta)))
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(4.0 - x @ np.array(beta)))).astype(np.int64)
    return Dataset(x=x, y=y)


@pytest.mark.parametrize("kind", DESIGNED, ids=lambda kind: kind.tag.value)
def test_a_design_fits_only_the_dataset_it_was_drawn_on(kind):
    # another dataset of the same length used to be fitted silently: under-bc
    # at pi0 = 0.1 gave alpha = -6.1 where the dataset's own design gives -4.1
    data = rare_data(1, 20_000)
    design = realize_design(kind, data, substream(3))
    assert fit_estimator(kind, data, design).converged
    for stranger in (rare_data(2, 20_000), copy.copy(data)):
        with pytest.raises(ValueError, match=f"{kind.tag.value} was given a design drawn on another dataset"):
            fit_estimator(kind, stranger, design)


def test_the_constructor_binds_the_design_to_its_dataset():
    data = rare_data(1, 50)
    over = SampleDesign(data, DesignKind.OVERSAMPLE, 2.0, np.ones(50, dtype=np.int64))
    assert over.parent is data and over.data is data
    under = SampleDesign(data, DesignKind.UNDERSAMPLE, 0.5, np.arange(50) % 2)
    assert under.parent is data
    assert_array_equal(under.data.zt, data.zt[:, 1::2])
    assert_array_equal(under.data.y, data.y[1::2])
    with pytest.raises(ValueError, match="indicators must have one count per row: got 49 for 50 rows"):
        SampleDesign(data, DesignKind.OVERSAMPLE, 2.0, np.ones(49, dtype=np.int64))


def test_designs_do_not_change_while_the_helper_and_main_threads_share_them(monkeypatch):
    made = []
    realize = simulation.realize_design

    def recording(kind, data, rng):
        design = realize(kind, data, rng)
        held = {name: (value, copy.deepcopy(value)) for name, value in vars(design).items()}
        made.append((threading.get_ident(), design, held))
        return design

    monkeypatch.setattr(simulation, "realize_design", recording)
    U, B, W, O = F.UNDER_WEIGHTED, F.UNDER_BIAS_CORRECTED, F.OVER_WEIGHTED, F.OVER_BIAS_CORRECTED
    config = ExperimentConfig(
        design=ConditionalGaussianDesign(mu1=1.0, mu0=0.0, sigma=1.0, target_rate=0.1),
        n=3_000,
        reps=2,
        estimators=(EstimatorKind(F.FULL), *(EstimatorKind(f, 0.3) for f in (U, B)),
                    *(EstimatorKind(f, 2.0) for f in (W, O))),
        base_seed=4,
    )
    assert all(entry.failed == 0 for entry in run_experiment(config).entries)
    assert len(made) == 4  # one under- and one over-sampling design per replication
    for thread, design, held in made:
        assert thread != threading.get_ident()  # drawn on the helper, fitted here
        assert vars(design).keys() == held.keys()
        for name, (value, snapshot) in held.items():
            assert vars(design)[name] is value
            if isinstance(value, np.ndarray):
                assert_array_equal(value, snapshot)
        with pytest.raises(dataclasses.FrozenInstanceError):
            design.rows = None


def _peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_design_that_keeps_every_row_fits_its_parent_in_place():
    # pi0 = 1 used to gather a full copy of the data: 14.8 against 5.6 MB
    data = rare_data(1, 200_000, beta=(1.0, -0.5, 0.25))
    full, kind = EstimatorKind(F.FULL), EstimatorKind(F.UNDER_WEIGHTED, 1.0)
    design = realize_design(kind, data, substream(5))
    assert_array_equal(fit_estimator(kind, data, design).theta.as_vector(),
                       fit_estimator(full, data).theta.as_vector())
    full_peak = _peak(lambda: fit_estimator(full, data))
    design_peak = _peak(lambda: fit_estimator(kind, data, realize_design(kind, data, substream(5))))
    # the design adds its row indices and nothing else of length n; 16 KiB
    # covers the Python objects of the design and its stream, against 1.6 MB
    # for one length-n vector
    assert design_peak <= full_peak + design.rows.nbytes + 16 * 1024
    assert design.data is data
