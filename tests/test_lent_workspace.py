"""One lent kernel buffer per chunk of replications and per CLI command.

run_experiment runs its replications in chunks, each in one
model._lending block, and cli.main runs each command in one, so only the
first fits of a chunk or command allocate a kernel buffer.  These tests
pin that saving, that no replication keeps its predecessor's zt alive,
and that nothing lent outlives the chunk or the command.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from rarelogit import (
    Coefficients,
    Dataset,
    EstimatorFamily,
    EstimatorKind,
    ExperimentConfig,
    GaussianLaw,
    MarginalLogisticDesign,
    cli,
    model,
    run_experiment,
    simulation,
)

N = 20_000
# the kernel buffer of a d = 1 fit on all N rows; zt is 2 N doubles, less
BUFFER_BYTES = 8 * (2 * N + 6 * min(N, model.BLOCK_ROWS))


def sweep_config(reps):
    F, K = EstimatorFamily, EstimatorKind
    kinds = (K(F.FULL), K(F.OVER_WEIGHTED, 3.0), K(F.OVER_BIAS_CORRECTED, 3.0),
             K(F.UNDER_WEIGHTED, 0.2), K(F.UNDER_BIAS_CORRECTED, 0.2), K(F.UNDER_WEIGHTED, 1.0))
    design = MarginalLogisticDesign(theta=Coefficients(-4.0, [1.0]), law=GaussianLaw.standard(1))
    return ExperimentConfig(design=design, n=N, reps=reps, estimators=kinds, base_seed=5)


def kernel_buffers():
    """Live blocks of at least a kernel buffer's size allocated in model.py since tracing began."""
    snapshot = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, model.__file__)])
    return sum(1 for trace in snapshot.traces if trace.size >= BUFFER_BYTES)


RUN_REPLICATION, FIT_ESTIMATORS = simulation._run_replication, simulation._fit_estimators
# what counting_fits records, per replication, in the process that runs it
BUFFERS, SEEN = [], []


def counting_fits(config, data, designs):
    earlier = sum(zt() is not None for _, zt, _ in SEEN)
    fits = FIT_ESTIMATORS(config, data, designs)
    BUFFERS.append(kernel_buffers())
    SEEN.append((earlier, weakref.ref(data.zt), weakref.ref(model._lent.buf)))
    return fits


def counting_replication(config, s):
    # module level, so that a process pool can send it to its workers
    tracemalloc.start()
    try:
        _, fits = RUN_REPLICATION(config, s)
    finally:
        tracemalloc.stop()
    return BUFFERS.pop(), fits


@pytest.fixture
def counted(monkeypatch):
    """Make each replication report, in place of its n1, the kernel buffers it allocated.

    The count is taken after the replication's fits, while its dataset and
    the lent buffer are alive.  Each replication in this process also
    records, in the list the fixture returns, how many earlier
    replications' zt were alive when its fits began, and weak references
    to its zt and to the lent buffer after its fits.
    """
    BUFFERS.clear()
    SEEN.clear()
    monkeypatch.setattr(simulation, "_fit_estimators", counting_fits)
    monkeypatch.setattr(simulation, "_run_replication", counting_replication)
    yield SEEN
    SEEN.clear()


def test_serial_replications_after_the_first_allocate_no_kernel_buffer(counted):
    reps = 4
    report = run_experiment(sweep_config(reps))
    assert all(entry.failed == 0 for entry in report.entries)
    # the first replication allocates the one buffer, and no other does
    assert report.mean_n1 * reps == 1
    # every replication fitted in the one lent buffer
    assert all(buf() is counted[0][2]() for _, _, buf in counted)
    # no replication began its fits with an earlier replication's zt alive,
    # and once the call returned nothing lent was left
    assert [earlier for earlier, _, _ in counted] == [0] * reps
    assert not hasattr(model._lent, "buf")
    assert all(zt() is None and buf() is None for _, zt, buf in counted)


def test_a_failing_loop_leaves_no_lent_buffer(monkeypatch):
    fit_estimators, lent = simulation._fit_estimators, []

    def failing_fits(config, data, designs):
        if len(lent) == 1:
            raise RuntimeError("second replication failed")
        fits = fit_estimators(config, data, designs)
        lent.append(weakref.ref(model._lent.buf))
        return fits

    monkeypatch.setattr(simulation, "_fit_estimators", failing_fits)
    with pytest.raises(RuntimeError, match="second replication failed"):
        run_experiment(sweep_config(3))
    assert lent[0]() is None
    assert not hasattr(model._lent, "buf")


def test_pool_workers_allocate_one_kernel_buffer_per_chunk(counted):
    reps, threads = 16, 2
    # chunks of max(1, 16 // 8) = 2 replications
    chunks = reps // 2
    report = run_experiment(sweep_config(reps), threads=threads)
    assert all(entry.failed == 0 for entry in report.entries)
    # each chunk allocated one buffer, in its first replication
    assert report.mean_n1 * reps == chunks
    # nothing is lent in this process
    assert not hasattr(model._lent, "buf")


@pytest.fixture
def kernels(monkeypatch):
    """Record, per kernel built, whether it fits in the first kernel's lent buffer, and a weak reference to its own."""
    built, init = [], model._Kernel.__init__

    def recording_init(self, data, w, scale):
        init(self, data, w, scale)
        buf = model._lent.buf
        first = built[0][1]() if built else buf
        built.append((np.shares_memory(self.w, buf) and buf is first, weakref.ref(buf)))

    monkeypatch.setattr(model._Kernel, "__init__", recording_init)
    return built


def test_the_fits_of_one_command_share_one_lent_buffer(tmp_path, kernels):
    # table1 runs run_experiment, whose blocks nest in the command's
    argv = ["table1", "--n", "1000,1000", "--rate", "0.02,0.05", "--reps", "3", "--seed", "4",
            "--threads", "1", "--out", str(tmp_path / "t1.csv")]
    assert cli.main(argv) == 0
    # one full-data fit per replication, 3 replications per (n, rate)
    assert [shared for shared, _ in kernels] == [True] * 6
    assert all(buf() is None for _, buf in kernels)
    assert not hasattr(model._lent, "buf")


def test_a_command_that_exits_3_leaves_no_lent_buffer(tmp_path, kernels):
    x = 0.5 * np.array([-2.0, -1.5, -1.0, 1.0, 1.5, 2.0])
    path = tmp_path / "sep.csv"
    cli.save_dataset(str(path), Dataset(x=x[:, None], y=(x > 0).astype(int)))
    argv = ["fit", "--data", str(path), "--estimator", "full", "--out", str(tmp_path / "o.csv")]
    assert cli.main(argv) == 3
    assert [shared for shared, _ in kernels] == [True]
    assert kernels[0][1]() is None
    assert not hasattr(model._lent, "buf")
