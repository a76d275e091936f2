"""One kernel workspace per loop of replications.

run_experiment lends one workspace to every replication it runs in this
process, and each pool worker one to every replication it runs, so only a
loop's first replication allocates a kernel buffer.  These tests pin that
saving, that no replication keeps its predecessor's zt alive, and that
nothing lent outlives the call.
"""

import tracemalloc
import weakref

import pytest

from rarelogit import (
    Coefficients,
    EstimatorFamily,
    EstimatorKind,
    ExperimentConfig,
    GaussianLaw,
    MarginalLogisticDesign,
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
    SEEN.append((earlier, weakref.ref(data.zt), weakref.ref(data._workspace)))
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
    workspace are alive.  Each replication in this process also records,
    in the list the fixture returns, how many earlier replications' zt
    were alive when its fits began, and weak references to its zt and
    workspace.
    """
    BUFFERS.clear()
    SEEN.clear()
    monkeypatch.setattr(simulation, "_fit_estimators", counting_fits)
    monkeypatch.setattr(simulation, "_run_replication", counting_replication)
    yield SEEN
    SEEN.clear()


def test_serial_replications_after_the_first_allocate_no_kernel_buffer(counted, monkeypatch):
    reps = 4
    workspaces = []
    use = model.Dataset._use

    def recording_use(data, workspace):
        workspaces.append(workspace)
        use(data, workspace)

    monkeypatch.setattr(model.Dataset, "_use", recording_use)
    report = run_experiment(sweep_config(reps))
    assert all(entry.failed == 0 for entry in report.entries)
    # the first replication allocates the one buffer, and no other does
    assert report.mean_n1 * reps == 1
    # every replication fitted in the one lent workspace
    assert len(workspaces) == reps and all(ws is workspaces[0] for ws in workspaces)
    lent = weakref.ref(workspaces[0])
    workspaces.clear()
    # no replication began its fits with an earlier replication's zt alive,
    # and once the call returned nothing lent was left
    assert [earlier for earlier, _, _ in counted] == [0] * reps
    assert lent() is None
    assert all(zt() is None and ws() is None for _, zt, ws in counted)


def test_a_failing_loop_lets_its_workspace_go(monkeypatch):
    fit_estimators, lent = simulation._fit_estimators, []

    def failing_fits(config, data, designs):
        lent.append(weakref.ref(data._workspace))
        if len(lent) == 2:
            raise RuntimeError("second replication failed")
        return fit_estimators(config, data, designs)

    monkeypatch.setattr(simulation, "_fit_estimators", failing_fits)
    with pytest.raises(RuntimeError, match="second replication failed"):
        run_experiment(sweep_config(3))
    assert lent[0]() is lent[1]() is None
    assert simulation._loop.workspace is None


def test_pool_workers_allocate_one_kernel_buffer_each(counted):
    reps, threads = 8, 2
    report = run_experiment(sweep_config(reps), threads=threads)
    assert all(entry.failed == 0 for entry in report.entries)
    # each worker that ran a replication allocated one buffer, in its first
    assert 1 <= report.mean_n1 * reps <= threads
    # nothing is lent in this process
    assert getattr(simulation._loop, "workspace", None) is None
