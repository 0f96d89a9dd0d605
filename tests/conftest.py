import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    """ONE Ray session for the whole pytest run (driver contract)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


SF_DIR = "/root/testdata/sf0.001"
SF_DIR_MEDIUM = "/root/testdata/sf0.01"


@pytest.fixture
def executions(monkeypatch):
    """Counts the Ray Data streaming executions started while the test runs:
    ``executions.n`` (a test may reset it to 0 before the step it pins)."""
    import types

    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    counter = types.SimpleNamespace(n=0)
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        counter.n += 1
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return counter


@pytest.fixture
def datasets(monkeypatch):
    """Counts the ``ray.data.Dataset`` constructions (a ``MaterializedDataset``
    too) while the test runs: ``datasets.n``, resettable like ``executions``.
    In Ray 2.49 each construction is a stats-actor round trip."""
    import types

    from ray.data import Dataset

    counter = types.SimpleNamespace(n=0)
    init = Dataset.__init__

    def counted(self, *args, **kwargs):
        counter.n += 1
        return init(self, *args, **kwargs)

    monkeypatch.setattr(Dataset, "__init__", counted)
    return counter
