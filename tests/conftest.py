import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

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


@pytest.fixture
def set_shard_count(monkeypatch):
    """``set_shard_count(n)``: every exchange planned after the call hashes
    into ``n`` shards (the private ``ops/exchange.py::_N_SHARDS``); the
    count is restored when the test ends."""
    from ocr_platform_ray.ops import exchange

    return lambda n: monkeypatch.setattr(exchange, "_N_SHARDS", n)


@pytest.fixture
def plan_ops():
    """``plan_ops(ds)``: the names of ``ds``'s physical operators after
    Ray's fusion rules, upstream first, without input buffers.  Plans
    only; nothing executes."""
    from ray.data._internal.logical.optimizers import get_execution_plan

    def names(ds):
        out = []

        def walk(op):
            for dep in op.input_dependencies:
                walk(dep)
            if op.input_dependencies:
                out.append(op.name)

        walk(get_execution_plan(ds._logical_plan).dag)
        return out

    return names
