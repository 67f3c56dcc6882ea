"""Tests for the simulator profiling hooks (repro.obs.profile)."""

from repro.obs import EnvProfiler
from repro.sim import Environment


def run_workload(env):
    def ticker():
        for _ in range(5):
            yield env.timeout(10)

    def waiter(evt):
        yield evt

    evt = env.event()

    def firer():
        yield env.timeout(7)
        evt.succeed(42)

    env.process(ticker(), name="ticker")
    env.process(waiter(evt), name="waiter")
    env.process(firer(), name="firer")
    env.run()


def test_environment_profile_flag_counts_events():
    env = Environment(profile=True)
    run_workload(env)
    prof = env.profiler
    assert prof is not None
    assert prof.events_processed > 0
    assert prof.events_scheduled > 0
    assert prof.queue_high_water >= 1
    snap = prof.snapshot()
    assert snap["events_processed"] == prof.events_processed
    # Every process received at least one resumption.
    assert {"ticker", "waiter", "firer"} <= set(snap["per_process"])
    assert snap["per_process"]["ticker"] >= 5
    assert sum(snap["per_type"].values()) == prof.events_processed


def test_profiler_off_by_default_and_enable_late():
    env = Environment()
    assert env.profiler is None
    env.enable_profiling()
    assert isinstance(env.profiler, EnvProfiler)
    run_workload(env)
    assert env.profiler.events_processed > 0
    # enable_profiling is idempotent: same profiler object.
    prof = env.profiler
    env.enable_profiling()
    assert env.profiler is prof


def test_profiled_run_matches_unprofiled_run():
    """Profiling must observe, never perturb: event order and final
    simulated time are identical with and without the hooks."""
    env_a, env_b = Environment(), Environment(profile=True)
    run_workload(env_a)
    run_workload(env_b)
    assert env_a.now == env_b.now
