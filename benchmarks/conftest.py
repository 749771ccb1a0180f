"""Shared helpers for the per-figure benchmark suite.

Each benchmark regenerates one paper table/figure through
``repro.harness.run_experiment`` and asserts the *shape* of the result:
who wins, rough factors, crossovers. Absolute numbers are expected to
deviate (the substrate is a Python simulator, not the authors' testbed);
EXPERIMENTS.md records paper-vs-measured for every metric.

The ``test_perf_*`` benchmarks also write a ``BENCH_*.json`` artifact.
A plain run writes it under the session's tmp dir, so checking the
benchmarks leaves the tree clean; ``pytest benchmarks/ --record``
writes it to the repository root to re-record the tracked numbers.
"""

from pathlib import Path

import pytest

from repro.runtime import EvalCache, set_cache

REPO_ROOT = Path(__file__).resolve().parent.parent


def pytest_addoption(parser):
    """Register ``--record`` (see the module docstring)."""
    parser.addoption(
        "--record", action="store_true", default=False,
        help="write the BENCH_*.json artifacts to the repository root "
             "(default: under the session's tmp dir)")


@pytest.fixture(scope="session")
def bench_dir(request, tmp_path_factory):
    """Where ``BENCH_*.json`` artifacts are written (see module doc)."""
    if request.config.getoption("--record"):
        return REPO_ROOT
    return tmp_path_factory.mktemp("bench_artifacts")


@pytest.fixture(scope="session", autouse=True)
def _isolated_eval_cache(tmp_path_factory):
    """Session-private runtime cache (hermetic, keeps the tree clean)."""
    set_cache(EvalCache(directory=tmp_path_factory.mktemp("repro_cache")))
    yield
    set_cache(None)


def run_once(benchmark, exp_id):
    """Run an experiment exactly once under pytest-benchmark timing."""
    from repro.harness import run_experiment
    return benchmark.pedantic(run_experiment, args=(exp_id,),
                              rounds=1, iterations=1)


def measured(experiment, metric):
    return experiment.summary[metric][1]


def within(experiment, metric, rel):
    """Measured value within a relative band of the paper's value."""
    paper, got = experiment.summary[metric]
    assert paper, f"{metric}: paper value is zero"
    ratio = got / paper
    assert 1 / (1 + rel) <= ratio <= 1 + rel, (
        f"{metric}: paper={paper} measured={got} (ratio {ratio:.2f})")


@pytest.fixture
def exp(benchmark):
    def runner(exp_id):
        return run_once(benchmark, exp_id)
    return runner
