import os

import numpy as np
import pytest

import partial_records as pr


@pytest.fixture(autouse=True, scope="session")
def _subprocesses_import_this_package():
    """CLI tests start child interpreters; they import the package from where
    this process did, also when pytest found it through its own pythonpath."""
    src = os.path.dirname(os.path.dirname(pr.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", path)
        yield


@pytest.fixture
def total5():
    return pr.total_comparison_plan(5)


@pytest.fixture
def partial_plan():
    # indices (2,4,5) with sets {1}, {1,2,3}, {1,2,3,4}: cardinalities (2,4,5)
    return pr.as_validated(
        pr.ComparisonPlan(
            (2, 4, 5),
            (frozenset({1}), frozenset({1, 2, 3}), frozenset({1, 2, 3, 4})),
        )
    )


@pytest.fixture
def three_densities():
    return (pr.uniform01(), pr.power_density(2), pr.smoothstep_density())


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
