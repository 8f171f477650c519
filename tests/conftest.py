import collections

import numpy as np
import pytest

from mvpolytopes import cartan
from mvpolytopes.cartan import build_cartan
from mvpolytopes.weyl import weyl_group


@pytest.fixture(scope="session")
def a1():
    return weyl_group(build_cartan("A", 1))


@pytest.fixture(scope="session")
def a2():
    return weyl_group(build_cartan("A", 2))


@pytest.fixture(scope="session")
def b2():
    return weyl_group(build_cartan("B", 2))


@pytest.fixture(scope="session")
def a3():
    return weyl_group(build_cartan("A", 3))


@pytest.fixture(scope="session")
def b3():
    return weyl_group(build_cartan("B", 3))


@pytest.fixture()
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture()
def vectors_built(monkeypatch):
    """The ``Weight`` and ``Coweight`` objects built while the test runs, as a
    Counter by class name: every one of them passes ``_Vector.__post_init__``."""
    built = collections.Counter()
    post_init = cartan._Vector.__post_init__

    def counted(self):
        built[type(self).__name__] += 1
        post_init(self)

    monkeypatch.setattr(cartan._Vector, "__post_init__", counted)
    return built
