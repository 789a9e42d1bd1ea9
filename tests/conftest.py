import os
from pathlib import Path

import numpy as np
import pytest

from sqbattery.verify import preset_param_sets

# child processes (python -m sqbattery) import the package from this
# checkout's src, as the suite does through pyproject's pytest pythonpath
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)


@pytest.fixture(scope="session")
def preset_params():
    return preset_param_sets()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0


def random_density(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = a @ a.conj().T
    return m / np.trace(m).real
