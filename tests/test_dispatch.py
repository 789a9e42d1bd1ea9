"""The golden bytes do not depend on numpy's CPU dispatch.

numpy picks a SIMD loop for each ufunc at run time from the CPU features it
finds; ``NPY_DISABLE_CPU_FEATURES`` turns the dispatched ones off, so numpy
runs its baseline loops. A child process recomputes every digest pinned in
``test_golden.py`` and ``test_golden_outputs.py`` (the figure files, the
sweep, point and oracle-figure outputs and the ``verify`` texts) with all
of them off, and each must equal its pinned value: no output's bits may
come from a loop, such as numpy's complex ``abs``, whose rounding depends on
the dispatch.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
# checks in the child that numpy took the variable: no feature it names is left on
CHILD = """
import sys
import pytest
import test_dispatch
still_on = test_dispatch.dispatched()
assert not still_on, f"NPY_DISABLE_CPU_FEATURES left {still_on} on"
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", "test_golden.py", "test_golden_outputs.py"]))
"""


def dispatched() -> list[str]:
    """The CPU features above numpy's baseline that it found and dispatches to."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]


@pytest.mark.skipif(not dispatched(), reason="numpy dispatches to no CPU feature here")
def test_golden_digests_do_not_depend_on_the_cpu_dispatch():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(dispatched()))
    child = subprocess.run([sys.executable, "-W", "error::ImportWarning", "-c", CHILD],
                           cwd=TESTS, env=env, capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-2000:]
