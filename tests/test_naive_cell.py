"""The kernel, module and model suites on the naive reference backend.

The naive composed-op kernels are the reference that every fused result
is checked against (``test_contracts.py``), so they must pass the same
checks as the shipped fused path: finite-difference gradients, module
and model invariants, and the delta-session differentials.  This module
collects those suites again with the naive backend selected for the
whole module, its module-scoped fixtures included.
"""

import pytest

from repro import nn

from .test_delta import TestEditDifferential, toy_model  # noqa: F401
from .test_models import *  # noqa: F401,F403
from .test_nn_autograd import *  # noqa: F401,F403
from .test_nn_modules import *  # noqa: F401,F403


@pytest.fixture(scope="module", autouse=True)
def _naive_backend():
    with nn.use_kernels("naive"):
        yield
