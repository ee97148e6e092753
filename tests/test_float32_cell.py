"""The kernel, arena and delta suites at float32.

``REPRO_DTYPE=float32`` is a supported precision, so the suites whose
results depend on the compute dtype run again at float32: the autograd
and fused-kernel checks (at the float32 ``contract_tol``), the tape
arena and the delta-session differentials.  This module collects them
with float32 selected for the whole module, its module-scoped fixtures
(the delta model) included.
"""

import pytest

from repro import nn

from .test_arena import *  # noqa: F401,F403
from .test_delta import (TestDeltaSequenceProperty,  # noqa: F401
                         TestEditDifferential, toy_model)
from .test_nn_autograd import *  # noqa: F401,F403


@pytest.fixture(scope="module", autouse=True)
def _float32():
    with nn.use_dtype("float32"):
        yield
