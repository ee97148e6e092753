"""Float dtype policy: the ``REPRO_DTYPE`` switch.

Everything numerical in the reproduction falls into two regimes:

* **Ground truth** — the STA engine, golden fixtures, dataset labels and
  the naive differential reference.  These stay ``float64`` always; the
  1e-9 fused==naive contract and the bit-exact golden comparators are
  only meaningful at full precision.
* **Model compute** — tensors, kernels and the propagation mega-op.
  These follow the *active dtype*: ``float64`` by default (so the seed
  behaviour is unchanged), ``float32`` when requested — roughly 2x on
  the BLAS-bound MLP chains and half the tape memory traffic.

The active dtype is resolved per thread: ``REPRO_DTYPE`` sets the
process default and :class:`use_dtype` overrides it for a scope (the
same shape as :class:`repro.nn.kernels.use_kernels`).  The
fused-vs-naive differential tolerance is dtype-aware
(:func:`contract_tol`): 1e-9 relative at fp64, 1e-4 relative at fp32.
"""

from __future__ import annotations

import os
import threading

import numpy as np

__all__ = ["DTYPES", "active_dtype", "use_dtype", "contract_tol"]

#: Names accepted by REPRO_DTYPE / use_dtype.
DTYPES = ("float32", "float64")


def _resolve(name):
    dtype = np.dtype(name)
    if dtype.name not in DTYPES:
        raise ValueError(
            f"unsupported dtype {name!r} (REPRO_DTYPE must be one of "
            f"{DTYPES})")
    return dtype


_DEFAULT = _resolve(os.environ.get("REPRO_DTYPE", "float64").strip()
                    or "float64")


class _DtypeState(threading.local):
    """Per-thread dtype override stack (see :class:`use_dtype`)."""

    def __init__(self):
        self.stack = []


_STATE = _DtypeState()


def active_dtype():
    """The dtype new tensors and kernel buffers are created with."""
    return _STATE.stack[-1] if _STATE.stack else _DEFAULT


class use_dtype:
    """Context manager selecting the compute dtype for this thread."""

    def __init__(self, name):
        self.dtype = _resolve(name)

    def __enter__(self):
        _STATE.stack.append(self.dtype)
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.stack.pop()
        return False


def contract_tol(dtype=None):
    """The fused==naive differential tolerance ``(rtol, atol)``.

    1e-9/1e-12 at float64 (the reference regime), 1e-4/1e-6 at float32
    — fp32 has ~7 significant digits and the two backends sum segments
    in different orders, so a relative contract near the mantissa floor
    is the correct bound.
    """
    dtype = np.dtype(dtype) if dtype is not None else active_dtype()
    if dtype == np.float64:
        return 1e-9, 1e-12
    return 1e-4, 1e-6
