"""Kernel backend selection.

The hot GF(2) loops (rank, validity sweeps, span tests) exist twice:
a Cython extension ``_gf2fast`` and a pure-Python fallback ``_gf2pure``
with the same interface.  The compiled one is used when it imported
successfully; set ICSIE_PURE_KERNELS=1 to force the fallback.
``gf2_span_intersects`` has no caller in the library and ``gf2_rank``
serves only ``Matrix.rank``; both stay exported under these names
because the benchmark's tracer wraps them by name.
"""

from __future__ import annotations

import os

if os.environ.get("ICSIE_PURE_KERNELS"):
    from ._gf2pure import (BACKEND, gf2_first_failing, gf2_mul_vec, gf2_rank,
                           gf2_span_intersects)
else:
    try:
        from ._gf2fast import (BACKEND, gf2_first_failing, gf2_mul_vec,
                               gf2_rank, gf2_span_intersects)
    except ImportError:
        from ._gf2pure import (BACKEND, gf2_first_failing, gf2_mul_vec,
                               gf2_rank, gf2_span_intersects)

__all__ = [
    "BACKEND",
    "gf2_rank",
    "gf2_mul_vec",
    "gf2_first_failing",
    "gf2_span_intersects",
]
