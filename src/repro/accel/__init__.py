"""repro.accel — accelerated compute kernels, one runtime path each.

Every hot stage of the pipeline (tree construction, traversal-based
measures, heightfield rasterization) runs one numpy-vectorized or
flat-scan *kernel* from this package.  The sequential union-find merge
scan, the k-truss peel, the terrain renderer's z-buffer and the
super-tree walk of Algorithm 2 have a second, *native* tier compiled
at first use from embedded C and loaded with ctypes
(:mod:`repro.accel.native`); where it does not load, the Python scan,
the dict truss peel, the numpy pair pass and the Python walk run
instead.  The per-item Python loops these kernels replaced live on as
test oracles (``tests/accel/oracles.py``).

The contract is strict across both tiers: for any input, each produces
the **same arrays** — identical ``parent`` pointers, identical integer
measure vectors, identical layouts, heightfields and images.  The
property suites in ``tests/accel/`` and
``tests/terrain/test_render_equivalence.py`` enforce this against the
oracles, so the tiers share one cache identity (an
:class:`~repro.engine.cache.ArtifactCache` hit bypasses both).

The tier is a process-global mode:

* ``native`` (default) — the compiled C kernels (merge scans, truss
  peel, z-buffer, super tree) where they exist, the numpy kernels
  everywhere else.
  **Soft fallback**: when no toolchain exists or compilation fails,
  native degrades to vector with one logged warning and a
  ``repro_accel_native_fallbacks_total`` increment — never an error.
* ``vector`` — never the C kernels.

Pin it with the ``REPRO_ACCEL`` environment variable or
:func:`set_backend`; tests scope a choice with :func:`using`.

Kernels are deliberately *flat*: they take plain numpy arrays
(``indptr``/``indices`` CSR pairs, edge arrays, rank permutations) and
return plain arrays, importing nothing from :mod:`repro.core` — so the
core algorithm modules can call them without import cycles.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from ..obs import metrics as _obs_metrics

__all__ = [
    "BACKENDS",
    "get_backend",
    "set_backend",
    "using",
    "resolve",
]

BACKENDS = ("vector", "native")

_STATE = {"backend": "native"}

# Info-style gauge: one child per mode, 1 on the configured one — lets
# /metrics scrapes see which tier a process was pinned to without
# parsing argv or the environment.
_BACKEND_INFO = _obs_metrics.REGISTRY.gauge(
    "repro_accel_backend_info",
    "Configured accel backend mode (1 on the active label).",
    ("backend",),
)


def _publish_backend() -> None:
    for mode in BACKENDS:
        _BACKEND_INFO.set(
            1.0 if mode == _STATE["backend"] else 0.0, backend=mode
        )


def _init_from_env() -> None:
    value = os.environ.get("REPRO_ACCEL", "").strip().lower()
    if not value:
        return
    if value not in BACKENDS:
        # Fail loudly: a typo (REPRO_ACCEL=vectr) silently falling back
        # to the default would neutralize exactly the runs that pin a
        # tier on purpose (reproducibility scripts, tests).
        raise ValueError(
            f"REPRO_ACCEL must be one of {BACKENDS}, got {value!r}"
        )
    _STATE["backend"] = value


_init_from_env()
_publish_backend()


def get_backend() -> str:
    """The configured backend mode."""
    return _STATE["backend"]


def set_backend(name: str) -> None:
    """Set the process-global backend mode."""
    if name not in BACKENDS:
        raise ValueError(
            f"backend must be one of {BACKENDS}, got {name!r}"
        )
    _STATE["backend"] = name
    _publish_backend()


@contextmanager
def using(name: str) -> Iterator[None]:
    """Scope a backend choice: ``with accel.using("vector"): ...``."""
    previous = get_backend()
    set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


def _native_usable() -> bool:
    """Whether the compiled tier can actually run (first call may
    compile; soft-fails to False)."""
    from . import native as _native

    return _native.available()


def resolve(*, native: bool = False) -> str:
    """Pick the concrete tier for one call site.

    ``native`` declares that the call site *has* a compiled kernel.
    Only then can ``"native"`` come back — and only in ``native`` mode
    when the toolchain check passes (:func:`repro.accel.native.available`,
    which compiles on first use and soft-fails); otherwise the answer
    is ``"vector"``, which is byte-identical.
    """
    if native and _STATE["backend"] == "native" and _native_usable():
        return "native"
    return "vector"
