"""repro.accel — accelerated compute kernels with naive-identical semantics.

Every hot stage of the pipeline (tree construction, traversal-based
measures, layout relaxation, heightfield rasterization) has two
implementations: the *naive* reference code that lives next to the
algorithm it implements, and a numpy-vectorized *kernel* in this
package.  The sequential union-find merge scan, the k-truss peel, the
terrain renderer's z-buffer and the super-tree walk of Algorithm 2
have a third, *native* tier compiled at first use from embedded C and
loaded with ctypes (:mod:`repro.accel.native`); the truss peel has no
vector kernel, and the z-buffer's numpy pair pass and the super tree's
Python walk each serve both ``naive`` and ``vector``.
The contract is strict across all tiers: for any input, every backend
produces the **same arrays** — identical ``parent`` pointers, identical
integer measure vectors, identical layouts, heightfields and images
(float centrality accumulations agree to 1e-9; everything else is
byte-identical).  The property suites in ``tests/accel/`` and
``tests/terrain/test_render_equivalence.py`` enforce this, so the
backends are interchangeable mid-pipeline and share one cache identity
(an :class:`~repro.engine.cache.ArtifactCache` hit bypasses all of
them).

Backend selection is a process-global setting:

* ``auto`` (default) — per call site, pick the fastest applicable tier
  once the input crosses a small size threshold (native when a C
  compiler is present and the call site has a native kernel, else
  vector), and stay naive below it (tiny inputs don't amortize the
  dispatch overhead);
* ``naive`` — always the pure-Python reference path;
* ``vector`` — always the numpy kernels;
* ``native`` — the compiled C kernels (merge scans, truss peel,
  z-buffer, super tree) where they exist, the vector kernels
  everywhere else.
  **Soft fallback**: when no toolchain exists or compilation fails,
  native degrades to vector with one logged warning and a
  ``repro_accel_native_fallbacks_total`` increment — never an error.

Configure it with :func:`set_backend`, the ``REPRO_ACCEL`` environment
variable, or ``repro --accel {auto,naive,vector,native}`` on any CLI
subcommand.  Library calls can override per invocation via their
``backend=`` keyword, and tests can scope a choice with :func:`using`.

Kernels are deliberately *flat*: they take plain numpy arrays
(``indptr``/``indices`` CSR pairs, edge arrays, rank permutations) and
return plain arrays, importing nothing from :mod:`repro.core` — so the
core algorithm modules can dispatch to them without import cycles.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from ..obs import metrics as _obs_metrics

__all__ = [
    "BACKENDS",
    "get_backend",
    "set_backend",
    "using",
    "resolve",
]

BACKENDS = ("auto", "naive", "vector", "native")

_STATE = {"backend": "auto"}

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
        # to "auto" would neutralize exactly the runs that pin a backend
        # on purpose (CI's naive-fallback job, reproducibility scripts).
        raise ValueError(
            f"REPRO_ACCEL must be one of {BACKENDS}, got {value!r}"
        )
    _STATE["backend"] = value


_init_from_env()
_publish_backend()


def get_backend() -> str:
    """The configured backend mode (may be ``"auto"``)."""
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
    """Scope a backend choice: ``with accel.using("naive"): ...``."""
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


def resolve(
    backend: Optional[str] = None,
    *,
    size: Optional[int] = None,
    threshold: float = 0,
    native: bool = False,
) -> str:
    """Pick the concrete tier for one call site.

    ``backend`` overrides the global setting when given.  ``auto``
    resolves by comparing ``size`` (the call site's natural work
    measure: edges, vertices, siblings, nodes) against the call site's
    ``threshold``; with no size it resolves to the accelerated tier.

    ``native`` declares that the call site *has* a compiled kernel.
    Only then can ``"native"`` come back — and only when the toolchain
    check passes (:func:`repro.accel.native.available`, which compiles
    on first use and soft-fails); otherwise ``native`` degrades to
    ``"vector"``, which is byte-identical.  Call sites without a native
    kernel resolve ``native`` straight to ``"vector"`` so a
    process-wide ``REPRO_ACCEL=native`` never breaks them.
    """
    mode = backend if backend is not None else _STATE["backend"]
    if mode not in BACKENDS:
        raise ValueError(
            f"backend must be one of {BACKENDS}, got {mode!r}"
        )
    if mode == "native":
        if native and _native_usable():
            return "native"
        return "vector"
    if mode != "auto":
        return mode
    if size is None or size >= threshold:
        if native and _native_usable():
            return "native"
        return "vector"
    return "naive"
