"""Measure registry: named scalar fields over graphs.

Every pipeline stage that turns a graph into a scalar field goes
through here.  A *measure* is a named function ``graph -> float64
vector`` (one value per vertex or per edge) plus declared metadata:

* ``kind`` — ``"vertex"`` or ``"edge"``, which decides whether the
  downstream tree stage runs Algorithm 1 or Algorithm 3;
* ``cost`` — ``"cheap"`` / ``"moderate"`` / ``"expensive"``, a hint the
  artifact cache uses to decide whether persisting the field to disk is
  worth the I/O (degrees are cheaper to recompute than to reload);
* ``description`` — one line for ``--help`` and docs.

Built-in measures are registered *lazily*: the registry knows their
names and kinds up front (so CLI parsing and ``measure_names()`` stay
import-light), but the implementing module is imported only when a
measure is first resolved.  Third-party code registers its own measures
with the :func:`vertex_measure` / :func:`edge_measure` decorators::

    from repro.engine import vertex_measure

    @vertex_measure("coreness2", cost="cheap", description="halved KC")
    def half_core(graph):
        return core_numbers(graph) / 2.0
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "MeasureSpec",
    "register_measure",
    "vertex_measure",
    "edge_measure",
    "unregister",
    "get_measure",
    "measure_names",
    "compute",
]

_KINDS = ("vertex", "edge")
_COSTS = ("cheap", "moderate", "expensive")


@dataclass(frozen=True)
class MeasureSpec:
    """A registered measure: the function plus its declared metadata."""

    name: str
    kind: str
    func: Callable = field(repr=False)
    cost: str = "moderate"
    description: str = ""


_REGISTRY: Dict[str, MeasureSpec] = {}

# Built-ins, declared without importing their modules: name -> (module
# that registers it on import, kind).  Keeping the kind here lets
# ``measure_names(kind=...)`` answer without any imports.
_LAZY: Dict[str, Tuple[str, str]] = {
    "kcore": ("repro.measures.kcore", "vertex"),
    "ktruss": ("repro.measures.ktruss", "edge"),
    "degree": ("repro.measures.centrality", "vertex"),
    "pagerank": ("repro.measures.centrality", "vertex"),
    "closeness": ("repro.measures.centrality", "vertex"),
    "harmonic": ("repro.measures.centrality", "vertex"),
    "eigenvector": ("repro.measures.centrality", "vertex"),
    "betweenness": ("repro.measures.centrality", "vertex"),
    "clustering": ("repro.measures.triangles", "vertex"),
    "support": ("repro.measures.triangles", "edge"),
}


def register_measure(
    name: str,
    *,
    kind: str,
    cost: str = "moderate",
    description: str = "",
    replace: bool = False,
):
    """Decorator: register ``func`` as the measure called ``name``."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if cost not in _COSTS:
        raise ValueError(f"cost must be one of {_COSTS}, got {cost!r}")

    def decorator(func: Callable) -> Callable:
        # Not-yet-imported built-ins count as taken too: without this, a
        # custom measure could silently shadow e.g. "betweenness" and
        # then be silently clobbered when the built-in's module is
        # lazy-imported (built-in adapters register with replace=True).
        if not replace and (name in _REGISTRY or name in _LAZY):
            raise ValueError(f"measure {name!r} is already registered")
        _REGISTRY[name] = MeasureSpec(
            name=name, kind=kind, func=func, cost=cost,
            description=description,
        )
        return func

    return decorator


def vertex_measure(name: str, **kwargs):
    """Shorthand for ``register_measure(name, kind="vertex", ...)``."""
    return register_measure(name, kind="vertex", **kwargs)


def edge_measure(name: str, **kwargs):
    """Shorthand for ``register_measure(name, kind="edge", ...)``."""
    return register_measure(name, kind="edge", **kwargs)


def unregister(name: str) -> None:
    """Remove a (custom) measure; built-in names cannot be removed."""
    if name in _LAZY:
        raise ValueError(f"cannot unregister built-in measure {name!r}")
    _REGISTRY.pop(name, None)


def get_measure(name: str) -> MeasureSpec:
    """Resolve ``name`` to its :class:`MeasureSpec` (lazy-importing
    the implementing module for built-ins)."""
    if name not in _REGISTRY and name in _LAZY:
        import_module(_LAZY[name][0])
        if name not in _REGISTRY:  # pragma: no cover - registration bug
            raise RuntimeError(
                f"{_LAZY[name][0]} did not register measure {name!r}"
            )
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown measure {name!r}; known measures: "
            f"{', '.join(measure_names())}"
        )
    return _REGISTRY[name]


def measure_names(kind: Optional[str] = None) -> List[str]:
    """All known measure names (registered + lazy), optionally filtered
    by kind.  Never triggers an import."""
    if kind is not None and kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    names = {
        name for name, (_, k) in _LAZY.items() if kind in (None, k)
    }
    names.update(
        name for name, spec in _REGISTRY.items() if kind in (None, spec.kind)
    )
    return sorted(names)


def compute(name: str, graph) -> np.ndarray:
    """Evaluate measure ``name`` on ``graph`` as a float64 vector."""
    return np.asarray(get_measure(name).func(graph), dtype=np.float64)
