"""Backend selection state for the kernel layer.

Every dispatching kernel (:func:`repro.kernels.minplus`,
:func:`repro.kernels.filter_rows`, :func:`repro.kernels.hop_limited_relax`,
the BFS entry points) resolves its backend through this module.
Resolution order:

1. a *forced* backend installed by :func:`force_backend` (tests use this
   to run whole pipelines against the ``reference`` implementations);
2. the ``backend=`` argument passed at the call site;
3. the ``REPRO_KERNEL_BACKEND`` environment variable (read at call time,
   so a test harness or a CI leg can re-route a whole process without
   touching code);
4. the process-wide default (``"auto"``).

``"auto"`` lets each kernel pick between its implementations by operand
density (the min-plus product runs ``"dense"`` on dense operands, else
``"csr"``); ``"reference"`` routes to the original Python-loop
implementations kept in :mod:`repro.kernels.reference`, which every
other backend must match bit-for-bit (see DESIGN.md).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = [
    "BACKENDS",
    "ENV_BACKEND_VAR",
    "get_default_backend",
    "set_default_backend",
    "force_backend",
    "resolve_backend",
]

BACKENDS = ("auto", "dense", "csr", "reference")

#: Environment variable naming a backend to use for every kernel call
#: that does not pass an explicit ``backend=`` (layer 3 above).
ENV_BACKEND_VAR = "REPRO_KERNEL_BACKEND"

_default_backend = "auto"
_forced_backend: Optional[str] = None


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; expected one of {BACKENDS}")
    return name


def _env_backend() -> Optional[str]:
    """The ``REPRO_KERNEL_BACKEND`` layer, validated on every read (a
    typo'd value fails loudly at the first kernel call, naming the
    variable, rather than silently running the default backend)."""
    value = os.environ.get(ENV_BACKEND_VAR)
    if value is None or value == "":
        return None
    if value not in BACKENDS:
        raise ValueError(
            f"{ENV_BACKEND_VAR}={value!r} is not a known backend; "
            f"expected one of {BACKENDS}"
        )
    return value


def get_default_backend() -> str:
    """The process-wide default backend (layer 4 only — the environment
    variable and any forced backend are *not* reflected here; use
    :func:`resolve_backend` for the effective backend of a call)."""
    return _default_backend


def set_default_backend(name: str) -> None:
    """Set the process-wide default backend.

    Thread-safety: the assignment itself is atomic (a single reference
    store), so concurrent *readers* always see either the old or the new
    name, never garbage — but this is deliberately a process-global knob.
    Call it from the main thread during setup (the CLI does, before any
    kernel runs), not concurrently with kernel calls whose backend you
    care about.  Per-thread routing should use call-site ``backend=``
    arguments instead; :func:`force_backend` is likewise process-global
    and not async-safe across threads.
    """
    global _default_backend
    _default_backend = _validate(name)


@contextmanager
def force_backend(name: str) -> Iterator[None]:
    """Force every kernel dispatch to ``name`` inside the ``with`` block,
    overriding call-site ``backend=`` arguments and the environment
    variable.  Used by the fidelity tests to run full pipelines on the
    ``reference`` backend.  Process-global: do not nest from concurrent
    threads."""
    global _forced_backend
    prev = _forced_backend
    _forced_backend = _validate(name)
    try:
        yield
    finally:
        _forced_backend = prev


def resolve_backend(requested: Optional[str] = None) -> str:
    """The effective backend for one kernel call (forced > call-site >
    ``REPRO_KERNEL_BACKEND`` > process default)."""
    if _forced_backend is not None:
        return _forced_backend
    if requested is not None:
        return _validate(requested)
    env = _env_backend()
    if env is not None:
        return env
    return _default_backend
