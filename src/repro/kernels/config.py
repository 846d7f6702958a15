"""The test hook that routes the kernel layer to its reference loops.

Every dispatching kernel picks its implementation from its operands
alone (the min-plus product by the finite fraction of ``s``).  The one
other route is :func:`force_backend` with ``"reference"``: inside the
``with`` block every kernel and every batched construction runs the
original Python-loop implementations, which the fast paths must match
bit-for-bit (see DESIGN.md).  :func:`reference_forced` is the predicate
the dispatchers read.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["force_backend", "reference_forced"]

_reference_forced = False


@contextmanager
def force_backend(name: str) -> Iterator[None]:
    """Run every kernel dispatch on the ``reference`` loops inside the
    ``with`` block.  ``name`` must be ``"reference"``.  Process-global:
    do not nest from concurrent threads."""
    if name != "reference":
        raise ValueError(f"unknown backend {name!r}; only 'reference' can be forced")
    global _reference_forced
    prev = _reference_forced
    _reference_forced = True
    try:
        yield
    finally:
        _reference_forced = prev


def reference_forced() -> bool:
    """Whether a :func:`force_backend` block is active."""
    return _reference_forced
