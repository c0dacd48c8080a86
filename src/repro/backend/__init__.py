"""The kernel seam (see docs/backends.md).

Every hot kernel call site resolves its kernel by attribute on
``active()`` *at call time*::

    from repro.backend import active

    r, dr = active().aa_row(soa, rk, lattice, k)

``get_backend()`` is the process's one :class:`NumpyBackend`;
``active()`` is that instance unless a ``use_backend(obj)`` block has
substituted a counting proxy or a test fake for it.  Wrapping a kernel
attribute on ``get_backend()`` itself (what ``benchmarks/e2e/spans.py``
does) is seen by every call site for the same reason.
"""

from contextlib import contextmanager

from repro.backend.base import KERNEL_NAMES

__all__ = ["KERNEL_NAMES", "active", "get_backend", "use_backend"]

# Built on first use: numpy_backend imports the spline modules, which
# import this package for ``active``.
_backend = None
_override = None


def get_backend():
    """The process singleton every kernel call dispatches through."""
    global _backend
    if _backend is None:
        from repro.backend.numpy_backend import NumpyBackend
        _backend = NumpyBackend()
    return _backend


def active():
    """The innermost ``use_backend`` substitute, else the singleton."""
    return _override if _override is not None else get_backend()


@contextmanager
def use_backend(backend):
    """Route every kernel call through ``backend`` — any object with a
    method per :data:`KERNEL_NAMES` entry — for the block; nests, and
    restores the previous one on exit or exception."""
    global _override
    previous = _override
    _override = backend
    try:
        yield backend
    finally:
        _override = previous
