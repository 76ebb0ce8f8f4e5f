"""The BLAS thread policy, applied once when :mod:`repro` is imported.

The paper's exact solver spends its time on small dense problems — a QZ on a
``2s x 2s`` pencil, then one ``s x s`` LU per eigenvalue — where OpenBLAS
threads cost more than they save: on a 2-CPU host one ``N = 14`` solve
takes 1.7 s with two threads and 0.46 s with one.  numpy and scipy wheels
each bundle their own OpenBLAS with its own thread pool, so the policy finds
both through ``ctypes`` and sets each to one thread.

``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` are the override: when
either is set, the libraries keep the count they read from it.  A numpy or
scipy without a bundled OpenBLAS in ``<site-packages>/<package>.libs`` (MKL,
a system BLAS, a non-Linux wheel) is left alone.  Shard
workers and process-pool children import :mod:`repro`, so they run under the
same policy.  :func:`blas_record` reports the setting per library, for
``/healthz``, ``/stats`` and ``repro top``.
"""

from __future__ import annotations

import ctypes
import glob
import os
from collections.abc import Callable

#: The variables OpenBLAS reads its thread count from; either one overrides.
OVERRIDE_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

#: package name -> (library file, its thread-count getter, source).
_MANAGED: dict[str, tuple[str | None, Callable[[], int] | None, str]] = {}


def _bundled_openblas(
    package_file: str, package: str
) -> tuple[str, Callable[[int], None], Callable[[], int]]:
    """The OpenBLAS a numpy/scipy wheel ships in ``<site-packages>/<package>.libs``
    and its thread-count setter and getter; raises :class:`LookupError` when
    there is none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(package_file)), f"{package}.libs")
    paths = sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so")))
    if not paths:
        raise LookupError(f"{package} bundles no OpenBLAS")
    name = os.path.basename(paths[0])
    suffix = "64_" if "openblas64_" in name else ""
    try:
        lib = ctypes.CDLL(paths[0])
        setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
    except (OSError, AttributeError) as exc:
        raise LookupError(f"{name}: {exc}") from exc
    setter.argtypes, setter.restype = [ctypes.c_int], None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return name, setter, getter


def apply_thread_policy() -> None:
    """Set every bundled OpenBLAS to one thread unless the environment chose."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401 - loads scipy's OpenBLAS before it is looked up

    source = "env" if any(os.environ.get(name) for name in OVERRIDE_VARIABLES) else "policy"
    for package in (numpy, scipy):
        try:
            name, setter, getter = _bundled_openblas(package.__file__ or "", package.__name__)
        except LookupError:
            _MANAGED[package.__name__] = (None, None, "unmanaged")
            continue
        if source == "policy":
            setter(1)
        _MANAGED[package.__name__] = (name, getter, source)


def blas_record() -> dict[str, dict[str, object]]:
    """Per package: its OpenBLAS ``library``, live ``threads`` and ``source``.

    ``source`` is ``"policy"`` (set to one thread here), ``"env"`` (left at
    the count ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS`` gave) or
    ``"unmanaged"`` (no bundled OpenBLAS; ``library``/``threads`` are null).
    """
    return {
        package: {
            "library": library,
            "threads": getter() if getter is not None else None,
            "source": source,
        }
        for package, (library, getter, source) in _MANAGED.items()
    }
