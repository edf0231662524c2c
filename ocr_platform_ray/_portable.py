"""Ship this package by value inside Ray task/actor closures.

Ray workers inherit neither the driver's ``sys.path`` mutations nor its
cwd, so a driver that imported this package from a non-installed location
(the normal case for this repo) would hit ``ModuleNotFoundError`` inside
``map_batches`` workers.  Registering the package with cloudpickle's
pickle-by-value makes closures self-contained — the code rides along with
the task definition (cached per worker by Ray), no worker-side import
needed.  Registering the root package covers every submodule, imported
now or later: cloudpickle checks a module's parent package names too.
The package is small, so the per-closure cost is negligible at any scale.
"""

from __future__ import annotations


def ensure_portable() -> None:
    from ray import cloudpickle

    import ocr_platform_ray

    cloudpickle.register_pickle_by_value(ocr_platform_ray)
