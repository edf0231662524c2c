"""Durable-state layer: checkpoint manifests (resume) and broadcast dims
(``broadcast.cached_get``)."""

from .manifest import run_with_manifest, completed_parts  # noqa: F401
