"""End-to-end pipelines composed from stages/ and ops/."""
