"""The serving runtime's import path for :mod:`repro.core.cache`."""

from repro.core.cache import ARTIFACT_SCHEMA, ArtifactCache

__all__ = ["ARTIFACT_SCHEMA", "ArtifactCache"]
