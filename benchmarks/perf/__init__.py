"""The repository's re-runnable performance benchmark (see README.md)."""
