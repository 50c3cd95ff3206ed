"""End-to-end benchmark of the moving-objects pipeline (see README.md)."""
