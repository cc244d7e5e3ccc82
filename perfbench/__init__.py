"""KOKO query benchmark (see README.md)."""
