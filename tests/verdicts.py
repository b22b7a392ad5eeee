"""Verdict lines recorded by the acceptance tests.

``conftest.py`` echoes them after the run so they survive output capture.
They live in a module of their own because the name ``conftest`` is shared
with ``bench/conftest.py`` when both directories are collected together.
"""

VERDICTS: list[str] = []
