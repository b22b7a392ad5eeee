from __future__ import annotations

import sys
from pathlib import Path

# Make the oracle helpers importable as a plain module from any test file.
sys.path.insert(0, str(Path(__file__).resolve().parent))

from verdicts import VERDICTS  # noqa: E402


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICTS:
            terminalreporter.write_line(line)
