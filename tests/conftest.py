from __future__ import annotations

from verdicts import VERDICTS  # importable as a plain module: tests/ is on pythonpath


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICTS:
            terminalreporter.write_line(line)
