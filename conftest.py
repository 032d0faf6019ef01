"""Repo-wide pytest setup: the per-test timeout fallback.

The robustness suite exercises retry loops, server threads, and killed
subprocesses, and a regression there hangs rather than fails.  When
pytest-timeout is installed (CI) it owns the ``timeout`` ini option;
otherwise the shim below registers the same option and enforces it with
``SIGALRM``, so a wedged test still dies with a clear error instead of
stalling the whole run.  It lives at the repo root so that ``tests/`` and
``benchmarks/`` runs both honour the option.
"""

from __future__ import annotations

import importlib.util
import signal
import threading

import pytest

_HAVE_PYTEST_TIMEOUT = importlib.util.find_spec("pytest_timeout") is not None

if not _HAVE_PYTEST_TIMEOUT:

    def pytest_addoption(parser: pytest.Parser) -> None:
        parser.addini(
            "timeout",
            "per-test timeout in seconds (SIGALRM fallback shim)",
            default="0",
        )

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(item: pytest.Item):
        seconds = float(item.config.getini("timeout") or 0)
        usable = (
            seconds > 0
            and hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread()
        )
        if not usable:
            return (yield)

        def _abort(signum, frame):
            raise TimeoutError(
                f"test exceeded the {seconds:g}s per-test timeout "
                "(SIGALRM fallback; install pytest-timeout for the real thing)"
            )

        previous = signal.signal(signal.SIGALRM, _abort)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return (yield)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
