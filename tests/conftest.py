"""Fixtures shared by the tier-1 test modules."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest


@pytest.fixture
def preempt_often():
    """Switch threads often and at fine grain for the test's duration.

    Lowers the interpreter's switch interval to 1 µs, and returns a
    function that, called with function names before the test starts
    its threads, makes those threads give up the interpreter lock
    before every line of the named functions. CPython otherwise
    switches threads only at calls and backward jumps, so a race
    between two lines of a short method body is almost never reached.
    Both settings are restored in a ``finally`` when the test ends.
    """

    def yield_within(*names):
        def tracer(frame, event, arg):
            if frame.f_code.co_name not in names:
                return None
            if event == "line":
                time.sleep(0)
            return tracer

        threading.settrace(tracer)

    previous_trace = threading.gettrace()
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield yield_within
    finally:
        threading.settrace(previous_trace)
        sys.setswitchinterval(previous_interval)


@pytest.fixture(scope="session")
def processes_on_threads():
    """A context-manager factory: inside it, the process pools of
    ``repro.engine.pool`` run on threads.

    For tests that must fan out without forking: the mapped function
    is a lambda or closure that cannot be pickled, or a hypothesis
    loop forks too often to run in tier-1's time. Session-scoped and
    stateless, so a hypothesis test can enter it once per example.
    """
    return lambda: mock.patch(
        "repro.engine.pool.ProcessPoolExecutor", ThreadPoolExecutor
    )


@pytest.fixture
def thread_pool(processes_on_threads):
    """Run the test with ``repro.engine.pool``'s process pools on
    threads (see :func:`processes_on_threads`)."""
    with processes_on_threads():
        yield
