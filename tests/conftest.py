"""Fixtures shared by the tier-1 test modules."""

import sys
import threading
import time

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
