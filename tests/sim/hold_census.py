"""Counts, from outside the kernel, which arm each ``Resource.use`` took.

``grantless`` is the number of holds the production scheduler agreed to
start without a grant event (``Simulator._hold_unobserved`` returned a
timeout) and ``oracle_grantless`` the same for any subclass of it — the
heap-only oracle must never agree; ``requests`` is the number of
``Request`` objects constructed, ``WFQRequest`` included, and ``timeouts``
the number of ``Timeout`` objects the kernel constructed (a pooled object
is constructed once).
"""

from contextlib import contextmanager

from repro.sim import Simulator, engine
from repro.sim.resources import Request


@contextmanager
def hold_census():
    seen = {"grantless": 0, "oracle_grantless": 0, "requests": 0,
            "timeouts": 0}
    ask, init, timeout = (Simulator._hold_unobserved, Request.__init__,
                          engine.Timeout)

    def counting_ask(sim, delay):
        t = ask(sim, delay)
        if t is not None:
            seen["grantless" if type(sim) is Simulator
                 else "oracle_grantless"] += 1
        return t

    def counting_init(req, resource):
        seen["requests"] += 1
        init(req, resource)

    class CountedTimeout(timeout):
        # The kernel builds timeouts through its module's ``Timeout``.
        __slots__ = ()

        def __new__(cls, *args):
            seen["timeouts"] += 1
            return object.__new__(cls)

    Simulator._hold_unobserved, Request.__init__ = counting_ask, counting_init
    engine.Timeout = CountedTimeout
    try:
        yield seen
    finally:
        Simulator._hold_unobserved, Request.__init__ = ask, init
        engine.Timeout = timeout
