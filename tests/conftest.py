import errno
import os
from types import SimpleNamespace

import pytest


def _descriptors():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None  # Linux only


@pytest.fixture
def failing_fork(monkeypatch):
    """os.fork forks once and then raises EAGAIN, as under a process limit, without starting more processes.

    ``calls`` counts the forks asked for; ``check()`` asserts that since then every descriptor opened
    was closed (where ``/proc/self/fd`` exists) and every child was reaped.
    """
    fork, calls, before = os.fork, [], _descriptors()

    def limited():
        calls.append(None)
        if len(calls) > 1:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    def check():
        assert _descriptors() == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    monkeypatch.setattr(os, "fork", limited)
    return SimpleNamespace(calls=calls, check=check)
