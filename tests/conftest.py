import signal

import pytest
from hypothesis import HealthCheck, settings

from plethax import LabelledAbacus, Partition

settings.register_profile(
    "package",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("package")

# Each test's wall-time limit, in seconds.  The slowest test takes about 4 s,
# so a test past this is stuck, as a strip search without its collision
# filter is, and it fails by name instead of stalling the run.
TEST_TIME_LIMIT = 30


class TimeLimitExceeded(BaseException):
    """A test ran past TEST_TIME_LIMIT.  Hypothesis shrinks on Exception,
    SystemExit, GeneratorExit and pytest's Failed, and this is none of
    them, so a stuck property test stops at once instead of shrinking."""


def _time_out(signum, frame):
    raise TimeLimitExceeded(f"test ran past {TEST_TIME_LIMIT} s")


@pytest.fixture(autouse=True)
def time_limit():
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def abacus_533221():
    """Six beads on slots 1,3,4,6,7,10: shape (5,3,3,2,2,1), sign +1."""
    return LabelledAbacus((0, 4, 0, 2, 5, 0, 1, 6, 0, 0, 3))


@pytest.fixture
def abacus_sign_example():
    """Six beads with sigma = (1 2 3)(5 6), sign -1."""
    return LabelledAbacus((5, 0, 6, 4, 1, 0, 0, 3, 0, 2))


@pytest.fixture
def chain_endpoints():
    """Inner and outer shapes joined by three strips of size 5."""
    return Partition((5, 3, 3, 2, 2, 1)), Partition((8, 6, 6, 5, 5, 1))


@pytest.fixture
def checked_partitions(monkeypatch):
    """The parts of every Partition built through the checking __init__
    from here on in the test, in order."""
    seen = []
    init = Partition.__init__

    def counting(self, parts=()):
        init(self, parts)
        seen.append(self.parts)

    monkeypatch.setattr(Partition, "__init__", counting)
    return seen
