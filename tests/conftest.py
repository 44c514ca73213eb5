import contextlib
import dataclasses
import os
import signal
import threading

import numpy as np
import pytest
from hypothesis import Phase, settings, strategies as st

from twomass.config import ControllerMode, SimulationConfig
from twomass.errors import ValidationError
from twomass.feedback import FunnelSpec
from twomass.plant import FrictionModel, OscillatorParams
from twomass.presets import DEFAULT_TRUE_PLANT, NOMINAL_PLANT, REFERENCE_TRAJECTORY

# the first 32 bytes of an x86-64 ELF executable: 0xc0 never starts UTF-8
NOT_UTF8 = bytes.fromhex(
    "7f454c46020101000000000000000000" "03003e0001000000c035000000000000"
)

# Property tests draw the same examples on every run and never time out, so
# the suite gives the same result each time; no example database is replayed.
# The explain phase is off: it traces every replayed call of a failing
# example, which turns a report of seconds into minutes; it changes no verdict.
settings.register_profile(
    "twomass",
    derandomize=True,
    deadline=None,
    database=None,
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
settings.load_profile("twomass")


# Wall seconds a test may run, about ten times the slowest one, so that a
# loop that never ends (a Newton iteration past its cap) fails its test
# instead of hanging the run.  It bounds the test's call and its function
# fixtures; a module-scoped fixture set up before it runs unbounded.
TIME_LIMIT = 60.0


class TimeLimitExceeded(BaseException):
    """A test ran past ``TIME_LIMIT``.

    Not an ``Exception``: hypothesis would catch one as the example's failure
    and replay the example, and ``pytest.raises(Exception)`` would take it.
    """


def _expire(signum, frame):
    raise TimeLimitExceeded(f"the test ran past its {TIME_LIMIT:g} s limit")


@pytest.fixture(autouse=True)
def time_limit():
    """Arms a ``TIME_LIMIT`` wall-clock alarm for the test, where ``setitimer`` exists."""
    if not hasattr(signal, "setitimer"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


_LABELLED = SimulationConfig(
    label="x", true_params=DEFAULT_TRUE_PLANT, nominal_params=NOMINAL_PLANT,
    trajectory=REFERENCE_TRAJECTORY, mode=ControllerMode.feedback_only(FunnelSpec(1.0, 0.1, 0.5)),
    control_frequency=1000.0, duration=1.0,
)


def _takes_label(text):
    """Whether a config takes ``text`` as its label: the package's own check decides."""
    try:
        dataclasses.replace(_LABELLED, label=text)
    except ValidationError:
        return False
    return True


def labels(max_size=None):
    """Labels that a config takes, of at most ``max_size`` characters.

    The header syntax characters that a label may hold are drawn often.
    """
    return st.text(st.characters() | st.sampled_from("=# "), min_size=1,
                   max_size=max_size).filter(_takes_label)


@pytest.fixture
def rig():
    """Identified rig constants, frictionless."""
    return NOMINAL_PLANT


@pytest.fixture
def rig_with_friction():
    return OscillatorParams(
        I1=NOMINAL_PLANT.I1,
        I2=NOMINAL_PLANT.I2,
        k=NOMINAL_PLANT.k,
        d=NOMINAL_PLANT.d,
        friction=FrictionModel(0.15),
    )


@pytest.fixture
def reference():
    return REFERENCE_TRAJECTORY


def assert_close(actual, expected, rel=1e-12, floor=1.0):
    """|actual - expected| <= rel * max(floor, |expected|), elementwise."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    bound = rel * np.maximum(floor, np.abs(expected))
    assert np.all(np.abs(actual - expected) <= bound), (
        f"max deviation {np.max(np.abs(actual - expected))} exceeds {np.max(bound)}"
    )


@contextlib.contextmanager
def piped(path):
    """A ``/dev/fd`` name for a pipe that a thread feeds with the bytes of ``path``.

    The pipe cannot seek, so a reader that opens the name twice drains it.
    """
    data = path.read_bytes()
    r, w = os.pipe()

    def feed():
        try:
            with open(w, "wb") as sink:
                sink.write(data)
        except BrokenPipeError:  # the reader stopped early
            pass

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)
        writer.join()
