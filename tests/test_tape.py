import numpy as np
import pytest

from umbilic import tape

U = np.linspace(0.1, 1.0, 7)
V = np.linspace(-1.0, 2.0, 7)


def checked_sqrt(a, b):
    # a domain check of the jets' kind: a reduction, then the call
    if np.any(~(a > 0.0)):
        raise ValueError("sqrt: argument outside domain")
    s = np.sqrt(a)
    return [s * b + 2.0 * s, np.float64(3.0), a, s / (1.0 + b * b)]


def test_replay_is_the_direct_computation_bit_for_bit():
    recorded = tape.record(checked_sqrt, U[:1], V[:1])
    for u, v in ((U, V), (U[:4] * 3.0, V[:4] - 0.5)):
        for got, want in zip(recorded.replay(u, v), checked_sqrt(u, v)):
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_buffers_are_shared_by_liveness_and_dead_calls_dropped():
    def fn(a, b):
        unused = np.exp(a)  # noqa: F841  read by nothing
        t = a * b
        return [(t + 1.0) * (t - 1.0)]

    recorded = tape.record(fn, U, V)
    assert recorded.n_ops == 4
    # t, then t + 1; t - 1 takes t's buffer, the product a factor's
    assert recorded.n_buffers == 2


def test_a_guard_that_disagrees_stops_the_replay():
    recorded = tape.record(checked_sqrt, U, V)
    assert recorded.replay(np.array([0.5, -0.25]), np.array([0.0, 1.0])) is None


@pytest.mark.parametrize(
    "fn",
    [
        lambda a, b: [a * np.ones(a.shape)],
        lambda a, b: [np.add(a, b, out=np.empty(a.shape))],
        lambda a, b: [np.add.accumulate(a)],
        lambda a, b: [np.ravel(a) + b],
        lambda a, b: [np.ones(a.shape)],
    ],
    ids=["unrecorded-operand", "out", "accumulate", "derived-view", "unrecorded-output"],
)
def test_untapeable_computations_are_refused(fn):
    assert tape.record(fn, U, V) is None
