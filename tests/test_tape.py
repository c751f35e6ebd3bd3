import gc

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


def assert_replay_is_direct(recorded, fn, *inputs):
    for got, want in zip(recorded.replay(*inputs), fn(*inputs)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_a_repeated_call_is_recorded_once():
    def fn(a, b):
        # a * b + 1 and sin(a) twice each; the second 1.0 is another float
        # object with the same bits
        return [np.sin(a) * (a * b + 1.0), np.sin(a) + (a * b + float("1"))]

    recorded = tape.record(fn, U, V)
    # a * b, + 1.0, sin, the product and the sum
    assert recorded.n_ops == 5
    assert_replay_is_direct(recorded, fn, U * 2.0, V - 1.0)


def test_a_repeated_reduction_keeps_one_guard():
    def fn(a, b):
        if np.any(~(a > 0.0)) or np.any(~(a > 0.0)):
            raise ValueError("outside domain")
        return [np.sqrt(a) * b]

    recorded = tape.record(fn, U, V)
    assert sum(guard is not None for _, guard in recorded._flat.runs) == 1
    assert recorded.n_ops == 4  # a > 0, its inversion, sqrt, the product
    assert_replay_is_direct(recorded, fn, U + 1.0, V)
    assert recorded.replay(np.array([0.5, -0.25]), np.array([0.0, 1.0])) is None


def test_constants_of_other_sign_or_dtype_are_not_merged():
    def fn(a, b):
        return [a * 0.0, a * -0.0, a + 2, a + 2.0]

    recorded = tape.record(fn, U, V)
    assert recorded.n_ops == 4
    got = recorded.replay(-U, V)
    assert np.all(np.signbit(got[0])) and not np.any(np.signbit(got[1]))
    assert_replay_is_direct(recorded, fn, -U, V)


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


def lattice_fn(a, b):
    # u-only calls (sin, its square), a v-only guard and call, mixed calls
    # reading a u-only value twice and an input directly, and outputs that
    # are a constant, an input, a u-only value and a mixed one
    if np.any(~(b > -5.0)):
        raise ValueError("outside domain")
    s = np.sin(a)
    t = s * s
    w = np.exp(b) + 1.0
    m = t * w + s
    return [np.float64(3.0), a, t, m * b, m - t]


def test_broadcast_inputs_replay_as_the_flat_inputs_bit_for_bit():
    recorded = tape.record(lattice_fn, U[:1], V[:1])
    mixed = [m for _, m in recorded.calls]
    # sin, its square, b > -5, its inversion, exp, + 1 one input each; then
    # t * w, + s, * b and - t mixed
    assert mixed == [False] * 6 + [True] * 4
    u, v = U[:, None], V[None, :5]
    a, b = (x.ravel() for x in np.broadcast_arrays(u, v))
    got, want = recorded.replay(u, v), recorded.replay(a, b)
    assert got[0] is want[0]
    for x, y in zip(got[1:], want[1:]):
        assert x.shape == (7, 5) and x.tobytes() == y.tobytes()
    assert_replay_is_direct(recorded, lattice_fn, a, b)
    # the v-only guard disagrees on the lattice too
    assert recorded.replay(u, v - 10.0) is None


def traced_alive():
    return sum(isinstance(o, tape._Traced) for o in gc.get_objects())


def test_a_recording_is_freed_when_record_returns():
    # no recorded value outlives `record`, even with the cycle collector off
    # (counted against those alive before: numpy keeps a reference to the
    # operand of an accumulate that __array_ufunc__ refuses, as a refusal
    # test above makes; seen with numpy 2.4)
    gc.collect()
    gc.disable()
    try:
        before = traced_alive()
        tape.record(checked_sqrt, U, V)
        after = traced_alive()
    finally:
        gc.enable()
    assert after == before
