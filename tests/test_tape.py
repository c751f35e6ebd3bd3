import gc

import numpy as np
import pytest

from umbilic import tape
from umbilic.quadrature import _masked

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


def test_a_value_of_another_recording_is_refused():
    # a value kept from one recording and read by the next, on either side
    # of a call, is no slot of the second tape
    kept = []

    def keep(a, b):
        kept.append(a * 2.0)
        return [kept[0]]

    assert tape.record(keep, U, V) is not None
    assert tape.record(lambda a, b: [a + kept[0]], U, V) is None
    assert tape.record(lambda a, b: [kept[0] * b], U, V) is None
    with pytest.raises(tape.Refused, match="a value this tape did not record"):
        tape._Recorder(U.shape).operand(kept[0])


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


def test_add_and_multiply_are_numbered_up_to_operand_order():
    # IEEE add and multiply commute bit for bit; maximum does not (on -0.0
    # and 0.0 its result depends on the order), so its two calls stay
    def fn(a, b):
        return [a * b + b * a, 2.0 * a + a * 2.0, np.maximum(a, b), np.maximum(b, a)]

    recorded = tape.record(fn, U, V)
    ops = [step[0] for step in recorded._steps]
    assert ops.count(np.multiply) == 2  # a * b and a * 2.0
    assert ops.count(np.add) == 2
    assert ops.count(np.maximum) == 2
    assert_replay_is_direct(recorded, fn, -U, V)
    zeros = np.array([-0.0, 0.0]), np.array([0.0, -0.0])
    got = recorded.replay(*zeros)
    assert got[2].tobytes() == np.maximum(*zeros).tobytes()
    assert got[3].tobytes() == np.maximum(*zeros[::-1]).tobytes()


def step_keys(recorded):
    """A tape's kept steps, comparable across recordings: each constant
    as its value-numbering key, a guard's outcome as its bytes."""
    keys = []
    for step in recorded._steps:
        if len(step) == 4:
            ufunc, kwargs, slot, outcome = step
            keys.append((ufunc, repr(sorted(kwargs.items())), slot, np.asarray(outcome).tobytes()))
        else:
            ufunc, operands, slot = step
            keys.append((ufunc, tuple(s if c is None else tape._constant_key(c)
                                      for s, c in operands), slot))
    return keys


@pytest.mark.parametrize("name, order, kernel", [
    ("torus", 4, "residuals"), ("ellipsoid_rev", 3, "region"),
])
def test_the_operator_fast_path_records_numpys_steps(name, order, kernel, monkeypatch):
    # an operator on two values of one recording takes `_Recorder.pair`;
    # numpy's own dispatch of the operators, through `__array_ufunc__` and
    # `_Recorder.call`, records the same steps: 2,668 for the order-4
    # residuals tape on the torus, 522 for the order-3 region tape
    from umbilic import geometry
    from umbilic import quadrature as q
    from umbilic.surfaces import preset

    def recorded():
        spec = preset(name)
        u, v = np.array([0.3]), np.array([0.7])
        if kernel == "residuals":
            geometry.residual_norms(spec, u, v)
        else:
            geometry._nodes(spec, order, u, v, classify=True, densities=q._REGION_FIELDS)
        (got,) = spec.tapes.values()
        return step_keys(got)

    calls = []
    pair = tape._Recorder.pair
    monkeypatch.setattr(tape._Recorder, "pair", lambda *args: calls.append(1) or pair(*args))
    fast = recorded()
    assert len(fast) == {"residuals": 2668, "region": 522}[kernel]
    assert len(calls) > len(fast) / 2
    for op in ("add", "sub", "mul", "truediv"):
        for side in ("", "r"):
            monkeypatch.delattr(tape._Traced, f"__{side}{op}__")
    calls.clear()
    assert recorded() == fast
    assert not calls


def test_a_batch_loop_replays_as_fresh_replays_bit_for_bit():
    # inside the scope a binding serves the next replay of its tape and
    # shapes; another tape or other shapes replace it. Every replay's
    # outputs, copied at once, are those of a replay outside the scope
    a = tape.record(checked_sqrt, U[:1], V[:1])
    b = tape.record(lattice_fn, U[:1], V[:1])
    calls = [(a, U, V), (b, U, V), (a, U * 2.0, V), (a, U[:4], V[:4]), (a, U, V + 1.0),
             (a, U[:4] + 1.0, V[:4]), (b, U[:, None], V[None, :5]), (b, U, V - 1.0)]
    with tape.reusing():
        got = [[np.array(x) for x in recorded.replay(*inputs)] for recorded, *inputs in calls]
    for outputs, (recorded, *inputs) in zip(got, calls):
        for x, y in zip(outputs, recorded.replay(*inputs)):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_a_batch_loop_keeps_one_binding_per_tape_and_shapes(monkeypatch):
    recorded = tape.record(checked_sqrt, U[:1], V[:1])
    binds = []
    bind = tape.Tape._bind
    monkeypatch.setattr(tape.Tape, "_bind", lambda self, shapes: binds.append(shapes) or bind(self, shapes))
    with tape.reusing():
        first = recorded.replay(U, V)
        second = recorded.replay(U + 1.0, V)
        assert first[0] is second[0]  # the same buffer, written over
        recorded.replay(U[:3], V[:3])
        recorded.replay(U[:3], V[:3])
    assert binds == [((7,), (7,)), ((3,), (3,))]
    # outside the scope every replay binds afresh and owns its outputs
    first = recorded.replay(U, V)
    kept = np.array(first[0])
    recorded.replay(U + 1.0, V)
    assert first[0].tobytes() == kept.tobytes()
    assert len(binds) == 4


def test_a_guard_that_disagrees_in_a_batch_loop_spares_the_next_batch():
    recorded = tape.record(checked_sqrt, U[:1], V[:1])
    with tape.reusing():
        recorded.replay(U, V)
        assert recorded.replay(-U, V) is None
        assert_replay_is_direct(recorded, checked_sqrt, U + 0.5, V)


def test_nested_batch_loops_restore_the_outer_binding():
    recorded = tape.record(checked_sqrt, U[:1], V[:1])
    assert tape._loop is None
    with tape.reusing():
        outer = recorded.replay(U, V)[0]
        binding = tape._loop[0]
        with tape.reusing():
            assert tape._loop == [None]
            inner = recorded.replay(U, V)[0]
            assert inner is not outer
            kept = np.array(inner)
        assert tape._loop[0] is binding
        assert recorded.replay(U + 1.0, V)[0] is outer
        # the inner loop's last outputs are its caller's now
        assert inner.tobytes() == kept.tobytes()
    assert tape._loop is None


# -- masked node sets -----------------------------------------------------------------


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        x, y = np.asarray(x), np.asarray(y)
        assert (x.dtype, x.shape) == (y.dtype, y.shape) and x.tobytes() == y.tobytes()


def masked(u, v, mask):
    """The nodes of the lattice of axes u and v where the 2-D mask holds, as
    the quadrature's flat node arrays."""
    return _masked(u[:, None], v[None, :], mask)


def scattered(nu, nv):
    """A mask that misses a third of every row and of every column, so it is
    no product of rows and columns."""
    return np.add.outer(np.arange(nu), 2 * np.arange(nv)) % 3 != 0


@pytest.mark.parametrize("u, v, mask", [
    (U, V[:5], scattered(7, 5)),
    # one row of the lattice, two of its nodes left out
    (U[3:4], V, np.array([[True, False, True, True, False, True, True]])),
    # -0.0 and 0.0 as separate rows and columns: sin keeps the sign of a zero
    (np.array([0.0, -0.0, 0.5]), np.array([-0.0, 1.5, 0.0]), scattered(3, 3)),
    (U, V, np.ones((7, 7), dtype=bool)),
], ids=["scattered", "one-row", "signed-zeros", "every-node"])
def test_masked_inputs_replay_as_the_lattice_bit_for_bit(u, v, mask):
    # the masked nodes of a lattice, as flat arrays, replay on the flat
    # schedule: every output holds the bits of the lattice replay at those
    # nodes and of the direct computation on them
    recorded = tape.record(lattice_fn, U[:1], V[:1])
    a, b = masked(u, v, mask)
    got = recorded.replay(a, b)
    lattice = recorded.replay(u[:, None], v[None, :])
    assert all(np.shape(x) == (mask.sum(),) for x in got[1:])
    assert_same_bits(got[1:], [np.broadcast_to(x, mask.shape)[mask] for x in lattice[1:]])
    assert_same_bits(got, lattice_fn(a, b))


def test_a_guard_reads_only_the_masked_nodes():
    # lattice_fn's guard on v: a failing column the mask leaves out leaves
    # the replay whole, and a node of it that the mask keeps stops it
    recorded = tape.record(lattice_fn, U[:1], V[:1])
    v = np.array([0.5, -10.0, 1.5])
    assert recorded.replay(U[:, None], v[None, :]) is None
    mask = np.zeros((7, 3), dtype=bool)
    mask[:, [0, 2]] = scattered(7, 2)
    assert_same_bits(recorded.replay(*masked(U, v, mask)), lattice_fn(*masked(U, v, mask)))
    mask[5, 1] = True
    assert recorded.replay(*masked(U, v, mask)) is None


def test_an_empty_masked_batch_gives_empty_outputs():
    recorded = tape.record(lattice_fn, U[:1], V[:1])
    a, b = masked(U[:3], V[:2], np.zeros((3, 2), dtype=bool))
    got = recorded.replay(a, b)
    assert all(np.shape(x) == (0,) for x in got[1:])
    assert_same_bits(got, lattice_fn(a, b))
