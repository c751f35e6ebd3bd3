"""Record a numpy computation once as a flat list of ufunc calls; replay it.

Operator-overloading differentiation pays its interpretive cost on every
evaluation: each jet product re-checks which slots are scalar zeros or
ones, builds tuples and allocates fresh temporaries, only to make numpy
calls whose list depends on nothing but the chart and the jet order. A
tape records that list once and replays it (Griewank & Walther, *Evaluating
Derivatives*, 2008, ch. 6).

`record(fn, *inputs)` runs fn on 1-D arrays wrapped in an ndarray subclass
whose `__array_ufunc__` computes each real result, logs the ufunc and its
operands (earlier values or scalar constants) and returns the result
wrapped again. A reduction becomes a guard holding its recorded outcome. A
call repeated on the same values and constants returns the earlier result
(value numbering; an add or a multiply in either operand order), so
repeated work, such as a subexpression two chart
components share, is recorded once and a repeated reduction keeps one
guard. The returned `Tape` drops the calls no output or guard reads and
gives each value a buffer, which a later value takes over after the
value's last read; outputs keep theirs. `Tape.replay(*inputs)` runs the
calls in the recorded order with `ufunc(*operands, out)`, so every value
is bit-identical to the direct computation, and at most as many batch
arrays are alive as values were at once. It returns None when a guard
disagrees; the caller then computes that batch directly.

A replay binds the schedule to buffers allocated for its input shapes,
each call a ufunc and an operand tuple ending in its out buffer
(`Tape._bind`), copies the inputs in, runs the calls, checks the guards
and returns the bound output buffers. Outside a batch loop every replay
binds afresh, so its outputs belong to the caller. Inside `reusing()`, a
batch loop's scope, the latest binding serves the next replay of the same
tape at the same shapes, so a replay's outputs stay valid until the next
replay; leaving the loop frees the binding. Binding once per loop saves
rebuilding operand lists per call and allocating every buffer per batch
(a CHUNK-node float64 buffer sits at glibc's mmap threshold, so each fresh
one page-faults again).

A call whose value depends on one input only is a one-input call; the
others are mixed (`Tape.calls`). Inputs of one shape replay every call at
that shape. Inputs that broadcast, such as a lattice's column of u (R, 1)
and row of v (1, C), replay each one-input call at its input's shape, R
or C values, and each mixed call at the broadcast shape, R * C. A
one-input value is copied to the broadcast shape once, where a mixed
call, a guard or an output first reads it, so every mixed call runs on
contiguous operands of one shape (numpy broadcasting a stride-0 operand
inside the call is slower than the copy). The tape keeps its recorded
steps and derives the lattice schedule from them on its first use, so a
tape that only replays flat batches never builds one. numpy's elementwise
ufuncs give an element the same bits at any length, offset or stride of
the array holding it (the tests compare both schedules with the direct
computation bit for bit).

fn is refused (`record` returns no tape) when the recording meets a
batch-shaped array it did not record, an `out=` argument, or a ufunc
method other than a call or a reduction to a scalar, or when fn raises
`Refused` itself (`recording` tells it whether it runs on recorded
values).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import partial
from typing import NamedTuple

import numpy as np


class Refused(Exception):
    """The computation reads something a tape cannot replay."""


class _Traced(np.ndarray):
    """A recorded value: a real result that knows its recorder and its
    slot there. Views derived by other means than a ufunc call have
    neither."""

    _rec = None
    _slot = None

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if self._rec is None:
            raise Refused("a view of a recorded value")
        return self._rec.call(ufunc, method, inputs, kwargs)

    # the arithmetic operators make the call numpy's would, without its
    # dispatch: most of a recording's calls come from them
    def _binary(ufunc):
        def op(self, other):
            return self.__array_ufunc__(ufunc, "__call__", self, other)

        def rop(self, other):
            return self.__array_ufunc__(ufunc, "__call__", other, self)

        return op, rop

    __add__, __radd__ = _binary(np.add)
    __sub__, __rsub__ = _binary(np.subtract)
    __mul__, __rmul__ = _binary(np.multiply)
    __truediv__, __rtruediv__ = _binary(np.true_divide)
    del _binary

    def __neg__(self):
        return self.__array_ufunc__(np.negative, "__call__", self)


class _Recorder:
    def __init__(self, shape):
        self.shape = shape
        self.steps = []  # (ufunc, operands, slot) or (ufunc, kwargs, slot, outcome)
        self.dtypes = []  # per slot
        self.values = []  # per slot, the plain array
        self.seen = {}  # call key -> its result or outcome

    def wrap(self, array):
        traced = array.view(_Traced)
        traced._rec = self
        traced._slot = len(self.dtypes)
        self.dtypes.append(array.dtype)
        self.values.append(array)
        return traced

    def operand(self, x):
        """x as (slot, None) for a recorded value, (None, x) for a constant."""
        if isinstance(x, _Traced):
            if x._rec is not self:
                raise Refused("a value this tape did not record")
            return x._slot, None
        if isinstance(x, np.ndarray) and x.ndim:
            raise Refused("an array the tape did not record")
        return None, x

    def call(self, ufunc, method, inputs, kwargs):
        if kwargs:
            out = kwargs.pop("out", None)
            if out is not None and any(x is not None for x in (out if isinstance(out, tuple) else (out,))):
                raise Refused("an out= argument")
        operands = [self.operand(x) for x in inputs]
        # value numbering: a repeat of an earlier call (same slots, equal
        # constants) returns its result
        args = [s if s is not None else _constant_key(c) for s, c in operands]
        if ufunc in _COMMUTATIVE and method == "__call__" and _swapped(*args):
            args.reverse()
        key = (ufunc, method, tuple(sorted(kwargs.items())) if kwargs else (), *args)
        seen = self.seen.get(key)
        if seen is not None:
            return seen
        values = self.values
        result = getattr(ufunc, method)(*[c if s is None else values[s] for s, c in operands], **kwargs)
        if method == "reduce" and np.ndim(result) == 0:
            self.steps.append((ufunc, kwargs, operands[0][0], result))
            self.seen[key] = result
            return result
        if method != "__call__" or kwargs or ufunc.nout != 1 or result.shape != self.shape:
            raise Refused(f"{ufunc.__name__}.{method}")
        traced = self.seen[key] = self.wrap(result)
        self.steps.append((ufunc, operands, traced._slot))
        return traced


# IEEE add and multiply commute bit for bit, so b * a is a repeat of a * b.
# maximum and minimum do not: np.maximum(-0.0, 0.0) is 0.0 and
# np.maximum(0.0, -0.0) is -0.0
_COMMUTATIVE = (np.add, np.multiply)


def _swapped(a, b):
    """Two operand keys (a slot or a constant's key) out of their canonical
    order: slots ascending, a constant after a slot."""
    return type(b) is int and (type(a) is not int or b < a)


def _constant_key(c):
    """c as a value-numbering key: equal keys mean bit-identical constants of
    one type, so 0.0 and -0.0, or 2 and 2.0, never merge. Python and NumPy
    floats and Python ints key on their value (with the sign apart, as 0.0
    == -0.0); anything else on its dtype and bytes."""
    if isinstance(c, float):
        return type(c), c, math.copysign(1.0, c)
    if type(c) is int:
        return int, c
    a = np.asarray(c)
    return type(c), a.dtype.str, a.tobytes()


def recording(x) -> bool:
    """x is a value a recording is making."""
    return isinstance(x, _Traced)


def record(fn, *inputs):
    """The Tape of one run of fn on the equal-shaped 1-D float arrays
    `inputs`, or None when fn cannot be taped; fn returns a list of arrays
    and scalars. Recording costs Python work per call, not per node, so a
    one-node batch records as well as a full one."""
    rec = _Recorder(inputs[0].shape)
    try:
        outputs = [rec.operand(x) for x in fn(*(rec.wrap(np.asarray(x)) for x in inputs))]
    except Refused:
        return None
    finally:
        # each recorded value points at rec, and rec.seen back at it: clear
        # the cycle so the recording is freed now, not at the next collection
        rec.seen.clear()
    return Tape(rec, len(inputs), outputs)


class _Plan(NamedTuple):
    """One replay schedule: runs of (fn, operands, out buffer) calls, each
    run ended by a guard (ufunc, kwargs, buffer, outcome) or None after
    the last; each allocated buffer's (dtype, input), input None for the
    broadcast shape; and the outputs."""

    runs: list
    buffers: list
    outputs: list


def _broadcast(x, out):
    """The one call a tape adds: x copied to the broadcast shape of out."""
    np.copyto(out, x)


def _plan(steps, outputs, n_inputs, kind) -> _Plan:
    """Buffers by liveness for steps (calls and guards over slots) and the
    outputs; kind(slot) is the (dtype, input) a value's buffer has.

    A value's buffer is freed after its last read and taken by a later
    value of its kind, which may be the call reading it (an elementwise
    ufunc may write over its operand); inputs and outputs are never freed.
    """

    def reads(step):
        return [step[2]] if len(step) == 4 else [s for s, _ in step[1] if s is not None]

    last = {s: i for i, step in enumerate(steps) for s in reads(step)}
    last.update((slot, len(steps)) for slot, _ in outputs)
    buffer_of = {None: None, **{s: s for s in range(n_inputs)}}
    free, buffers, runs, calls = {}, [], [], []
    for i, step in enumerate(steps):
        for s in reads(step):
            if last[s] == i and s >= n_inputs:
                last[s] = None  # a value read twice by one call is freed once
                free[kind(s)].append(buffer_of[s])
        if len(step) == 4:
            ufunc, kwargs, slot, outcome = step
            runs.append((calls, (ufunc, kwargs, buffer_of[slot], outcome)))
            calls = []
            continue
        fn, operands, slot = step
        pool = free.setdefault(kind(slot), [])
        if pool:
            buffer_of[slot] = pool.pop()
        else:
            buffer_of[slot] = n_inputs + len(buffers)
            buffers.append(kind(slot))
        calls.append((fn, [(buffer_of[s], c) for s, c in operands], buffer_of[slot]))
    runs.append((calls, None))
    return _Plan(runs, buffers, [(buffer_of[s], c) for s, c in outputs])


class _Binding(NamedTuple):
    """A schedule over buffers allocated once, for one tape and one tuple of
    input shapes: the input buffers; runs of (fn, operand tuple) calls, the
    out buffer last, each run ended by a guard (reduce, buffer, kwargs,
    outcome) or None after the last; and the outputs."""

    tape: object
    shapes: tuple
    inputs: list
    runs: list
    outputs: list


# the binding the innermost batch loop keeps (`reusing`): None outside one,
# else a one-item list holding its latest binding, or None before its first
_loop = None


@contextmanager
def reusing():
    """A batch loop's scope: inside, a replay of the same tape at the same
    input shapes as the latest replay runs on that replay's binding, so a
    replay's outputs stay valid only until the next replay; another tape
    or other shapes replace the binding. Leaving frees the binding (its
    last outputs then belong to the caller) and restores an outer scope's."""
    global _loop
    outer, _loop = _loop, [None]
    try:
        yield
    finally:
        _loop = outer


class Tape:
    """The recorded calls that reach an output or a guard, each value
    assigned a buffer by liveness.

    Buffers 0 .. n_inputs - 1 are the inputs; each later one holds every
    value assigned to it in turn. Inputs that broadcast replay the lattice
    schedule, derived from the kept steps on first use.
    """

    def __init__(self, rec: _Recorder, n_inputs: int, outputs):
        # keep the guards and the calls whose value something kept reads;
        # a step reads a call's value operands or a guard's input
        live = {slot for slot, _ in outputs}
        kept = []
        for step in reversed(rec.steps):
            guard = len(step) == 4
            if not guard and step[2] not in live:
                continue
            live.update([step[2]] if guard else [s for s, _ in step[1] if s is not None])
            kept.append(step)
        kept.reverse()
        dtypes = rec.dtypes
        self._steps, self._dtypes, self._outputs, self._n = kept, dtypes, outputs, n_inputs
        self._flat = _plan(kept, outputs, n_inputs, lambda s: (dtypes[s], None))
        self._lattice = None
        self.n_ops = sum(len(step) == 3 for step in kept)
        self.n_buffers = len(self._flat.buffers)

    @property
    def calls(self):
        """Each kept call as (ufunc, mixed), in order: mixed when its value
        depends on more than one input, so it runs at the broadcast shape."""
        runs, buffers, _ = self._lattice_schedule()
        return [(fn, buffers[out - self._n][1] is None)
                for calls, _ in runs for fn, _, out in calls if fn is not _broadcast]

    def _lattice_schedule(self) -> _Plan:
        """The schedule in which the inputs replay at their own shapes: a
        value that depends on one input alone is computed at that input's
        shape and copied to the batch shape once, before the first mixed
        call, guard or output that reads it. Every other value is computed
        at the batch shape."""
        if self._lattice is not None:
            return self._lattice
        steps, dtypes, n = self._steps, list(self._dtypes), self._n
        # per slot, the one input it depends on, or None
        home = {s: s for s in range(n)}
        for step in steps:
            if len(step) == 3:
                homes = {home[s] for s, _ in step[1] if s is not None}
                home[step[2]] = homes.pop() if len(homes) == 1 else None
        split, wide = [], {}

        def full(s):
            # s as read at the batch shape; its copy is put in place before
            # the step that reads it
            if s is None or home[s] is None:
                return s
            if s not in wide:
                w = wide[s] = len(dtypes)
                dtypes.append(dtypes[s])
                home[w] = None
                split.append((_broadcast, [(s, None)], w))
            return wide[s]

        for step in steps:
            if len(step) == 4:
                ufunc, kwargs, slot, outcome = step
                step = (ufunc, kwargs, full(slot), outcome)
            elif home[step[2]] is None:
                fn, operands, slot = step
                step = (fn, [(full(s), c) for s, c in operands], slot)
            split.append(step)
        outputs = [(full(s), c) for s, c in self._outputs]
        self._lattice = _plan(split, outputs, n, lambda s: (dtypes[s], home[s]))
        return self._lattice

    def _bind(self, shapes) -> _Binding:
        """The schedule for inputs of these shapes over buffers allocated
        here: inputs of one shape take the flat schedule, inputs that
        broadcast the lattice one."""
        n = self._n
        runs, buffers, outputs = self._lattice_schedule() if len(set(shapes)) > 1 else self._flat
        shape = np.broadcast_shapes(*shapes)
        bufs = [*(np.empty(s, self._dtypes[i]) for i, s in enumerate(shapes)),
                *(np.empty(shape if i is None else shapes[i], dtype) for dtype, i in buffers)]

        def bound(b, c):
            return c if b is None else bufs[b]

        def call(fn, operands, out):
            args = tuple(bound(b, c) for b, c in operands)
            # a positional out is faster than out=, but numpy 2.4 deprecates
            # it for these two
            if fn is np.maximum or fn is np.minimum:
                return partial(fn, out=bufs[out]), args
            return fn, (*args, bufs[out])

        return _Binding(self, shapes, bufs[:n], [
            ([call(*c) for c in calls],
             guard and (guard[0].reduce, bufs[guard[2]], guard[1], guard[3]))
            for calls, guard in runs
        ], [bound(b, c) for b, c in outputs])

    def _binding(self, shapes) -> _Binding:
        """A fresh binding outside `reusing`; inside, the loop's binding,
        replaced unless it is this tape's at these shapes."""
        loop = _loop
        if loop is None:
            return self._bind(shapes)
        kept = loop[0]
        if kept is None or kept.tape is not self or kept.shapes != shapes:
            loop[0] = kept = None  # freed before the next is allocated
            loop[0] = kept = self._bind(shapes)
        return kept

    def replay(self, *inputs):
        """The outputs for inputs of the recorded kind, or None where a guard
        disagrees. Inputs of one shape replay the recorded calls as they
        are. Inputs that broadcast (a column of u and a row of v) compute
        each one-input call at its input's shape and each mixed call at
        the broadcast shape, which every output has. Outside `reusing` the
        outputs belong to the caller; inside, they are the loop binding's
        buffers, which the next replay writes over."""
        binding = self._binding(tuple(np.shape(x) for x in inputs))
        for buffer, x in zip(binding.inputs, inputs):
            np.copyto(buffer, x)
        for calls, guard in binding.runs:
            for fn, operands in calls:
                fn(*operands)
            if guard is not None:
                reduce, buffer, kwargs, outcome = guard
                if reduce(buffer, **kwargs) != outcome:
                    return None
        return list(binding.outputs)
