"""Two-core training: a forked worker takes half of every step of
``fit``, with results identical to one process's.

**The worker.**  :class:`Worker` serves commands in a forked child;
:class:`HalfBatchWorker` adds the training state and its commands.

**The batch.**  The gradient of a batch ``((l1 + l2) + ...) * (1/n)``
reaches each parameter as a sequence of contributions: all of ``l1``'s,
then all of ``l2``'s, and so on, because the reverse pass handles one
snippet's subgraph after the other.  Folding that sequence onto ``grad``
one contribution at a time is what :func:`tensor.backward` does.  The
worker computes the first ``n // 2`` snippets and folds their
contributions from nothing; the parent computes the rest.

**The fold and the step, by halves.**  Each process owns a fixed half of
the parameters, balanced by element count (:func:`split_halves`).  The
parent's reverse pass writes each contribution to a worker-owned parameter,
in order, to a shared fold buffer (a ``memfd`` that grows as it is written)
and holds the ones to its own half.  Once the worker's sums are in, each
process folds the parent's contributions to its own half onto them, in
place, and checks its half for non-finite values; when both halves are
finite, each steps its half with its own optimizer.  Every addition and
every update is the one a single process makes, so the parameters are the
same to the last bit, and each process keeps optimizer state for its own
half only.

**Validation** is split by snippets: the worker computes the values of the
first half, the parent those of the rest, and the parent joins them in
order.

Two processes only pay off with one BLAS thread each (with two threads
apiece they oversubscribe two cores), so the worker is used only inside
:func:`one_blas_thread`.
"""

from __future__ import annotations

import contextlib
import ctypes
import mmap
import os
import pickle
import signal
import traceback
from collections import deque
from typing import Callable, Iterator, Sequence

import numpy as np

from .nn import Parameter
from .optim import Adam

# (getter, setter) symbol names of the thread count, per OpenBLAS build
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _blas_thread_controls() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """The thread-count getter and setter of every OpenBLAS loaded into
    this process (read from ``/proc/self/maps``); empty when none is found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    controls = []
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get, set_ in _BLAS_THREAD_SYMBOLS:
            if hasattr(handle, get) and hasattr(handle, set_):
                controls.append((getattr(handle, get), getattr(handle, set_)))
                break
    return controls


def blas_threads() -> list[int]:
    """Thread count of each loaded OpenBLAS."""
    return [int(get()) for get, _ in _blas_thread_controls()]


@contextlib.contextmanager
def one_blas_thread():
    """Pin every loaded OpenBLAS to one thread for the block and restore
    each count afterwards, also when the block raises.  Yields whether any
    OpenBLAS could be pinned."""
    controls = _blas_thread_controls()
    saved = [int(get()) for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield bool(controls)
    finally:
        for (_, set_), count in zip(controls, saved):
            set_(count)


def _arena(arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    """One zeroed, 64-byte aligned view per array, of the array's shape and
    dtype, into a new shared anonymous mapping (kept alive by the views)."""
    offsets, size = [], 0
    for a in arrays:
        offsets.append(size)
        size += -(-a.nbytes // 64) * 64
    mm = mmap.mmap(-1, max(size, 1))
    return [np.frombuffer(mm, dtype=a.dtype, count=a.size, offset=off).reshape(a.shape)
            for a, off in zip(arrays, offsets)]


def split_halves(params: dict[str, Parameter]
                 ) -> tuple[dict[str, Parameter], dict[str, Parameter]]:
    """(the parent's half, the worker's half) of ``params``: largest first,
    each parameter goes to the half with fewer elements so far (the
    parent's on a tie).  Each half keeps the order of ``params``."""
    load, worker_owns = [0, 0], set()
    for name in sorted(params, key=lambda name: -params[name].size):
        side = int(load[1] < load[0])
        load[side] += params[name].size
        if side:
            worker_owns.add(name)
    return ({n: p for n, p in params.items() if n not in worker_owns},
            {n: p for n, p in params.items() if n in worker_owns})


def non_finite_components(params: dict[str, Parameter]) -> list[str]:
    """Sorted component letters of the parameters whose ``grad`` holds a
    non-finite value."""
    return sorted({name.split(".", 1)[0] for name, p in params.items()
                   if p.grad is not None and not np.isfinite(p.grad).all()})


def _write_at(fd: int, g: np.ndarray, offset: int) -> int:
    """Write ``g``'s values to file ``fd`` at ``offset``; returns the offset
    after them."""
    data = memoryview(np.ascontiguousarray(g).reshape(-1).view(np.uint8))
    while data:
        written = os.pwrite(fd, data, offset)
        data, offset = data[written:], offset + written
    return offset


def _serve(handlers: dict[str, Callable], cmd_r: int, reply_w: int) -> None:
    """Answer each command read from pipe ``cmd_r`` on ``reply_w`` until EOF."""
    with os.fdopen(cmd_r, "rb") as commands, os.fdopen(reply_w, "wb") as replies:
        while True:
            try:
                name, *args = pickle.load(commands)
            except EOFError:
                return
            try:
                reply = ("ok", handlers[name](*args))
            except Exception:
                reply = ("error", traceback.format_exc())
            pickle.dump(reply, replies, protocol=pickle.HIGHEST_PROTOCOL)
            replies.flush()


class Worker(contextlib.AbstractContextManager):
    """A forked child that serves this process's commands in order.

    ``start()`` runs once in the child and returns its handlers by command
    name.  Commands and ``("ok" | "error", value)`` replies travel as
    pickles over two pipes; a handler's exception comes back as its
    traceback text, and the child serves on.  The child ignores SIGINT
    (the parent decides when to stop) and leaves only through ``os._exit``:
    when its command pipe reaches end of file (:meth:`close`, or a dead
    parent) or when ``start()`` raises.  Use it as a context manager so
    that :meth:`close` always reaps it.
    """

    name = "worker"

    def __init__(self, start: Callable[[], dict[str, Callable]]):
        cmd_r, cmd_w = os.pipe()
        reply_r, reply_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                os.close(cmd_w)
                os.close(reply_r)
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                _serve(start(), cmd_r, reply_w)
            except BaseException:
                os._exit(1)
            os._exit(0)
        os.close(cmd_r)
        os.close(reply_w)
        self._commands = os.fdopen(cmd_w, "wb")
        self._replies = os.fdopen(reply_r, "rb")

    def send(self, name: str, *args) -> None:
        """Queue command ``name``; a child that has exited shows at :meth:`reply`."""
        with contextlib.suppress(BrokenPipeError):
            pickle.dump((name, *args), self._commands, protocol=pickle.HIGHEST_PROTOCOL)
            self._commands.flush()

    def reply(self):
        """The answer to the oldest unanswered command; a handler's error is
        raised as a RuntimeError carrying its traceback."""
        try:
            status, value = pickle.load(self._replies)
        except EOFError:
            raise RuntimeError(f"{self.name} exited without a reply") from None
        if status != "ok":
            raise RuntimeError(f"{self.name} failed:\n{value}")
        return value

    def close(self) -> None:
        """Close the pipes and wait for the child to exit."""
        for f in (self._commands, self._replies):
            with contextlib.suppress(OSError):
                f.close()
        os.waitpid(self.pid, 0)

    def __exit__(self, *exc):
        self.close()


class HalfBatchWorker(Worker):
    """A :class:`Worker` that takes half of each step of the epoch loop.

    ``compute(epoch, ids, n, fold)`` must compute snippets ``ids`` of an
    ``n``-snippet batch, hand the ``(leaf, g)`` stream of the reverse pass of
    their summed loss over ``n`` to ``fold`` (through :func:`tensor.backward`)
    and return each snippet's loss value.  ``validate(start, stop)`` must
    return one value per validation snippet in ``range(start, stop)``.
    ``optimizer(half)`` builds the optimizer of one half of ``params``:
    :attr:`optimizer` is this process's, and the worker builds its own, so
    the state of each half lives in its owner only.

    Before the fork, every parameter's ``data`` moves into a shared
    mapping, which each process's optimizer updates in place for its own
    half, and a second shared mapping takes the gradient sums.
    """

    name = "training worker"

    def __init__(self, params: dict[str, Parameter],
                 compute: Callable[[int, Sequence[int], int, Callable], list[np.ndarray]],
                 validate: Callable[[int, int], list],
                 optimizer: Callable[[dict[str, Parameter]], Adam]):
        self.params = dict(params)
        self.compute, self.validate_range = compute, validate
        plist = list(self.params.values())
        for p, view in zip(plist, _arena([p.data for p in plist])):
            view[...] = p.data
            p.data = view
        self.grads = _arena([p.data for p in plist])
        self._index = {id(p): i for i, p in enumerate(plist)}
        self._present = [False] * len(plist)
        ours, theirs = split_halves(self.params)
        self._fold_fd = os.memfd_create("vswu-fold")

        def start() -> dict[str, Callable]:
            self._own = [name in theirs for name in self.params]
            self.optimizer = optimizer(theirs)
            self._fold_view = np.empty(0, np.uint8)
            return {"half": self._half, "fold": self._fold_buffer,
                    "step": self._step, "validate": self.validate_range}

        super().__init__(start)
        self._own = [name in ours for name in self.params]
        self.optimizer = optimizer(ours)

    # ---- both processes -----------------------------------------------

    def _add(self, i: int, g: np.ndarray) -> None:
        """Fold ``g`` onto gradient sum ``i`` in place: the same bits as
        ``grad = g if grad is None else grad + g``."""
        if self._present[i]:
            np.add(self.grads[i], g, out=self.grads[i])
        else:
            np.copyto(self.grads[i], g)
            self._present[i] = True

    def _point_grads(self, own: bool) -> None:
        """Point the ``grad`` of each parameter of this process's half
        (``own``) or the other's at its sum, ``None`` without contributions."""
        for i, p in enumerate(self.params.values()):
            if self._own[i] == own:
                p.grad = self.grads[i] if self._present[i] else None

    # ---- the worker ---------------------------------------------------

    def _half(self, epoch: int, ids: list[int], n: int):
        """Fold the contributions of snippets ``ids`` from nothing; return
        their loss values and which sums got a contribution."""
        self._present = [False] * len(self._present)
        losses = self.compute(epoch, ids, n, self._fold_in_place) if ids else []
        return losses, self._present

    def _fold_in_place(self, stream: Iterator[tuple[Parameter, np.ndarray]]) -> None:
        for leaf, g in stream:
            self._add(self._index[id(leaf)], g)

    def _fold_buffer(self, entries: list[int], length: int):
        """Fold the parent's contributions from the fold buffer's first
        ``length`` bytes, one to sum ``i`` per entry, in order; return the
        components of this half whose gradient is not finite, and which
        sums got a contribution."""
        if self._fold_view.size < length:
            self._fold_view = np.frombuffer(mmap.mmap(self._fold_fd, length), np.uint8)
        offset = 0
        for i in entries:
            a = self.grads[i]
            self._add(i, self._fold_view[offset:offset + a.nbytes].view(a.dtype)
                      .reshape(a.shape))
            offset += a.nbytes
        self._point_grads(own=True)
        return non_finite_components(self.optimizer.params), self._present

    def _step(self, lr: float) -> None:
        self.optimizer.lr = lr
        self.optimizer.step()

    # ---- the parent ---------------------------------------------------

    def batch(self, epoch: int, ids: Sequence[int], n: int
              ) -> tuple[list[np.ndarray], list[str]]:
        """Compute snippets ``ids`` of an ``n``-snippet batch, the first
        ``len(ids) // 2`` in the worker, and fold the gradient by halves.
        Returns the snippets' loss values in order and the sorted components
        whose gradient is not finite in either half.  Afterwards every
        parameter's ``grad`` here holds its sum, the worker's half included
        (``None`` without contributions)."""
        k = len(ids) // 2
        self.send("half", epoch, [int(i) for i in ids[:k]], n)
        theirs, bad = [], []

        def fold(stream: Iterator[tuple[Parameter, np.ndarray]]) -> None:
            held, entries, length = deque(), [], 0
            for leaf, g in stream:
                i = self._index[id(leaf)]
                if self._own[i]:
                    held.append((i, g))
                else:
                    length = _write_at(self._fold_fd, g, length)
                    entries.append(i)
            losses, self._present = self.reply()
            theirs.extend(losses)
            self.send("fold", entries, length)
            while held:
                self._add(*held.popleft())
            self._point_grads(own=True)
            their_bad, present = self.reply()
            self._present = [mine if own else their for mine, their, own
                             in zip(self._present, present, self._own)]
            self._point_grads(own=False)
            bad.extend(non_finite_components(self.optimizer.params) + their_bad)

        ours = self.compute(epoch, ids[k:], n, fold)
        return theirs + ours, sorted(set(bad))

    def step(self) -> None:
        """Step both halves at :attr:`optimizer`'s ``lr``; returns once the
        worker's step is done too, so the next forward reads every update."""
        self.send("step", self.optimizer.lr)
        self.optimizer.step()
        self.reply()

    def validate(self, n: int) -> list:
        """The values of validation snippets ``0 .. n-1`` in order, the first
        ``n // 2`` computed by the worker."""
        k = n // 2
        if k:
            self.send("validate", 0, k)
        ours = self.validate_range(k, n)
        return (self.reply() if k else []) + ours

    def close(self) -> None:
        """Reap the worker, close the fold buffer, and give every parameter
        back private ``data``."""
        super().close()
        os.close(self._fold_fd)
        for p in self.params.values():
            p.data = p.data.copy()
