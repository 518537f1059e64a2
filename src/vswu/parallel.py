"""Two-core training: one forked worker computes the first half of each
batch while the parent computes the rest, with identical results.

The gradient of a batch ``((l1 + l2) + ...) * (1/n)`` reaches each
parameter as a sequence of contributions: all of ``l1``'s, then all of
``l2``'s, and so on, because the reverse pass handles one snippet's
subgraph after the other.  Folding that sequence onto ``grad`` one
contribution at a time is what :func:`tensor.backward` does.  The worker
folds the contributions of its snippets from ``None``; the parent collects
the contributions of its own snippets in order and folds them onto the
worker's sums.  Every addition is the one a single process would make, so
the gradients are the same to the last bit.

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
from typing import Callable, Iterable, Sequence

import numpy as np

from .nn import Parameter

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


class HalfBatchWorker:
    """A forked process that runs ``compute`` on the snippets it is sent.

    ``compute(epoch, ids, n)`` must fold the gradient of snippets ``ids`` of
    an ``n``-snippet batch onto the ``grad`` of ``params`` and return each
    snippet's loss value.  Before the fork, every parameter's ``data``
    moves into a shared mapping: the parent's optimizer updates it in
    place, and the worker reads the update at its next command.  The worker
    writes its gradients into a second shared mapping; commands, loss
    values and errors travel as pickles over two pipes.

    The worker leaves only through ``os._exit``: when its command pipe
    reaches end of file, which :meth:`close` causes and a dead parent
    causes too.  Use it as a context manager so that :meth:`close` always
    runs and reaps it.
    """

    def __init__(self, params: Iterable[Parameter],
                 compute: Callable[[int, list[int], int], list[np.ndarray]]):
        self.params = list(params)
        self.compute = compute
        for p, view in zip(self.params, _arena([p.data for p in self.params])):
            view[...] = p.data
            p.data = view
        self.grads = _arena([p.data for p in self.params])
        cmd_r, cmd_w = os.pipe()
        reply_r, reply_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                os.close(cmd_w)
                os.close(reply_r)
                self._serve(cmd_r, reply_w)
            except BaseException:
                os._exit(1)
            os._exit(0)
        os.close(cmd_r)
        os.close(reply_w)
        self._commands = os.fdopen(cmd_w, "wb")
        self._replies = os.fdopen(reply_r, "rb")

    def _serve(self, cmd_r: int, reply_w: int) -> None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent decides when to stop
        with os.fdopen(cmd_r, "rb") as commands, os.fdopen(reply_w, "wb") as replies:
            while True:
                try:
                    epoch, ids, n = pickle.load(commands)
                except EOFError:
                    return
                try:
                    for p in self.params:
                        p.grad = None
                    losses = self.compute(epoch, ids, n)
                    present = []
                    for p, out in zip(self.params, self.grads):
                        present.append(p.grad is not None)
                        if p.grad is not None:
                            out[...] = p.grad
                    reply = ("ok", losses, present)
                except Exception:
                    reply = ("error", traceback.format_exc())
                pickle.dump(reply, replies, protocol=pickle.HIGHEST_PROTOCOL)
                replies.flush()

    def submit(self, epoch: int, ids: Sequence[int], n: int) -> None:
        """Start the worker on snippets ``ids`` of an ``n``-snippet batch."""
        pickle.dump((epoch, [int(i) for i in ids], n), self._commands,
                    protocol=pickle.HIGHEST_PROTOCOL)
        self._commands.flush()

    def collect(self) -> list[np.ndarray]:
        """Wait for the submitted half; set each parameter's ``grad`` to the
        worker's sum (``None`` where it had no contribution) and return the
        worker's loss values.  A worker error is raised as a RuntimeError."""
        try:
            status, *rest = pickle.load(self._replies)
        except EOFError:
            raise RuntimeError("training worker exited without a reply") from None
        if status != "ok":
            raise RuntimeError(f"training worker failed:\n{rest[0]}")
        losses, present = rest
        for p, g, has in zip(self.params, self.grads, present):
            p.grad = g if has else None
        return losses

    def close(self) -> None:
        """Close the pipes, wait for the worker to exit, and give every
        parameter back private ``data``."""
        for f in (self._commands, self._replies):
            with contextlib.suppress(OSError):
                f.close()
        os.waitpid(self.pid, 0)
        for p in self.params:
            p.data = p.data.copy()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
