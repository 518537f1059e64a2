"""Two-process training: the forked worker's half of each batch, of the
fold, of the Adam step and of validation must give exactly the
single-process results, and no process may outlive ``fit``.  The command
server under it, ``parallel.Worker``, is tested alone with fake handlers."""

import os
import signal

import numpy as np
import pytest

from oracles import reference_batch_grads, reference_fit
from vswu import parallel
from vswu import rng as vrng
from vswu import tensor as T
from vswu import training
from vswu.backbone import BackboneConfig
from vswu.dataset import SynthConfig, synth_generate, window_snippets
from vswu.decoder import DecoderConfig
from vswu.model import ModelConfig, SnippetSegmenter
from vswu.swin import SwinConfig
from vswu.tcm import TCMConfig
from vswu.training import TrainConfig, apply_freeze, fit


def t5_config(**kw):
    return ModelConfig(
        h=32, w=32, t=5,
        backbone=BackboneConfig(stage_channels=(2, 4, 6, 8), blocks_per_stage=2),
        swin=SwinConfig(embed_dim=8, depths=(2,), heads=(2,), window_size=(2,)),
        decoder=DecoderConfig(stage_channels=(8, 6, 4, 4)), **kw)


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    return synth_generate(
        SynthConfig(num_sequences=4, frames_per_sequence=13, h=32, w=32, seed=5,
                    noise_sigma=0.02), tmp_path_factory.mktemp("parallel-data"))


@pytest.fixture(scope="module")
def data(manifest):
    return (window_snippets(manifest, 5, splits=("train",)),
            window_snippets(manifest, 5, splits=("val",)))


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def threads_restored():
    before = parallel.blas_threads()
    yield
    assert parallel.blas_threads() == before
    no_child_left()


def count_parent_losses(monkeypatch):
    """Count ``combined_loss`` calls in this process; the worker's calls
    happen in its own memory and are not counted.  With a worker, this
    process validates the last ``v - v // 2`` of ``v`` snippets."""
    calls = []
    real = training.combined_loss

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(training, "combined_loss", counted)
    return calls


@pytest.mark.parametrize("size", [1, 2, 3])
def test_batch_gradients_match_one_graph(data, size, monkeypatch, threads_restored):
    """One batch of ``size`` snippets, TCM on, component a frozen: the loss
    and every gradient equal the single-graph reference bit for bit."""
    train, val = data
    cfg = TrainConfig(batch_size=size, max_epochs=1, seed=7, augment=False)
    model = apply_freeze(SnippetSegmenter(t5_config(), seed=7), {"a"})
    assert model.tcm is not None
    calls = count_parent_losses(monkeypatch)
    log, _ = fit(model, train[:size], val[:2], cfg)
    val_share = 1 if size > 1 else 2  # a worker runs at sizes 2 and 3 only
    assert len(calls) == size - size // 2 + val_share  # the parent's half, then validation

    ref = apply_freeze(SnippetSegmenter(t5_config(), seed=7), {"a"})
    order = vrng.generator(cfg.seed, "shuffle", 1).permutation(size)
    with parallel.one_blas_thread():
        loss, grads = reference_batch_grads(ref, [train[i] for i in order])
    assert log[0]["train_loss"] == float(loss)
    params = dict(model.named_parameters())
    assert len(grads) == len([p for p in params.values() if p.requires_grad])
    for name, g in grads.items():
        assert g is not None, name
        assert np.array_equal(params[name].grad, g), name


@pytest.mark.parametrize("size,freeze,tied", [(2, "", False), (3, "a", False),
                                               (2, "", True)])
def test_two_epoch_fit_matches_serial_reference(data, size, freeze, tied, monkeypatch,
                                                threads_restored):
    """Seven snippets, so the last batch is shorter and, at size 2, runs
    in the parent alone.  With tied neighbour slots and no center slot, no
    contribution reaches the center slot's parameters."""
    train, val = data
    cfg = TrainConfig(batch_size=size, max_epochs=2, seed=9, augment=True)
    tcm = TCMConfig(tied_neighbors=tied, include_center=not tied)
    model = apply_freeze(SnippetSegmenter(t5_config(tcm=tcm), seed=9), set(freeze))
    calls = count_parent_losses(monkeypatch)
    log, _ = fit(model, train[:7], val[:3], cfg)
    batches = [len(range(b0, min(b0 + size, 7))) for b0 in range(0, 7, size)]
    assert len(calls) == 2 * (sum(b - b // 2 for b in batches) + 2)  # 2 of 3 validated

    ref = apply_freeze(SnippetSegmenter(t5_config(tcm=tcm), seed=9), set(freeze))
    with parallel.one_blas_thread():
        ref_log = reference_fit(ref, train[:7], val[:3], cfg)
    assert log == ref_log
    ref_params = dict(ref.named_parameters())
    for name, p in model.named_parameters():
        assert np.array_equal(p.data, ref_params[name].data), name


@pytest.mark.parametrize("size", [2, 3])
def test_one_process_fit_matches_serial_reference(data, size, monkeypatch, threads_restored):
    """Without an OpenBLAS thread setter, batches of two or more snippets
    run in this process alone: nothing forks, every loss is computed here,
    and the log and every parameter equal the serial reference."""
    train, val = data
    cfg = TrainConfig(batch_size=size, max_epochs=2, seed=9, augment=True)
    model = SnippetSegmenter(t5_config(), seed=9)
    calls = count_parent_losses(monkeypatch)
    forks, real_fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    with parallel.one_blas_thread(), monkeypatch.context() as patch:
        patch.setattr(parallel, "_blas_thread_controls", lambda: [])
        patch.setattr(os, "fork", counted_fork)
        log, _ = fit(model, train[:7], val[:3], cfg)
    assert forks == [] and len(calls) == 2 * (7 + 3)

    ref = SnippetSegmenter(t5_config(), seed=9)
    with parallel.one_blas_thread():
        ref_log = reference_fit(ref, train[:7], val[:3], cfg)
    assert log == ref_log
    ref_params = dict(ref.named_parameters())
    for name, p in model.named_parameters():
        assert np.array_equal(p.data, ref_params[name].data), name


@pytest.mark.parametrize("size,freeze,val_pick", [
    (2, "", "one"), (3, "", "one"),
    (2, "", "odd"), (3, "", "odd"),
    (2, "", "two_sequences"), (3, "", "two_sequences"),
    (2, "abcd", "odd"), (3, "abcd", "two_sequences"),
])
def test_split_steps_match_serial_reference(data, manifest, size, freeze, val_pick,
                                            threads_restored):
    """Validation of 1 snippet (the parent alone), of 3 (an odd split) and of
    5 across two sequences (the worker's range spans the boundary and the
    parent's starts mid-sequence); with ``abcd`` frozen the worker's half of
    the head's parameters is tiny.  Five snippets at size 2 end each epoch
    with a batch the parent computes alone.  No epoch after the first counts
    as an improvement, so the third steps both halves at a decayed lr."""
    train, val = data
    vals = {"one": val[:1], "odd": val[:3],
            "two_sequences": val[-1:] + window_snippets(manifest, 5, splits=("test",))[:4]}
    val = vals[val_pick]
    cfg = TrainConfig(batch_size=size, max_epochs=3, seed=11, augment=True,
                      plateau_epochs=1, plateau_threshold=1e9, lr_decay=0.5)
    model = apply_freeze(SnippetSegmenter(t5_config(), seed=11), set(freeze))
    log, _ = fit(model, train[:5], val, cfg)
    assert [row["lr"] for row in log] == [1e-3, 1e-3, 5e-4]

    ref = apply_freeze(SnippetSegmenter(t5_config(), seed=11), set(freeze))
    with parallel.one_blas_thread():
        ref_log = reference_fit(ref, train[:5], val, cfg)
    assert log == ref_log
    ref_params = dict(ref.named_parameters())
    for name, p in model.named_parameters():
        assert np.array_equal(p.data, ref_params[name].data), name


def test_halves_are_balanced_and_cover_every_parameter():
    model = SnippetSegmenter(t5_config(), seed=1)
    params = dict(model.named_parameters())
    ours, theirs = parallel.split_halves(params)
    assert not ours.keys() & theirs.keys() and {**ours, **theirs}.keys() == params.keys()
    sizes = [sum(p.size for p in half.values()) for half in (ours, theirs)]
    assert abs(sizes[0] - sizes[1]) <= max(p.size for p in params.values())


def poison(monkeypatch, target, in_worker):
    """Make every reverse-pass contribution to ``target`` NaN, in the
    worker's process or in this one."""
    parent, real = os.getpid(), T._leaf_gradients

    def leaf_gradients(loss):
        for leaf, g in real(loss):
            if leaf is target and (os.getpid() != parent) == in_worker:
                g = np.full_like(g, np.nan)
            yield leaf, g

    monkeypatch.setattr(T, "_leaf_gradients", leaf_gradients)


@pytest.mark.parametrize("in_worker", [True, False])
@pytest.mark.parametrize("target", ["stem", "other_half"])
def test_non_finite_gradient_names_component(data, target, in_worker, monkeypatch,
                                            threads_restored):
    """The NaN comes from either process's snippet, into the stem's weight or
    into a parameter of the other owner's half: either process's check names
    its component, and neither half steps."""
    train, val = data
    model = SnippetSegmenter(t5_config(), seed=3)
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    stem = model.backbone.stem.w
    halves = parallel.split_halves(dict(model.named_parameters()))
    other = next(h for h in halves if all(p is not stem for p in h.values()))
    if target == "stem":
        param, letter = stem, "a"
    else:
        name, param = max(((n, p) for n, p in other.items() if not n.startswith("a.")),
                          key=lambda item: item[1].size)
        letter = name.split(".", 1)[0]
    poison(monkeypatch, param, in_worker)
    with pytest.raises(RuntimeError, match=r"non-finite gradient at epoch 1, batch 0, "
                                           rf"in component\(s\) {letter}$"):
        fit(model, train[:4], val[:2], TrainConfig(batch_size=2, max_epochs=1, seed=3))
    for n, p in model.named_parameters():
        assert np.array_equal(p.data, before[n]), n  # no step was taken


@pytest.mark.parametrize("where", ["worker", "parent", "worker_validation"])
def test_a_failing_half_leaves_no_process(data, where, monkeypatch, threads_restored):
    train, val = data
    parent = os.getpid()
    in_worker = where != "parent"
    # validation alone calls dsc, so a failing dsc fails the validation command
    module, attr = (training, "dsc") if where == "worker_validation" else \
        (training, "combined_loss")
    real = getattr(module, attr)

    def failing(*args):
        if (os.getpid() != parent) == in_worker:
            raise ValueError("boom in one half")
        return real(*args)

    monkeypatch.setattr(module, attr, failing)
    model = SnippetSegmenter(t5_config(), seed=3)
    want = (RuntimeError, r"training worker failed:\nTraceback(.|\n)*boom in one half") \
        if in_worker else (ValueError, "boom in one half")
    with pytest.raises(want[0], match=want[1]):
        fit(model, train[:4], val[:2], TrainConfig(batch_size=2, max_epochs=1, seed=3))


def test_fit_returns_with_private_parameters(data, threads_restored):
    train, val = data
    model = SnippetSegmenter(t5_config(), seed=4)
    fit(model, train[:4], val[:2], TrainConfig(batch_size=2, max_epochs=1, seed=4))
    for name, p in model.named_parameters():
        assert p.data.flags.owndata and p.data.flags.writeable, name


def test_one_blas_thread_restores_counts_when_raising():
    before = parallel.blas_threads()
    assert before, "no OpenBLAS thread control found"
    with pytest.raises(KeyError):
        with parallel.one_blas_thread() as pinned:
            assert pinned and parallel.blas_threads() == [1] * len(before)
            raise KeyError("x")
    assert parallel.blas_threads() == before


def test_worker_replies_from_the_state_its_start_builds():
    parent, state = os.getpid(), {}

    def start():
        state["pid"] = os.getpid()
        return {"pid": lambda: state["pid"], "add": lambda a, b: a + b}

    with parallel.Worker(start) as worker:
        worker.send("add", 2, 3)
        worker.send("pid")
        assert worker.reply() == 5
        assert worker.reply() == worker.pid != parent
        os.kill(worker.pid, signal.SIGINT)  # the parent decides when to stop
        worker.send("add", "a", "b")
        assert worker.reply() == "ab"
    assert state == {}  # start ran in the child only
    no_child_left()


def test_worker_error_reply_carries_traceback_and_serving_goes_on():
    def fail(x):
        raise ValueError(f"bad {x}")

    with parallel.Worker(lambda: {"fail": fail, "echo": lambda x: x}) as worker:
        worker.send("fail", 7)
        worker.send("echo", "next")
        with pytest.raises(RuntimeError,
                           match=r"^worker failed:\nTraceback(.|\n)*ValueError: bad 7"):
            worker.reply()
        assert worker.reply() == "next"
    no_child_left()


def test_worker_close_reaps_the_child():
    worker = parallel.Worker(lambda: {})
    worker.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(worker.pid, os.WNOHANG)
    no_child_left()


def test_worker_close_keeps_the_child_peak():
    """``peak_kb`` is the reaped child's own ``ru_maxrss``: 40 MB more held
    by its handlers reads as about 40 000 kB more."""
    peaks = []
    for extra in (0, 40_000_000):
        def start(extra=extra):
            held = bytearray(extra)
            return {"size": lambda: len(held)}

        with parallel.Worker(start) as worker:
            worker.send("size")
            assert worker.reply() == extra
        peaks.append(worker.peak_kb)
    assert 0 < peaks[0] and 38_000 < peaks[1] - peaks[0] < 45_000
    no_child_left()


def test_worker_whose_start_raises_exits_without_a_reply():
    def start():
        raise ValueError("no handlers")

    with parallel.Worker(start) as worker:
        worker.send("echo", 1)
        with pytest.raises(RuntimeError, match="^worker exited without a reply$"):
            worker.reply()
    no_child_left()
