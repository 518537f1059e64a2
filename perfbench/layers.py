"""Per-layer metrics derived from a traced run, and what each should move.

Times and counts are normalized per operation (one snippet) so that runs
that complete different numbers of commands compare directly.  A layer a
workload never reaches reads 0.
"""

from __future__ import annotations

from spans import COMPONENTS, Totals

ALL = "all workloads"
SEGMENT = "segment_t5"
TRAIN = "train_t5"

# metric name -> (what it is, the end-to-end metric it should move and where)
DESCRIPTIONS = {
    "snippets_per_s": "center-frame outputs per second of command wall time, median "
                      "over the run's commands",
    "setup_s": "dataset synthesis plus checkpoint creation, median of one set-up "
               "into a new directory before every second command of the run",
    "peak_rss_mb": "peak resident memory of the benchmark process",
    "tensor.conv2d.calls": f"conv2d forward calls; snippets_per_s on {ALL}",
    "tensor.conv2d.fwd_ms": f"conv2d forward time; snippets_per_s on {ALL}",
    "tensor.conv2d.gflops": "dense conv2d forward FLOPs over conv2d forward time; "
                            f"snippets_per_s on {ALL}",
    "tensor.conv2d.cols_mb": "im2col buffer bytes, computed from shapes "
                             f"(positions x Cin*kh*kw x itemsize); snippets_per_s on {ALL}",
    "tensor.conv2d.bwd_ms": f"conv2d backward closures; snippets_per_s on {TRAIN} only",
    "tensor.matmul.calls": f"matmul forward calls; snippets_per_s on {ALL}",
    "tensor.matmul.fwd_ms": f"matmul forward time; snippets_per_s on {ALL}",
    "tensor.matmul.gflops": "dense matmul forward FLOPs over matmul forward time; "
                            f"snippets_per_s on {ALL}",
    "tensor.matmul.bwd_ms": f"matmul backward closures; snippets_per_s on {TRAIN} only",
    "tensor.backward.ms": f"the reverse pass; snippets_per_s on {TRAIN} only",
    "tensor.backward.self_ms": "reverse pass minus conv2d/matmul backward closures; "
                               f"snippets_per_s on {TRAIN} only",
    "tensor.softmax.ms": f"softmax forward; snippets_per_s on {ALL}",
    "tensor.layer_norm.ms": f"layer_norm forward; snippets_per_s on {ALL}",
    "tensor.upsample2x.ms": f"upsample2x forward; snippets_per_s on {ALL}",
    "tensor.concat.ms": f"concat forward; snippets_per_s on {ALL}",
    "tensor.gemm_peak_gflops": "bare float32 512x512 GEMM in the same run, best of 5: "
                               "the achievable ceiling for the gflops metrics",
    "backbone.calls": f"Backbone.forward calls (component a); snippets_per_s on {SEGMENT}",
    "backbone.ms": f"component a; snippets_per_s on {SEGMENT}",
    "backbone.self_ms": f"component a outside traced kernels; snippets_per_s on {SEGMENT}",
    "backbone.gflops": f"component a dense FLOPs over its time; snippets_per_s on {SEGMENT}",
    "backbone.frames_per_output": "frames through the backbone per segmentation output: "
                                  "t today, 1 with a per-frame feature cache; "
                                  f"snippets_per_s on {SEGMENT}",
    "tcm.calls": f"TemporalContextModule.forward calls (component b); snippets_per_s on {ALL}",
    "tcm.ms": f"component b; snippets_per_s on {ALL}",
    "tcm.self_ms": f"component b outside traced kernels; snippets_per_s on {ALL}",
    "swin.calls": f"SwinEncoder.forward calls (component c); snippets_per_s on {ALL}",
    "swin.ms": f"component c; snippets_per_s on {ALL}",
    "swin.self_ms": f"component c outside traced kernels; snippets_per_s on {ALL}",
    "swin.gflops": f"component c dense FLOPs over its time; snippets_per_s on {ALL}",
    "decoder.calls": f"Decoder.forward calls (component d); snippets_per_s on {ALL}",
    "decoder.ms": f"component d; snippets_per_s on {ALL}",
    "decoder.self_ms": f"component d outside traced kernels; snippets_per_s on {ALL}",
    "decoder.gflops": f"component d dense FLOPs over its time; snippets_per_s on {ALL}",
    "decoder.head.calls": f"SegHead.forward calls (component e); snippets_per_s on {ALL}",
    "decoder.head.ms": f"component e; snippets_per_s on {ALL}",
    "decoder.head.self_ms": f"component e outside traced kernels; snippets_per_s on {ALL}",
    "optim.adam_step.calls": f"Adam.step calls; snippets_per_s on {TRAIN} only",
    "optim.adam_step.ms": f"Adam.step; snippets_per_s on {TRAIN} only",
    "dataset.augment.calls": f"augment calls; snippets_per_s on {TRAIN} only",
    "dataset.augment.ms": f"paired flip and rotation; snippets_per_s on {TRAIN} only",
    "losses.combined_loss.calls": f"combined_loss calls; snippets_per_s on {TRAIN} only",
    "losses.combined_loss.ms": f"BCE + Dice forward; snippets_per_s on {TRAIN} only",
    "dataset.window_snippets.calls": f"window_snippets calls; snippets_per_s on {ALL}",
    "dataset.window_snippets.ms": f"sequence loading and windowing; snippets_per_s on {SEGMENT}",
    "dataset.window_snippets.self_ms": "windowing outside PGM reads; snippets_per_s on "
                                       f"{SEGMENT}",
    "pgm.read.calls": f"read_pgm calls; snippets_per_s on {ALL}",
    "pgm.read.ms": f"read_pgm; snippets_per_s on {SEGMENT}",
    "pgm.write.calls": f"write_pgm calls (map writes); snippets_per_s on {SEGMENT}",
    "pgm.write.ms": f"write_pgm; snippets_per_s on {SEGMENT}",
    "metrics.hd95.calls": f"hd95 calls; snippets_per_s on {SEGMENT}",
    "metrics.hd95.ms": f"hd95; snippets_per_s on {SEGMENT}",
    "metrics.asd.calls": f"asd calls; snippets_per_s on {SEGMENT}",
    "metrics.asd.ms": f"asd; snippets_per_s on {SEGMENT}",
    "training.save_checkpoint.calls": f"save_checkpoint calls; snippets_per_s on {TRAIN}",
    "training.save_checkpoint.ms": f"save_checkpoint; snippets_per_s on {TRAIN}",
    "training.load_checkpoint.calls": f"load_checkpoint calls; snippets_per_s on {SEGMENT}",
    "training.load_checkpoint.ms": f"load_checkpoint; snippets_per_s on {SEGMENT}",
    "training.checkpoint_mb": "mean size of the checkpoints written (train) or read "
                              f"(segment); snippets_per_s on {ALL}",
    "trace.traced_snippets_per_s": "snippets_per_s of the run's traced commands",
    "trace.untraced_snippets_per_s": "snippets_per_s of the run's untraced commands, "
                                     "interleaved with the traced ones",
    "trace.rate_ratio": "traced over untraced snippets_per_s: 1 minus the tracing overhead",
}
for letter in "abcde":
    DESCRIPTIONS[f"costs.flop_ratio.{letter}"] = (
        f"dense FLOPs counted from observed conv2d/matmul shapes in component {letter} "
        f"over costs.component_costs; 1.0 exactly unless work is shared (a, {SEGMENT})")

SPAN_METRICS = {
    # span name -> per-snippet values reported for it (self_ms only where
    # the span has traced children, so it differs from ms)
    "backbone": ("calls", "ms", "self_ms"),
    "tcm": ("calls", "ms", "self_ms"),
    "swin": ("calls", "ms", "self_ms"),
    "decoder": ("calls", "ms", "self_ms"),
    "decoder.head": ("calls", "ms", "self_ms"),
    "optim.adam_step": ("calls", "ms"),
    "dataset.augment": ("calls", "ms"),
    "losses.combined_loss": ("calls", "ms"),
    "dataset.window_snippets": ("calls", "ms", "self_ms"),
    "pgm.read": ("calls", "ms"),
    "pgm.write": ("calls", "ms"),
    "metrics.hd95": ("calls", "ms"),
    "metrics.asd": ("calls", "ms"),
    "training.save_checkpoint": ("calls", "ms"),
    "training.load_checkpoint": ("calls", "ms"),
    "tensor.backward": ("ms", "self_ms"),
    "tensor.softmax": ("ms",),
    "tensor.layer_norm": ("ms",),
    "tensor.upsample2x": ("ms",),
    "tensor.concat": ("ms",),
}


def _gflops(flops: int, seconds: float) -> float:
    return flops / seconds / 1e9 if seconds > 0 else 0.0


def per_layer(totals: dict[str, Totals], flops_by_component: dict[str, int],
              analytic: dict[str, dict[str, int]], ops: int) -> dict[str, float]:
    """Per-layer values from the traced commands' span totals.

    ``analytic`` is ``costs.component_costs`` for the workload's model;
    ``ops`` the operations the traced commands completed.
    """
    def get(name):
        return totals.get(name, Totals())

    out: dict[str, float] = {}
    for span, kinds in SPAN_METRICS.items():
        t = get(span)
        values = {"calls": t.calls / ops, "ms": 1e3 * t.seconds / ops,
                  "self_ms": 1e3 * t.self_seconds / ops}
        for kind in kinds:
            out[f"{span}.{kind}"] = values[kind]
    for kernel in ("conv2d", "matmul"):
        t = get(f"tensor.{kernel}")
        out[f"tensor.{kernel}.calls"] = t.calls / ops
        out[f"tensor.{kernel}.fwd_ms"] = 1e3 * t.seconds / ops
        out[f"tensor.{kernel}.gflops"] = _gflops(t.flops, t.seconds)
        out[f"tensor.{kernel}.bwd_ms"] = 1e3 * get(f"tensor.{kernel}.bwd").seconds / ops
    out["tensor.conv2d.cols_mb"] = get("tensor.conv2d").bytes / ops / 1e6

    outputs = get("decoder.head").items
    for span, letter in COMPONENTS.items():
        if span in ("backbone", "swin", "decoder"):
            out[f"{span}.gflops"] = _gflops(flops_by_component.get(letter, 0),
                                            get(span).seconds)
        want = analytic[letter]["flops"] * outputs
        out[f"costs.flop_ratio.{letter}"] = \
            flops_by_component.get(letter, 0) / want if want else 0.0
    out["backbone.frames_per_output"] = get("backbone").items / outputs if outputs else 0.0

    saved, loaded = get("training.save_checkpoint"), get("training.load_checkpoint")
    files = saved.calls + loaded.calls
    out["training.checkpoint_mb"] = (saved.bytes + loaded.bytes) / files / 1e6 if files else 0.0
    return out
