"""Record the final validation loss of the ``train_t5`` command for a
range of seeds, for the benchmark's train output check.

    python3 perfbench/record_expected.py FIRST LAST

Runs one ``vswu train`` per seed with the benchmark's settings and writes
``perfbench/expected_train.json``, keeping seeds recorded earlier.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import OUT, configure


def main(first: int, last: int) -> None:
    configure()
    from workloads import EXPECTED_TRAIN, WORKLOADS, log_losses, run_cli, set_up

    w = WORKLOADS["train_t5"]
    doc = json.loads(EXPECTED_TRAIN.read_text())
    for seed in range(first, last + 1):
        root = OUT / "work" / f"record-seed{seed}"
        try:
            set_up(w, seed, root)
            if run_cli(w.argv(w.command, seed, root)) != 0:
                raise RuntimeError(f"vswu train failed for seed {seed}")
            doc["final_val_loss"][str(seed)] = log_losses(root / "run" / "log.csv")[-1][1]
        finally:
            shutil.rmtree(root, ignore_errors=True)
        print(seed, doc["final_val_loss"][str(seed)], flush=True)
    doc["final_val_loss"] = dict(sorted(doc["final_val_loss"].items(), key=lambda kv: int(kv[0])))
    EXPECTED_TRAIN.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
