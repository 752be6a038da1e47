"""One-time build step of the benchmark: native kernels and model artifacts.

Run by ``perfbench/run.py`` in a child process whenever the build
directory is missing or was made by a different version of this file, so
neither the compile nor the training counts towards a workload's set-up
time or peak memory.  It writes, under ``<build>/``:

* ``native/`` -- the compiled kernel library (``REPRO_NATIVE_CACHE``);
* ``snn/`` -- the Table 8 SNN at N=256 with its seeded initial weights
  (untrained: the bit-exact simulation costs the same for any weights,
  and seeded weights keep the stored score digests independent of the
  host's floating-point training numerics);
* ``tiny/`` -- the repository's tiny serving CNN, trained on synthetic
  digits, at N=1024;
* ``stamp.json`` -- this file's digest and the tiny model's accuracy on
  held-out digits.

Usage: ``python3 perfbench/prepare.py <build dir>``
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

#: SNN artifact: stream length, weight-initialisation / stream seed.
SNN_STREAM_LENGTH = 256
SNN_SEED = 2019

#: Tiny serving CNN: training set, epochs and stream configuration.
TINY_TRAIN = {"n_train": 3000, "n_test": 600, "seed": 2019}
TINY_EPOCHS = 6
TINY_STREAM_LENGTH = 1024

#: Held-out digits for the tiny model's accuracy (disjoint seed).
ACCURACY_SEED = 777_777
ACCURACY_IMAGES = 256


def stamp_digest() -> str:
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:16]


def build(out: Path) -> dict:
    from repro.api import ScModel, Session
    from repro.cli import tiny_serving_specs
    from repro.datasets import generate_digit_dataset
    from repro.nn import Trainer, TrainingConfig
    from repro.nn.architectures import build_network, build_snn
    from repro.sc import native

    if not native.available():
        raise SystemExit(f"native kernels unavailable: {native.native_error()}")

    snn = build_snn(seed=SNN_SEED, training_stream_length=SNN_STREAM_LENGTH)
    ScModel(
        snn,
        stream_length=SNN_STREAM_LENGTH,
        seed=SNN_SEED,
        metadata={"arch": "snn", "trained": False},
    ).save(out / "snn")

    started = time.perf_counter()
    data = generate_digit_dataset(**TINY_TRAIN)
    tiny = build_network(
        tiny_serving_specs(),
        activation="hardware",
        seed=5,
        name="tiny",
        training_stream_length=256,
    )
    Trainer(tiny, TrainingConfig(epochs=TINY_EPOCHS, seed=1)).fit(
        data.train_images[:, None] * 2 - 1,
        data.train_labels,
        data.test_images[:, None] * 2 - 1,
        data.test_labels,
        verbose=False,
    )
    train_s = time.perf_counter() - started
    ScModel(
        tiny,
        stream_length=TINY_STREAM_LENGTH,
        seed=7,
        metadata={"arch": "tiny", "dataset": TINY_TRAIN},
    ).save(out / "tiny")

    held_out = generate_digit_dataset(10, ACCURACY_IMAGES, seed=ACCURACY_SEED)
    with Session.from_artifact(out / "tiny", backend="bit-exact-native") as s:
        accuracy = s.evaluate(
            held_out.test_images[:, None], held_out.test_labels
        ).accuracy
    return {
        "prepare": stamp_digest(),
        "tiny_accuracy": accuracy,
        "tiny_accuracy_images": ACCURACY_IMAGES,
        "tiny_train_s": train_s,
    }


def main(argv: list[str]) -> int:
    target = Path(argv[0])
    staging = target.with_name(f"{target.name}.tmp{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(staging / "native")
    stamp = build(staging)
    (staging / "stamp.json").write_text(json.dumps(stamp, indent=1))
    shutil.rmtree(target, ignore_errors=True)
    os.replace(staging, target)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
