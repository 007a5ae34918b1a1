"""Phase-1 seconds of the desk_train run, pinned to one BLAS thread and at the
default BLAS threading, each in its own child process, one after the other.

Usage, from the root of a checkout:

    python3 bench/thread_check.py --seed 1 --repeats 3

Prints one JSON line with the median phase-1 seconds of each setting.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

CHILD = """
import json, sys, time
import numpy as np
import chadkit as ck
from chadkit import trainer
import workloads
seed, repeats = int(sys.argv[1]), int(sys.argv[2])
(train_set, *_), _ = workloads.train_inputs(workloads.DESK_DATA, 0, seed)
times = []
for _ in range(repeats):
    model = ck.ChadModel(train_set.schema, ck.ModelConfig(), np.random.default_rng(seed))
    start = time.perf_counter()
    trainer.run_phase1(model, train_set, workloads.schedule(seed))
    times.append(time.perf_counter() - start)
print(json.dumps(times))
"""


def phase1_seconds(pinned: bool, seed: int, repeats: int) -> list[float]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if pinned:
        env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT / "bench")))
    done = subprocess.run([sys.executable, "-c", CHILD, str(seed), str(repeats)], env=env,
                          capture_output=True, text=True, check=True, timeout=600)
    return json.loads(done.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    result = {"cpu_count": os.cpu_count()}
    for label, pinned in (("pinned_1_thread", True), ("default_threads", False)):
        times = phase1_seconds(pinned, args.seed, args.repeats)
        result[label] = {"phase1_s_median": statistics.median(times), "phase1_s": times}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
