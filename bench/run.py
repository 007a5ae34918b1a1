"""chadkit benchmark: one command for every workload and metric.

Usage, from the root of a checkout:

    python3 bench/run.py --workload desk_train --seed 1 --seconds 32 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json; ``--trace 1``
is a separate run that wraps chadkit's layers in spans and reports the
per-layer metrics and the tracing overhead. The program is imported from
``src/`` of the same checkout. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Above it are one
line per metric and a JSON line with the environment manifest, the model
hash, the output checks and the raw samples.
"""
import ctypes
import os
import sys

ADDR_NO_RANDOMIZE = 0x0040000
PERSONALITY_QUERY = 0xFFFFFFFF


def _aslr_off() -> bool:
    """Turn address-space randomization off for this process and re-exec it.

    With it on, where the kernel places the heap and the mappings decides
    whether glibc serves numpy's large temporaries from the heap or from
    fresh mappings, so the same run flips between two speeds from one
    process to the next. The flag is per process and inherited by children;
    it changes no machine setting. Returns whether it is off; where the
    call is not allowed the run goes on with randomization on.
    """
    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
    except (OSError, AttributeError):
        return False
    personality.restype = ctypes.c_int
    current = personality(ctypes.c_ulong(PERSONALITY_QUERY))
    if current == -1:
        return False
    if current & ADDR_NO_RANDOMIZE:
        return True
    if personality(ctypes.c_ulong(current | ADDR_NO_RANDOMIZE)) == -1:
        return False
    sys.stdout.flush()
    try:
        os.execv(sys.executable, sys.orig_argv)
    except OSError:
        return False  # the flag only takes effect at exec


ASLR_OFF = _aslr_off()

# Pinned before numpy is imported, here and in every child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "CHADKIT_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("desk_train", "wide_train", "bulk_score")


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def _src_sha256() -> str:
    """Digest of the chadkit sources, which names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "chadkit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def manifest() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "chadkit_commit": _git_commit(),
        "chadkit_src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "aslr_off": ASLR_OFF,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chadkit" / "__init__.py").is_file():
        print(f"error: no chadkit sources at {SRC / 'chadkit'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    sys.path.insert(0, str(SRC))
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(exist_ok=True)
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                work, SRC, OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = outcome.metrics()
    if set(values) != set(units):
        print(f"error: measured {sorted(values)}, BENCHMARK.json lists {sorted(units)}",
              file=sys.stderr)
        return 1
    correct = all(outcome.checks.values()) and outcome.failed == 0
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "manifest": manifest(), **outcome.info, "checks": outcome.checks,
                      "samples": outcome.samples}))
    for name in units:
        print(f"{name:50s} {values[name]:.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
