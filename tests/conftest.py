import ctypes
import csv
import glob
import json
import math
import os

import numpy as np
import pytest

from chadkit.data import Dataset, RecordSchema


@pytest.fixture
def small_schema():
    return RecordSchema(
        ["color", "shape"],
        ["size", "weight", "width", "height"],
        [{"red": 0, "green": 1, "blue": 2}, {"circle": 0, "square": 1}],
    )


@pytest.fixture
def small_dataset(small_schema):
    rng = np.random.default_rng(42)
    n = 40
    cat = np.stack([rng.integers(0, 3, n), rng.integers(0, 2, n)], axis=1)
    cont = rng.random((n, 4))
    return Dataset(small_schema, cat, cont)


def write_csv(path, schema, cat, cont, header=None, label=None):
    """Write rows of a dataset-like structure as a CSV file."""
    header = header or (list(schema.cat_fields) + list(schema.cont_fields))
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header + (["label"] if label is not None else []))
        for i in range(len(cat)):
            row = [schema.decode_value(w, cat[i][w]) for w in range(schema.k)]
            row += [repr(float(v)) for v in cont[i]]
            if label is not None:
                row.append(str(int(label[i])))
            writer.writerow(row)


def read_csv(path):
    """Every row of a CSV file, the header included."""
    with open(path, newline="") as f:
        return list(csv.reader(f))


def copy_params(model, prefix=""):
    """Copies of the model's parameters whose names start with ``prefix``
    (all of them by default), for bitwise freeze checks."""
    return {k: v.copy() for k, v in model.group(prefix)[2].items()}


def grad_check(loss_fn, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               probe_count: int = 20, h: float = 1e-5,
               rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` takes no arguments, reads the live arrays in ``params``,
    returns the loss and leaves its gradient in the same-named arrays of
    ``grads``. It must be deterministic (dropout disabled, any noise frozen),
    since it is re-evaluated at perturbed coordinates.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    loss_fn()
    analytic = {name: g.copy() for name, g in grads.items()}
    names = sorted(params)
    worst = 0.0
    for _ in range(probe_count):
        name = names[rng.integers(len(names))]
        arr = params[name]
        idx = int(rng.integers(arr.size))
        orig = arr.flat[idx]
        arr.flat[idx] = orig + h
        lp = loss_fn()
        arr.flat[idx] = orig - h
        lm = loss_fn()
        arr.flat[idx] = orig
        fd = (lp - lm) / (2.0 * h)
        g = analytic[name].flat[idx]
        worst = max(worst, abs(g - fd) / max(abs(g), abs(fd), 1e-5))
    return worst


def write_schema_json(path, schema):
    obj = {name: "categorical" for name in schema.cat_fields}
    obj.update({name: "continuous" for name in schema.cont_fields})
    with open(path, "w") as f:
        json.dump(obj, f)


# ---- the bit pins and what they depend on -----------------------------------

# The numpy and BLAS build every pin was recorded with; another build may
# round differently and still be reproducible on its own.
PINNED_BUILD = ("2.4.6", "scipy-openblas", "0.3.31")

# SHA-256 of each pinned output, per host key (see ``bits_key``):
# - desk_model: the desk seed-1 model file
# - desk_scores: the little-endian float64 scores of its 1000 held-out rows
# - cli_scores: the scores CSV that `chadkit score` writes for that model
# - wide_model: a short training on a 300-value embedding and 38 continuous
#   fields mapped through g.W
# ("Haswell", "libm exp") is reproduced on an AVX-512 host by running with
# OPENBLAS_CORETYPE=Haswell and NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
# AVX512_SPR".
PINS = {
    ("SkylakeX", "SIMD exp"): {
        "desk_model": "09dc547542f41d8aaed9b659b4b4e2798dfad3ec2428a869d9dc846ba681eb76",
        "desk_scores": "5c93537ad5b6f0640866d39789854e7b36c0b2f4dce343ee01c9ae2fa33b89e4",
        "cli_scores": "315c6a51ca543e70547ae729b531c7c35b8af2ed987c6e57757a06d40ea03193",
        "wide_model": "83d80ffab186e931d3357543c2dd9c4d3743ec6c1cead17d2565f7d49af3e49f",
    },
    ("Haswell", "libm exp"): {
        "desk_model": "aaaa90b90bfe70939bca1bdf27c1c2281308c334ab08eaaeb2cfc0c72ae13590",
        "desk_scores": "c469812da20361736a6b43e065523d5479c5f78f9656c84d308aac84185f0d93",
        "cli_scores": "4b132402c282b5a5496194a923b68ed548f82b2eec045f02ae4b97acc91065cf",
        "wide_model": "52680508a6b60bf9e6a8b38b26e56cdf04750b1ace834ff8f46bdb75bcca5d4d",
    },
}

# where numpy's float64 exp is libm's, it equals math.exp on every one of these
EXP_PROBE = np.linspace(-700.0, 700.0, 4001)


def numpy_blas_build():
    """(numpy version, BLAS name, BLAS version), or None when numpy cannot say."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.26 has no mode="dicts"
        return None
    return np.__version__, blas.get("name"), str(blas.get("version", ""))


def openblas_corename():
    """The dgemm kernel OpenBLAS picked when it loaded (e.g. "SkylakeX"), or
    None where numpy's bundled OpenBLAS or its core-name symbol is absent."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def exp_is_libm() -> bool:
    """Whether numpy's float64 exp gives libm's bits, as it does where numpy
    has no SIMD exp of its own or its AVX-512 dispatch is disabled."""
    return np.exp(EXP_PROBE).tolist() == [math.exp(v) for v in EXP_PROBE.tolist()]


def bits_key():
    """What the pinned bits depend on besides the numpy and BLAS build: the
    OpenBLAS kernel, whose dgemm sums in its own order, and numpy's exp path,
    which the sigmoid uses."""
    return openblas_corename(), "libm exp" if exp_is_libm() else "SIMD exp"


def pinned_hash(name: str):
    """(the pinned SHA-256 of output ``name`` on this host, or None when no pin
    is recorded for it, and a description of the host's key)."""
    build, key = numpy_blas_build(), bits_key()
    on_build = build is not None and build[:2] == PINNED_BUILD[:2] \
        and build[2].startswith(PINNED_BUILD[2])
    pin = PINS.get(key, {}).get(name) if on_build else None
    return pin, f"numpy/BLAS {build}, kernel {key[0]}, {key[1]}"


def report_pin(name, what, digest, pin, key):
    """Print a pin test's PASS line: whether ``digest`` was compared, on which key."""
    print(f"\nACCEPTANCE {name}: PASS ({what} sha256 {digest[:8]}... on {key}: " + (
        "equals the pinned hash)" if pin else
        "not compared, no pin is recorded there; two runs gave equal bytes)"))
