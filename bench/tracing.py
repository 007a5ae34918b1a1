"""In-memory span tracer for the benchmark's traced run.

The tracer wraps chadkit callables from outside, replacing each name where
its caller looks it up (a module global such as
``chadkit.trainer.generate_negatives_batch``, or a class attribute such as
``chadkit.nn.DenseLayer.forward``). Every call becomes a span holding its
name, start, end, parent span and run id. Counts are recorded at the same
boundaries. Spans stay in memory until ``write_spans`` is called at the end
of the run.

Self time is a span's duration minus the time its child spans cover. Calls
are synchronous and single-threaded, so child spans never overlap and that
is the duration minus the sum of the children's durations.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute path, span name). Each entry patches the name where
# its caller looks it up, so that calls made inside chadkit are traced.
SPANS = (
    ("chadkit.nn", "DenseLayer.forward", "nn.DenseLayer.forward"),
    ("chadkit.nn", "DenseLayer.backward", "nn.DenseLayer.backward"),
    ("chadkit.nn", "dropout_mask", "nn.dropout_mask"),
    ("chadkit.nn", "Adam.step", "nn.Adam.step"),
    ("chadkit.autoencoder", "FieldTransform.forward", "autoencoder.FieldTransform.forward"),
    ("chadkit.autoencoder", "FieldTransform.backward", "autoencoder.FieldTransform.backward"),
    ("chadkit.autoencoder", "Autoencoder.reconstruction_loss",
     "autoencoder.Autoencoder.reconstruction_loss"),
    ("chadkit.trainer", "generate_negatives_batch", "negsampler.generate_negatives_batch"),
    ("chadkit.negsampler", "_perturb_cat_batch", "negsampler.cat_pass"),
    ("chadkit.negsampler", "_perturb_cont_batch", "negsampler.cont_pass"),
    ("chadkit.estimator", "Estimator.loss", "estimator.Estimator.loss"),
    ("chadkit.estimator", "contrastive_loss_terms", "estimator.contrastive_loss_terms"),
    ("chadkit.model", "ChadModel.loss_estimator", "model.ChadModel.loss_estimator"),
    ("chadkit.trainer", "run_phase1", "trainer.run_phase1"),
    ("chadkit.trainer", "run_phase2", "trainer.run_phase2"),
    ("chadkit.trainer", "run_phase3", "trainer.run_phase3"),
    ("chadkit.cli", "load_csv", "data.load_csv"),
    ("chadkit.cli", "apply_normalize", "data.apply_normalize"),
    ("chadkit.cli", "load_model", "persist.load_model"),
    ("chadkit.cli", "score_dataset", "evaluate.score_dataset"),
    ("chadkit.evaluate", "score_dataset", "evaluate.score_dataset"),
    ("chadkit.evaluate", "ScoredRecords.sorted_ascending",
     "evaluate.ScoredRecords.sorted_ascending"),
    ("chadkit.cli", "cmd_score", "cli.cmd_score"),
)

# Wrapped for counting only: a span here would move the encoder's glue out
# of its callers' self time.
COUNTERS = (("chadkit.autoencoder", "Autoencoder.encode", "autoencoder.Autoencoder.encode"),)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_dense_forward(tracer, args, kwargs, result):
    layer, rows = args[0], result[0].shape[0]
    tracer.counts["nn.DenseLayer.forward.calls"] += 1
    tracer.counts["nn.DenseLayer.forward.gflop"] += 2e-9 * rows * layer.in_dim * layer.out_dim


def _count_dense_backward(tracer, args, kwargs, result):
    layer, rows = args[0], result[0].shape[0]
    # two matmuls: the weight gradient and the input gradient
    tracer.counts["nn.DenseLayer.backward.gflop"] += 4e-9 * rows * layer.in_dim * layer.out_dim


def _count_dropout(tracer, args, kwargs, result):
    rate = _arg(args, kwargs, 2, "rate")
    if _arg(args, kwargs, 3, "training", True) and rate > 0.0:
        tracer.counts["nn.dropout_mask.elements"] += math.prod(_arg(args, kwargs, 1, "shape"))


def _count_adam(tracer, args, kwargs, result):
    tracer.counts["nn.Adam.step.param_elements"] += sum(p.size for p in args[0].params.values())


def _count_transform_rows(tracer, args, kwargs, result):
    tracer.counts["autoencoder.FieldTransform.forward.rows"] += result[0].shape[0]


def _count_negatives(tracer, args, kwargs, result):
    neg_cat, neg_cont = result
    m = _arg(args, kwargs, 2, "config").m
    src_cat = np.asarray(_arg(args, kwargs, 0, "cat")).reshape(-1, neg_cat.shape[1])
    src_cont = np.asarray(_arg(args, kwargs, 1, "cont")).reshape(-1, neg_cont.shape[1])
    changed = ((neg_cat != np.repeat(src_cat, m, axis=0)).any(axis=1)
               | (neg_cont != np.repeat(src_cont, m, axis=0)).any(axis=1))
    tracer.counts["negsampler.generate_negatives_batch.rows"] += neg_cat.shape[0]
    tracer.counts["negsampler.changed"] += int(changed.sum())


def _count_contrastive(tracer, args, kwargs, result):
    f_pos = np.asarray(_arg(args, kwargs, 0, "f_pos"), dtype=float).reshape(-1)
    f_neg = np.asarray(_arg(args, kwargs, 1, "f_neg"), dtype=float)
    clamp = _arg(args, kwargs, 3, "clamp")
    if clamp is None:
        clamp = sys.modules["chadkit.estimator"].LOG_CLAMP
    c = tracer.counts
    c["estimator.clamped"] += int((f_pos <= clamp).sum()
                                  + (1.0 - f_neg.mean(axis=1) <= clamp).sum())
    c["estimator.log_args"] += 2 * f_pos.size
    c["estimator.f_pos_sum"] += float(f_pos.sum())
    c["estimator.f_pos_n"] += f_pos.size
    c["estimator.f_neg_sum"] += float(f_neg.sum())
    c["estimator.f_neg_n"] += f_neg.size


def _count_load_csv(tracer, args, kwargs, result):
    tracer.counts["data.load_csv.rows"] += result[1].rows_read


def _count_scored(tracer, args, kwargs, result):
    tracer.counts["evaluate.score_dataset.rows"] += _arg(args, kwargs, 1, "dataset").n


def _count_encode(tracer, args, kwargs, result):
    if "trainer.run_phase3" in tracer.open_names:
        tracer.counts["trainer.phase3.encode_rows"] += result[0].shape[0]


COUNT_FNS = {
    "nn.DenseLayer.forward": _count_dense_forward,
    "nn.DenseLayer.backward": _count_dense_backward,
    "nn.dropout_mask": _count_dropout,
    "nn.Adam.step": _count_adam,
    "autoencoder.FieldTransform.forward": _count_transform_rows,
    "negsampler.generate_negatives_batch": _count_negatives,
    "estimator.contrastive_loss_terms": _count_contrastive,
    "data.load_csv": _count_load_csv,
    "evaluate.score_dataset": _count_scored,
    "autoencoder.Autoencoder.encode": _count_encode,
}

# span names whose self time is reported as "<name>.self_s"
SELF_TIMED = tuple(dict.fromkeys(name for _, _, name in SPANS))

# counts reported as they are
RAW_COUNTS = (
    "nn.DenseLayer.forward.calls", "nn.DenseLayer.forward.gflop",
    "nn.DenseLayer.backward.gflop", "nn.dropout_mask.elements",
    "nn.Adam.step.param_elements", "autoencoder.FieldTransform.forward.rows",
    "negsampler.generate_negatives_batch.rows",
)


def _ratio(num, den):
    return num / den if den else 0.0


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans and counts for the chadkit callables listed above."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list = []
        self.run_id = None
        self.missing: list[str] = []
        self._patches: list = []
        self._stack: list[int] = []
        self._child_s: list[float] = []
        self.open_names: list[str] = []
        self.reset()

    def reset(self):
        """Start fresh per-iteration totals; recorded spans are kept."""
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(float)

    # ---- patching -------------------------------------------------------

    @contextlib.contextmanager
    def recording(self, run_id):
        """Trace the calls made inside the block, with fresh totals."""
        self.reset()
        self.run_id = run_id
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self):
        for module_name, path, name in SPANS:
            self._patch(module_name, path, name, self._span_wrapper)
        for module_name, path, name in COUNTERS:
            self._patch(module_name, path, name, self._count_wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module_name, path, name, make_wrapper):
        try:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            # a later refactor may remove or rename a target: its metrics read 0
            self.missing.append(f"{module_name}.{path}")
            return
        setattr(owner, attr, make_wrapper(original, name, COUNT_FNS.get(name)))
        self._patches.append((owner, attr, original))

    def _span_wrapper(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, child_s = tracer._stack, tracer._child_s
            parent = stack[-1] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            child_s.append(0.0)
            tracer.open_names.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                inner = child_s.pop()
                tracer.open_names.pop()
                duration = end - start
                if child_s:
                    child_s[-1] += duration
                tracer.spans[index] = (name, start - tracer.t0, end - tracer.t0, parent,
                                       tracer.run_id)
                tracer.self_s[name] += duration - inner
                tracer.total_s[name] += duration
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(tracer, args, kwargs, result)
            return result

        return counted

    # ---- results --------------------------------------------------------

    def layer_metrics(self, phase3_records: int, phase3_epochs: int) -> dict[str, float]:
        """Per-layer metrics of the calls made since the last ``reset``."""
        c = self.counts
        out = {f"{name}.self_s": self.self_s.get(name, 0.0) for name in SELF_TIMED}
        out.update({name: c.get(name, 0.0) for name in RAW_COUNTS})
        out["trainer.phase3.encode_rows_per_record"] = _ratio(
            c["trainer.phase3.encode_rows"], phase3_records * phase3_epochs)
        out["negsampler.changed_share"] = _ratio(
            c["negsampler.changed"], c["negsampler.generate_negatives_batch.rows"])
        out["estimator.clamp_share"] = _ratio(c["estimator.clamped"], c["estimator.log_args"])
        out["estimator.score_gap"] = (_ratio(c["estimator.f_pos_sum"], c["estimator.f_pos_n"])
                                      - _ratio(c["estimator.f_neg_sum"], c["estimator.f_neg_n"]))
        out["data.load_csv.rows_per_s"] = _ratio(c["data.load_csv.rows"],
                                                 self.total_s.get("data.load_csv", 0.0))
        out["evaluate.score_dataset.rows_per_s"] = _ratio(
            c["evaluate.score_dataset.rows"], self.total_s.get("evaluate.score_dataset", 0.0))
        return out

    def write_spans(self, path):
        """One JSON list per line: name, start_s, end_s, parent index, run id."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
