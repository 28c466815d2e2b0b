"""Layer spans recorded from outside the program.

`Tracer.install()` wraps the public functions of each `ecgrecon` module at
every module attribute and class attribute through which the program
reaches them (``cli.pretrain`` as well as ``contrastive.pretrain``), so a
call records a span whoever makes it. `Tracer.uninstall()` puts the
originals back. Spans stay in memory until `write()`; `layer_metrics()`
turns them into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import numpy as np

FUNCTIONS = {
    "wfdb_io": ("load_record", "write_record"),
    "dsp": ("notch_filter", "bandpass_filter", "design_bandpass",
            "baseline_remove", "resample_to_100hz", "detect_r_peaks"),
    "dataset": ("segment_record", "segment_record_nonoverlap", "fit_qc_bounds",
                "apply_qc", "save_segments", "load_segments", "load_vectors",
                "save_vectors"),
    "nn": ("save_checkpoint", "load_checkpoint"),
    "contrastive": ("make_views", "supcon_loss", "embed_all", "pretrain"),
    "reconstruction": ("normalize_x", "normalize_h", "recon_loss", "decode",
                       "reconstruct_segments", "reconstruct_record"),
    "evaluation": ("evaluate_model", "rmse", "r2", "pearson"),
}
METHODS = (("nn", "Encoder", "forward"), ("nn", "ProjectionHead", "forward"),
           ("nn", "LeadDecoder", "forward"), ("optim", "AdamW", "step"),
           ("tensor", "Tensor", "backward"))
TAPE_OPS = ("conv1d", "matmul", "add", "mul", "exp", "log", "power", "sqrt",
            "relu", "absolute", "tensor_sum", "concat", "broadcast_over_time")
# conv1d is reported as two ops, split on kernel size
OPS = ("conv1d_pointwise", "conv1d_window") + TAPE_OPS[1:]
STAGES = ("preprocess", "split", "pretrain", "embed", "train", "evaluate",
          "reconstruct")
FILTER_DESIGNS = ("butter", "iirnotch")

# how many items a call handled, where a ratio needs it
_ITEMS = {
    "dataset.segment_record_nonoverlap": lambda args, out: len(out),
    "nn.LeadDecoder.forward": lambda args, out: args[1].shape[0],
}


class _CountingSignal:
    """Stands in for `scipy.signal` inside `ecgrecon.dsp` and counts the
    filter designs made through it."""

    def __init__(self, module, tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if name not in FILTER_DESIGNS:
            return value
        tracer = self._tracer

        def design(*args, **kwargs):
            tracer.filter_designs += 1
            return value(*args, **kwargs)

        return design


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        # one row per call: [name id, start, end, parent row or -1, items]
        self.spans = []
        self._stack = []
        self._patches = []
        self.filter_designs = 0
        self.op_results = 0
        self.grad_nodes = 0

    # -- recording ------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _call(self, nid, fn, args, kwargs):
        stack = self._stack
        row = [nid, 0.0, 0.0, stack[-1] if stack else -1, 0]
        stack.append(len(self.spans))
        self.spans.append(row)
        row[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            row[2] = perf_counter()
            stack.pop()

    def _wrap(self, name, fn):
        nid = self._id(name)
        items = _ITEMS.get(name)
        call = self._call
        spans = self.spans

        def traced(*args, **kwargs):
            row = len(spans)
            out = call(nid, fn, args, kwargs)
            if items is not None:
                spans[row][4] = items(args, out)
            return out

        return traced

    def _wrap_op(self, name, fn):
        if name == "conv1d":
            fwd = {1: self._id("tensor.conv1d_pointwise.fwd")}
            window = self._id("tensor.conv1d_window.fwd")

            def fwd_id(args, kwargs):
                w = args[1] if len(args) > 1 else kwargs["w"]
                return fwd.get(w.shape[2], window)
        else:
            nid = self._id(f"tensor.{name}.fwd")

            def fwd_id(args, kwargs):
                return nid

        call = self._call

        def traced(*args, **kwargs):
            fid = fwd_id(args, kwargs)
            out = call(fid, fn, args, kwargs)
            self.op_results += 1
            backward = out._backward
            if backward is not None:
                self.grad_nodes += 1
                bid = self._id(self.names[fid][:-4] + ".bwd")
                out._backward = lambda g: call(bid, backward, (g,), {})
            return out

        return traced

    # -- installing -----------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Point every ecgrecon module attribute bound to `original` at
        `replacement`."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "ecgrecon"
                                      or mod_name.startswith("ecgrecon.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self):
        import importlib
        mods = {m: importlib.import_module(f"ecgrecon.{m}") for m in
                ("cli", "wfdb_io", "dsp", "dataset", "tensor", "nn", "optim",
                 "contrastive", "reconstruction", "evaluation")}
        for mod, names in FUNCTIONS.items():
            for name in names:
                original = getattr(mods[mod], name)
                self._replace_everywhere(original,
                                         self._wrap(f"{mod}.{name}", original))
        for mod, cls_name, meth in METHODS:
            cls = getattr(mods[mod], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{mod}.{cls_name}.{meth}", original))
        for op in TAPE_OPS:
            original = getattr(mods["tensor"], op)
            self._replace_everywhere(original, self._wrap_op(op, original))
        for stage in STAGES:
            original = getattr(mods["cli"], f"cmd_{stage}")
            self._replace_everywhere(original, self._wrap(f"cli.{stage}", original))
        dsp = mods["dsp"]
        self._patches.append((dsp, "signal", dsp.signal))
        dsp.signal = _CountingSignal(dsp.signal, self)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------

    def write(self, path):
        """Spans as rows of [index into names, start, end, parent row]
        (seconds from the first span; parent -1 for a top-level span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[nid, round(s - t0, 7), round(e - t0, 7), parent]
                for nid, s, e, parent, _ in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": self.names, "columns":
                                    ["name_index", "start_s", "end_s", "parent"],
                                    "spans": rows}))

    def _under(self, markers):
        """Per span: does any ancestor carry one of the `markers` names?"""
        marker_ids = {self._ids[m] for m in markers if m in self._ids}
        under = np.zeros(len(self.spans), dtype=bool)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                under[i] = under[parent] or self.spans[parent][0] in marker_ids
        return under

    def layer_metrics(self, rounds, test_records, target_leads):
        """Per-layer metrics, each summed over the run and divided by the
        number of rounds, so runs of different length compare."""
        n = len(self.spans)
        nid = np.array([r[0] for r in self.spans], dtype=np.int64)
        dur = np.array([r[2] - r[1] for r in self.spans])
        parent = np.array([r[3] for r in self.spans], dtype=np.int64)
        items = np.array([r[4] for r in self.spans], dtype=np.int64)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        total = np.bincount(nid, weights=dur, minlength=k)
        self_total = np.bincount(nid, weights=dur - child, minlength=k)
        calls = np.bincount(nid, minlength=k)

        def pick(array, name):
            i = self._ids.get(name)
            return float(array[i]) / rounds if i is not None else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}

        def put(name, value, unit):
            m[name] = {"value": value, "unit": unit}

        for fn in ("load_record", "write_record"):
            put(f"wfdb_io.{fn}.s", pick(total, f"wfdb_io.{fn}"), "s")
            put(f"wfdb_io.{fn}.calls", pick(calls, f"wfdb_io.{fn}"), "count")
        stage_ids = [self._ids[s] for s in ("cli.evaluate", "cli.reconstruct")
                     if s in self._ids]
        in_stage = self._under(("cli.evaluate", "cli.reconstruct"))
        loads = int(np.sum(in_stage & (nid == self._ids.get("wfdb_io.load_record", -1))))
        stage_runs = int(np.isin(nid, stage_ids).sum())
        put("wfdb_io.records_loaded_per_test_record",
            ratio(loads, test_records * stage_runs), "ratio")

        for fn in ("notch_filter", "bandpass_filter", "design_bandpass",
                   "baseline_remove", "resample_to_100hz", "detect_r_peaks"):
            put(f"dsp.{fn}.s", pick(total, f"dsp.{fn}"), "s")
        for fn in ("design_bandpass", "detect_r_peaks"):
            put(f"dsp.{fn}.calls", pick(calls, f"dsp.{fn}"), "count")
        put("dsp.filter_designs", self.filter_designs / rounds, "count")
        signals = pick(calls, "dsp.bandpass_filter") + pick(calls, "dsp.detect_r_peaks")
        put("dsp.filter_designs_per_lead", ratio(self.filter_designs / rounds, signals),
            "ratio")

        for fn in FUNCTIONS["dataset"]:
            put(f"dataset.{fn}.s", pick(total, f"dataset.{fn}"), "s")
        put("dataset.load_segments.calls", pick(calls, "dataset.load_segments"), "count")

        for op in OPS:
            put(f"tensor.{op}.fwd_s", pick(total, f"tensor.{op}.fwd"), "s")
            put(f"tensor.{op}.bwd_s", pick(total, f"tensor.{op}.bwd"), "s")
            put(f"tensor.{op}.calls", pick(calls, f"tensor.{op}.fwd"), "count")
        put("tensor.backward.self_s", pick(self_total, "tensor.Tensor.backward"), "s")
        put("tensor.grad_nodes_per_op", ratio(self.grad_nodes, self.op_results), "ratio")

        for cls in ("Encoder", "ProjectionHead", "LeadDecoder"):
            put(f"nn.{cls}.forward.s", pick(total, f"nn.{cls}.forward"), "s")
        put("nn.LeadDecoder.forward.calls", pick(calls, "nn.LeadDecoder.forward"), "count")
        for fn in ("save_checkpoint", "load_checkpoint"):
            put(f"nn.{fn}.s", pick(total, f"nn.{fn}"), "s")

        put("optim.AdamW.step.s", pick(total, "optim.AdamW.step"), "s")
        put("optim.AdamW.step.calls", pick(calls, "optim.AdamW.step"), "count")

        for fn in ("make_views", "supcon_loss", "embed_all"):
            put(f"contrastive.{fn}.s", pick(total, f"contrastive.{fn}"), "s")
        put("contrastive.supcon_loss.calls", pick(calls, "contrastive.supcon_loss"), "count")

        for fn in ("normalize_x", "normalize_h", "recon_loss", "decode",
                   "reconstruct_segments", "reconstruct_record"):
            put(f"reconstruction.{fn}.s", pick(total, f"reconstruction.{fn}"), "s")
        put("reconstruction.normalize_x.calls", pick(calls, "reconstruction.normalize_x"),
            "count")
        decoder_id = self._ids.get("nn.LeadDecoder.forward", -1)
        put("reconstruction.windows_decoded",
            float(items[nid == decoder_id].sum()) / rounds, "count")

        put("evaluation.evaluate_model.s", pick(total, "evaluation.evaluate_model"), "s")
        put("evaluation.metrics.s", sum(pick(total, f"evaluation.{fn}")
                                        for fn in ("rmse", "r2", "pearson")), "s")
        in_eval = self._under(("evaluation.evaluate_model",))
        eval_id = self._ids.get("evaluation.evaluate_model", -1)
        seg_id = self._ids.get("dataset.segment_record_nonoverlap", -1)
        direct = (nid == seg_id) & has_parent
        direct[direct] = nid[parent[direct]] == eval_id
        scored = int(items[direct].sum())
        decoded = int(items[in_eval & (nid == decoder_id)].sum())
        put("evaluation.decodes_per_scored_window",
            ratio(decoded, scored * len(target_leads)), "ratio")

        for stage in STAGES:
            put(f"cli.{stage}.self_s", pick(self_total, f"cli.{stage}"), "s")
        return m
