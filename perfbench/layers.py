"""Per-layer metrics: where the spans go and what is derived from them.

Layers are the package modules (rnf, activations, network, training,
datasets, bench, cli).  Each function is wrapped where its caller looks it
up, e.g. `modhtan.training.forward` rather than `modhtan.network.forward`,
so only calls that really go through the program's own paths are seen.
"""

from __future__ import annotations

import statistics
from collections import Counter

import numpy as np

from modhtan import activations, bench, cli, datasets, network, training
from tracing import Tracer
from workloads import LM_FNS, SATURATION_GRAD, Call, parse_approx, quality

# (module the caller looks the name up in, attribute, span name)
SPAN_SITES = (
    (cli, "main", "cli.main"),
    (cli, "run_experiment", "bench.run_experiment"),
    (cli, "emit_report", "bench.emit_report"),
    (cli, "dump_curves", "bench.dump_curves"),
    (cli, "approx_bench", "bench.approx_bench"),
    (bench, "train_lm", "training.train_lm"),
    (bench, "gen_quadratic", "datasets.gen_quadratic"),
    (bench, "load_heart", "datasets.load_heart"),
    (bench, "split", "datasets.split"),
    (bench, "forward", "network.forward"),
    (bench, "mse", "training.mse"),
    (bench, "activate", "activations.activate"),
    (bench, "rnf_exp", "rnf.rnf_exp"),
    (datasets, "gen_quadratic", "datasets.gen_quadratic"),
    (datasets, "load_heart", "datasets.load_heart"),
    (datasets, "make_heart_fixture", "datasets.make_heart_fixture"),
    (training, "forward", "network.forward"),
    (training, "jacobian", "network.jacobian"),
    (training, "with_params", "network.with_params"),
    (training, "mse", "training.mse"),
    (network, "activate", "activations.activate"),
    (activations, "modhtan", "activations.modhtan"),
    (activations, "adaptive_offset", "activations.adaptive_offset"),
    (activations, "rnf_exp", "rnf.rnf_exp"),
)


class LayerTrace:
    """A Tracer on every span site plus the counts taken at those sites."""

    def __init__(self):
        self.tracer = Tracer()
        self.counts: Counter = Counter()
        hooks = {
            (training, "forward"): self._count_training_forward,
            (training, "jacobian"): self._count_jacobian,
            (network, "activate"): self._count_saturation,
            (bench, "activate"): self._count_saturation,
            (bench, "rnf_exp"): self._count_rnf_elems,
            (activations, "rnf_exp"): self._count_rnf_elems,
        }
        for module, attr, name in SPAN_SITES:
            self.tracer.patch(module, attr, name, after=hooks.get((module, attr)))

    def _count_training_forward(self, args, kwargs, result):
        self.counts["training.forward.calls"] += 1

    def _count_jacobian(self, args, kwargs, result):
        self.counts["network.jacobian.bytes_computed"] += result[0].size * 8

    def _count_saturation(self, args, kwargs, result):
        name = args[0].name
        self.counts[f"saturated.{name}"] += int(np.count_nonzero(np.abs(result.grads) < SATURATION_GRAD))
        self.counts[f"entries.{name}"] += result.grads.size

    def _count_rnf_elems(self, args, kwargs, result):
        self.counts["rnf.rnf_exp.elems"] += int(np.size(args[0]))

    def restore(self) -> None:
        self.tracer.restore()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(trace: LayerTrace, calls: list[Call], untraced_wall_s: float) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from one traced pass.

    A layer that does not run on the workload reports 0 calls and 0 s.
    """
    tr, counts = trace.tracer, trace.counts
    m: dict[str, float] = {}
    m["rnf.rnf_exp.calls"] = tr.calls["rnf.rnf_exp"]
    m["rnf.rnf_exp.self_s"] = tr.self_s["rnf.rnf_exp"]
    m["rnf.rnf_exp.ns_per_elem"] = 1e9 * _ratio(tr.total_s["rnf.rnf_exp"], counts["rnf.rnf_exp.elems"])
    approx = [parse_approx(c.stdout) for c in calls if c.stdout.startswith("rnf_exp ")]
    m["rnf.np_exp.ns_per_elem"] = statistics.median(a[1] for a in approx) if approx else 0.0
    m["rnf.max_rel_err"] = max((a[2] for a in approx), default=0.0)

    m["activations.activate.calls"] = tr.calls["activations.activate"]
    m["activations.activate.self_s"] = tr.self_s["activations.activate"]
    m["activations.modhtan.self_s"] = tr.self_s["activations.modhtan"]
    m["activations.adaptive_offset.self_s"] = tr.self_s["activations.adaptive_offset"]
    for fn in LM_FNS:
        m[f"activations.saturated_frac.{fn}"] = _ratio(counts[f"saturated.{fn}"], counts[f"entries.{fn}"])

    for name in ("network.forward", "network.jacobian", "network.with_params", "training.train_lm"):
        m[f"{name}.calls"] = tr.calls[name]
        m[f"{name}.self_s"] = tr.self_s[name]
    m["network.jacobian.bytes_computed"] = counts["network.jacobian.bytes_computed"]
    m["training.mse.self_s"] = tr.self_s["training.mse"]

    fits = [f for c in calls for f in c.fits]
    accepted = sum(len(f.history.mu) for f in fits)
    candidates = counts["training.forward.calls"] - len(fits)
    m["training.lm.epochs"] = sum(len(f.history.loss) for f in fits)
    m["training.lm.candidates"] = candidates
    m["training.lm.accept_ratio"] = _ratio(accepted, candidates)
    terms = Counter(f.history.termination for f in fits)
    for reason in ("epochs", "mu_max", "grad_tol", "no_improvement", "stall"):
        m[f"training.lm.term.{reason}"] = terms[reason]
    m["training.normal_eq.flops_computed"] = sum(
        len(f.history.loss) * f.X.shape[0] * f.T.shape[1] * f.n_params**2 for f in fits
    )
    q = quality(calls)
    for fn in LM_FNS:
        m[f"final_mse.median.{fn}"] = q.get(f"final_mse.median.{fn}", 0.0)
        m[f"test_acc_pct.mean.{fn}"] = q.get(f"test_acc_pct.mean.{fn}", 0.0)

    for name in ("gen_quadratic", "load_heart", "make_heart_fixture", "split"):
        m[f"datasets.{name}.self_s"] = tr.self_s[f"datasets.{name}"]
    for name in ("run_experiment", "emit_report", "dump_curves", "approx_bench"):
        m[f"bench.{name}.self_s"] = tr.self_s[f"bench.{name}"]
    m["cli.main.self_s"] = tr.self_s["cli.main"]
    traced_wall_s = sum(c.wall_s for c in calls)
    m["trace.overhead_frac"] = _ratio(traced_wall_s - untraced_wall_s, untraced_wall_s)
    return {k: float(v) for k, v in m.items()}
