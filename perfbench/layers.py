"""Per-layer metrics of the traced run: counters, isolated probes, span maths.

Each metric names the end-to-end metric it should move (see
``perfbench/README.md``).  A metric whose function no longer exists is
absent, not an error.  Metrics with unit ``count`` are exact-repeat counts:
two traced repetitions at one seed must give the same value.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict

import numpy as np

from spans import LAYERS, self_times

# (name, unit, better) in report order
PER_LAYER = [
    ("autodiff.tape_forward_ms", "ms", "lower"),
    ("autodiff.backward_ms", "ms", "lower"),
    ("autodiff.tape_nodes", "count", "lower"),
    ("autodiff.tape_mb", "MB", "lower"),
    ("network.forward_ms", "ms", "lower"),
    ("train.epoch_ms", "ms", "lower"),
    ("train.step_overhead_ms", "ms", "lower"),
    ("train.grad_evals_per_epoch", "count", "lower"),
    ("presets.dataset_ms", "ms", "lower"),
    ("presets.schedule_s", "s", "lower"),
    ("certify.bound_ms_p50", "ms", "lower"),
    ("certify.bound_ms_p90", "ms", "lower"),
    ("certify.K_ms", "ms", "lower"),
    ("certify.trapezoid_ms", "ms", "lower"),
    ("certify.mean_residual_ms", "ms", "lower"),
    ("certify.mean_residual_calls_per_cert", "count", "lower"),
    ("certify.lipschitz_ms", "ms", "lower"),
    ("certify.lipschitz_calls_per_cert", "count", "lower"),
    ("certify.residual_rows_per_cert", "count", "lower"),
    ("certify.n_subintervals_p50", "count", "lower"),
    ("ode.rk4_steps_per_s", "1/s", "higher"),
    ("ode.rk4_steps", "count", "lower"),
    ("surrogate.generate_ms_per_point", "ms", "lower"),
    ("surrogate.fit_epoch_ms", "ms", "lower"),
    ("surrogate.evaluate_ms", "ms", "lower"),
    ("surrogate.amortization", "ratio", "higher"),
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    ("trace.overhead_s", "s", "lower"),
]

EXACT_COUNTS = [name for name, unit, _ in PER_LAYER if unit == "count"]


# -- counters recorded at layer boundaries -----------------------------------

def _count_bound(tracer, args, kwargs, cert):
    tracer.counts["certificates"] += 1
    n = getattr(cert, "constants_used", {}).get("n_subintervals")
    if n is not None:
        tracer.samples["n_subintervals"].append(n)


def _count_residual_rows(tracer, args, kwargs, result):
    if tracer.inside("certify.bound"):
        t = kwargs.get("t", args[5] if len(args) > 5 else None)
        tracer.counts["bound_residual_rows"] += int(np.size(t))


def _count_rk4(tracer, args, kwargs, traj):
    method = kwargs.get("method", args[4] if len(args) > 4 else "rk4")
    if method == "rk4":
        tracer.counts["rk4_steps"] += len(traj.times) - 1


def _count_tape(tracer, args, kwargs, result):
    nodes = args[0].tape.nodes
    tracer.samples["tape_nodes"].append(len(nodes))
    tracer.samples["tape_bytes"].append(sum(np.asarray(n.value).nbytes for n in nodes))


def _count_grad_eval(tracer, args, kwargs, result):
    if tracer.inside("train._run_lbfgs"):
        tracer.counts["lbfgs_grad_evals"] += 1


HOOKS = {
    "certify.bound": _count_bound,
    "certify.residual_batch_columns": _count_residual_rows,
    "certify.estimate_lipschitz": lambda tr, a, k, r: tr.counts.update(["lipschitz_calls"]),
    "certify.mean_residual_norm": lambda tr, a, k, r: tr.counts.update(["mean_residual_calls"]),
    "ode.solve_reference": _count_rk4,
    "autodiff.backward": _count_tape,
    "network.parameter_gradient": _count_grad_eval,
    "train.train": lambda tr, a, k, r: tr.counts.update({"train_epochs": len(r[1])}),
    "train._run_lbfgs": lambda tr, a, k, r: tr.counts.update({"lbfgs_epochs": a[1].epochs}),
    "surrogate.generate_surrogate_data":
        lambda tr, a, k, r: tr.counts.update({"surrogate_points": len(r)}),
    "surrogate.train_error_net":
        lambda tr, a, k, r: tr.counts.update({"surrogate_fit_epochs": a[2].epochs}),
}


def register_hooks(tracer):
    for name, hook in HOOKS.items():
        tracer.on(name, hook)


# -- isolated probes ---------------------------------------------------------

PROBE_CALLS = 20


def probe_taped_loss(tracer, shipped_config):
    """Time isolated builds of the workload's taped training loss and their
    reverse sweeps; returns per-call (forward s, backward s) pairs."""
    from pinncert import presets
    from pinncert.config import load_config

    train_mod = importlib.import_module("pinncert.train")
    if not hasattr(train_mod, "_loss_and_grad"):
        return []
    cfg = load_config(shipped_config)
    problem = presets.build_problem(cfg)
    net = presets.build_network(cfg, problem)
    dataset = presets.build_dataset(cfg, problem)
    colloc = train_mod.sample_collocation(problem, cfg.colloc_count, cfg.seed)
    run = presets.build_training_run(cfg)
    layout = train_mod.infer_layout(net, problem)
    eta_w = train_mod.eta_weights(run.eta, colloc.t)
    pairs = []
    for _ in range(PROBE_CALLS):
        first = len(tracer.spans)
        undo = tracer.install()
        try:
            train_mod._loss_and_grad(net, problem, dataset, colloc, run, layout, eta_w)
        finally:
            tracer.uninstall(undo)
        spans = tracer.spans[first:]
        whole = _total(spans, "train._loss_and_grad")
        grad = _total(spans, "network.parameter_gradient")
        back = _total(spans, "autodiff.backward")
        if whole and back:
            pairs.append((whole - (grad or back), back))
    return pairs


def probe_forward(tracer, net, inputs):
    """Plain network forward on the query batch; seconds per call."""
    from pinncert import network

    out = []
    for _ in range(PROBE_CALLS * 5):
        with tracer.span("probe.network.forward"):
            network.forward(net, inputs)
        out.append(tracer.spans[-1].duration)
    return out


# timings taken from one isolated call on the workload's own problem when
# neither its setup nor its chain calls the function (e.g. decay1d certifies
# in linear mode without an L estimate and has a closed-form reference)
PROBED = ("presets.schedule_s", "certify.lipschitz_ms", "ode.rk4_steps_per_s")


def run_probes(tracer, wl, setup, missing):
    """Isolated layer calls of the traced run: the taped loss, a plain
    forward on the query batch, and the ``missing`` names of PROBED."""
    from pinncert.config import load_config
    from pinncert.network import load_network
    from pinncert.train import assemble_inputs, infer_layout, sample_collocation

    from pipeline import certified_queries

    probes = {"taped_loss": probe_taped_loss(tracer, setup.shipped_config)}
    probes["tape_nodes"] = list(tracer.samples.get("tape_nodes", []))
    probes["tape_bytes"] = list(tracer.samples.get("tape_bytes", []))
    certify, ode, presets = (importlib.import_module(f"pinncert.{m}")
                             for m in ("certify", "ode", "presets"))
    cfg = load_config(setup.config)
    problem = presets.build_problem(cfg)
    net = (load_network(setup.network) if setup.network
           else presets.build_network(cfg, problem))
    groups = certified_queries(wl, setup, problem,
                               np.linspace(0.0, problem.t_final, cfg.query_points))
    t = np.concatenate([ts for _, _, ts, _ in groups])
    x0 = np.vstack([np.broadcast_to(x, (len(ts), problem.dim)) for x, _, ts, _ in groups])
    u = np.vstack([np.broadcast_to(v, (len(ts), problem.control_dim)) for _, v, ts, _ in groups])
    probes["forward"] = probe_forward(
        tracer, net, assemble_inputs(infer_layout(net, problem), t, x0, u))
    with tracer.stage("probe.layers"):
        if "presets.schedule_s" in missing:
            presets.make_pendulum_schedule()
        if "certify.lipschitz_ms" in missing:
            colloc = sample_collocation(problem, cfg.cert_colloc_count, cfg.seed + 17)
            certify.estimate_lipschitz(problem, colloc)
        if "ode.rk4_steps_per_s" in missing:
            ode.solve_reference(problem, x0[0], u[0], np.linspace(0.0, problem.t_final, 1001))
    return probes


# -- extraction ----------------------------------------------------------------

def _total(spans, name):
    durations = [s.duration for s in spans if s.name == name]
    return sum(durations) if durations else None


def rep_metrics(spans, counts, samples):
    """Per-layer values of one traced repetition (absent ones are left out)."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span.duration)
    out = {}

    def put(name, value):
        if value is not None and np.isfinite(value):
            out[name] = float(value)

    def med(name):
        return statistics.median(by_name[name]) if by_name.get(name) else None

    certs = counts.get("certificates", 0)
    if by_name.get("train.train") and counts.get("train_epochs"):
        put("train.epoch_ms", 1e3 * sum(by_name["train.train"]) / counts["train_epochs"])
    if counts.get("lbfgs_epochs"):
        put("train.grad_evals_per_epoch", counts["lbfgs_grad_evals"] / counts["lbfgs_epochs"])
    if med("presets.build_dataset") is not None:
        put("presets.dataset_ms", 1e3 * med("presets.build_dataset"))
    if med("presets.make_pendulum_schedule") is not None:
        put("presets.schedule_s", med("presets.make_pendulum_schedule"))
    if by_name.get("certify.bound"):
        put("certify.bound_ms_p50", 1e3 * float(np.percentile(by_name["certify.bound"], 50)))
        put("certify.bound_ms_p90", 1e3 * float(np.percentile(by_name["certify.bound"], 90)))
    if med("certify.estimate_K") is not None:
        put("certify.K_ms", 1e3 * med("certify.estimate_K"))
    trapezoid = (by_name.get("certify.trapezoid_bound_integral", [])
                 + by_name.get("certify.trapezoid_bound_integral_damped", []))
    if trapezoid:
        put("certify.trapezoid_ms", 1e3 * statistics.median(trapezoid))
    if med("certify.mean_residual_norm") is not None:
        put("certify.mean_residual_ms", 1e3 * med("certify.mean_residual_norm"))
    if med("certify.estimate_lipschitz") is not None:
        put("certify.lipschitz_ms", 1e3 * med("certify.estimate_lipschitz"))
    if certs:
        put("certify.mean_residual_calls_per_cert", counts.get("mean_residual_calls", 0) / certs)
        put("certify.lipschitz_calls_per_cert", counts.get("lipschitz_calls", 0) / certs)
        put("certify.residual_rows_per_cert", counts.get("bound_residual_rows", 0) / certs)
    if samples.get("n_subintervals"):
        put("certify.n_subintervals_p50", float(np.median(samples["n_subintervals"])))
    put("ode.rk4_steps", counts.get("rk4_steps", 0))
    if counts.get("rk4_steps"):
        put("ode.rk4_steps_per_s", counts["rk4_steps"] / sum(by_name["ode.solve_reference"]))
    if counts.get("surrogate_points"):
        put("surrogate.generate_ms_per_point",
            1e3 * sum(by_name["surrogate.generate_surrogate_data"]) / counts["surrogate_points"])
    if counts.get("surrogate_fit_epochs"):
        put("surrogate.fit_epoch_ms",
            1e3 * sum(by_name["surrogate.train_error_net"]) / counts["surrogate_fit_epochs"])
    if med("surrogate.evaluate_error_net") is not None:
        put("surrogate.evaluate_ms", 1e3 * med("surrogate.evaluate_error_net"))
    selfs = self_times(spans)
    for layer in LAYERS:
        put(f"{layer}.self_s", sum(t for s, t in zip(spans, selfs)
                                   if s.name.startswith(layer + ".")))
    return out


def combine(per_rep, probes):
    """Median over traced repetitions, plus the probe and derived metrics."""
    names = {name for rep in per_rep for name in rep}
    out = {name: statistics.median(rep[name] for rep in per_rep if name in rep)
           for name in names}
    taped = probes.get("taped_loss") or []
    if taped:
        out["autodiff.tape_forward_ms"] = 1e3 * statistics.median(f for f, _ in taped)
        out["autodiff.backward_ms"] = 1e3 * statistics.median(b for _, b in taped)
    for key, name, scale in (("tape_nodes", "autodiff.tape_nodes", 1.0),
                             ("tape_bytes", "autodiff.tape_mb", 1e-6)):
        if probes.get(key):
            out[name] = scale * probes[key][0]
    if probes.get("forward"):
        out["network.forward_ms"] = 1e3 * statistics.median(probes["forward"])
    if {"train.epoch_ms", "autodiff.tape_forward_ms", "autodiff.backward_ms"} <= out.keys():
        out["train.step_overhead_ms"] = (out["train.epoch_ms"] - out["autodiff.tape_forward_ms"]
                                         - out["autodiff.backward_ms"])
    if {"certify.bound_ms_p50", "surrogate.evaluate_ms"} <= out.keys():
        out["surrogate.amortization"] = out["certify.bound_ms_p50"] / out["surrogate.evaluate_ms"]
    return out


def count_mismatches(per_rep, probes):
    """Exact-repeat counts that differ between traced repetitions."""
    bad = []
    for name in EXACT_COUNTS:
        values = {rep[name] for rep in per_rep if name in rep}
        if len(values) > 1:
            bad.append(f"{name}: {sorted(values)}")
    for key in ("tape_nodes", "tape_bytes"):
        if len(set(probes.get(key) or [])) > 1:
            bad.append(f"probe {key}: {sorted(set(probes[key]))}")
    return bad
