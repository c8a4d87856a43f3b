"""Workloads, one repetition of a workload's CLI chain, and its checks.

Every stage is a ``pinncert.cli.main(argv)`` call in this process.  The
program sees only the config, network and schedule files written here.
Training and the surrogate stage always use the preset's shipped seed, so
the trained network, its final loss, the surrogate data, the error net and
the held-out points do not depend on the run seed; the run seed
(``--seed``) drives the certification collocation of ``pinncert certify``
(L, mean residual, mu).  Both stages do seed-dependent work otherwise: the
final loss moves up to 10x between training seeds, and the surrogate's
L-BFGS fit stops at a seed-dependent epoch.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import resource
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pinncert import certify, presets
from pinncert.cli import main as cli_main
from pinncert.config import preset_config, save_config
from pinncert.network import load_network, save_network
from hostspeed import probe_seconds

HERE = Path(__file__).resolve().parent
PINNED_NET = HERE / "inputs" / "pendulum_desk_net.json"

# artifacts that must be byte-identical between repetitions at one seed
DETERMINISTIC = ("network.json", "loss.csv", "certificates.csv", "errornet.json",
                 "surrogate_data.csv", "surrogate_comparison.csv")

RIGOR_SLACK = 1e-12


@dataclass(frozen=True)
class Workload:
    """One CLI chain and the counts that size it (preset shapes are kept)."""

    name: str
    preset: str
    train_epochs: int
    surr_count: int
    surr_epochs: int
    surr_holdout: int
    pinned: bool = False            # certify and surrogate use the pinned network
    intervals: int = 0              # schedule intervals certified (pendulum)
    times_per_interval: int = 20
    compare: bool = False           # finish with `pinncert compare`, as the README does
    # timed passes of the reference stage: a closed-form reference (decay1d)
    # takes well under a millisecond, so one pass is too little to time
    reference_passes: int = 1

    @property
    def shipped_seed(self):
        return preset_config(self.preset).seed


WORKLOADS = {
    # README chain; surr_holdout (200) != query_points (101) is the shipped
    # default, so `compare` exits 2 today and is counted as a failed operation
    "decay1d": Workload("decay1d", "decay1d", train_epochs=1000, surr_count=100,
                        surr_epochs=400, surr_holdout=200, compare=True,
                        reference_passes=200),
    # array-bound taped training of a fresh 4x32 net; certification of the
    # pinned net, many certificates per trajectory with L hoisted by the CLI;
    # surrogate certificates that re-estimate L on every call
    "pendulum": Workload("pendulum", "pendulum", train_epochs=60, surr_count=1,
                         surr_epochs=10, surr_holdout=1, pinned=True, intervals=2,
                         times_per_interval=20),
}


def traced(tracer, name):
    """The tracer's stage context, or nothing when the run is untraced."""
    return contextlib.nullcontext() if tracer is None else tracer.stage(name)


def run_cli(argv, log):
    """One operation: returns (exit code, seconds).  Exceptions count as failures."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            code = cli_main(argv)
        except Exception:               # an escaped traceback is a failed operation
            traceback.print_exc(file=log)
            code = -1
    return code, time.perf_counter() - start


@dataclass
class Setup:
    """Files every repetition reads: configs, pinned network, schedule."""

    config: Path
    shipped_config: Path
    network: Path = None
    schedule: Path = None
    ops: int = 0
    failed: int = 0
    seconds: float = 0.0


def make_setup(wl: Workload, seed, workdir: Path, log, tracer=None) -> Setup:
    start = time.perf_counter()
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = preset_config(wl.preset, seed=seed)
    cfg.epochs = wl.train_epochs
    cfg.surr_count = wl.surr_count
    cfg.surr_epochs = wl.surr_epochs
    cfg.surr_holdout = wl.surr_holdout
    setup = Setup(workdir / "config.ini", workdir / "shipped.ini")
    save_config(cfg, setup.config)
    cfg.seed = wl.shipped_seed
    save_config(cfg, setup.shipped_config)
    if wl.pinned:
        setup.network = workdir / "pinned_network.json"
        save_network(load_network(PINNED_NET), setup.network)
    if wl.intervals:
        setup.schedule = workdir / "schedule.csv"
        with traced(tracer, "stage.schedule"):
            code, _ = run_cli(["schedule", str(setup.schedule)], log)
        setup.ops += 1
        setup.failed += code != 0
    setup.seconds = time.perf_counter() - start
    return setup


@dataclass
class Rep:
    """What one repetition of the chain measured and found."""

    stage_s: dict = field(default_factory=dict)     # stage -> seconds per call
    probe_s: dict = field(default_factory=dict)     # stage -> (before, after) per call
    peak_rss_mb: float = 0.0
    epochs: int = 0
    certificates: int = 0
    references: int = 0                             # reference errors per pass
    final_loss: float = math.nan
    cert_over_actual: np.ndarray = None
    wrap_frac: float = math.nan
    hashes: dict = field(default_factory=dict)
    ops: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)      # failed operations
    problems: list = field(default_factory=list)   # wrong outputs: fail the run
    wall_s: float = 0.0


def read_csv(path):
    """(column index, data rows) of a pinncert CSV."""
    with open(path) as fh:
        cols = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {c: i for i, c in enumerate(cols)}, data


def final_loss(loss_csv):
    idx, data = read_csv(loss_csv)
    return float(data[-1, idx["loss_total"]])


def check_totals(totals, reference, what, rep: Rep):
    """Count certificates as operations; a non-finite total or one below the
    reference error is a failed operation and a rigor problem."""
    totals = np.asarray(totals, dtype=float)
    reference = np.asarray(reference, dtype=float)
    bad = ~np.isfinite(totals) | (totals < reference - RIGOR_SLACK)
    rep.ops += len(totals)
    rep.failed += int(bad.sum())
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        rep.problems.append(
            f"{what}: {int(bad.sum())} of {len(totals)} certificates non-finite or below "
            f"the reference error (row {first}: total {float(totals[first])!r}, "
            f"reference {float(reference[first])!r})")


def ratios_over_reference(totals, reference):
    totals = np.asarray(totals, dtype=float)
    reference = np.asarray(reference, dtype=float)
    mask = reference > 0
    return totals[mask] / reference[mask]


def certified_queries(wl: Workload, setup: Setup, problem, cert_t):
    """(x0, u, local times, time offset) groups in the row order of
    certificates.csv; the CSV reports offset + local time."""
    if not wl.intervals:
        x0 = np.array([lo for lo, hi in problem.box.x0])
        return [(x0, np.zeros(problem.control_dim), cert_t, 0.0)]
    local = np.linspace(0.0, presets.SCHEDULE_T_TOTAL / presets.SCHEDULE_INTERVALS,
                        wl.times_per_interval)
    rows = presets.load_schedule(setup.schedule)[:wl.intervals]
    return [(x0, np.array([u]), local, t_start) for t_start, x0, u in rows]


def point_references(net, problem, idx, data):
    """Reference error at each row (t, x0..., [u]) of a surrogate CSV."""
    n, k = problem.dim, problem.control_dim
    out = np.empty(len(data))
    for i, row in enumerate(data):
        x0 = row[idx["x0_1"]:idx["x0_1"] + n]
        u = row[idx["x0_1"] + n:idx["x0_1"] + n + k]
        out[i] = certify.actual_error(net, problem, x0, u, [row[idx["t"]]])[0]
    return out


def run_rep(wl: Workload, setup: Setup, rep_dir: Path, log, tracer=None,
            host_probe=False) -> Rep:
    """One repetition: train, certify, reference, surrogate[, compare].
    With ``host_probe``, each timed stage is bracketed by host-speed probes
    (hostspeed.py)."""
    rep = Rep()
    start = time.perf_counter()
    out = str(rep_dir)

    def stage(name, argv, timed=True):
        before = probe_seconds() if host_probe and timed else None
        with traced(tracer, f"stage.{name}"):
            code, seconds = run_cli(argv, log)
        rep.stage_s[name] = [seconds]
        if before is not None:
            rep.probe_s[name] = [(before, probe_seconds())]
        rep.ops += 1
        if code != 0:
            rep.failed += 1
            rep.notes.append(f"`pinncert {name}` exited {code}")

    stage("train", ["train", "--config", str(setup.shipped_config), "--out", out])
    rep.epochs = wl.train_epochs
    certify_argv = ["certify", "--config", str(setup.config), "--out", out]
    if wl.pinned:
        certify_argv += ["--network", str(setup.network)]
    if wl.intervals:
        certify_argv += ["--schedule", str(setup.schedule), "--intervals", str(wl.intervals),
                         "--times-per-interval", str(wl.times_per_interval)]
    stage("certify", certify_argv)
    surrogate_argv = ["surrogate", "--config", str(setup.shipped_config), "--out", out]
    if wl.pinned:
        surrogate_argv += ["--network", str(setup.network)]

    net_path = setup.network if wl.pinned else rep_dir / "network.json"
    if _outputs_exist(rep, rep_dir, "network.json", "loss.csv", "certificates.csv"):
        _reference_stage(wl, setup, rep_dir, net_path, rep, tracer, host_probe)
    stage("surrogate", surrogate_argv)
    if _outputs_exist(rep, rep_dir, "surrogate_data.csv", "surrogate_comparison.csv"):
        _check_surrogate(wl, rep_dir, net_path, rep)
    if wl.compare:
        stage("compare", ["compare", f"{out}/certificates.csv",
                          f"{out}/surrogate_comparison.csv"], timed=False)
    if (rep_dir / "loss.csv").exists():
        rep.final_loss = final_loss(rep_dir / "loss.csv")
    for name in DETERMINISTIC:
        path = rep_dir / name
        rep.hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    rep.wall_s = time.perf_counter() - start
    rep.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rep


def _outputs_exist(rep, rep_dir, *names):
    """A stage that left no output makes the repetition unmeasurable."""
    missing = [name for name in names if not (rep_dir / name).exists()]
    if missing:
        rep.problems.append(f"missing {', '.join(missing)}")
    return not missing


def _reference_stage(wl, setup, rep_dir, net_path, rep, tracer, host_probe):
    """Reference errors on the certified times (timed), then the rigor check."""
    cfg_problem = presets.build_problem(preset_config(wl.preset))
    net = load_network(net_path)
    idx, data = read_csv(rep_dir / "certificates.csv")
    totals = data[:, idx["total"]]
    groups = certified_queries(wl, setup, cfg_problem, data[:, idx["t"]])
    expected_t = np.concatenate([offset + ts for _, _, ts, offset in groups])
    if len(expected_t) != len(totals) or not np.allclose(expected_t, data[:, idx["t"]]):
        rep.problems.append(f"certificates.csv rows do not match the {len(expected_t)} "
                            f"queried times")
        return
    before = probe_seconds() if host_probe else None
    with traced(tracer, "stage.reference"):
        for _ in range(wl.reference_passes):
            start = time.perf_counter()
            reference = np.concatenate([certify.actual_error(net, cfg_problem, x0, u, ts)
                                        for x0, u, ts, _ in groups])
            rep.stage_s.setdefault("reference", []).append(time.perf_counter() - start)
    if before is not None:
        rep.probe_s["reference"] = [(before, probe_seconds())] * wl.reference_passes
    rep.references = len(reference)
    rep.certificates = len(totals)
    check_totals(totals, reference, "certificates.csv", rep)
    rep.cert_over_actual = ratios_over_reference(totals, reference)


def _check_surrogate(wl, rep_dir, net_path, rep):
    """Rigor of the generated and held-out certificates; indicator wrap share."""
    problem = presets.build_problem(preset_config(wl.preset))
    net = load_network(net_path)
    for name, column in (("surrogate_data.csv", "e_target"),
                         ("surrogate_comparison.csv", "e_certified")):
        idx, data = read_csv(rep_dir / name)
        check_totals(data[:, idx[column]], point_references(net, problem, idx, data), name, rep)
        if column == "e_certified":
            rep.wrap_frac = float(np.mean(data[:, idx["e_nn"]] >= data[:, idx[column]]))
