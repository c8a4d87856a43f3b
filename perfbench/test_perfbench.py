"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import pipeline  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def test_self_time_subtracts_children_once():
    # root 0..10 with children 1..4 and 3..6 (overlapping: covered 1..6)
    # and 8..9; grandchild 1.5..2.5 only reduces its own parent
    spans = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("b", 3.0, 6.0, 0, "r"),
        Span("c", 8.0, 9.0, 0, "r"),
        Span("a.inner", 1.5, 2.5, 1, "r"),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 1.0])


def test_self_time_clips_children_to_parent():
    spans = [Span("p", 0.0, 2.0, None, "r"), Span("c", 1.5, 3.0, 0, "r")]
    assert self_times(spans) == pytest.approx([1.5, 1.5])


def test_layer_self_time_sums_per_module():
    spans = [
        Span("stage.certify", 0.0, 10.0, None, "r"),
        Span("certify.bound", 1.0, 9.0, 0, "r"),
        Span("certify.estimate_K", 2.0, 4.0, 1, "r"),
        Span("network._forward_any", 5.0, 6.0, 1, "r"),
    ]
    out = layers.rep_metrics(spans, {"certificates": 1}, {})
    assert out["certify.self_s"] == pytest.approx(5.0 + 2.0)
    assert out["network.self_s"] == pytest.approx(1.0)
    assert out["certify.bound_ms_p50"] == pytest.approx(8000.0)
    assert out["ode.rk4_steps"] == 0


def _write(path, text):
    path.write_text(text)
    return path


def test_loss_and_certificate_csvs_become_metrics(tmp_path):
    loss = _write(tmp_path / "loss.csv", "epoch,loss_total,loss_data,loss_phys\n"
                  "0,2.5,1,1.5\n1,0.75,0.25,0.5\n")
    assert pipeline.final_loss(loss) == 0.75
    certs = _write(tmp_path / "certificates.csv", "t,e_init,i_hat,e_int,total\n"
                   "0,0.1,0,0,0.1\n1,0.1,0.2,0.1,0.4\n2,0.1,0.4,0.1,0.6\n")
    idx, data = pipeline.read_csv(certs)
    totals = data[:, idx["total"]]
    reference = np.array([0.0, 0.2, 0.2])
    ratios = pipeline.ratios_over_reference(totals, reference)
    assert ratios == pytest.approx([2.0, 3.0])          # rows with zero reference skipped
    rep = pipeline.Rep()
    pipeline.check_totals(totals, reference, "certificates.csv", rep)
    assert (rep.ops, rep.failed, rep.problems) == (3, 0, [])


def test_planted_below_reference_certificate_is_a_failed_operation():
    rep = pipeline.Rep()
    totals = np.array([0.5, 0.29, np.nan, 0.3 - 1e-13])
    reference = np.array([0.1, 0.3, 0.1, 0.3])
    pipeline.check_totals(totals, reference, "planted", rep)
    assert rep.ops == 4
    assert rep.failed == 2                               # below reference, non-finite
    assert len(rep.problems) == 1 and "row 1" in rep.problems[0]


def test_wrappers_reach_import_sites_and_restore():
    from pinncert import certify, surrogate

    original = certify.bound
    tracer = Tracer()
    tracer.reset("t")
    undo = tracer.install()
    try:
        assert certify.bound is not original
        assert surrogate.bound is certify.bound        # import site wrapped too
        assert certify.bound.__wrapped__ is original
        # per-operation dispatch functions stay unwrapped
        from pinncert import autodiff
        assert not hasattr(autodiff.tanh, "__wrapped__")
    finally:
        tracer.uninstall(undo)
    assert certify.bound is original and surrogate.bound is original


def test_missing_public_name_makes_metric_absent(monkeypatch):
    from pinncert import certify

    monkeypatch.delattr(certify, "trapezoid_bound_integral_damped")
    monkeypatch.delattr(certify, "trapezoid_bound_integral")
    tracer = Tracer()
    tracer.reset("t")
    undo = tracer.install()
    tracer.uninstall(undo)
    assert not any(name.startswith("trapezoid") for _, name, _ in undo)
    out = layers.rep_metrics([Span("certify.bound", 0.0, 1.0, None, "t")],
                             {"certificates": 1}, {})
    assert "certify.trapezoid_ms" not in out and "certify.bound_ms_p50" in out


def test_determinism_and_count_mismatches_are_wrong_outputs():
    import run

    same = pipeline.Rep(hashes={"loss.csv": "a", "network.json": "b"})
    other = pipeline.Rep(hashes={"loss.csv": "a", "network.json": "c"})
    assert run.check_reps([same, same]) == []
    assert run.check_reps([same, other]) == ["rep 1: not byte-identical to rep 0: network.json"]
    reps = [{"ode.rk4_steps": 100.0, "certify.bound_ms_p50": 1.0},
            {"ode.rk4_steps": 101.0, "certify.bound_ms_p50": 2.0}]
    assert layers.count_mismatches(reps, {}) == ["ode.rk4_steps: [100.0, 101.0]"]


def test_failing_counter_hook_does_not_fail_the_call():
    from pinncert import certify

    tracer = Tracer()
    tracer.reset("t")
    tracer.on("certify.spectral_abscissa", lambda tr, a, k, r: a[99])
    undo = tracer.install()
    try:
        assert certify.spectral_abscissa([[-2.0]]) == -2.0
    finally:
        tracer.uninstall(undo)
    assert tracer.counts["hook_failed:certify.spectral_abscissa"] == 1


def test_stage_times_are_scaled_by_their_probe_pair():
    from hostspeed import probe_seconds, scaled

    # 2 s bracketed by probes of 1 s and 3 s reads as 0.1 s where the probe takes 0.1 s
    assert scaled([2.0, 3.0], [(1.0, 3.0), (0.5, 0.5)], 0.1) == pytest.approx([0.1, 0.6])
    assert probe_seconds(steps=2) > 0.0
