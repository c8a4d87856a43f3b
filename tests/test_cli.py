import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from pinncert import certify
from pinncert.cli import main
from pinncert.config import (_SECTIONS, ExperimentConfig, load_config, preset_config,
                             save_config)
from pinncert.network import init_network, load_network, save_network
from pinncert.ode import ConfigurationError
from pinncert.presets import export_schedule, load_schedule, make_pendulum_schedule


def tiny_decay_config(tmp_path, **overrides):
    cfg = preset_config("decay1d")
    cfg.epochs = 120
    cfg.colloc_count = 40
    cfg.cert_colloc_count = 60
    cfg.query_points = 9
    cfg.surr_count = 10
    cfg.surr_epochs = 100
    cfg.surr_holdout = 20
    cfg.out_dir = str(tmp_path / "out")
    for key, value in overrides.items():
        setattr(cfg, key, value)
    path = tmp_path / "exp.ini"
    save_config(cfg, path)
    return path, cfg


@pytest.mark.parametrize("desk_scale", [True, False], ids=["desk", "full"])
@pytest.mark.parametrize("preset", ["decay1d", "pendulum"])
def test_config_round_trip(tmp_path, preset, desk_scale):
    cfg = preset_config(preset, desk_scale=desk_scale)
    cfg.gamma_phys, cfg.hidden = 0.7, [8, 3]
    cfg.mu, cfg.L_override, cfg.n_override = 0.05, 2.5, 7
    path = tmp_path / "exp.ini"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg
    assert repr(loaded) == repr(cfg)        # each value keeps its type: 7, not 7.0
    # every field is saved in exactly one section
    section_keys = [key for keys in _SECTIONS.values() for key in keys]
    assert sorted(section_keys) == sorted(f.name for f in fields(ExperimentConfig))


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[training]\nmomentum = 0.9\n")
    with pytest.raises(ConfigurationError):
        load_config(path)


def test_config_rejects_unknown_preset():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(preset="pde").validate()


@pytest.mark.parametrize("key, value, message", [
    ("seed", -1, "seed must be an int >= 0, got -1"),
    ("seed", 1.5, "seed must be an int >= 0, got 1.5"),
    ("cert_colloc_count", 10.0, "cert_colloc_count must be an int >= 1, got 10.0"),
    ("query_points", True, "query_points must be an int >= 1, got True"),
    ("epochs", 2.0, "[training] epochs must be an int >= 0, got 2.0"),
    ("surr_epochs", 2.0, "[surrogate] epochs must be an int >= 0, got 2.0"),
    ("K_grid", 200.0, "[certify] K_grid must be an int >= 10, got 200.0"),
])
def test_config_requires_int_counts_and_seeds_naming_the_key(key, value, message):
    # each passed validation and then failed inside numpy, naming no key
    cfg = preset_config("decay1d")
    setattr(cfg, key, value)
    with pytest.raises(ConfigurationError) as exc:
        cfg.validate()
    assert str(exc.value) == message


def test_train_creates_missing_output_dir(tmp_path):
    path, cfg = tiny_decay_config(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    out = tmp_path / "out"
    assert (out / "network.json").exists()
    assert (out / "loss.csv").exists()
    assert (out / "config.ini").exists()
    net = load_network(out / "network.json")
    assert net.meta["inputs"] == ["t"]


def test_certify_grid_with_reference(tmp_path, capsys):
    path, cfg = tiny_decay_config(tmp_path)
    main(["train", "--config", str(path)])
    assert main(["certify", "--config", str(path), "--with-reference"]) == 0
    out = capsys.readouterr().out
    assert "rigor violations: 0 of 9" in out
    data = np.loadtxt(tmp_path / "out" / "certificates.csv", delimiter=",", skiprows=1)
    assert data.shape == (9, 6)
    assert np.all(data[:, 4] >= data[:, 5] - 1e-12)   # total >= actual everywhere
    assert data[0, 0] == 0.0


def test_compare_consistent_and_violation_free(tmp_path, capsys):
    path, cfg = tiny_decay_config(tmp_path)
    main(["train", "--config", str(path)])
    main(["certify", "--config", str(path), "--with-reference"])
    certs = str(tmp_path / "out" / "certificates.csv")
    assert main(["compare", certs]) == 0
    assert "rigor violations: 0" in capsys.readouterr().out


def test_surrogate_command_writes_artifacts(tmp_path, capsys):
    path, cfg = tiny_decay_config(tmp_path)
    main(["train", "--config", str(path)])
    assert main(["surrogate", "--config", str(path)]) == 0
    out = tmp_path / "out"
    assert (out / "errornet.json").exists()
    assert (out / "surrogate_data.csv").exists()
    comparison = np.loadtxt(out / "surrogate_comparison.csv", delimiter=",", skiprows=1)
    assert comparison.shape == (cfg.query_points, 4)    # held out on the query grid
    # reuse of the saved dataset gives identical results
    first = (out / "errornet.json").read_bytes()
    assert main(["surrogate", "--config", str(path),
                 "--data", str(out / "surrogate_data.csv")]) == 0
    assert (out / "errornet.json").read_bytes() == first


def test_decay_readme_chain_exits_0(tmp_path):
    # the held-out comparison sits on the certify grid, so compare pairs the rows
    path, cfg = tiny_decay_config(tmp_path)
    for step in (["train"], ["certify", "--with-reference"], ["surrogate"]):
        assert main(step + ["--config", str(path)]) == 0
    out = tmp_path / "out"
    assert main(["compare", str(out / "certificates.csv"),
                 str(out / "surrogate_comparison.csv")]) == 0
    certs = np.loadtxt(out / "certificates.csv", delimiter=",", skiprows=1)
    comparison = np.loadtxt(out / "surrogate_comparison.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(comparison[:, 0], certs[:, 0])
    np.testing.assert_array_equal(comparison[:, 2], certs[:, 4])


def tiny_pendulum_setup(tmp_path):
    """A small random pendulum net, a synthetic schedule and a cheap config."""
    cfg = preset_config("pendulum")
    cfg.cert_colloc_count = 40
    cfg.K_grid = 20
    cfg.surr_count = 3
    cfg.surr_holdout = 2
    cfg.surr_hidden = [4]
    cfg.surr_epochs = 5
    cfg.out_dir = str(tmp_path / "out")
    path = tmp_path / "exp.ini"
    save_config(cfg, path)
    (tmp_path / "out").mkdir()
    save_network(init_network([6, 8, 4], seed=0, meta={"inputs": ["t", "x0", "u"]}),
                 tmp_path / "out" / "network.json")
    schedule = tmp_path / "schedule.csv"
    export_schedule([(0.08 * i, np.array([0.1, 0.0, 0.0, 0.0]), 1.0) for i in range(50)],
                    schedule)
    return path, schedule


def _count_calls(monkeypatch, module, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_pendulum_certify_computes_network_constants_once(tmp_path, monkeypatch):
    path, schedule = tiny_pendulum_setup(tmp_path)
    calls = _count_calls(monkeypatch, certify, "mean_residual_norm", "estimate_lipschitz")
    assert main(["certify", "--config", str(path), "--schedule", str(schedule),
                 "--intervals", "2", "--times-per-interval", "3"]) == 0
    assert calls == {"mean_residual_norm": 1, "estimate_lipschitz": 1}
    data = np.loadtxt(tmp_path / "out" / "certificates.csv", delimiter=",", skiprows=1)
    assert data.shape == (6, 5)


def test_pendulum_surrogate_estimates_L_once_per_certifier(tmp_path, monkeypatch):
    # one Certifier serves the generated data and the held-out points
    path, _ = tiny_pendulum_setup(tmp_path)
    calls = _count_calls(monkeypatch, certify, "estimate_lipschitz", "mean_residual_norm")
    assert main(["surrogate", "--config", str(path)]) == 0
    assert calls == {"estimate_lipschitz": 1, "mean_residual_norm": 1}


def test_decay_surrogate_estimates_K_once(tmp_path, monkeypatch):
    # every generated and held-out decay1d point shares the one (x0, u)
    path, _ = tiny_decay_config(tmp_path)
    assert main(["train", "--config", str(path)]) == 0
    calls = _count_calls(monkeypatch, certify, "estimate_K")
    assert main(["surrogate", "--config", str(path)]) == 0
    assert calls["estimate_K"] == 1


def test_pendulum_certify_without_schedule_exits_2(tmp_path, capsys):
    path, _ = tiny_pendulum_setup(tmp_path)
    assert main(["certify", "--config", str(path)]) == 2
    assert "--schedule" in capsys.readouterr().err
    assert not (tmp_path / "out" / "certificates.csv").exists()


@pytest.mark.parametrize("flag,value", [
    ("--intervals", -1), ("--intervals", 0), ("--intervals", 60),
    ("--times-per-interval", 0), ("--times-per-interval", -3),
])
def test_certify_interval_flags_out_of_range_exit_2(tmp_path, capsys, flag, value):
    path, schedule = tiny_pendulum_setup(tmp_path)
    assert main(["certify", "--config", str(path), "--schedule", str(schedule),
                 flag, str(value)]) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out" / "certificates.csv").exists()


def test_unknown_config_file_exits_2(tmp_path):
    assert main(["train", "--config", str(tmp_path / "missing.ini")]) == 2


def test_full_scale_with_config_exits_2(tmp_path, capsys):
    # the loaded config is never swapped for a preset behind the caller's back
    path, _ = tiny_decay_config(tmp_path)
    assert main(["train", "--config", str(path), "--full-scale"]) == 2
    err = capsys.readouterr().err
    assert "--full-scale" in err and "--config" in err
    assert not (tmp_path / "out" / "network.json").exists()


def test_invalid_config_value_exits_2(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[certify]\nmu = nan\n")
    assert main(["train", "--config", str(path)]) == 2


@pytest.mark.parametrize("overrides", [
    {"mu": -0.1},
    {"mu": float("nan")},
    {"mu": float("inf")},
    {"optimizer": "sgd"},
    {"surr_optimizer": "sgd"},
    {"activation": "relu"},
    {"eps": 0.0},
    {"eps": -0.1},
    {"K_grid": 9},
    {"safety_factor": 0.99},
    {"L_override": -5.0},
    {"L_override": float("nan")},
    {"L_override": float("inf")},
    {"lr": -0.01},
    {"lr": float("nan")},
    {"surr_lr": 0.0},
    {"surr_epochs": -5},
    {"query_points": 0},
    {"hidden": []},
    {"hidden": [4, 0]},
    {"surr_hidden": [-1]},
    {"seed": -1},
], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
def test_invalid_config_values_exit_2_at_load(tmp_path, overrides):
    path, cfg = tiny_decay_config(tmp_path, epochs=0, **overrides)
    with pytest.raises(ConfigurationError):
        load_config(path)
    assert main(["train", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()      # rejected before any work


@pytest.mark.parametrize("overrides", [
    {"gamma_data": float("nan")},
    {"gamma_phys": float("nan")},
    {"gamma_data": float("inf")},
    {"gamma_phys": -1.0},
    {"n_override": 0},
    {"n_override": -3},
    {"data_count": 0},
    {"cert_colloc_count": 0},
    {"surr_count": 0},
    {"surr_holdout": 0},
    {"surr_under_weight": 0.5},
    {"surr_under_weight": float("nan")},
    {"surr_under_weight": float("inf")},
], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
def test_loss_weights_and_later_stage_counts_exit_2_at_load(tmp_path, overrides):
    # each used to pass validation and fail late (or, for a NaN weight,
    # drop its loss term silently)
    path, cfg = tiny_decay_config(tmp_path, epochs=3, **overrides)
    with pytest.raises(ConfigurationError):
        load_config(path)
    for command in ("train", "certify", "surrogate"):
        assert main([command, "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()      # rejected before any work


def test_negative_mu_exits_2_in_certify_and_surrogate(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text(f"[experiment]\nout_dir = {tmp_path / 'out'}\n"
                    "[certify]\nmu = -1\n")
    assert main(["certify", "--config", str(path)]) == 2
    assert main(["surrogate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("[certify] mu must be") == 2


def test_L_override_is_honoured_on_decay1d(tmp_path):
    # decay1d has a linear part, whose log-norm -2 is the rate unless L is set
    path, cfg = tiny_decay_config(tmp_path)
    path.write_text(path.read_text().replace("L_override = \n", "L_override = 2\n"))
    (tmp_path / "out").mkdir()
    save_network(init_network([1, 4, 1], seed=0, meta={"inputs": ["t"]}),
                 tmp_path / "out" / "network.json")
    assert main(["certify", "--config", str(path)]) == 0
    meta = (tmp_path / "out" / "certificates.csv.meta").read_text().splitlines()
    assert "rate = 2.0" in meta and "rate_source = override" in meta


def test_numeric_failure_in_surrogate_data_exits_3(tmp_path, capsys, monkeypatch):
    path, cfg = tiny_decay_config(tmp_path)
    (tmp_path / "out").mkdir()
    save_network(init_network([1, 4, 1], seed=0, meta={"inputs": ["t"]}),
                 tmp_path / "out" / "network.json")

    def degenerate(*args, **kwargs):
        raise certify.DegenerateSmoothingError("second derivative is not finite")

    monkeypatch.setattr(certify, "estimate_K", degenerate)
    assert main(["surrogate", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "generated point 0" in err


@pytest.mark.parametrize("n_override", [None, 4], ids=["eps-rule", "fixed-n"])
def test_overflowing_growth_factor_exits_3(tmp_path, capsys, n_override):
    # e^(rate t) overflows past t = 0.071 at rate 1e4: from the subinterval rule,
    # or, with n fixed, from E_init; no certificate row is written
    cfg = preset_config("pendulum")
    cfg.L_override, cfg.n_override, cfg.out_dir = 1e4, n_override, str(tmp_path / "out")
    save_config(cfg, tmp_path / "exp.ini")
    export_schedule(make_pendulum_schedule(), tmp_path / "schedule.csv")
    net = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "pendulum_desk_net.json"
    assert main(["certify", "--config", str(tmp_path / "exp.ini"), "--network", str(net),
                 "--schedule", str(tmp_path / "schedule.csv"), "--intervals", "1"]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "rate 10000.0" in err and "t = 0.0715" in err
    assert not (tmp_path / "out" / "certificates.csv").exists()


@pytest.mark.parametrize("inputs, width", [(["x0"], 1), (["x0", "t"], 2)])
def test_network_inputs_out_of_the_t_x0_u_order_exit_2(tmp_path, capsys, inputs, width):
    # the columns are always built as (t, x0, u), and column 0 is taken as time
    path, cfg = tiny_decay_config(tmp_path)
    net_path = tmp_path / "net.json"
    save_network(init_network([width, 4, 1], seed=0, meta={"inputs": inputs}), net_path)
    assert main(["certify", "--config", str(path), "--network", str(net_path)]) == 2
    assert str(inputs) in capsys.readouterr().err
    assert not (tmp_path / "out" / "certificates.csv").exists()


def test_divergent_training_exits_3(tmp_path):
    path, cfg = tiny_decay_config(tmp_path, lr=1e300, epochs=60)
    with np.errstate(all="ignore"):
        assert main(["train", "--config", str(path)]) == 3


def test_schedule_command_and_validation(tmp_path, capsys):
    sched_path = tmp_path / "schedule.csv"
    assert main(["schedule", str(sched_path)]) == 0
    rows = load_schedule(sched_path)
    assert len(rows) == 50
    assert rows[0][0] == 0.0
    # every interval state stays inside the training box
    for t_start, x0, u in rows:
        assert -np.pi <= x0[0] <= np.pi
        assert -6.0 <= x0[1] <= 6.0
        assert -1.0 <= x0[2] <= 1.0
        assert -3.0 <= x0[3] <= 3.0
        assert -15.0 <= u <= 15.0
    # truncated schedule is rejected by certify
    truncated = tmp_path / "short.csv"
    lines = sched_path.read_text().splitlines()
    truncated.write_text("\n".join(lines[:11]) + "\n")
    with pytest.raises(ConfigurationError):
        load_schedule(truncated)


@pytest.mark.parametrize("column,value", [("u", "nan"), ("phi", "inf"), ("t_start", "-inf")])
def test_non_finite_schedule_entry_exits_2_naming_row_and_column(tmp_path, capsys, column,
                                                                 value):
    path, schedule = tiny_pendulum_setup(tmp_path)
    lines = schedule.read_text().splitlines()
    cells = lines[3].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[3] = ",".join(cells)
    schedule.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match=f"row 2, column {column}: "):
        load_schedule(schedule)
    assert main(["certify", "--config", str(path), "--schedule", str(schedule),
                 "--intervals", "3"]) == 2
    assert f"row 2, column {column}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "certificates.csv").exists()


@pytest.mark.parametrize("edit,message", [
    (lambda doc: {k: v for k, v in doc.items() if k != "biases"}, "no 'biases' entry"),
    (lambda doc: dict(doc, weights=[[[None]]] + doc["weights"][1:]), "missing or non-finite"),
    (lambda doc: dict(doc, weights=doc["weights"][:-1], biases=doc["biases"][:-1]),
     "for the 2 layers"),
    (lambda doc: [1, 2], "not a JSON object"),
], ids=["no-biases", "null-weight", "last-layer-dropped", "not-an-object"])
def test_malformed_network_file_exits_2_naming_the_file(tmp_path, capsys, edit, message):
    path, schedule = tiny_pendulum_setup(tmp_path)
    net_path = tmp_path / "out" / "network.json"
    net_path.write_text(json.dumps(edit(json.loads(net_path.read_text()))))
    assert main(["certify", "--config", str(path), "--schedule", str(schedule),
                 "--intervals", "2"]) == 2
    err = capsys.readouterr().err
    assert str(net_path) in err and message in err
    assert not (tmp_path / "out" / "certificates.csv").exists()


@pytest.mark.filterwarnings("error")
def test_overflowing_residual_exits_3_naming_the_trajectory(tmp_path, capsys):
    # a finite but huge control overflows the residual norm; mu > 0 cannot help,
    # and the exit-3 message is the only report (no numpy overflow warning)
    path, schedule = tiny_pendulum_setup(tmp_path)
    rows = load_schedule(schedule)
    rows[1] = (rows[1][0], rows[1][1], 1e300)
    export_schedule(rows, schedule)
    assert main(["certify", "--config", str(path), "--schedule", str(schedule),
                 "--intervals", "2"]) == 3
    err = capsys.readouterr().err
    assert "overflows" in err and "u=[1e+300]" in err and "x0=[0.1, 0.0, 0.0, 0.0]" in err
    assert "mu > 0" not in err


def test_schedule_matches_direct_generation(tmp_path):
    sched_path = tmp_path / "schedule.csv"
    main(["schedule", str(sched_path)])
    direct = make_pendulum_schedule()
    loaded = load_schedule(sched_path)
    for (ta, xa, ua), (tb, xb, ub) in zip(direct, loaded):
        assert ta == tb and ua == ub
        np.testing.assert_array_equal(xa, xb)


def test_compare_empty_csv_exits_2(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["compare", str(empty)]) == 2


def test_compare_misaligned_grids_exits_2(tmp_path):
    certs = tmp_path / "certs.csv"
    certs.write_text("t,e_init,i_hat,e_int,total\n0,0.1,0.1,0.1,0.3\n1,0.1,0.1,0.1,0.3\n")
    surr = tmp_path / "surr.csv"
    surr.write_text("t,e_certified,e_nn\n0,0.3,0.4\n")
    assert main(["compare", str(certs), str(surr)]) == 2


def test_compare_surrogate_without_t_column_exits_2(tmp_path, capsys):
    certs = tmp_path / "certs.csv"
    certs.write_text("t,e_init,i_hat,e_int,total\n0,0.1,0.1,0.1,0.3\n")
    surr = tmp_path / "surr.csv"
    surr.write_text("time,e_certified,e_nn\n0,0.3,0.4\n")
    assert main(["compare", str(certs), str(surr)]) == 2
    assert "column(s) t;" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_compare_header_only_csv_exits_2_without_a_numpy_warning(tmp_path, capsys):
    certs = tmp_path / "certs.csv"
    certs.write_text("t,e_init,i_hat,e_int,total\n")
    assert main(["compare", str(certs)]) == 2
    assert f"{certs}: no data rows" in capsys.readouterr().err


def _drop_column(lines, name):
    j = lines[0].split(",").index(name)
    return [",".join(c for k, c in enumerate(line.split(",")) if k != j) for line in lines]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edit,column", [
    (lambda lines: _drop_column(lines, "x0_1"), "x0_1"),
    (lambda lines: [*lines[:2], lines[2].rsplit(",", 1)[0] + ",nan", *lines[3:]], "e_target"),
    (lambda lines: [lines[0].replace("e_target", "target"), *lines[1:]], "e_target"),
], ids=["one-column-short", "nan-target", "no-target-header"])
def test_malformed_surrogate_data_exits_2_naming_file_and_column(tmp_path, capsys, edit,
                                                                 column):
    path, cfg = tiny_decay_config(tmp_path)
    (tmp_path / "out").mkdir()
    save_network(init_network([1, 4, 1], seed=0, meta={"inputs": ["t"]}),
                 tmp_path / "out" / "network.json")
    data = tmp_path / "surrogate_data.csv"
    lines = ["t,x0_1,e_target", "0,2,0.5", "0.5,2,0.25", "1,2,0.125"]
    data.write_text("\n".join(edit(lines)) + "\n")
    assert main(["surrogate", "--config", str(path), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert str(data) in err and column in err and "Traceback" not in err
    assert not (tmp_path / "out" / "errornet.json").exists()


@pytest.mark.filterwarnings("error")
def test_short_schedule_row_exits_2_naming_the_row(tmp_path, capsys):
    path, schedule = tiny_pendulum_setup(tmp_path)
    lines = schedule.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    schedule.write_text("\n".join(lines) + "\n")
    assert main(["certify", "--config", str(path), "--schedule", str(schedule),
                 "--intervals", "3"]) == 2
    assert f"{schedule}: row 1 has 6 of 7 values" in capsys.readouterr().err


@pytest.mark.parametrize("raw,value", [("true", True), ("YES", True), ("1", True),
                                       ("False", False), ("no", False), ("0", False)])
def test_config_booleans_read_each_spelling(tmp_path, raw, value):
    path = tmp_path / "exp.ini"
    path.write_text(f"[experiment]\ndesk_scale = {raw}\n")
    assert load_config(path).desk_scale is value


@pytest.mark.parametrize("raw", ["ture", "on", "2", "y"])
def test_config_rejects_a_misspelt_boolean_naming_key_and_section(tmp_path, capsys, raw):
    path = tmp_path / "exp.ini"
    path.write_text(f"[experiment]\nout_dir = {tmp_path / 'out'}\ndesk_scale = {raw}\n")
    with pytest.raises(ConfigurationError, match=r"desk_scale in \[experiment\]"):
        load_config(path)
    assert main(["train", "--config", str(path)]) == 2
    assert f"desk_scale in [experiment]: cannot read {raw!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
