"""Command line behaviour: configs, output formats, exit codes, determinism."""

import json
import math

import pytest

from ringnet import CircleModel, quadrature
from ringnet.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_NUMERICAL_FAILURE,
    EXIT_OK,
    EXIT_VALIDATION_FAILURE,
    main,
)
from ringnet.kernels import kernel_from_config

# small Monte Carlo sizes so the battery variants stay fast in unit tests
FAST_BATTERY = {"mean_degree": 30, "clustering": 3, "chain": 400,
                "direct_link": 300}


def write_config(tmp_path, document, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def parse_csv(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_kernel_info_valid(capsys):
    code, out = run_cli(capsys, "kernel-info", "--p", "0.1", "--phi", "1.0",
                        "--radius", "20")
    assert code == EXIT_OK
    rows = {r["field"]: r["value"] for r in parse_csv(out)}
    assert rows["valid"] == "true"
    assert rows["violations"] == "none"
    assert float(rows["mean_degree"]) == pytest.approx(4.0)
    assert rows["nodes"] == "126"


def test_kernel_info_reports_violations(tmp_path, capsys):
    config = write_config(tmp_path, {
        "space": {"type": "circle", "radius": 10.0},
        "kernel": {"type": "uniform", "p": 1.2, "half_width": 1.0},
    })
    code, out = run_cli(capsys, "kernel-info", "--config", config)
    assert code == EXIT_CONFIG_ERROR
    rows = {r["field"]: r["value"] for r in parse_csv(out)}
    assert rows["valid"] == "false"
    assert "p out of" in rows["violations"]


def test_clustering_full_circle_all_analytic_modes(capsys):
    code, out = run_cli(capsys, "clustering", "--p", "0.3", "--phi",
                        str(math.pi), "--radius", "10",
                        "--modes", "closed,leading,full,quadrature")
    assert code == EXIT_OK
    for row in parse_csv(out):
        tolerance = max(float(row["error_estimate"]), 1e-9)
        expected = 0.3 if row["mode"] != "full" else 0.3 * 0.7 ** 2
        assert abs(float(row["value"]) - expected) <= tolerance + 1e-6


def test_clustering_header_lines(capsys):
    code, out = run_cli(capsys, "clustering", "--p", "0.1", "--phi", "1.0",
                        "--modes", "closed")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("# tool: ringnet ")
    assert lines[1].startswith("# schema: clustering v")
    assert lines[2].startswith("# config-digest: sha256:")
    assert lines[3] == "mode,value,error_estimate,trials"


def test_clustering_zero_degree_config_error(tmp_path, capsys):
    config = write_config(tmp_path, {
        "space": {"type": "circle", "radius": 10.0},
        "kernel": {"type": "uniform", "p": 0.0, "half_width": 1.0},
    })
    code, _ = run_cli(capsys, "clustering", "--config", config)
    assert code == EXIT_CONFIG_ERROR


def test_clustering_zero_width_config_error(tmp_path, capsys):
    config = write_config(tmp_path, {
        "space": {"type": "circle", "radius": 10.0},
        "kernel": {"type": "uniform", "p": 0.1, "half_width": 0.0},
    })
    code, _ = run_cli(capsys, "clustering", "--config", config)
    assert code == EXIT_CONFIG_ERROR


def test_clustering_unknown_mode(capsys):
    code, _ = run_cli(capsys, "clustering", "--modes", "sorcery")
    assert code == EXIT_CONFIG_ERROR


def test_clustering_numerical_failure_exit(tmp_path, capsys):
    # the window is narrower than the node spacing, so every sampled graph
    # is empty and the clustering estimator has no defined value
    config = write_config(tmp_path, {
        "space": {"type": "circle", "radius": 2.0},
        "kernel": {"type": "uniform", "p": 0.001, "half_width": 0.2},
        "computation": {"modes": ["mc"]},
        "mc": {"trials": 3, "seed": 1},
    })
    code, _ = run_cli(capsys, "clustering", "--config", config)
    assert code == EXIT_NUMERICAL_FAILURE


def test_clustering_json_format(capsys):
    code, out = run_cli(capsys, "clustering", "--p", "0.1", "--phi", "1.0",
                        "--modes", "closed", "--format", "json")
    assert code == EXIT_OK
    document = json.loads(out)
    assert document["schema"].startswith("clustering v")
    assert document["records"][0]["mode"] == "closed"
    assert document["records"][0]["value"] == pytest.approx(0.075)


def test_clustering_mc_mode_reports_trials(capsys):
    code, out = run_cli(capsys, "clustering", "--p", "0.2", "--phi", "0.8",
                        "--radius", "20", "--modes", "mc", "--trials", "5",
                        "--seed", "77")
    assert code == EXIT_OK
    row = parse_csv(out)[0]
    assert row["trials"] == "5"
    assert float(row["error_estimate"]) > 0.0


def test_separation_zero_order_rows_equal_kernel(tmp_path, capsys):
    config = write_config(tmp_path, {
        "space": {"type": "circle", "radius": 20.0},
        "kernel": {"type": "uniform", "p": 0.15, "half_width": 0.9},
        "computation": {"modes": ["leading"], "k_list": [0, 1],
                        "gap_grid": [0.2, 0.8, 1.4]},
    })
    code, out = run_cli(capsys, "separation", "--config", config)
    assert code == EXIT_OK
    rows = parse_csv(out)
    direct = {"0.2": 0.15, "0.8": 0.15, "1.4": 0.0}
    for row in rows:
        if row["k"] == "0":
            assert float(row["value"]) == direct[row["b"]]


def test_separation_consistent_at_antipode(tmp_path, capsys):
    config = write_config(tmp_path, {
        "space": {"type": "circle", "radius": 20.0},
        "kernel": {"type": "uniform", "p": 0.15, "half_width": 2.0},
        "computation": {"modes": ["leading"], "k_list": [1],
                        "gap_grid": [math.pi]},
    })
    code, out = run_cli(capsys, "separation", "--config", config)
    assert code == EXIT_OK
    from ringnet import chain_count_uniform
    degree = 2.0 * 20.0 * 0.15 * 2.0
    closed = chain_count_uniform(0.15, 2.0, degree, 1, math.pi)
    row = parse_csv(out)[0]
    assert float(row["value"]) == pytest.approx(closed.value, abs=1e-6)


def test_separation_mc_mode(tmp_path, capsys):
    config = write_config(tmp_path, {
        "space": {"type": "circle", "radius": 10.0},
        "kernel": {"type": "uniform", "p": 0.3, "half_width": 1.0},
        "computation": {"modes": ["mc"], "k_list": [0, 1],
                        "gap_grid": [0.5, 1.5]},
        "mc": {"trials": 150, "seed": 3},
    })
    code, out = run_cli(capsys, "separation", "--config", config)
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert all(row["trials"] == "150" for row in rows)
    zero_rows = [row for row in rows if row["k"] == "0"]
    assert len(zero_rows) == 2
    # the empirical direct-link fraction tracks the kernel
    assert abs(float(zero_rows[0]["value"]) - 0.3) < 0.2
    assert float(zero_rows[1]["value"]) == 0.0


def test_separation_rejects_torus(tmp_path, capsys):
    config = write_config(tmp_path, {
        "space": {"type": "torus", "radii": [5.0, 5.0]},
        "kernel": {"type": "product", "factors": [
            {"type": "uniform", "p": 0.2, "half_width": 0.5},
            {"type": "uniform", "p": 0.2, "half_width": 0.5}]},
    })
    code, _ = run_cli(capsys, "separation", "--config", config)
    assert code == EXIT_CONFIG_ERROR


def test_sweep_phi_files(tmp_path):
    out_prefix = str(tmp_path / "sweep")
    config = write_config(tmp_path, {
        "space": {"type": "circle", "radius": 20.0},
        "kernel": {"type": "uniform", "p": 0.1, "half_width": 1.0},
        "computation": {"p": 0.1, "phi_grid": [0.5, 1.0, 2.0, math.pi],
                        "k_list": [1, 2], "tail_terms": 50_000},
    })
    code = main(["sweep-phi", "--config", config, "--out", out_prefix])
    assert code == EXIT_OK
    ratio_rows = parse_csv((tmp_path / "sweep-clustering.csv").read_text())
    curve_rows = parse_csv((tmp_path / "sweep-antipodal.csv").read_text())
    assert float(ratio_rows[-1]["clustering_over_p"]) == pytest.approx(1.0)
    assert float(ratio_rows[1]["clustering_over_p"]) == pytest.approx(0.75,
                                                                      abs=1e-6)
    last = curve_rows[-1]
    assert float(last["ptilde_k1"]) == pytest.approx(0.1 / math.pi, rel=1e-9)
    assert float(last["ptilde_k2"]) == pytest.approx(0.1 / math.pi, rel=1e-9)


def test_sweep_phi_rejects_bad_grid(tmp_path, capsys):
    config = write_config(tmp_path, {
        "space": {"type": "circle", "radius": 20.0},
        "kernel": {"type": "uniform", "p": 0.1, "half_width": 1.0},
        "computation": {"phi_grid": [0.5, 4.0]},
    })
    code, _ = run_cli(capsys, "sweep-phi", "--config", config)
    assert code == EXIT_CONFIG_ERROR


GRID = [0.5, 2.0]


@pytest.mark.parametrize("computation", [
    {"phi_grid": GRID, "k_list": [0]},
    {"phi_grid": GRID, "k_list": ["2"]},
    {"phi_grid": GRID, "k_list": [2.5]},
    {"phi_grid": GRID, "k_list": [True]},
    {"phi_grid": GRID, "tail_terms": 0},
    {"phi_grid": GRID, "tail_terms": "5"},
    {"phi_grid": GRID, "tail_terms": -3},
    {"phi_grid": GRID, "p": "0.1"},
    {"phi_grid": GRID, "p": 2.0},
    {"phi_points": 0},
    {"phi_points": 2.5},
    {"phi_grid": "ab"},
    {"phi_grid": [True]},
    {"phi_grid": [float("nan")]},
], ids=["k0", "k-string", "k-float", "k-bool", "tail-zero", "tail-string",
        "tail-negative", "p-string", "p-above-one", "points-zero",
        "points-float", "grid-string", "grid-bool", "grid-nan"])
def test_sweep_phi_rejects_bad_computation(tmp_path, capsys, computation):
    config = write_config(tmp_path, {"computation": computation})
    code = main(["sweep-phi", "--config", config])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_sweep_phi_refuses_chain_order_over_budget(tmp_path, capsys):
    config = write_config(tmp_path, {"computation": {"phi_grid": [0.5, 3.0],
                                                     "k_list": [400]}})
    code = main(["sweep-phi", "--config", config])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL_FAILURE
    assert captured.err.startswith("numerical failure:")
    assert len(captured.err.strip().splitlines()) == 1


def test_separation_rejects_boolean_chain_order(tmp_path, capsys):
    config = write_config(tmp_path, {"computation": {"k_list": [True]}})
    code, _ = run_cli(capsys, "separation", "--config", config)
    assert code == EXIT_CONFIG_ERROR


def test_boolean_trials_rejected(tmp_path, capsys):
    config = write_config(tmp_path, {"mc": {"trials": True}})
    code, _ = run_cli(capsys, "clustering", "--config", config, "--modes", "mc")
    assert code == EXIT_CONFIG_ERROR


def test_mc_validate_passes_and_is_deterministic(tmp_path):
    config = write_config(tmp_path, {
        "computation": {"battery_trials": FAST_BATTERY},
    })
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(["mc-validate", "--config", config, "--seed", "20260822",
                 "--out", str(first)]) == EXIT_OK
    assert main(["mc-validate", "--config", config, "--seed", "20260822",
                 "--threads", "4", "--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text()
    assert "FAIL" not in text
    assert text.strip().endswith("checks)")


def test_mc_validate_detects_bad_truncation(tmp_path, capsys):
    config = write_config(tmp_path, {
        "computation": {"terms": 2, "battery_trials": FAST_BATTERY},
    })
    code, out = run_cli(capsys, "mc-validate", "--config", config)
    assert code == EXIT_VALIDATION_FAILURE
    # closed and series routes share the truncation, so the deliberately
    # tiny term count surfaces in the independent quadrature comparison
    assert any(line.startswith("FAIL,clustering-closed-vs-quadrature")
               for line in out.splitlines())


def test_flags_cannot_override_config_model(tmp_path, capsys):
    config = write_config(tmp_path, {
        "space": {"type": "circle", "radius": 10.0},
        "kernel": {"type": "uniform", "p": 0.1, "half_width": 1.0},
    })
    code, _ = run_cli(capsys, "clustering", "--config", config, "--p", "0.5")
    assert code == EXIT_CONFIG_ERROR


def test_missing_config_file(capsys):
    code, _ = run_cli(capsys, "clustering", "--config", "/nonexistent.json")
    assert code == EXIT_CONFIG_ERROR


def test_malformed_config_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run_cli(capsys, "clustering", "--config", str(path))
    assert code == EXIT_CONFIG_ERROR


def test_digest_stable_for_same_computation(capsys):
    _, first = run_cli(capsys, "clustering", "--p", "0.1", "--phi", "1.0",
                       "--modes", "closed")
    _, second = run_cli(capsys, "clustering", "--p", "0.1", "--phi", "1.0",
                        "--modes", "closed")
    assert first == second
    digest_line = first.splitlines()[2]
    _, third = run_cli(capsys, "clustering", "--p", "0.2", "--phi", "1.0",
                       "--modes", "closed")
    assert third.splitlines()[2] != digest_line


CIRCLE = {"space": {"type": "circle", "radius": 20.0},
          "kernel": {"type": "uniform", "p": 0.1, "half_width": 0.5}}
# a smooth kernel with enough harmonics that coarse quadrature levels differ
SMOOTH = {"type": "cosine", "coeffs": [0.1 * 0.8 ** n for n in range(41)]}


@pytest.mark.parametrize("command, computation", [
    ("separation", {"modes": ["quadrature"], "tolerance": "x"}),
    ("separation", {"modes": ["quadrature"], "tolerance": -1}),
    ("separation", {"modes": ["quadrature"], "tolerance": 0}),
    ("separation", {"gap_points": "x"}),
    ("separation", {"gap_grid": "ab"}),
    ("separation", {"terms": "5"}),
    ("separation", {"terms": 0}),
    ("separation", {"modes": ["full"], "correction_order": -1}),
    ("clustering", {"modes": ["quadrature"], "tolerance": "x"}),
    ("clustering", {"modes": ["quadrature"], "tolerance": 0}),
    ("clustering", {"terms": "5"}),
    ("clustering", {"modes": ["full"], "correction_order": -1}),
    ("mc-validate", {"terms": "5"}),
], ids=["sep-tolerance-string", "sep-tolerance-negative", "sep-tolerance-zero",
        "sep-gap-points-string", "sep-gap-grid-string", "sep-terms-string",
        "sep-terms-zero", "sep-correction-negative", "clus-tolerance-string",
        "clus-tolerance-zero", "clus-terms-string", "clus-correction-negative",
        "battery-terms-string"])
def test_bad_computation_exits_2_with_one_line(tmp_path, capsys, command,
                                               computation):
    config = write_config(tmp_path, {**CIRCLE, "computation": computation})
    code = main([command, "--config", config])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    assert captured.out == ""
    assert captured.err.startswith("config error:")
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("command, modes", [("separation", "leading"),
                                           ("clustering", "closed")])
def test_modes_string_is_not_split_into_characters(tmp_path, capsys, command, modes):
    config = write_config(tmp_path, {**CIRCLE, "computation": {"modes": modes}})
    code = main([command, "--config", config])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    assert captured.err == "config error: computation.modes must be a list of mode names\n"


def test_budget_error_is_a_numerical_failure(monkeypatch, capsys):
    def refuse(*_args, **_kwargs):
        raise quadrature.BudgetError("n=8192 exceeds the 4096-node budget")

    monkeypatch.setattr(quadrature, "clustering_result", refuse)
    code = main(["clustering", "--modes", "quadrature"])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL_FAILURE
    assert captured.err.startswith("numerical failure:")
    assert len(captured.err.strip().splitlines()) == 1


def test_separation_quadrature_error_scales_with_radius(tmp_path, capsys):
    rows = {}
    for radius in (10.0, 20.0):
        config = write_config(tmp_path, {
            "space": {"type": "circle", "radius": radius},
            "kernel": SMOOTH,
            "computation": {"modes": ["quadrature"], "k_list": [1, 2],
                            "gap_grid": [0.3, 1.1], "tolerance": 1e-3},
        })
        code, out = run_cli(capsys, "separation", "--config", config)
        assert code == EXIT_OK
        rows[radius] = parse_csv(out)
    for near, far in zip(rows[10.0], rows[20.0]):
        # the value and its error are R**k times the same integral and the
        # same achieved difference
        scale = 2.0 ** int(near["k"])
        assert float(near["error_estimate"]) > 0.0
        assert float(far["value"]) == pytest.approx(scale * float(near["value"]),
                                                    rel=1e-14)
        assert float(far["error_estimate"]) == pytest.approx(
            scale * float(near["error_estimate"]), rel=1e-14)


def test_clustering_quadrature_error_is_the_scaled_difference(tmp_path, capsys):
    model = {"space": {"type": "torus", "radii": [6.0, 5.0]},
             "kernel": {"type": "product", "factors": [
                 SMOOTH, {"type": "cosine", "coeffs": [0.3, 0.1]}]}}
    config = write_config(tmp_path, {**model, "computation": {
        "modes": ["quadrature"], "tolerance": 1e-3}})
    code, out = run_cli(capsys, "clustering", "--config", config)
    assert code == EXIT_OK
    row = parse_csv(out)[0]
    # each axis contributes R**2 / degree**2 times its triangle integral; the
    # product's error combines the axes' scaled differences
    axes = [quadrature.clustering_result(CircleModel(r, kernel_from_config(k)),
                                         tol=1e-3)
            for r, k in zip(model["space"]["radii"], model["kernel"]["factors"])]
    first, second = axes
    expected = (abs(first.value) * second.error_estimate
                + first.error_estimate * (abs(second.value) + second.error_estimate))
    assert first.error_estimate > 0.0
    assert float(row["value"]) == pytest.approx(first.value * second.value, rel=1e-14)
    assert float(row["error_estimate"]) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("battery_trials", [
    {"mean_degree": "x"},
    {"mean_degree": 0},
    {"clustering": -2},
    {"chain": True},
    {"direct_link": 2.5},
    {"mean_degre": 5},
    [30, 3, 400, 300],
    "fast",
], ids=["string", "zero", "negative", "boolean", "float", "unknown-key",
        "list", "not-an-object"])
def test_bad_battery_trials_exit_2_before_any_check(tmp_path, capsys, monkeypatch,
                                                    battery_trials):
    def no_check_may_run(*_args, **_kwargs):
        raise AssertionError("a check ran before the battery trials were validated")

    monkeypatch.setattr("ringnet.cli.fourier.clustering_uniform", no_check_may_run)
    config = write_config(tmp_path, {"computation": {"battery_trials": battery_trials}})
    code = main(["mc-validate", "--config", config])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    assert captured.out == ""
    assert captured.err.startswith("config error: computation.battery_trials")
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("command, modes", [("clustering", "mc"),
                                           ("separation", "mc"),
                                           ("mc-validate", None)])
@pytest.mark.parametrize("source, seed", [("config", -1), ("config", "abc"),
                                          ("config", True), ("config", 1.5),
                                          ("flag", "-1")])
def test_bad_seed_exits_2_with_one_line(tmp_path, capsys, command, modes,
                                        source, seed):
    argv = [command]
    if modes:
        argv += ["--modes", modes]
    if source == "config":
        argv += ["--config", write_config(tmp_path, {**CIRCLE, "mc": {"seed": seed}})]
    else:
        argv += ["--seed", seed]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    assert captured.out == ""
    assert captured.err == ("config error: mc.seed (--seed) must be a "
                            "non-negative integer\n")


@pytest.mark.parametrize("command, modes", [("clustering", "mc"),
                                           ("separation", "mc"),
                                           ("mc-validate", None)])
@pytest.mark.parametrize("source, threads", [("config", "x"), ("config", 0),
                                             ("config", -1), ("config", True),
                                             ("config", 1.5), ("flag", "0"),
                                             ("flag", "-1")])
def test_bad_threads_exits_2_with_one_line(tmp_path, capsys, command, modes,
                                           source, threads):
    argv = [command]
    if modes:
        argv += ["--modes", modes]
    if source == "config":
        argv += ["--config", write_config(tmp_path, {**CIRCLE, "mc": {"threads": threads}})]
    else:
        argv += ["--threads", threads]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    assert captured.out == ""
    assert captured.err == ("config error: mc.threads (--threads) must be a "
                            "positive integer\n")


def test_huge_ring_is_refused_before_allocating(capsys):
    # 2 pi R is above 2**40 nodes, whose per-node arrays the operating
    # system refuses; the budget must refuse first
    code = main(["clustering", "--modes", "mc", "--radius", "2e11"])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL_FAILURE
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: candidate pairs")
    assert len(captured.err.strip().splitlines()) == 1
