"""Command line behaviour: configs, output formats, exit codes, determinism."""

import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ringnet import CircleModel, CosineSeries, cli, fourier, montecarlo, quadrature
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


def test_sweep_phi_out_to_a_device_writes_no_prefixed_files(tmp_path, capsys):
    # /dev/null is no file to name others after: it takes the stdout layout
    config = write_config(tmp_path, {"computation": {
        "phi_grid": [0.5, math.pi], "k_list": [1], "tail_terms": 1000}})
    prefixed = [os.devnull + "-clustering.csv", os.devnull + "-antipodal.csv"]
    try:
        code, out = run_cli(capsys, "sweep-phi", "--config", config, "--out", os.devnull)
        assert (code, out) == (EXIT_OK, "")
        assert [path for path in prefixed if os.path.exists(path)] == []
    finally:
        for path in prefixed:
            if os.path.exists(path):
                os.remove(path)


@pytest.mark.parametrize("argv, target", [
    (["kernel-info"], ""),
    (["clustering", "--modes", "closed"], "missing/x.csv"),
    (["sweep-phi"], "missing/sweep"),
], ids=["directory", "missing-directory", "sweep-prefix-in-missing-directory"])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, argv, target):
    path = str(tmp_path / target)
    code = main([*argv, "--out", path])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot write output to {path}")
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err


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
    {"phi_grid": GRID, "k_list": [1, 1]},
], ids=["k0", "k-string", "k-float", "k-bool", "tail-zero", "tail-string",
        "tail-negative", "p-string", "p-above-one", "points-zero",
        "points-float", "grid-string", "grid-bool", "grid-nan", "k-repeated"])
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


def _refuse_work(*_args, **_kwargs):
    raise AssertionError("started work that a cost budget refuses")


@pytest.mark.parametrize("computation", [
    {"phi_points": 10 ** 12},
    {"phi_points": 10 ** 7},
    {"phi_points": 200, "tail_terms": 2 ** 23},
    {"phi_grid": [0.5 + 0.001 * i for i in range(200)], "tail_terms": 2 ** 23},
], ids=["points-1e12", "points-1e7", "points-times-terms", "grid-times-terms"])
def test_sweep_phi_grid_over_budget_exits_3_before_the_grid(tmp_path, capsys,
                                                            monkeypatch, computation):
    config = write_config(tmp_path, {"computation": computation})
    monkeypatch.setattr(np, "linspace", _refuse_work)
    monkeypatch.setattr(fourier, "clustering_uniform", _refuse_work)
    code = main(["sweep-phi", "--config", config])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL_FAILURE
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: closed-form harmonics of "
                                   "the sweep-phi grid: cost ")
    assert len(captured.err.strip().splitlines()) == 1


def test_sweep_phi_budget_counts_whole_blocks_of_harmonics(tmp_path, capsys,
                                                           monkeypatch):
    block = fourier.SUM_BLOCK_TERMS
    monkeypatch.setattr(cli, "SWEEP_COST_BUDGET", 4 * block)
    for points, terms, code in ((4, block, EXIT_OK), (2, 2 * block, EXIT_OK),
                                (4, block + 1, EXIT_NUMERICAL_FAILURE),
                                (5, 1, EXIT_NUMERICAL_FAILURE)):
        config = write_config(tmp_path, {"computation": {
            "phi_points": points, "tail_terms": terms, "k_list": [1]}})
        assert main(["sweep-phi", "--config", config]) == code
        capsys.readouterr()


def test_sweep_phi_refuses_chain_orders_before_any_sum(tmp_path, capsys, monkeypatch):
    # k = 130 is refused only at the wider width, k = 400 at both; the
    # refused pair is the first in width order, as when widths ran outer
    config = write_config(tmp_path, {"computation": {"phi_grid": [0.5, 3.0],
                                                     "k_list": [130, 400]}})
    monkeypatch.setattr(fourier, "clustering_uniform", _refuse_work)
    code = main(["sweep-phi", "--config", config])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL_FAILURE
    assert captured.err == ("numerical failure: antipodal B-spline sum for k=400: "
                            "cost 10291264 exceeds budget 2097152\n")


def test_sweep_phi_without_chain_orders_prints_widths_only(tmp_path, capsys):
    config = write_config(tmp_path, {"computation": {"phi_points": 3, "k_list": [],
                                                     "tail_terms": 100}})
    code, out = run_cli(capsys, "sweep-phi", "--config", config)
    assert code == EXIT_OK
    rows = parse_csv(out.split("\n\n")[1])
    assert [list(row) for row in rows] == [["phi"]] * 3


def test_sweep_phi_sums_each_chain_order_once(tmp_path, capsys, monkeypatch):
    calls = []
    antipodal = fourier.antipodal_chain_count_uniform
    monkeypatch.setattr(fourier, "antipodal_chain_count_uniform",
                        lambda *args, **kwargs: calls.append(args[1])
                        or antipodal(*args, **kwargs))
    code, _ = run_cli(capsys, "sweep-phi")
    assert code == EXIT_OK
    assert len(calls) == 6 and all(np.shape(widths) == (64,) for widths in calls)


@pytest.mark.parametrize("command,computation", [
    ("clustering", {"tail_terms": 2 ** 62}),
    ("clustering", {"modes": ["leading"], "terms": 2 ** 62}),
    ("sweep-phi", {"phi_grid": GRID, "tail_terms": 2 ** 62}),
    ("mc-validate", {"terms": 2 ** 62}),
    ("separation", {"modes": ["leading"], "terms": 2 ** 62}),
], ids=["clustering-tail", "clustering-terms", "sweep-tail", "battery-terms",
        "separation-terms"])
def test_series_term_budget_is_a_numerical_failure(tmp_path, capsys, command,
                                                   computation):
    config = write_config(tmp_path, {"computation": computation})
    code = main([command, "--config", config])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL_FAILURE
    assert captured.out == ""
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


# sha256 of the full default battery report at the CLI's default seed; any
# change to it must be explained line by line and recorded with the new sha
DEFAULT_REPORT_SHA256 = ("2ad3c635f7ec1cab83cb871ed7cc082f"
                         "8b38ad8dd3bf3d750d7d7d9243ce769f")


def test_mc_validate_default_report_sha_pinned(capsys):
    code, out = run_cli(capsys, "mc-validate", "--seed", "20260822")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEFAULT_REPORT_SHA256


# both CSV blocks of a flagless sweep-phi: 64 widths, six chain orders
DEFAULT_SWEEP_SHA256 = ("57c2e5c03b4a4ff26bcd7532d9bf1e5b"
                        "cf69e3a61238d3153ba97401b7a12f79")


def test_sweep_phi_default_output_sha_pinned(capsys):
    code, out = run_cli(capsys, "sweep-phi")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEFAULT_SWEEP_SHA256


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
    ("separation", {"modes": ["sorcery"]}),
    ("separation", {"gap_grid": [0.5, 0.1]}),
    ("separation", {"k_list": [1, 1]}),
    ("separation", {"modes": ["mc"], "k_list": [1, 1]}),
], ids=["sep-tolerance-string", "sep-tolerance-negative", "sep-tolerance-zero",
        "sep-gap-points-string", "sep-gap-grid-string", "sep-terms-string",
        "sep-terms-zero", "sep-correction-negative", "clus-tolerance-string",
        "clus-tolerance-zero", "clus-terms-string", "clus-correction-negative",
        "battery-terms-string", "sep-unknown-mode", "sep-gap-grid-decreasing",
        "sep-k-repeated", "sep-mc-k-repeated"])
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


@pytest.mark.parametrize("kernel", [
    {"type": "uniform", "p": "x", "half_width": 0.5},
    {"type": "cosine", "coeffs": [0.1, "x"]},
    {"type": "product", "factors": 3},
    {"type": "cosine", "coeffs": [0.1, math.nan]},
], ids=["uniform-string", "cosine-string", "product-int", "cosine-nan"])
def test_kernel_info_malformed_kernel_exits_2_with_one_line(tmp_path, capsys, kernel):
    config = write_config(tmp_path, {"kernel": kernel})
    code = main(["kernel-info", "--config", config])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    assert captured.out == ""
    assert captured.err.startswith("config error: bad kernel configuration:")
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("clustering", "--p", "0.1", "--phi", "1e-200", "--modes", "closed"),
    ("clustering", "--p", "0.1", "--phi", "1e-200", "--modes", "leading"),
    ("separation", "--radius", "1e200", "--modes", "leading"),
    ("separation", "--radius", "1e200", "--modes", "full"),
    ("clustering", "--radius", "1e200", "--modes", "leading"),
    ("clustering", "--phi", "1e-155", "--modes", "closed,leading"),
    ("clustering", "--phi", "1e-155", "--modes", "closed,leading", "--format", "json"),
    ("clustering", "--phi", "1e-160", "--modes", "closed,leading"),
    ("clustering", "--phi", "1e-160", "--modes", "closed,leading", "--format", "json"),
], ids=["tiny-width-closed", "tiny-width-leading", "huge-radius-leading",
        "huge-radius-full", "huge-radius-clustering", "nan-width-csv",
        "nan-width-json", "nan-width-1e-160-csv", "nan-width-1e-160-json"])
def test_float_overflow_and_division_by_zero_exit_3(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL_FAILURE
    assert captured.out == ""
    assert captured.err.startswith("numerical failure:")
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_non_finite_ratio_exits_3(tmp_path, capsys, fmt):
    # at 1e-155 the prefactor overflows while its bracket underflows
    config = write_config(tmp_path, {"computation": {
        "phi_grid": [1e-155, 1e-100, 0.5]}})
    code = main(["sweep-phi", "--config", config, "--format", fmt])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL_FAILURE
    assert captured.out == ""
    assert captured.err == ("numerical failure: non-finite clustering_over_p "
                            "at phi=1e-155\n")


def test_separation_non_finite_row_exits_3(monkeypatch, capsys):
    from ringnet import fourier
    monkeypatch.setattr(fourier, "chain_count_leading",
                        lambda *_args: math.nan)
    code = main(["separation", "--modes", "leading", "--format", "json"])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL_FAILURE
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: non-finite value at k=1, ")
    assert len(captured.err.strip().splitlines()) == 1


def test_separation_quadrature_of_zero_window_is_exact_zero(capsys):
    code, out = run_cli(capsys, "separation", "--p", "0", "--phi", "0.5",
                        "--modes", "quadrature")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert len(rows) == 50
    assert all(r["value"] == "0.0" and r["error_estimate"] == "0.0" for r in rows)


def test_separation_routes_take_the_whole_grid_at_once(monkeypatch, capsys):
    # one quadrature curve per chain order, and one table of leading power
    # sums for both series modes and every order; no per-gap quadrature call
    # and no row-wise np.unique grouping
    from ringnet import fourier
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    def refused(*args, **kwargs):
        raise AssertionError("called per gap")

    counted(quadrature, "chain_count_curve")
    counted(fourier, "leading_brackets")
    monkeypatch.setattr(quadrature, "chain_count_result", refused)
    monkeypatch.setattr(np, "unique", refused)
    code, out = run_cli(capsys, "separation", "--modes", "leading,full,quadrature")
    assert code == EXIT_OK
    assert len(parse_csv(out)) == 3 * 2 * 25
    assert sorted(calls) == ["chain_count_curve"] * 2 + ["leading_brackets"]


@pytest.mark.parametrize("command", ["clustering", "separation"])
def test_quadrature_refuses_unresolvable_window(capsys, command):
    code = main([command, "--phi", "1e-13", "--modes", "quadrature"])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL_FAILURE
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: a kernel feature")
    assert len(captured.err.strip().splitlines()) == 1


def test_correction_order_over_budget_exits_3(tmp_path, capsys):
    # the 4096-term default series clamps the order to 4096, far over budget
    config = write_config(tmp_path, {**CIRCLE, "computation": {
        "modes": ["full"], "correction_order": 5000}})
    code = main(["separation", "--config", config])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL_FAILURE
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: cubic correction sums")
    assert len(captured.err.strip().splitlines()) == 1


# sha256 of the CSV output for the SMOOTH cosine kernel on a circle of
# radius 20 in the three analytic modes; a cosine kernel is its own series
COSINE_OUTPUT_SHA256 = {
    "clustering": "8f928e5946e35d9659496150227892d749c1c84bb4f1d1737f0875ac27c1a110",
    "separation": "ecf878bb3abb606c1f56ce1c0cba0fd3569aef43927a7ccc5463ad5b5962177c",
}


@pytest.mark.parametrize("command", sorted(COSINE_OUTPUT_SHA256))
def test_cosine_kernel_output_sha_pinned(tmp_path, capsys, command):
    config = write_config(tmp_path, {"space": {"type": "circle", "radius": 20.0},
                                     "kernel": SMOOTH})
    code, out = run_cli(capsys, command, "--config", config,
                        "--modes", "leading,full,quadrature")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        COSINE_OUTPUT_SHA256[command]


@pytest.mark.parametrize("argv, kernel, exit_code", [
    (("kernel-info",), SMOOTH, EXIT_OK),
    (("clustering", "--modes", "leading,full"), SMOOTH, EXIT_OK),
    # 0.1 + 2 * 0.3 cos(phi) dips to -0.5: reported, exit 2
    (("kernel-info",), {"type": "cosine", "coeffs": [0.1, 0.3]}, EXIT_CONFIG_ERROR),
], ids=["kernel-info", "clustering", "kernel-info-invalid"])
def test_cosine_kernel_is_range_checked_once(tmp_path, capsys, monkeypatch, argv,
                                             kernel, exit_code):
    calls = []
    range_check = CosineSeries.violations

    def counted(kernel):
        calls.append(kernel)
        return range_check(kernel)

    monkeypatch.setattr(CosineSeries, "violations", counted)
    config = write_config(tmp_path, {"space": {"type": "circle", "radius": 20.0},
                                     "kernel": kernel})
    code, out = run_cli(capsys, *argv, "--config", config)
    assert code == exit_code
    assert len(calls) == 1
    if exit_code != EXIT_OK:
        rows = {r["field"]: r["value"] for r in parse_csv(out)}
        assert rows["valid"] == "false"
        assert rows["violations"] == "negative probability (minimum -5.000e-01)"


def test_kernel_info_valid_kernel_in_bad_model_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, {"space": {"type": "circle", "radius": -1.0},
                                     "kernel": SMOOTH})
    code = main(["kernel-info", "--config", config])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    assert captured.out == ""
    assert captured.err.startswith("config error: bad model configuration: radius")
    assert len(captured.err.strip().splitlines()) == 1


# sha256 of the separation output in all four modes, Monte Carlo rows
# included, on the uniform CIRCLE window and on the SMOOTH cosine kernel
# with the direct link as order 0
SEPARATION_PIN_CONFIGS = {
    "uniform": {**CIRCLE, "mc": {"trials": 5}, "computation": {
        "modes": ["leading", "full", "quadrature", "mc"]}},
    "cosine": {"space": {"type": "circle", "radius": 20.0}, "kernel": SMOOTH,
               "mc": {"trials": 5}, "computation": {
                   "modes": ["leading", "full", "quadrature", "mc"],
                   "k_list": [0, 1, 2]}},
}
SEPARATION_OUTPUT_SHA256 = {
    ("uniform", "csv"): "2a3d233cfa631a6ed812cfbea65ae4e467f1d2abcba5931d2b1669d94e473504",
    ("uniform", "json"): "b72e5b32e00361fc60b02ccef7594f8b8c07e5717252207bf0bec159f59e2304",
    ("cosine", "csv"): "d5f9fd00b34d55a1d7484323efc2d5f7c2cfe11e9c7e3bade9478d413a556108",
    ("cosine", "json"): "909e3df02aeedb55fe991cc56fa6e88b672a6ad27c68adb13c54531ed28e925e",
}


@pytest.mark.parametrize("kernel, fmt", sorted(SEPARATION_OUTPUT_SHA256))
def test_separation_output_sha_pinned(tmp_path, capsys, kernel, fmt):
    config = write_config(tmp_path, SEPARATION_PIN_CONFIGS[kernel])
    code, out = run_cli(capsys, "separation", "--config", config, "--format", fmt)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        SEPARATION_OUTPUT_SHA256[kernel, fmt]


# sha256 of the JSON clustering output in all five modes on the default model
CLUSTERING_JSON_SHA256 = \
    "ec8361d356ad81dcfa7db26cc8d5fcaff039c3ce7b57bf9fd5ded09355c03911"


def test_clustering_json_output_sha_pinned(capsys):
    code, out = run_cli(capsys, "clustering", "--modes",
                        "closed,leading,full,quadrature,mc", "--trials", "5",
                        "--format", "json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CLUSTERING_JSON_SHA256


@pytest.fixture(scope="module")
def modules_after_every_command(tmp_path_factory):
    """The exit codes of every command, run one after another at one thread
    in a fresh process, and the modules that process then holds."""
    script = """
import json, sys
from ringnet.cli import main
out, config = sys.argv[1], sys.argv[2]
codes = [
    main(["clustering", "--modes", "closed,leading,full,quadrature,mc",
          "--trials", "2", "--threads", "1", "--out", out]),
    main(["separation", "--modes", "leading,full,quadrature,mc",
          "--trials", "2", "--threads", "1", "--out", out]),
    main(["sweep-phi", "--config", config, "--threads", "1", "--out", out]),
    main(["mc-validate", "--config", config, "--threads", "1", "--out", out]),
    main(["kernel-info", "--threads", "1", "--out", out]),
]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""
    tmp_path = tmp_path_factory.mktemp("commands")
    config = write_config(tmp_path, {"computation": {
        "phi_points": 4, "tail_terms": 1000, "battery_trials": FAST_BATTERY}})
    source = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(source), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out.csv"),
                             config], capture_output=True, text=True, env=env,
                            check=True)
    report = json.loads(result.stdout)
    assert report["codes"] == [EXIT_OK] * 5
    return report["modules"]


def test_no_command_imports_scipy(modules_after_every_command):
    # scipy is a test dependency only
    assert [m for m in modules_after_every_command if m.split(".")[0] == "scipy"] == []


def test_no_command_imports_numpy_ma(modules_after_every_command):
    # np.unique on floats, or with axis=0, loads numpy.ma (about 0.5 MiB);
    # the quadrature's distinct rows come from the grid's own indices
    assert [m for m in modules_after_every_command
            if m == "numpy.ma" or m.startswith("numpy.ma.")] == []


def test_serial_commands_import_no_thread_pool(modules_after_every_command):
    # concurrent.futures, and the logging it brings, load only with a pool
    # of two or more workers
    assert [m for m in modules_after_every_command
            if m.split(".")[0] == "concurrent"] == []


CIRCLE_WINDOW = {"type": "uniform", "p": 0.1, "half_width": 0.5}


@pytest.mark.parametrize("command", ["clustering", "separation", "sweep-phi",
                                     "mc-validate", "kernel-info"])
@pytest.mark.parametrize("document, flags", [
    ({"space": {"type": "circle", "radius": "x"}, "kernel": CIRCLE_WINDOW}, ()),
    ({"space": {"type": "circle", "radius": True}, "kernel": CIRCLE_WINDOW}, ()),
    ({"space": {"type": "circle", "radius": 1e308}, "kernel": CIRCLE_WINDOW}, ()),
    ({"space": {"type": "torus", "radii": ["a", 3]},
      "kernel": {"type": "product", "factors": [CIRCLE_WINDOW, CIRCLE_WINDOW]}}, ()),
    ({"space": {"type": "torus", "radii": "ab"},
      "kernel": {"type": "product", "factors": [CIRCLE_WINDOW, CIRCLE_WINDOW]}}, ()),
    ({"mc": {"nodes": "abc"}}, ()),
    ({"mc": {"nodes": 10 ** 400}}, ()),
    ({}, ("--radius", "inf")),
    ({}, ("--radius", "nan")),
], ids=["radius-string", "radius-bool", "radius-overflow", "radii-string-entry",
        "radii-string", "nodes-string", "nodes-overflow", "radius-inf", "radius-nan"])
def test_bad_radius_or_node_count_exits_2_with_one_line(tmp_path, capsys, command,
                                                        document, flags):
    config = write_config(tmp_path, document)
    code = main([command, "--config", config, *flags])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert len(captured.err.strip().splitlines()) == 1


SWEEP_COMPUTATION = {"phi_points": 4, "k_list": [1, 2], "tail_terms": 1000}


def test_sweep_phi_p_flag_sets_the_swept_height(tmp_path, capsys):
    flags = write_config(tmp_path, {"computation": SWEEP_COMPUTATION}, "flags.json")
    document = write_config(tmp_path, {"computation": {**SWEEP_COMPUTATION, "p": 0.5}})
    code, by_flag = run_cli(capsys, "sweep-phi", "--config", flags, "--p", "0.5")
    assert code == EXIT_OK
    code, by_config = run_cli(capsys, "sweep-phi", "--config", document)
    assert code == EXIT_OK
    assert by_flag == by_config  # the same resolved config, digest included
    code, default = run_cli(capsys, "sweep-phi", "--config", flags)
    assert code == EXIT_OK
    body = [line for line in by_flag.splitlines() if not line.startswith("#")]
    assert body != [line for line in default.splitlines() if not line.startswith("#")]
    # ptilde_k1 at phi = pi is p / pi
    last = parse_csv(by_flag.split("\n\n")[1])[-1]
    assert float(last["ptilde_k1"]) == pytest.approx(0.5 / math.pi, rel=1e-9)


@pytest.mark.parametrize("flags", [("--p", "-0.1"), ("--p", "1.5"), ("--p", "nan"),
                                   ("--phi", "0.5"), ("--radius", "10")],
                         ids=["p-negative", "p-above-one", "p-nan", "phi", "radius"])
def test_sweep_phi_refuses_bad_or_unused_model_flags(capsys, flags):
    code = main(["sweep-phi", *flags])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert len(captured.err.strip().splitlines()) == 1


COMMON_FLAGS = {"--config", "--out", "--format", "--threads"}
COMMAND_FLAGS = {
    "clustering": COMMON_FLAGS | {"--seed", "--trials", "--modes", "--p", "--phi", "--radius"},
    "separation": COMMON_FLAGS | {"--seed", "--trials", "--modes", "--p", "--phi", "--radius"},
    "sweep-phi": COMMON_FLAGS | {"--p"},
    "mc-validate": COMMON_FLAGS | {"--seed"},
    "kernel-info": COMMON_FLAGS | {"--p", "--phi", "--radius"},
}
FLAG_VALUES = {"--config": "c.json", "--out": "o.csv", "--format": "json",
               "--threads": "2", "--seed": "7", "--trials": "3", "--modes": "mc",
               "--p": "0.2", "--phi": "0.4", "--radius": "9"}
REMOVED_PAIRS = [(command, flag) for command in COMMAND_FLAGS for flag in FLAG_VALUES
                 if flag not in COMMAND_FLAGS[command]]
TORUS_WINDOWS = {"space": {"type": "torus", "radii": [6.0, 5.0]},
                 "kernel": {"type": "product", "factors": [CIRCLE_WINDOW, CIRCLE_WINDOW]}}


@pytest.mark.parametrize("command", [None, *sorted(COMMAND_FLAGS)])
def test_help_prints_and_returns_0(capsys, command):
    assert main(["--help"] if command is None else [command, "--help"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith(f"usage: ringnet {command or ''}".rstrip())
    assert captured.err == ""


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_each_command_takes_exactly_the_flags_it_reads(command):
    accepted = set()
    for flag, value in FLAG_VALUES.items():
        try:
            cli._build_parser().parse_args([command, flag, value])
        except cli.ConfigError:
            continue
        accepted.add(flag)
    assert accepted == COMMAND_FLAGS[command]
    assert sum(map(len, COMMAND_FLAGS.values())) == 37 and len(REMOVED_PAIRS) == 13


@pytest.mark.parametrize("argv", [
    *([command, flag, FLAG_VALUES[flag]] for command, flag in REMOVED_PAIRS),
    ["clustering", "--threads", "abc"],
    ["separation", "--bogus"],
    ["kernel-info", "--format", "xml"],
    ["no-such-command"],
    [],
], ids=[*(f"{command}{flag}" for command, flag in REMOVED_PAIRS), "threads-abc",
        "unknown-flag", "format-xml", "unknown-command", "missing-command"])
def test_refused_argv_exits_2_with_one_config_error_line(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert len(captured.err.strip().splitlines()) == 1


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    examples = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("ringnet ")]
    assert len(examples) >= 5
    for argv in examples:
        cli._build_parser().parse_args(argv[1:])


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_mc_nodes_is_not_settable(tmp_path, capsys, command):
    # the analytic rows would be for R = 20 and the sampled ones for 1000 nodes
    config = write_config(tmp_path, {**CIRCLE, "mc": {"nodes": 1000}})
    code = main([command, "--config", config])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    assert captured.out == ""
    assert captured.err.startswith("config error: mc.nodes is not settable")
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("command, space, kernel", [
    ("clustering", {"type": "circle", "radius": 0.3}, CIRCLE_WINDOW),
    ("separation", {"type": "circle", "radius": 0.3}, CIRCLE_WINDOW),
    ("clustering", {"type": "torus", "radii": [5.0, 0.3]}, TORUS_WINDOWS["kernel"]),
], ids=["clustering-circle", "separation-circle", "clustering-torus"])
def test_too_few_sampled_nodes_names_the_radius(tmp_path, capsys, command, space, kernel):
    config = write_config(tmp_path, {"space": space, "kernel": kernel,
                                     "computation": {"modes": ["mc"]}})
    code = main([command, "--config", config])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    assert captured.out == ""
    assert captured.err == ("config error: ring sampling needs at least 3 nodes per axis, "
                            "round(2*pi*R): every radius must be at least 0.4\n")


def test_sampled_nodes_follow_the_radius(tmp_path, capsys):
    config = write_config(tmp_path, TORUS_WINDOWS)
    code, out = run_cli(capsys, "kernel-info", "--config", config, "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["records"]["nodes"] == [38, 31]


ONE_AXIS_TORUS = {"space": {"type": "torus", "radii": [20.0]},
                  "kernel": {"type": "product", "factors": [CIRCLE_WINDOW]}}


def _data_rows(text):
    # every line after the config digest, which names the document
    return text.split("# config-digest: ", 1)[1].split("\n", 1)[1]


@pytest.mark.parametrize("command, modes", [
    ("clustering", "closed,leading,full,quadrature,mc"),
    ("separation", "leading,full,quadrature,mc"),
])
def test_one_axis_torus_gives_its_circles_rows(tmp_path, capsys, command, modes):
    # a torus of one radius is its circle in every mode; sampling it used
    # to raise "a ring sample needs a one-dimensional kernel" with exit 1
    settings = {"mc": {"trials": 4}, "computation": {"gap_points": 5}}
    rows = []
    for document in (CIRCLE, ONE_AXIS_TORUS):
        config = write_config(tmp_path, {**document, **settings})
        code, out = run_cli(capsys, command, "--config", config, "--modes", modes)
        assert code == EXIT_OK
        rows.append(_data_rows(out))
    assert rows[0] == rows[1]
    assert len(rows[0].splitlines()) > len(modes.split(","))


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
@pytest.mark.parametrize("document", [
    {"space": 3, "kernel": CIRCLE_WINDOW},
    {"space": None},
    {"kernel": 3},
    {"mc": []},
    {"computation": 5},
    {"output": "x"},
], ids=["space", "space-null", "kernel", "mc", "computation", "output"])
def test_non_object_section_exits_2_with_one_line(tmp_path, capsys, command, document):
    config = write_config(tmp_path, document)
    code = main([command, "--config", config])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    assert captured.out == ""
    section = next(iter(document))
    assert captured.err == f"config error: {section} must be a JSON object\n"


def _no_route_may_run(*_args, **_kwargs):
    raise AssertionError("a route ran before the modes were checked")


@pytest.mark.parametrize("command, document, message", [
    ("clustering", {**CIRCLE, "computation": {"modes": ["mc", "quadrature", "bogus"]}},
     "unknown clustering mode 'bogus'; expected one of "
     "('closed', 'leading', 'full', 'quadrature', 'mc')"),
    ("separation", {**CIRCLE, "computation": {"modes": ["mc", "quadrature", "closed"]}},
     "unknown separation mode 'closed'; expected one of "
     "('leading', 'full', 'quadrature', 'mc')"),
    ("clustering", {**TORUS_WINDOWS, "computation": {"modes": ["mc", "quadrature", "full"]}},
     "full mode does not factorise over torus axes"),
    ("clustering", {"space": CIRCLE["space"], "kernel": SMOOTH,
                    "computation": {"modes": ["mc", "quadrature", "closed"]}},
     "mode 'closed' needs a circle model with a uniform window kernel"),
    ("separation", {**CIRCLE, "computation": {"modes": ["mc", "leading", "quadrature"],
                                              "k_list": [1, 3]}},
     "quadrature mode covers chain orders 1 and 2"),
    ("separation", {**CIRCLE, "computation": {"modes": ["mc", "full"], "k_list": [3]}},
     "full mode covers chain orders 1 and 2"),
    # mode mc's settings are read before any mode listed ahead of it runs
    ("separation", {**CIRCLE, "mc": {"seed": -1},
                    "computation": {"modes": ["quadrature", "mc"]}},
     "mc.seed (--seed) must be a non-negative integer"),
    ("clustering", {**CIRCLE, "mc": {"seed": -1},
                    "computation": {"modes": ["leading", "quadrature", "mc"]}},
     "mc.seed (--seed) must be a non-negative integer"),
    ("separation", {**CIRCLE, "mc": {"trials": 0},
                    "computation": {"modes": ["leading", "quadrature", "mc"]}},
     "mc.trials must be a positive integer"),
    ("clustering", {**CIRCLE, "mc": {"trials": 0},
                    "computation": {"modes": ["closed", "quadrature", "mc"]}},
     "mc.trials must be a positive integer"),
    ("separation", {**CIRCLE, "computation": {"modes": ["leading", "quadrature", "mc"],
                                              "gap_grid": [0.0, 0.01]}},
     "no gap in the grid maps to a usable node offset"),
], ids=["clustering-unknown", "separation-unknown", "torus-full", "closed-cosine",
        "quadrature-k3", "full-k3", "separation-mc-seed", "clustering-mc-seed",
        "separation-mc-trials", "clustering-mc-trials", "separation-mc-no-offset"])
def test_modes_are_checked_before_any_route_runs(tmp_path, capsys, monkeypatch, command,
                                                 document, message):
    for module, name in ((montecarlo, "estimate_clustering"),
                         (montecarlo, "estimate_separation_histograms"),
                         (quadrature, "clustering_result"),
                         (quadrature, "chain_count_curve"),
                         (fourier, "clustering_uniform"),
                         (fourier, "clustering_from_series"),
                         (fourier, "leading_brackets")):
        monkeypatch.setattr(module, name, _no_route_may_run)
    code = main([command, "--config", write_config(tmp_path, document)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


@pytest.mark.parametrize("command, kernel, fragment", [
    ("clustering", {"type": "uniform", "p": "0.1", "half_width": True},
     "uniform kernel p must be a number, got '0.1'"),
    ("separation", {"type": "uniform", "p": 0.1, "half_width": "0.5"},
     "uniform kernel half_width must be a number, got '0.5'"),
    ("kernel-info", {"type": "cosine", "coeffs": ["0.1", True]},
     "cosine coefficient must be a number, got '0.1'"),
    ("clustering", {"type": "cosine", "coeffs": [0.1, False]},
     "cosine coefficient must be a number, got False"),
    # a JSON integer beyond float range reads as infinite, as 1e400 does
    ("clustering", {"type": "uniform", "p": 10 ** 400, "half_width": 0.5},
     "non-finite parameter"),
], ids=["clustering-p-string", "separation-width-string", "kernel-info-coeffs",
        "clustering-coeff-bool", "clustering-p-beyond-float"])
def test_kernel_numbers_must_be_json_numbers(tmp_path, capsys, command, kernel, fragment):
    config = write_config(tmp_path, {"space": CIRCLE["space"], "kernel": kernel})
    code = main([command, "--config", config])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG_ERROR
    assert captured.out == ""
    assert captured.err.startswith("config error: bad ")
    assert captured.err.strip().endswith(fragment)
    assert len(captured.err.strip().splitlines()) == 1


def test_mc_validate_json_records_equal_the_csv_rows(tmp_path, capsys):
    config = write_config(tmp_path, {"computation": {"battery_trials": FAST_BATTERY}})
    code, csv_text = run_cli(capsys, "mc-validate", "--config", config)
    assert code == EXIT_OK
    code, json_text = run_cli(capsys, "mc-validate", "--config", config, "--format", "json")
    assert code == EXIT_OK
    document = json.loads(json_text)
    assert document["schema"] == f"mc-validate v{cli.SCHEMA_VERSION}"
    assert document["config_digest"] == csv_text.splitlines()[2].split(": ")[1]
    rows = [{key: value if key in ("status", "check") else float(value)
             for key, value in row.items()} for row in parse_csv(csv_text)]
    assert document["records"] == rows and len(rows) == 14


def test_mc_validate_json_keeps_the_failure_exit(tmp_path, capsys):
    config = write_config(tmp_path, {"computation": {"terms": 2,
                                                     "battery_trials": FAST_BATTERY}})
    code, out = run_cli(capsys, "mc-validate", "--config", config, "--format", "json")
    assert code == EXIT_VALIDATION_FAILURE
    failed = [r["check"] for r in json.loads(out)["records"] if r["status"] == "FAIL"]
    assert "clustering-closed-vs-quadrature" in failed
