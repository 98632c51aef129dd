import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import projconst
from projconst.cli import main
from projconst.matcore import matrix_to_json
from projconst.seeds import perturbed_hex3


HEX3_CERTIFY_DIGEST = ("66352ecd7d0d545262d63613ba9bce01"
                       "f5c4c837c2b1a12fd67b8587a816461f")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_search_exhaustive_hexagon(capsys):
    code, out, err = run_cli(capsys, "search", "--n", "2", "--d", "3",
                             "--exhaustive")
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"] - 4 / 3) <= 1e-9
    assert data["converged"] is True
    assert "value" in err  # summary goes to stderr
    # 2 lower-block classes (on 2 vertices) x 5 weight restarts
    assert "10 ascent runs, 75 iterations, 0 not converged" in err


@pytest.mark.parametrize("n, d, status, digest", [
    (3, 6, "attained", "eddb8105e4e59766b3f8f17033ea74d1"
                       "2bfc3164239897625b307f246db30dbe"),
    (2, 5, "lower bound", "07ca30523c07694794b87078af793b22"
                          "f924f754cc0d86f7f95574a6ba2aca75"),
])
def test_search_note_brackets_value_with_etf_bound(capsys, n, d, status,
                                                   digest):
    code, out, err = run_cli(capsys, "search", "--n", str(n), "--d", str(d))
    assert code == 0
    # stdout matches the exhaustive pins; the bracket goes to stderr only
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    value = json.loads(out)["value"]
    bound = n / d + float(np.sqrt(n * (d - 1) * (d - n))) / d
    assert f"value {value!r} ({status}), bound {bound!r}," in err


def test_search_trivial(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "1", "--d", "1")
    assert code == 0
    assert json.loads(out)["value"] == 1.0


def test_search_guard_refusal(capsys):
    code, out, err = run_cli(capsys, "search", "--n", "2", "--d", "9",
                             "--exhaustive")
    assert code == 2
    assert "2^36" in err and "68719476736" in err


@pytest.mark.parametrize("argv, message", [
    (["--n", "0"], "n=0 out of range 1..9"),
    (["--n", "2", "--restarts", "0"], "restarts must be >= 1"),
])
def test_search_checks_inputs_before_the_guard(capsys, argv, message):
    code, out, err = run_cli(capsys, "search", "--d", "9", "--exhaustive",
                             *argv)
    assert code == 1
    assert out == ""
    assert message in err and "refused" not in err


@pytest.mark.parametrize("mode", ["--exhaustive", "--alternating"])
def test_search_refuses_restarts_beyond_the_lane_budget(capsys, mode):
    code, out, err = run_cli(capsys, "search", "--n", "2", "--d", "2", mode,
                             "--restarts", "100000000000000000000")
    assert code == 3
    assert out == ""
    assert err.startswith("resource error: search refused: ")
    assert "2^24-entry budget" in err


def test_search_alternating(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "2", "--d", "3",
                           "--alternating", "--restarts", "3")
    assert code == 0
    assert json.loads(out)["value"] <= 4 / 3 + 1e-9


def test_almost_min_known_seeds(capsys):
    code, out, _ = run_cli(capsys, "almost-min", "--n", "3", "--eps", "0.1",
                           "--seed", "icosa6")
    assert code == 0
    data = json.loads(out)
    cert = data["certificate"]
    assert abs(cert["rho"] - (1 + np.sqrt(5)) / 2) <= 1e-9
    assert abs(cert["gap_rows"]) <= 1e-9
    assert data["converged"] is True

    code, out, _ = run_cli(capsys, "almost-min", "--n", "2", "--eps", "0.1",
                           "--seed", "hex3")
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert abs(cert["rho"] - 4 / 3) <= 1e-9
    assert abs(cert["gap_minimality"]) <= 1e-9


@pytest.mark.parametrize("seed, n, digest, witness", [
    ("hex3", 2, "14f9a01649880ffb3420a7eab9d3c227"
                "c9f2cd51612ab8c2b5947e9d55bf7ef9", "perron"),
    ("icosa6", 3, "d4a33c11f737f7408f83f83affacd845"
                  "008c219200ff31e27f528ba442a8599b", "perron"),
    ("trivial1", 1, "b2b6617da8cd21145ed69498d8c2b9dc"
                    "2013e58b311d850dfbb3b91439f29f61", "perron"),
])
def test_almost_min_named_seed_stdout_pinned(capsys, seed, n, digest,
                                             witness):
    # sha256 of the stdout recorded from the dense d x d pipeline
    code, out, err = run_cli(capsys, "almost-min", "--n", str(n), "--eps",
                             "0.1", "--seed", seed)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err.rstrip().endswith(f"converged=True, witness={witness}")


def write_perturbed_hex3(tmp_path):
    path = tmp_path / "hex3-perturbed.json"
    seed = perturbed_hex3(np.random.default_rng(3))
    path.write_text(json.dumps(matrix_to_json(seed)))
    return str(path)


def test_almost_min_beyond_dense_cap(tmp_path, capsys):
    # d = 27207 runs in block form; only dense output is capped
    path = write_perturbed_hex3(tmp_path)
    code, out, err = run_cli(capsys, "almost-min", "--n", "2", "--eps", "16",
                             "--seed", path)
    assert code == 0
    data = json.loads(out)
    assert data["d"] == 27207 and data["converged"] is True
    cert = data["certificate"]
    assert cert["r"] <= cert["rho"] <= cert["R"]
    assert cert["lower_bound"] <= cert["op_norm_l1"]
    assert "d=27207" in err and "witness=uniform" in err


def test_almost_min_matrices_beyond_dense_cap(tmp_path, capsys):
    path = write_perturbed_hex3(tmp_path)
    code, out, err = run_cli(capsys, "almost-min", "--n", "2", "--eps", "16",
                             "--seed", path, "--matrices")
    assert code == 3
    assert out == ""
    assert "resource error" in err and "4096" in err


def test_search_out_feeds_almost_min_and_certify(tmp_path, capsys):
    path = str(tmp_path / "r.json")
    code, _, _ = run_cli(capsys, "search", "--n", "3", "--d", "6",
                         "--exhaustive", "--out", path)
    assert code == 0
    phi = (1 + 5 ** 0.5) / 2
    code, out, _ = run_cli(capsys, "almost-min", "--n", "3", "--eps", "1",
                           "--seed", path)
    assert code == 0
    assert abs(json.loads(out)["certificate"]["lower_bound"] - phi) <= 1e-12
    code, out, _ = run_cli(capsys, "certify", "--seed", path)
    assert code == 0
    assert abs(json.loads(out)["lower_bound"] - phi) <= 1e-12


def test_almost_min_unknown_seed(capsys):
    code, _, err = run_cli(capsys, "almost-min", "--n", "2", "--eps", "0.1",
                           "--seed", "nosuch")
    assert code == 1
    assert "unknown seed" in err


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_almost_min_rejects_non_finite_eps(capsys, eps):
    code, out, err = run_cli(capsys, "almost-min", "--n", "2", "--eps", eps,
                             "--seed", "hex3")
    assert code == 1
    assert out == ""
    assert "eps must be positive and finite" in err


# eta * eps0 is subnormal, so k would be infinite, or underflows to 0
@pytest.mark.parametrize("eps", ["1e-155", "1e-160"])
def test_almost_min_rejects_eps_too_small_for_a_finite_k(capsys, eps):
    code, out, err = run_cli(capsys, "almost-min", "--n", "2", "--eps", eps,
                             "--seed", "hex3")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "finite k" in err


def test_almost_min_rejects_eps_whose_budget_underflows(capsys):
    code, out, err = run_cli(capsys, "almost-min", "--n", "2", "--eps",
                             "1e-170", "--seed", "hex3")
    assert code == 1
    assert out == ""
    assert err == "error: eps 1e-170 is too small: eta underflows\n"


def test_almost_min_rejects_seed_whose_signs_lack_n_positive_eigenvalues(
        tmp_path, capsys):
    # |P| > 0, but Sgn(P) has five positive eigenvalues at rank 6: no
    # choice of multiplicities gives a block-constant Ky Fan maximizer,
    # so the pipeline stops before the Dirichlet scan
    rng = np.random.default_rng(0)
    for _ in range(66):
        q = np.linalg.qr(rng.standard_normal((9, 6)))[0]
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(matrix_to_json(q @ q.T)))
    code, out, err = run_cli(capsys, "almost-min", "--n", "6", "--eps", "32",
                             "--seed", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert "fewer than n=6 positive eigenvalues" in err


@pytest.mark.parametrize("modes", [(0, 1, 7, 2, 6), (0, 2, 6, 3, 5)])
def test_almost_min_decides_a_zero_eigenvalue_exactly(tmp_path, capsys,
                                                      modes):
    # the circulant rank-5 projections of R^8 onto these Fourier modes
    # are one seed up to a coordinate permutation; Sgn has four positive
    # eigenvalues and a double 0, so both are refused alike
    j = np.arange(8)
    c = sum(np.cos(2 * np.pi * k * j / 8) for k in modes) / 8
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(matrix_to_json(c[(j[:, None] - j) % 8])))
    code, out, err = run_cli(capsys, "almost-min", "--n", "5", "--eps", "32",
                             "--seed", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert "fewer than n=5 positive eigenvalues" in err


def test_relproj_hexagon(tmp_path, capsys):
    basis_file = tmp_path / "hex.json"
    basis_file.write_text(json.dumps(
        {"d": 3, "n": 2,
         "columns": [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]}))
    code, out, _ = run_cli(capsys, "relproj", "--space", "l1",
                           "--basis", str(basis_file))
    assert code == 0
    assert abs(json.loads(out)["value"] - 4 / 3) <= 1e-7


def test_relproj_note_reports_dual_bound_and_pivots(tmp_path, capsys):
    basis_file = tmp_path / "hex.json"
    basis_file.write_text(json.dumps(
        {"d": 3, "n": 2,
         "columns": [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]}))
    code, out, err = run_cli(capsys, "relproj", "--space", "l1",
                             "--basis", str(basis_file))
    assert code == 0
    value = json.loads(out)["value"]
    match = re.fullmatch(r"relproj l1: value (\S+), dual bound (\S+), "
                         r"(\d+) pivots, (\d+) refactorizations\n", err)
    assert match is not None, err
    assert float(match[1]) == value
    assert abs(float(match[2]) - value) <= 1e-9
    assert int(match[3]) > 0
    assert int(match[4]) >= 1


def test_relproj_pivot_cap_is_a_resource_error(tmp_path, capsys,
                                               monkeypatch):
    # the hexagon plane takes 2 pivots, so a cap of 0 is blown
    monkeypatch.setattr("projconst._simplex._MAX_PIVOTS", 0)
    basis_file = tmp_path / "hex.json"
    basis_file.write_text(json.dumps(
        {"d": 3, "n": 2,
         "columns": [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]}))
    code, out, err = run_cli(capsys, "relproj", "--space", "l1",
                             "--basis", str(basis_file))
    assert code == 3
    assert out == ""
    assert err == "resource error: simplex pivot cap exceeded\n"


def test_relproj_coordinate_line_linf(tmp_path, capsys):
    basis_file = tmp_path / "e1.json"
    basis_file.write_text(json.dumps(
        {"d": 3, "n": 1, "columns": [[1.0, 0.0, 0.0]]}))
    code, out, _ = run_cli(capsys, "relproj", "--space", "linf",
                           "--basis", str(basis_file))
    assert code == 0
    assert abs(json.loads(out)["value"] - 1.0) <= 1e-9


def test_relproj_with_witness(tmp_path, capsys):
    basis_file = tmp_path / "hex.json"
    basis_file.write_text(json.dumps(
        {"d": 3, "n": 2,
         "columns": [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]}))
    witness_file = tmp_path / "witness.json"
    witness = (2 * np.eye(3) - np.ones((3, 3))) / 3
    witness_file.write_text(json.dumps(matrix_to_json(witness)))
    code, out, _ = run_cli(capsys, "relproj", "--space", "l1",
                           "--basis", str(basis_file),
                           "--certify", str(witness_file))
    assert code == 0
    data = json.loads(out)
    assert abs(data["witness_value"] - 4 / 3) <= 1e-9


def test_relproj_rejects_nan_witness(tmp_path, capsys):
    basis_file = tmp_path / "hex.json"
    basis_file.write_text(json.dumps(
        {"d": 3, "n": 2,
         "columns": [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]}))
    witness = (2 * np.eye(3) - np.ones((3, 3))) / 3
    witness[0, 1] = np.nan
    witness_file = tmp_path / "witness.json"
    witness_file.write_text(json.dumps({"d": 3, "rows": witness.tolist()}))
    code, out, err = run_cli(capsys, "relproj", "--space", "l1",
                             "--basis", str(basis_file),
                             "--certify", str(witness_file))
    assert code == 1
    assert out == ""
    assert "finite" in err


def test_relproj_rank_deficient_basis(tmp_path, capsys):
    basis_file = tmp_path / "bad.json"
    basis_file.write_text(json.dumps(
        {"d": 3, "n": 2,
         "columns": [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]}))
    code, _, err = run_cli(capsys, "relproj", "--space", "l1",
                           "--basis", str(basis_file))
    assert code == 1
    assert "independence" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_relproj_rejects_non_finite_basis(tmp_path, capsys, bad):
    basis_file = tmp_path / "bad.json"
    basis_file.write_text(json.dumps(
        {"d": 3, "n": 2,
         "columns": [[1.0, 0.0, -1.0], [0.0, float(bad), -1.0]]}))
    code, out, err = run_cli(capsys, "relproj", "--space", "l1",
                             "--basis", str(basis_file))
    assert code == 1
    assert out == ""
    assert "basis contains non-finite entries" in err


def test_certify_seed(capsys):
    code, out, _ = run_cli(capsys, "certify", "--seed", "hex3")
    assert code == 0
    cert = json.loads(out)
    assert abs(cert["lower_bound"] - 4 / 3) <= 1e-9


@pytest.mark.parametrize("q", [13, 17])
def test_certify_paley_seed(capsys, q):
    code, out, err = run_cli(capsys, "certify", "--seed", f"paley{q}")
    assert code == 0
    cert = json.loads(out)
    for key in ("rho", "r", "R"):
        assert abs(cert[key] - (1 + np.sqrt(q)) / 2) <= 1e-12
    assert f"certify d={q + 1} n={(q + 1) // 2}:" in err
    assert err.rstrip().endswith("witness=perron")


@pytest.mark.parametrize("seed, digest", [
    ("hex3", HEX3_CERTIFY_DIGEST),
    ("icosa6", "a38984f55cd6d34738a8959c6ca9f228"
               "8d57b23cbd54799a65ec40602495d8a1"),
    ("trivial1", "cc01ddf301474b5d6ecd709da1dabb5c"
                 "60b56d7df92d4c810bf48acd18e4072a"),
])
def test_certify_named_seed_stdout_pinned(capsys, seed, digest):
    # sha256 of the stdout recorded before the Paley seeds were added
    _, out, _ = run_cli(capsys, "certify", "--seed", seed)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def write_hex3_off_by_1e_7(tmp_path):
    p = np.eye(3) - np.ones((3, 3)) / 3
    p[0, 1] += 1e-7
    p[1, 0] += 1e-7
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(matrix_to_json(p)))
    return path


def test_certify_tol_is_the_validation_tolerance(tmp_path, capsys):
    path = write_hex3_off_by_1e_7(tmp_path)
    code, _, err = run_cli(capsys, "certify", "--seed", str(path))
    assert code == 1
    assert "idempotence" in err
    code, _, _ = run_cli(capsys, "certify", "--seed", str(path),
                         "--tol", "1e-6")
    assert code == 0


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_certify_rejects_bad_tol(tmp_path, capsys, tol):
    # not a projection: accepted at tol = inf before the check; a named
    # seed goes through the same validation as a file
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d": 2, "rows": [[1.0, 0.3], [0.3, 0.0]]}))
    for seed in (str(path), "hex3"):
        code, out, err = run_cli(capsys, "certify", "--seed", seed,
                                 "--tol", tol)
        assert code == 1
        assert out == ""
        assert "tol must be finite and >= 0" in err


@pytest.mark.parametrize("command, flag, obj", [
    ("certify", "--seed", {"d": 1, "rows": {"a": 1}}),
    ("certify", "--seed", {"d": [2], "rows": [[1, 0], [0, 1]]}),
    ("certify", "--seed", {"P": {"a": 1}}),
    ("relproj", "--basis", {"columns": {"a": 1}}),
    ("certify", "--seed", {"d": 2, "rows": [["1", "0"], ["0", "0"]]}),
    ("certify", "--seed", {"d": 2, "rows": [[True, False], [False, False]]}),
    ("certify", "--seed", {"P": [[1, 0], [0, False]]}),
    ("relproj", "--basis", {"columns": [["1", "0", "0"]]}),
])
def test_non_numeric_matrix_json_is_an_input_error(tmp_path, capsys,
                                                   command, flag, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    extra = ["--space", "l1"] if command == "relproj" else []
    code, out, err = run_cli(capsys, command, flag, str(path), *extra)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("obj", [
    {"d": 2, "rows": [[1e308, 0], [0, 1e308]]},
    {"P": [[1e308, 0], [0, 1e308]]},
])
def test_certify_rejects_overflowing_trace(tmp_path, capsys, obj):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "certify", "--seed", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_certify_overflowing_square_reports_idempotence(tmp_path, capsys):
    # symmetric with trace 0, but P @ P overflows; no RuntimeWarning
    path = tmp_path / "big.json"
    path.write_text(json.dumps(
        {"d": 2, "rows": [[1e308, 1e308], [1e308, -1e308]]}))
    code, out, err = run_cli(capsys, "certify", "--seed", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: invariant violated: idempotence")


def test_certify_zero_tol_is_exact(tmp_path, capsys):
    # exactly symmetric, so the old check let it through at tol 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d": 2, "rows": [[1.0, 0.3], [0.3, 0.0]]}))
    code, out, err = run_cli(capsys, "certify", "--seed", str(path),
                             "--tol", "0")
    assert code == 1
    assert out == ""
    assert "idempotence" in err


def test_eigsum_rotation(tmp_path, capsys):
    mat_file = tmp_path / "rot.json"
    mat_file.write_text(json.dumps(
        {"d": 2, "rows": [[0.0, -1.0], [1.0, 0.0]]}))
    code, out, _ = run_cli(capsys, "eigsum", "--matrix", str(mat_file),
                           "--n", "1")
    assert code == 0
    assert json.loads(out)["value"] == -np.inf

    code, out, _ = run_cli(capsys, "eigsum", "--matrix", str(mat_file),
                           "--n", "2")
    assert code == 0
    assert abs(json.loads(out)["value"]) <= 1e-12


def test_blowup_command(tmp_path, capsys):
    mat_file = tmp_path / "hexsign.json"
    mat_file.write_text(json.dumps(matrix_to_json(
        2 * np.eye(3) - np.ones((3, 3)))))
    code, out, _ = run_cli(capsys, "blowup", "--base", str(mat_file),
                           "--multiplicities", "2,2,2")
    assert code == 0
    data = json.loads(out)
    assert data["d"] == 6
    evals = np.linalg.eigvalsh(np.asarray(data["S"]))
    nonzero = sorted(x for x in evals if abs(x) > 1e-8)
    assert np.allclose(nonzero, [-2.0, 4.0, 4.0])


def test_blowup_rejects_nan_base(tmp_path, capsys):
    mat_file = tmp_path / "nan.json"
    mat_file.write_text(json.dumps(
        {"d": 2, "rows": [[1.0, np.nan], [np.nan, 1.0]]}))
    code, out, err = run_cli(capsys, "blowup", "--base", str(mat_file),
                             "--multiplicities", "1,1")
    assert code == 1
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_blowup_rejects_bad_tol(tmp_path, capsys, tol):
    mat_file = tmp_path / "hexsign.json"
    mat_file.write_text(json.dumps(matrix_to_json(
        2 * np.eye(3) - np.ones((3, 3)))))
    code, out, err = run_cli(capsys, "blowup", "--base", str(mat_file),
                             "--multiplicities", "1,1,1", "--tol", tol)
    assert code == 1
    assert out == ""
    assert "tau must be finite and >= 0" in err


@pytest.mark.parametrize("mult", ["2049,2048", "1000000000000,1"])
def test_blowup_beyond_dense_cap(tmp_path, capsys, mult):
    # refused before the d x d matrix is allocated, at any d above 4096
    mat_file = tmp_path / "ones.json"
    mat_file.write_text(json.dumps(matrix_to_json(np.ones((2, 2)))))
    code, out, err = run_cli(capsys, "blowup", "--base", str(mat_file),
                             "--multiplicities", mult)
    assert code == 3
    assert out == ""
    assert "resource error" in err and "4096" in err


def test_dirichlet_command(capsys):
    code, out, _ = run_cli(capsys, "dirichlet", "--weights",
                           "0.5,0.5", "--k", "100")
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 2 and data["p"] == [1, 1]


def test_dirichlet_resource_error(capsys):
    code, _, err = run_cli(capsys, "dirichlet", "--weights",
                           "0.7071067811865475,0.2928932188134525",
                           "--k", "1000000", "--q-cap", "10")
    assert code == 3
    assert "resource error" in err


@pytest.mark.parametrize("weights, k, message", [
    ("0.01,0.99", "2", "rounded multiplicity nonpositive"),
])
def test_dirichlet_input_errors(capsys, weights, k, message):
    code, out, err = run_cli(capsys, "dirichlet", "--weights", weights,
                             "--k", k)
    assert code == 1
    assert out == ""
    assert message in err


def test_dirichlet_rejects_nan_weight(capsys):
    code, out, err = run_cli(capsys, "dirichlet", "--weights", "nan,0.5",
                             "--k", "3")
    assert code == 1
    assert out == ""
    assert "weights must be finite" in err


def test_bad_flags(capsys):
    code, _, _ = run_cli(capsys, "search", "--n", "2")  # missing --d
    assert code == 1
    code, _, _ = run_cli(capsys)  # no subcommand
    assert code == 1
    code, _, _ = run_cli(capsys, "nosuchcommand")
    assert code == 1
    # flags are offered only where they are read
    code, _, _ = run_cli(capsys, "relproj", "--threads", "2")
    assert code == 1
    code, _, _ = run_cli(capsys, "search", "--n", "2", "--d", "3",
                         "--tol", "1e-6")
    assert code == 1


@pytest.mark.parametrize("mode", ["--exhaustive", "--alternating"])
def test_search_rejects_nonpositive_restarts(capsys, mode):
    code, out, err = run_cli(capsys, "search", "--n", "2", "--d", "4",
                             mode, "--restarts", "0")
    assert code == 1
    assert out == ""
    assert "restarts must be >= 1" in err


@pytest.mark.parametrize("d", ["0", "-1"])
def test_search_alternating_rejects_bad_d(capsys, d):
    code, out, err = run_cli(capsys, "search", "--n", "2", "--d", d,
                             "--alternating")
    assert code == 1
    assert out == ""
    assert f"n=2 out of range 1..d (d={d})" in err


def test_out_file_matches_stdout(tmp_path, capsys):
    out_file = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, "search", "--n", "2", "--d", "3",
                           "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().strip() == out.strip()


@pytest.mark.parametrize("target", [".", "missing/result.json"])
def test_unwritable_out_leaves_stdout_empty(tmp_path, capsys, target):
    # a directory, then a file in a directory that does not exist
    code, out, err = run_cli(capsys, "certify", "--seed", "hex3",
                             "--out", str(tmp_path / target))
    assert code == 1
    assert out == ""
    assert "input error: " in err


@pytest.mark.parametrize("argv", [
    ["certify", "--seed", "hex3"],
    ["search", "--n", "2", "--d", "3"],
    ["almost-min", "--n", "2", "--eps", "8", "--seed", "hex3"],
    ["dirichlet", "--weights", "0.5,0.5", "--k", "4"],
], ids=lambda argv: argv[0])
def test_failed_out_prints_only_the_input_error(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--out",
                             str(tmp_path / "missing" / "x.json"))
    assert (code, out) == (1, "")
    assert err.startswith("input error: [Errno 2] ")
    assert err.count("\n") == 1  # no success note before the error


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    run_cli(capsys, "certify", "--seed", "hex3")  # the warm-up call
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    basis = tmp_path / "hex.json"
    basis.write_text(json.dumps(
        {"d": 3, "n": 2,
         "columns": [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]}))
    codes = [run_cli(capsys, *argv)[0] for argv in (
        ["search", "--n", "2", "--d", "3"],
        ["certify", "--seed", "hex3"],
        ["relproj", "--space", "l1", "--basis", str(basis)],
        ["search", "--n", "2"],
    )]
    assert codes == [0, 0, 0, 1]
    assert built == []


def test_import_builds_no_parser():
    # in a fresh process; the count after build_parser shows it counts
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import projconst.cli\n"
        "print(len(built))\n"
        "projconst.cli.build_parser()\n"
        "print(len(built))\n")
    src = str(Path(projconst.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout == "0\n8\n"  # the parser and its 7 subparsers


def test_shared_parser_after_usage_error(capsys):
    code, out, _ = run_cli(capsys, "certify", "--seed", "hex3", "--nosuch")
    assert (code, out) == (1, "")
    code, out, _ = run_cli(capsys, "certify", "--seed", "hex3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HEX3_CERTIFY_DIGEST


def test_shared_parser_resets_search_mode(capsys):
    code, _, err = run_cli(capsys, "search", "--n", "2", "--d", "3",
                           "--alternating")
    assert code == 0 and "(alternating)" in err
    code, _, err = run_cli(capsys, "search", "--n", "2", "--d", "3")
    assert code == 0 and "(exhaustive)" in err


def test_shared_parser_resets_out(tmp_path, capsys):
    out_file = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, "search", "--n", "2", "--d", "3",
                           "--out", str(out_file))
    assert code == 0
    code, _, _ = run_cli(capsys, "search", "--n", "2", "--d", "4")
    assert code == 0
    assert out_file.read_text() == out


def test_shared_parser_resets_tol(tmp_path, capsys):
    path = str(write_hex3_off_by_1e_7(tmp_path))
    code, _, _ = run_cli(capsys, "certify", "--seed", path, "--tol", "1e-6")
    assert code == 0
    code, out, err = run_cli(capsys, "certify", "--seed", path)
    assert (code, out) == (1, "")
    assert "idempotence" in err


@pytest.mark.parametrize("command", [[], ["certify"]])
def test_help_goes_to_the_current_stdout(command):
    # twice, so the second call prints from the parser the first one built
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*command, "--help"])
        assert code == 0
        assert out.getvalue().startswith(
            " ".join(["usage: projconst", *command]) + " ")


def test_byte_identical_reruns(capsys):
    _, out1, _ = run_cli(capsys, "search", "--n", "2", "--d", "4")
    _, out2, _ = run_cli(capsys, "search", "--n", "2", "--d", "4")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "almost-min", "--n", "2", "--eps", "0.5",
                         "--seed", "hex3", "--matrices")
    _, out4, _ = run_cli(capsys, "almost-min", "--n", "2", "--eps", "0.5",
                         "--seed", "hex3", "--matrices")
    assert out3 == out4


def test_json_roundtrip_bit_exact(capsys):
    _, out, _ = run_cli(capsys, "almost-min", "--n", "3", "--eps", "0.1",
                        "--seed", "icosa6", "--matrices")
    data = json.loads(out)
    # serialization re-parses to the same values bit-for-bit
    assert json.loads(json.dumps(data)) == data
    p = np.asarray(data["P"])
    assert np.array_equal(p, np.asarray(json.loads(json.dumps(data))["P"]))
    from projconst.seeds import icosa6
    assert np.abs(p - icosa6().entries).max() <= 1e-12
