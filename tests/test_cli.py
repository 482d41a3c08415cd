import numpy as np
import pytest

from tenfun.cli import (
    EXIT_DOMAIN,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARSE,
    format_document,
    main,
    parse_document,
)


def run_cli(tmp_path, capsys, text, *flags):
    path = tmp_path / "job.txt"
    path.write_text(text)
    code = main(["--input", str(path), *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_sqrt_diagonal(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys,
                           "command = eval\n"
                           "fn = sqrt\n"
                           "matrix = [[4,0,0],[0,9,0],[0,0,25]]\n")
    assert code == EXIT_OK
    doc = parse_document(out)
    assert np.allclose(doc["value"], np.diag([2.0, 3.0, 5.0]), atol=1e-13)


def test_solve_power_equation(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys,
                           "command = solve\n"
                           "m = 2\n"
                           "matrix = [[1,0,0],[0,2,0],[0,0,3]]\n"
                           "rhs = [[2,3,0],[3,8,0],[0,0,6]]\n")
    assert code == EXIT_OK
    doc = parse_document(out)
    assert np.allclose(doc["solution"], [[1, 1, 0], [1, 2, 0], [0, 0, 1]], atol=1e-12)
    assert doc["residual"] <= 1e-12


def test_solve_commutator_equation(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys,
                           "command = solve\n"
                           "equation = commutator\n"
                           "matrix = [[1,0,0],[0,2,0],[0,0,3]]\n"
                           "rhs = [[0,1,0],[-1,0,0],[0,0,0]]\n")
    assert code == EXIT_OK
    doc = parse_document(out)
    sol = np.asarray(doc["solution"], dtype=float)
    assert sol[0, 1] == pytest.approx(-1.0)
    assert doc["residual"] <= 1e-12
    assert doc["null_component"] <= 1e-15


def test_grad_identity_matrix_table(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys,
                           "command = grad\n"
                           "fn = seth_hill:2\n"
                           "order = 1\n"
                           "matrix = [[1,0,0],[0,1,0],[0,0,1]]\n")
    assert code == EXIT_OK
    doc = parse_document(out)
    assert doc["d"] == 1
    assert doc["coeff_1_1"] == pytest.approx(1.0)


def test_grad_dense_export_layout(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys,
                           "command = grad\n"
                           "fn = monomial:1\n"
                           "order = 1\n"
                           "matrix = [[2,0,0],[0,3,0],[0,0,5]]\n",
                           "--dense")
    assert code == EXIT_OK
    doc = parse_document(out)
    dense = np.asarray(doc["dense"], dtype=float).reshape(doc["dense_shape"])
    eye = np.eye(3)
    assert np.abs(dense - np.einsum("ik,jl->ijkl", eye, eye)).max() <= 1e-12


def test_dense_export_cap(tmp_path, capsys):
    code, _, err = run_cli(tmp_path, capsys,
                           "command = grad\n"
                           "fn = exp\n"
                           "order = 5\n"
                           "matrix = [[2,0,0],[0,3,0],[0,0,5]]\n",
                           "--dense")
    assert code == EXIT_PARSE
    assert "dense" in err


def test_taylor_reports_remainder(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys,
                           "command = taylor\n"
                           "fn = exp\n"
                           "order = 3\n"
                           "matrix = [[0.5,0.1,0],[0.1,0.8,0],[0,0,1.1]]\n"
                           "direction = [[0.01,0,0],[0,0.02,0],[0,0,-0.01]]\n")
    assert code == EXIT_OK
    doc = parse_document(out)
    assert doc["remainder_norm"] <= 1e-7


def test_check_command_passes_on_good_input(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys,
                           "command = check\n"
                           "fn = seth_hill:-2\n"
                           "order = 3\n"
                           "matrix = [[1.2,0.2,0],[0.2,2.5,0.1],[0,0.1,3.4]]\n")
    assert code == EXIT_OK
    doc = parse_document(out)
    assert doc["check_overall"] == "pass"
    assert doc["check_projector_orthogonality"] == "pass"
    assert doc["check_inverse_gradient_composition"] == "pass"
    assert doc["check_log_integral_quadrature"] == "pass"


def test_check_detects_underresolved_quadrature(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys,
                           "command = check\n"
                           "matrix = [[1.2,0.2,0],[0.2,2.5,0.1],[0,0.1,3.4]]\n",
                           "--quad-points", "1")
    assert code == EXIT_NUMERICAL
    doc = parse_document(out)
    assert doc["check_log_integral_quadrature"] == "fail"
    assert doc["check_overall"] == "fail"


def test_flag_overrides_file(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys,
                           "command = eval\n"
                           "fn = monomial:2\n"
                           "matrix = [[4,0,0],[0,9,0],[0,0,25]]\n",
                           "--fn", "sqrt")
    assert code == EXIT_OK
    doc = parse_document(out)
    assert np.allclose(doc["value"], np.diag([2.0, 3.0, 5.0]), atol=1e-13)


def test_roundtrip_is_bit_identical(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys,
                           "command = grad\n"
                           "fn = log\n"
                           "order = 2\n"
                           "matrix = [[1.1,0.31,-0.2],[0.31,2.7,0.45],[-0.2,0.45,3.9]]\n")
    assert code == EXIT_OK
    doc = parse_document(out)
    again = parse_document(format_document(doc))
    assert doc == again  # bit-identical values and types


def test_parse_error_exit_code(tmp_path, capsys):
    code, _, err = run_cli(tmp_path, capsys, "command = eval\nfn just wrong\n")
    assert code == EXIT_PARSE
    assert err


def test_unknown_command_exit_code(tmp_path, capsys):
    code, _, _ = run_cli(tmp_path, capsys, "command = frobnicate\n")
    assert code == EXIT_PARSE


def test_unknown_key_rejected(tmp_path, capsys):
    code, _, err = run_cli(tmp_path, capsys,
                           "command = eval\nfn = exp\n"
                           "matrix = [[1,0,0],[0,2,0],[0,0,3]]\n"
                           "diraction = [[1,0,0],[0,1,0],[0,0,1]]\n")
    assert code == EXIT_PARSE
    assert "diraction" in err


def test_asymmetric_matrix_rejected(tmp_path, capsys):
    code, _, err = run_cli(tmp_path, capsys,
                           "command = eval\n"
                           "fn = exp\n"
                           "matrix = [[1,0.5,0],[0,1,0],[0,0,1]]\n")
    assert code == EXIT_PARSE
    assert "symmetric" in err


def test_order_bounds_enforced(tmp_path, capsys):
    code, _, _ = run_cli(tmp_path, capsys,
                         "command = grad\nfn = exp\norder = 7\n"
                         "matrix = [[1,0,0],[0,2,0],[0,0,3]]\n")
    assert code == EXIT_PARSE


def test_domain_error_exit_code(tmp_path, capsys):
    code, _, err = run_cli(tmp_path, capsys,
                           "command = eval\n"
                           "fn = log\n"
                           "matrix = [[-1,0,0],[0,1,0],[0,0,2]]\n")
    assert code == EXIT_DOMAIN
    assert err


def test_numerical_failure_exit_code(tmp_path, capsys):
    # near-coincident eigenvalues with clustering disabled by a tiny tolerance:
    # the interpolation path must refuse rather than return garbage
    code, _, err = run_cli(tmp_path, capsys,
                           "command = grad\n"
                           "fn = exp\n"
                           "order = 2\n"
                           "matrix = [[1,0,0],[0,1.0000000000001,0],[0,0,2]]\n",
                           "--method", "interp", "--tol", "1e-15")
    assert code == EXIT_NUMERICAL
    assert err


def test_missing_input_file(capsys):
    code = main(["--input", "/nonexistent/job.txt"])
    captured = capsys.readouterr()
    assert code == EXIT_PARSE
    assert captured.err


def test_document_parser_rejects_bad_lines():
    from tenfun import ParseError

    with pytest.raises(ParseError):
        parse_document("just some text\n")
    with pytest.raises(ParseError):
        parse_document("matrix = [[1, 'a']]\n")
    doc = parse_document("# comment\n\nkey = 3\nother = tok_en\narr = [1, 2.5]\n")
    assert doc == {"key": 3, "other": "tok_en", "arr": [1, 2.5]}


@pytest.mark.parametrize("m", [0, -2])
def test_power_equation_rejects_non_positive_m(tmp_path, capsys, m):
    code, _, err = run_cli(tmp_path, capsys,
                           "command = solve\n"
                           f"m = {m}\n"
                           "matrix = [[1,0,0],[0,2,0],[0,0,3]]\n"
                           "rhs = [[2,3,0],[3,8,0],[0,0,6]]\n")
    assert code == EXIT_PARSE
    assert "m >= 1" in err


def test_non_numeric_tol_rejected(tmp_path, capsys):
    code, _, err = run_cli(tmp_path, capsys,
                           "command = eval\n"
                           "fn = exp\n"
                           "tol = abc\n"
                           "matrix = [[1,0,0],[0,2,0],[0,0,3]]\n")
    assert code == EXIT_PARSE
    assert "tol" in err


@pytest.mark.parametrize("value,exported", [("false", False), ("0", False),
                                            ("true", True), ("1", True)])
def test_dense_flag_values(tmp_path, capsys, value, exported):
    code, out, _ = run_cli(tmp_path, capsys,
                           "command = grad\n"
                           "fn = exp\n"
                           "order = 1\n"
                           f"dense = {value}\n"
                           "matrix = [[2,0,0],[0,3,0],[0,0,5]]\n")
    assert code == EXIT_OK
    assert ("dense" in parse_document(out)) == exported


def test_dense_flag_rejects_other_values(tmp_path, capsys):
    code, _, err = run_cli(tmp_path, capsys,
                           "command = grad\n"
                           "fn = exp\n"
                           "dense = yes\n"
                           "matrix = [[2,0,0],[0,3,0],[0,0,5]]\n")
    assert code == EXIT_PARSE
    assert "dense" in err
