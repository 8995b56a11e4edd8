import json
from fractions import Fraction

import pytest

from superjack import cli
from superjack.cli import cache_load, cache_store, dispatch
from superjack.coeffring import PoleError, parse_alpha
from superjack.jack import DegenerateSystem, jack_symbolic
from superjack.spart import parse_spart
from superjack.superpoly import terms_to_json, to_mbasis


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_pretty(capsys):
    code, out, err = run(capsys, "compute", "--spart", ";3", "--N", "3",
                         "--alpha", "sym")
    assert code == 0
    assert "3/(2*a+1) * m[;2,1]" in out
    assert "6/(2*a^2+3*a+1) * m[;1,1,1]" in out


def test_compute_json_and_determinism(capsys):
    args = ("compute", "--spart", "1,0;2", "--N", "4", "--alpha", "sym",
            "--out", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["label"] == "1,0;2"


def test_compute_beyond_n_plus_m_variables_is_unchanged(capsys):
    # (3|2) labels reach 5 parts at most, so N = 9 and N = 7 agree
    coeffs = []
    for N in ("9", "7"):
        code, out, _ = run(capsys, "compute", "--spart", "2,1;2", "--N", N,
                           "--out", "json")
        assert code == 0
        coeffs.append(json.loads(out)["coeffs"])
    assert coeffs[0] == coeffs[1]
    assert len(coeffs[0]) == 7


def test_compute_numeric_alpha(capsys):
    code, out, err = run(capsys, "compute", "--spart", ";2", "--N", "2",
                         "--alpha", "1", "--basis", "vars")
    assert code == 0
    assert "x1" in out


def test_compute_pole_exit_code(capsys):
    code, out, err = run(capsys, "compute", "--spart", ";3", "--N", "3",
                         "--alpha", "-1/1")
    assert code == 3
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "PoleError"


def _compute_by_orbit_round_trip(L, N, a0, basis, out):
    """`jack compute` output rebuilt from to_mbasis(expansion.at(a0))."""
    expansion = jack_symbolic(L, N)
    if a0 is None:
        coeffs, poly = expansion.coeffs, expansion.polynomial()
    else:
        poly = expansion.at(a0)
        coeffs = to_mbasis(poly, verify=False)
    if basis == "vars":
        text = (json.dumps({"N": N, "terms": terms_to_json(poly)})
                if out == "json" else str(poly))
        return text + "\n"
    items = sorted(coeffs.items(), key=lambda kv: kv[0].sort_key(), reverse=True)
    if out == "json":
        return json.dumps({"label": str(L), "N": N,
                           "alpha": "sym" if a0 is None else str(a0),
                           "basis": "m",
                           "coeffs": {str(k): str(v) for k, v in items}}) + "\n"
    head = f"P[{L}] (N={N})" if a0 is None else f"P[{L}] (N={N}, alpha={a0})"
    lines = [head + " ="] + [
        f"  m[{om}]" if a0 is None and str(c) == "1" else f"  {c} * m[{om}]"
        for om, c in items]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("out", ["json", "pretty"])
@pytest.mark.parametrize("basis", ["m", "vars"])
@pytest.mark.parametrize("alpha", ["sym", "-2", "-1"])
def test_compute_matches_orbit_round_trip(capsys, alpha, basis, out):
    L, N = parse_spart("1;2"), 3
    a0 = None if alpha == "sym" else Fraction(alpha)
    code, got, err = run(capsys, "compute", "--spart", str(L), "--N", str(N),
                         "--alpha", alpha, "--basis", basis, "--out", out)
    try:
        want = _compute_by_orbit_round_trip(L, N, a0, basis, out)
    except PoleError as exc:  # -1 is a pole of this label
        assert (code, got) == (3, "")
        assert json.loads(err) == {"error": "PoleError", "message": str(exc),
                                   "label": str(L), "N": N, "alpha": alpha}
        return
    assert alpha != "-1"
    assert (code, got, err) == (0, want, "")


def test_usage_errors(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert json.loads(err.strip())["error"] == "UsageError"
    code, _, _ = run(capsys, "compute", "--spart", ";1")
    assert code == 2
    code, _, _ = run(capsys)
    assert code == 2


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--m", "2", "--N", "3",
                       "--out", "json")
    assert code == 0
    assert json.loads(out) == ["3,0;", "2,1;", "2,0;1", "1,0;2"]
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--m", "2", "--N", "3",
                       "--admissible", "1,2", "--out", "json")
    assert json.loads(out) == ["2,1;"]


def test_characters(capsys):
    code, out, _ = run(capsys, "characters", "--space", "F", "--k", "1",
                       "--N", "3", "--nmax", "4")
    assert code == 0
    assert out.strip().startswith("(v^2+v^3)*u^3")
    code, out2, _ = run(capsys, "characters", "--space", "I", "--k", "1",
                        "--N", "3", "--nmax", "4")
    assert out2 == out  # the two series coincide on this range
    code, out3, _ = run(capsys, "characters", "--space", "F", "--k", "1",
                        "--N", "3", "--nmax", "4", "--out", "json")
    table = json.loads(out3)["table"]
    assert table["3|2"] == 1 and table["3|3"] == 1


def test_pieri_command(capsys):
    code, out, _ = run(capsys, "pieri", "--upsilon", "p0", "--spart", "1;2,2",
                       "--N", "4", "--out", "json")
    assert code == 0
    coeffs = json.loads(out)["coeffs"]
    assert coeffs["2,1;2"] == "1"


def test_cluster_command(capsys):
    code, out, _ = run(capsys, "cluster", "--spart", "2;4,1", "--k", "2",
                       "--r", "3", "--N", "4", "--cluster", "2,3",
                       "--primed", "1", "--out", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["multiplicity"] == 2 and payload["a"] == 1
    assert payload["matches"]


def test_cluster_vanishing_polynomial_exit_code(capsys):
    # a vanishing polynomial is a result (multiplicity null), not a counterexample
    code, out, _ = run(capsys, "cluster", "--spart", "2,0;3", "--k", "2",
                       "--r", "3", "--N", "4", "--cluster", "3,4",
                       "--primed", "1", "--out", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["multiplicity"] is None and payload["a"] == 1
    assert not payload["matches"]


@pytest.mark.parametrize("cluster", ["2", "2,3,4"])
def test_cluster_of_other_size_than_k_is_a_usage_error(capsys, cluster):
    # k = 2: a 1-cluster printed "-> EXCEPTION" and a 3-cluster "vanishes",
    # both with exit 0
    assert "exactly k = 2" in _usage_error(
        capsys, "cluster", "--spart", "2;4,1", "--k", "2", "--r", "3",
        "--N", "4", "--cluster", cluster, "--primed", "1")


def test_characters_space_F_takes_no_r(capsys):
    # --r 5 used to print the F series and exit 0
    assert "--space F does not take --r" in _usage_error(
        capsys, "characters", "--space", "F", "--k", "1", "--r", "5",
        "--N", "3", "--nmax", "4")
    code, out, _ = run(capsys, "characters", "--space", "I", "--k", "1",
                       "--r", "2", "--N", "3", "--nmax", "4")
    assert code == 0
    assert out == run(capsys, "characters", "--space", "I", "--k", "1",
                      "--N", "3", "--nmax", "4")[1]


def test_characters_json_names_r(capsys):
    # the I series is read at a = -(k+1)/(r-1), so its output names r
    for argv, r in ((("--k", "2", "--r", "3"), 3), (("--k", "1"), 2)):
        code, out, _ = run(capsys, "characters", "--space", "I", *argv,
                           "--N", "3", "--nmax", "4", "--out", "json")
        assert code == 0
        assert list(json.loads(out)) == ["space", "k", "r", "N", "nmax",
                                         "table"]
        assert json.loads(out)["r"] == r
    code, out, _ = run(capsys, "characters", "--space", "F", "--k", "1",
                       "--N", "3", "--nmax", "4", "--out", "json")
    assert list(json.loads(out)) == ["space", "k", "N", "nmax", "table"]


def test_cluster_noncoprime_exit_code(capsys):
    # gcd(k+1, r-1) = 2: outside the theorem, rejected as jack verify does
    code, out, err = run(capsys, "cluster", "--spart", ";2", "--k", "1",
                         "--r", "3", "--N", "3", "--cluster", "1,2",
                         "--primed", "3", "--out", "json")
    assert code == 2 and out == ""
    assert json.loads(err.strip())["error"] == "UsageError"


def _usage_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, ""), argv
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    assert json.loads(lines[0])["error"] == "UsageError"
    return json.loads(lines[0])["message"]


# every command that reads (k, r); conjecture-IF takes k alone (r = 2), at
# the empty enumerate degree no label reaches is_admissible, and vanishing at
# N < k+1 checks no label
_KR_COMMANDS = {
    "enumerate": ("enumerate", "--n", "3", "--m", "2", "--N", "3",
                  "--admissible", "{k},{r}"),
    "enumerate-empty": ("enumerate", "--n", "0", "--m", "3", "--N", "2",
                        "--admissible", "{k},{r}"),
    "characters": ("characters", "--space", "I", "--k", "{k}", "--r", "{r}",
                   "--N", "3", "--nmax", "3"),
    "cluster": ("cluster", "--spart", ";2", "--k", "{k}", "--r", "{r}",
                "--N", "3", "--cluster", "1,2", "--primed", "3"),
    **{suite: ("verify", "--suite", suite, "--k", "{k}", "--r", "{r}",
               "--N", "3", "--nmax", "3")
       for suite in ("stability", "regularity", "vanishing", "cochain",
                     "conjecture-rma")},
    "conjecture-IF": ("verify", "--suite", "conjecture-IF", "--k", "{k}",
                      "--N", "3", "--nmax", "3"),
    "vanishing-N1": ("verify", "--suite", "vanishing", "--k", "{k}", "--r",
                     "{r}", "--N", "1", "--nmax", "4"),
}


@pytest.mark.parametrize("command, k, r, message", [
    *((command, 1, 3, "not coprime") for command in _KR_COMMANDS
      if command != "conjecture-IF"),
    *((command, 0, 2, "k >= 1") for command in _KR_COMMANDS),
    ("vanishing-N1", 1, 1, "r >= 2")])
def test_rejected_k_r_is_a_usage_error_before_any_label(capsys, command, k,
                                                        r, message):
    # enumerate at an empty degree used to print [] with exit 0
    argv = [a.format(k=k, r=r) for a in _KR_COMMANDS[command]]
    assert message in _usage_error(capsys, *argv)


def test_allow_noncoprime_runs_regularity(capsys):
    # (1,3) outside the hypothesis: almost-admissible labels hit poles (the
    # stability case is in test_verify_pass_and_fail_exit_codes)
    code, out, _ = run(capsys, "verify", "--suite", "regularity", "--k", "1",
                       "--r", "3", "--N", "2", "--nmax", "6",
                       "--allow-noncoprime", "--out", "json")
    assert code == 1
    assert json.loads(out)["report"]["checked"] == 47


def test_noncoprime_stability_reports_a_pole(capsys):
    # gcd(4, 2) = 2: P_[1;1] has a pole at a = -2, a counterexample to the
    # run, not an internal error
    code, out, err = run(capsys, "verify", "--suite", "stability", "--k", "3",
                         "--r", "3", "--N", "3", "--nmax", "4",
                         "--allow-noncoprime", "--out", "json")
    assert (code, err) == (1, "")
    report = json.loads(out)["report"]
    assert report["violations"] == [] and "checked" in report
    assert report["poles"] == [{"label": "1;1", "N": 3, "a": "-2",
                                "offending": "0;1,1"}]


def test_coprime_stability_pole_is_internal(capsys, monkeypatch):
    # inside the hypothesis an admissible Jack is regular: a pole exits 3
    from superjack import suites

    def pole(*args):
        raise PoleError("P_[1;1] has a pole")

    monkeypatch.setattr(suites, "stability_suite", pole)
    code, out, err = run(capsys, "verify", "--suite", "stability", "--k", "1",
                         "--r", "2", "--N", "2", "--nmax", "2")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "PoleError"


@pytest.mark.parametrize("N", ["0", "-1", "x"])
def test_N_must_be_a_positive_integer(capsys, N):
    # N = 0 used to end stability in an IndexError (exit 1) and let compute
    # print a coefficient
    for argv in (("verify", "--suite", "stability", "--k", "1", "--r", "2",
                  "--N", N, "--nmax", "3"),
                 ("compute", "--spart", ";", "--N", N)):
        assert "N must be a positive integer" in _usage_error(capsys, *argv)


def test_bad_flags_are_json_usage_errors(capsys):
    assert "required: --N" in _usage_error(capsys, "compute", "--spart", ";1")
    assert "--out" in _usage_error(capsys, "compute", "--spart", ";1",
                                   "--N", "2", "--out", "xml")


# every suite with a required parameter, that parameter left out; algebra
# has none (N defaults to 2)
@pytest.mark.parametrize("suite, given, missing", [
    ("sekiguchi", ("--nmax", "2"), "N"),
    ("norm", (), "nmax"),
    ("duality", (), "nmax"),
    ("pieri", ("--N", "3"), "nmax"),
    ("stability", ("--k", "1", "--r", "2", "--N", "2"), "nmax"),
    ("vanishing", ("--k", "1", "--r", "2", "--nmax", "3"), "N"),
    ("regularity", ("--r", "2", "--N", "3", "--nmax", "3"), "k"),
    ("cochain", ("--k", "1", "--N", "3", "--nmax", "3"), "r"),
    ("conjecture-IF", ("--k", "1", "--N", "2"), "nmax"),
    ("conjecture-rma", ("--k", "1", "--r", "2", "--nmax", "3"), "N"),
])
def test_verify_names_a_missing_suite_parameter(capsys, suite, given, missing):
    # a missing parameter used to end in a TypeError traceback with exit 1
    assert _usage_error(capsys, "verify", "--suite", suite, *given) == \
        f"suite {suite!r} needs --{missing}"


@pytest.mark.parametrize("suite, given, flag", [
    ("norm", ("--nmax", "2", "--k", "5"), "k"),
    ("sekiguchi", ("--nmax", "2", "--N", "2", "--allow-noncoprime"),
     "allow-noncoprime")])
def test_verify_rejects_a_flag_its_suite_does_not_take(capsys, suite, given,
                                                       flag):
    # both calls used to print PASS with exit 0, the extra flag ignored
    assert _usage_error(capsys, "verify", "--suite", suite, *given) == \
        f"suite {suite!r} does not take --{flag}"


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "stability", "--k", "1", "--r", "2", "--N", "2",
     "--nmax", "-1"),
    ("verify", "--suite", "pieri", "--N", "2", "--nmax", "2", "--mmax", "-1"),
    ("characters", "--space", "I", "--k", "1", "--N", "2", "--nmax", "-1"),
    ("enumerate", "--m", "0", "--N", "2", "--n", "-1"),
    ("enumerate", "--n", "2", "--N", "2", "--m", "-1")])
def test_degree_bounds_must_be_non_negative(capsys, argv):
    # --nmax -1 used to pass vacuously with exit 0, and so did enumerate's
    # --n -1 and --m -1, printing nothing
    flag = argv[-2].lstrip("-")
    assert f"{flag} must be a non-negative integer" in _usage_error(capsys, *argv)


@pytest.mark.parametrize("argv", [
    ("characters", "--space", "F", "--k", "1", "--N", "1", "--nmax", "3"),
    ("verify", "--suite", "conjecture-IF", "--k", "2", "--N", "2",
     "--nmax", "3")])
def test_coincidence_needs_k_plus_one_variables(capsys, argv):
    assert _usage_error(capsys, *argv) == \
        "coincidence vanishing needs N >= k+1"


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "stability", "--k", "1", "--r", "1", "--N", "2",
     "--nmax", "2"),
    ("verify", "--suite", "regularity", "--k", "1", "--r", "1", "--N", "2",
     "--nmax", "2"),
    ("verify", "--suite", "cochain", "--k", "1", "--r", "1", "--N", "2",
     "--nmax", "2"),
    ("characters", "--space", "F", "--k", "0", "--N", "2", "--nmax", "2"),
    ("characters", "--space", "F", "--k", "-1", "--N", "2", "--nmax", "2")])
def test_invalid_k_or_r_is_a_usage_error(capsys, argv):
    # r = 1 used to exit 3 with a ZeroDivisionError from alpha_kr, and
    # characters --space F with k < 1 printed 0 and exited 0
    assert "k >= 1" in _usage_error(capsys, *argv)


@pytest.mark.parametrize("cluster,primed", [("9", "1"), ("1,2", "0"),
                                            ("1,2", "-1")])
def test_cluster_indices_must_lie_in_range(capsys, cluster, primed):
    # 0 and -1 used to reach the helper variables x_{N+2} and x_{N+1}
    assert _usage_error(
        capsys, "cluster", "--spart", "2;2", "--k", "1", "--r", "2",
        "--N", "3", "--cluster", cluster, "--primed", primed) == \
        "cluster and primed indices must lie in 1..3"


def test_op_apply(capsys, tmp_path):
    poly = {"N": 2, "terms": [
        {"thetas": [], "exps": [1, 0], "coeff": "1"},
        {"thetas": [], "exps": [0, 1], "coeff": "1"}]}
    path = tmp_path / "p1.json"
    path.write_text(json.dumps(poly))
    code, out, _ = run(capsys, "op", "apply", "--name", "D", "--alpha", "sym",
                       "--input", str(path))
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run(capsys, "op", "apply", "--name", "Sekiguchi",
                       "--alpha", "sym", "--input", str(path))
    assert "u^0" in out and "u^2" in out


@pytest.mark.parametrize("name", ["Sekiguchi", "SekiguchiTilde"])
def test_op_apply_sekiguchi_on_zero_prints_every_u_power(capsys, tmp_path,
                                                        name):
    # SekiguchiTilde used to print u^0 only
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"N": 2, "terms": []}))
    code, out, _ = run(capsys, "op", "apply", "--name", name, "--alpha",
                       "sym", "--input", str(path))
    assert code == 0
    assert out.splitlines() == ["u^0: 0", "u^1: 0", "u^2: 0"]


def test_op_apply_q_tilde(capsys, tmp_path):
    code, out, _ = run(capsys, "op", "apply", "--name", "q_tilde",
                       "--alpha", "sym", "--input", _write_x1_squared(tmp_path),
                       "--out", "json")
    assert code == 0
    assert json.loads(out)["terms"] == [
        {"thetas": [1], "exps": [2, 0], "coeff": "2"}]


def _write_x1_squared(tmp_path):
    path = tmp_path / "x1sq.json"
    path.write_text(json.dumps({"N": 2, "terms": [
        {"thetas": [], "exps": [2, 0], "coeff": "1"}]}))
    return str(path)


def test_op_apply_nonsymmetric_input_exit_code(capsys, tmp_path):
    # Delta divides no theta-free term, so only the symmetry check catches x1^2
    for name in ("D", "Delta"):
        code, _, err = run(capsys, "op", "apply", "--name", name, "--alpha",
                           "sym", "--input", _write_x1_squared(tmp_path))
        assert code == 2
        assert json.loads(err.strip())["error"] == "NonPolynomialResult"


def test_op_apply_k12_invariant_input_exit_code(capsys, tmp_path):
    # x1*x2 in 3 variables passes the (1, 2) divisions D and Delta make, so
    # only the symmetry check stands between it and a wrong image
    path = tmp_path / "x1x2.json"
    path.write_text(json.dumps({"N": 3, "terms": [
        {"thetas": [], "exps": [1, 1, 0], "coeff": "1"}]}))
    for name in ("D", "Delta"):
        code, out, err = run(capsys, "op", "apply", "--name", name,
                             "--alpha", "sym", "--input", str(path))
        assert code == 2 and out == ""
        assert json.loads(err.strip())["error"] == "NonPolynomialResult"


@pytest.mark.parametrize("name", ["Q", "E", "nabla_perp"])
def test_op_apply_dividing_by_zero_parameter_exit_code(capsys, tmp_path, name):
    # each divides by the parameter; a = 0 used to exit 3 with Fraction(1, 0)
    code, out, err = run(capsys, "op", "apply", "--name", name, "--alpha", "0",
                         "--input", _write_x1_squared(tmp_path))
    assert code == 2 and out == ""
    message = json.loads(err.strip())["message"]
    assert name in message and "a = 0" in message


@pytest.mark.parametrize("coeff, alpha", [("1/a", "0"), ("1/(a+1)", "-1")])
def test_op_apply_input_pole_exit_code(capsys, tmp_path, coeff, alpha):
    # a coefficient with a pole at --alpha is bad input; it used to exit 3
    path = tmp_path / "pole.json"
    path.write_text(json.dumps({"N": 2, "terms": [
        {"thetas": [], "exps": [1, 0], "coeff": "1"},
        {"thetas": [2], "exps": [0, 3], "coeff": coeff}]}))
    code, out, err = run(capsys, "op", "apply", "--name", "q",
                         "--alpha", alpha, "--input", str(path))
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "UsageError"
    assert (payload["thetas"], payload["exps"]) == ([2], [0, 3])
    assert payload["alpha"] == alpha and "pole" in payload["message"]


@pytest.mark.parametrize("index", ["5", "-1", "0"])
def test_op_apply_index_outside_range_exit_code(capsys, tmp_path, index):
    # --index 0 used to read as a missing --index
    code, out, err = run(capsys, "op", "apply", "--name", "Cherednik",
                         "--index", index, "--alpha", "sym",
                         "--input", _write_x1_squared(tmp_path))
    assert code == 2 and out == ""
    payload = json.loads(err.strip())
    assert payload["error"] == "UsageError"
    assert payload["message"] == f"Cherednik index {index} is outside 1..2"


@pytest.mark.parametrize("name, flags, stray", [
    ("q", ["--mode", "1", "--index", "2"], "index"),
    ("q", ["--mode", "1"], "mode"),
    ("Sekiguchi", ["--index", "1"], "index"),
    ("Cherednik", ["--index", "1", "--mode", "1"], "mode"),
    ("L", ["--mode", "0", "--index", "1"], "index"),
    ("G", ["--mode", "-1/2", "--index", "1"], "index"),
])
def test_op_apply_rejects_a_flag_its_operator_does_not_take(
        capsys, tmp_path, name, flags, stray):
    # each used to be ignored, with exit 0
    code, out, err = run(capsys, "op", "apply", "--name", name, *flags,
                         "--alpha", "sym", "--input",
                         _write_x1_squared(tmp_path))
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "UsageError"
    assert payload["message"] == f"{name} does not take --{stray}"


@pytest.mark.parametrize("N, term", [
    (2, {"thetas": [2, 1]}), (2, {"thetas": [1, 1]}), (2, {"thetas": [3]}),
    (2, {"thetas": [0]}), (2, {"exps": [1, 0, 4]}), (2, {"exps": [-1, 0]}),
    (2, {"exps": [1]}), (2, {"exps": [1.5, 0]}), (2, {"coeff": "1/0"}),
    (0, {"exps": []}),
])
def test_op_apply_malformed_term_exit_code(capsys, tmp_path, N, term):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"N": N, "terms": [
        {"thetas": [], "exps": [1, 0], "coeff": "1", **term}]}))
    code, out, err = run(capsys, "op", "apply", "--name", "Cherednik",
                         "--index", "1", "--alpha", "sym", "--input", str(path))
    assert code == 2 and out == ""
    assert json.loads(err.strip())["error"] == "UsageError"


def test_op_apply_deeply_nested_coeff_exit_code(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"N": 2, "terms": [
        {"thetas": [], "exps": [1, 1], "coeff": "(" * 3000 + "1" + ")" * 3000}]}))
    assert "nested too deeply" in _usage_error(
        capsys, "op", "apply", "--name", "q", "--input", str(path))


def test_op_apply_coeff_ending_in_caret_exit_code(capsys, tmp_path):
    path = tmp_path / "caret.json"
    path.write_text(json.dumps({"N": 2, "terms": [
        {"thetas": [], "exps": [1, 1], "coeff": "a^"}]}))
    assert "exponent must be an integer" in _usage_error(
        capsys, "op", "apply", "--name", "q", "--input", str(path))


@pytest.mark.parametrize("kind", ["input", "cache"])
def test_os_error_is_one_json_object_naming_the_path(capsys, tmp_path, kind):
    # a missing --input and a cache directory under a regular file used to
    # end in a traceback with exit 1
    (tmp_path / "afile").write_text("")
    where = str(tmp_path / ("afile/cache" if kind == "cache" else "no/such"))
    argv = {"input": ("op", "apply", "--name", "q", "--input", where),
            "cache": ("--cache-dir", where, "compute", "--spart", "1;1",
                      "--N", "2")}[kind]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    payload = json.loads(lines[0])
    assert payload["path"] == where
    assert payload["error"] == ("NotADirectoryError" if kind == "cache"
                                else "FileNotFoundError")


def test_internal_arithmetic_error_exit_code(capsys, monkeypatch):
    def singular(L, N, cache_dir):
        raise DegenerateSystem(f"joint eigenproblem singular for {L}")
    monkeypatch.setattr(cli, "jack_cached", singular)
    code, _, err = run(capsys, "compute", "--spart", ";2", "--N", "2")
    assert code == 3
    assert json.loads(err.strip())["error"] == "DegenerateSystem"


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "norm", "--nmax", "2")
    assert code == 0
    assert "PASS" in out
    # outside the coprimality hypothesis the stability suite finds violations
    code, out, _ = run(capsys, "verify", "--suite", "stability", "--k", "1",
                       "--r", "3", "--N", "2", "--nmax", "3",
                       "--allow-noncoprime")
    assert code == 1
    assert "FAIL" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "algebra", "--N", "2",
                       "--out", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True


def test_cache_roundtrip(tmp_path):
    L = parse_spart(";2,1")
    exp = jack_symbolic(L, 3)
    cache_store(str(tmp_path), exp)
    loaded = cache_load(str(tmp_path), L, 3)
    assert loaded is not None
    assert loaded.coeffs == exp.coeffs


def test_cache_tamper_evicts(tmp_path, capsys):
    L = parse_spart(";2")
    exp = jack_symbolic(L, 2)
    path = cache_store(str(tmp_path), exp)
    data = json.loads(path.read_text())
    key = [k for k in data["coeffs"] if k != str(L)][0]
    data["coeffs"][key] = "7"
    path.write_text(json.dumps(data))
    assert cache_load(str(tmp_path), L, 2) is None
    assert not path.exists()
    err = capsys.readouterr().err
    assert "evicting" in err


def test_cache_eviction_is_one_json_object(tmp_path, capsys):
    L = parse_spart(";2")
    path = cache_store(str(tmp_path), jack_symbolic(L, 2))
    data = json.loads(path.read_text())
    data["version"] = "0"
    path.write_text(json.dumps(data))
    assert cache_load(str(tmp_path), L, 2) is None
    event = json.loads(capsys.readouterr().err)
    assert event == {"warning": "evicting cache entry", "entry": path.name,
                     "reason": "version mismatch"}


@pytest.mark.parametrize("source, factor", [
    ("2;1", "1"),  # neither monic nor dominated by the label
    ("2;1", "a+1"),  # monic at 1;2, but 2;1 is not dominated by it
    ("1;2", "2"),  # dominated support, but not monic
])
def test_cache_foreign_expansion_evicts(tmp_path, capsys, source, factor):
    # each fake is a D eigenfunction with the eigenvalue of P[1;2] at N=3
    L = parse_spart("1;2")
    path = cache_store(str(tmp_path), jack_symbolic(L, 3))
    data = json.loads(path.read_text())
    scale = parse_alpha(factor)
    data["coeffs"] = {str(om): str(c * scale) for om, c in
                      jack_symbolic(parse_spart(source), 3).coeffs.items()}
    path.write_text(json.dumps(data))
    assert cache_load(str(tmp_path), L, 3) is None
    assert not path.exists()
    assert "evicting" in capsys.readouterr().err


def test_cache_non_delta_eigenfunction_evicts(tmp_path, capsys):
    # P[1;2] + P[0;2,1] is monic at 1;2, dominated by it and a D
    # eigenfunction (equal e_star), but its two parts differ in e_tilde
    L, other = parse_spart("1;2"), parse_spart("0;2,1")
    path = cache_store(str(tmp_path), jack_symbolic(L, 3))
    data = json.loads(path.read_text())
    fake = dict(jack_symbolic(L, 3).coeffs)
    for om, c in jack_symbolic(other, 3).coeffs.items():
        fake[om] = fake.get(om, 0) + c
    data["coeffs"] = {str(om): str(c) for om, c in fake.items()}
    path.write_text(json.dumps(data))
    assert cache_load(str(tmp_path), L, 3) is None
    assert not path.exists()
    assert "evicting" in capsys.readouterr().err


def _store_fake(tmp_path, L, N, coeffs):
    path = cache_store(str(tmp_path), jack_symbolic(L, N))
    data = json.loads(path.read_text())
    data["coeffs"] = {str(om): str(c) for om, c in coeffs.items()}
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("source, reason", [
    # P[1;2] + P[0;2,1] is a D eigenfunction; its Delta residual leads at 0;2,1
    ("0;2,1", "Delta eigen-equation fails at m_[0;2,1]"),
    # P[1;2] + P[1;1,1] fails both; D is checked first
    ("1;1,1", "D eigen-equation fails at m_[1;1,1]"),
])
def test_cache_eviction_names_the_failing_equation(tmp_path, capsys, source,
                                                   reason):
    L = parse_spart("1;2")
    fake = dict(jack_symbolic(L, 3).coeffs)
    for om, c in jack_symbolic(parse_spart(source), 3).coeffs.items():
        fake[om] = fake.get(om, 0) + c
    path = _store_fake(tmp_path, L, 3, fake)
    assert cache_load(str(tmp_path), L, 3) is None
    event = json.loads(capsys.readouterr().err)
    assert event == {"warning": "evicting cache entry", "entry": path.name,
                     "reason": reason}


def test_cache_zero_coefficient_evicts(tmp_path, capsys):
    # a genuine store never writes a zero; a cold compute never prints one
    L = parse_spart("2;1")
    path = _store_fake(tmp_path, L, 3, {**jack_symbolic(L, 3).coeffs,
                                        parse_spart("0;1,1,1"): 0})
    # the Jack is already in memory: a cache directory is still read first
    code, out, err = run(capsys, "--cache-dir", str(tmp_path), "compute",
                         "--spart", "2;1", "--N", "3", "--out", "json")
    assert code == 0
    assert "0;1,1,1" not in json.loads(out)["coeffs"]
    assert json.loads(err) == {"warning": "evicting cache entry",
                               "entry": path.name,
                               "reason": "zero coefficient at m_[0;1,1,1]"}
    assert "0;1,1,1" not in json.loads(path.read_text())["coeffs"]


def test_dispatch_calls_share_no_state(tmp_path, capsys):
    # the parser is built once per process; the parsed options are not
    assert cli.build_parser() is cli.build_parser()
    first = tmp_path / "first"
    code, _, _ = run(capsys, "--cache-dir", str(first), "compute", "--spart",
                     "1;1,1", "--N", "3", "--out", "json")
    assert code == 0
    assert len(list(first.glob("*.json"))) == 1
    code, out, _ = run(capsys, "compute", "--spart", "1;1,1,1", "--N", "4",
                       "--out", "json")
    assert code == 0 and json.loads(out)["label"] == "1;1,1,1"
    assert len(list(first.glob("*.json"))) == 1
    code, _, _ = run(capsys, "compute", "--spart", ";2")
    assert code == 2
    code, out, err = run(capsys, "compute", "--spart", ";2", "--N", "2",
                         "--out", "json")
    assert code == 0 and err == ""
    assert json.loads(out) == {"label": ";2", "N": 2, "alpha": "sym",
                               "basis": "m",
                               "coeffs": {";2": "1", ";1,1": "2/(a+1)"}}


def test_cache_version_mismatch(tmp_path, capsys):
    L = parse_spart(";1")
    path = cache_store(str(tmp_path), jack_symbolic(L, 2))
    data = json.loads(path.read_text())
    data["version"] = "0"
    path.write_text(json.dumps(data))
    assert cache_load(str(tmp_path), L, 2) is None


def test_cache_dir_is_the_only_cache_setting(tmp_path, capsys, monkeypatch):
    # no config file and no environment variable names a cache directory
    conf = tmp_path / "conf"
    conf.write_text(f"cache_dir = {tmp_path / 'from_config'}\n")
    _usage_error(capsys, "--config", str(conf), "compute", "--spart", ";2",
                 "--N", "2")
    monkeypatch.setenv("SUPERJACK_CACHE", str(tmp_path / "from_env"))
    code, _, _ = run(capsys, "compute", "--spart", ";2", "--N", "2",
                     "--out", "json")
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["conf"]


@pytest.mark.parametrize("kind", cli.PIERI_KINDS)
def test_pieri_label_too_long_for_N(capsys, kind):
    # used to print an empty expansion and exit 0
    assert _usage_error(capsys, "pieri", "--upsilon", kind, "--spart",
                        "3;1,1", "--N", "2") \
        == "3;1,1 does not fit in 2 variables"


def test_pieri_pole_names_label_N_alpha_and_target(capsys):
    code, out, err = run(capsys, "pieri", "--upsilon", "Q", "--spart", ";1",
                         "--N", "2", "--alpha", "0")
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "PoleError",
                               "message": "pole of (a+2)/(a) at a = 0",
                               "label": ";1", "N": 2, "alpha": "0",
                               "target": "1;"}


def test_pieri_numeric_alpha(capsys):
    code, out, _ = run(capsys, "pieri", "--upsilon", "Qperp", "--spart", "0;",
                       "--N", "2", "--alpha", "-2", "--out", "json")
    assert code == 0
    assert json.loads(out)["coeffs"] == {";": "2"}


def test_verify_conjecture_suites(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "conjecture-IF",
                       "--k", "1", "--N", "2", "--nmax", "5")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--suite", "conjecture-rma",
                       "--k", "1", "--r", "2", "--N", "3", "--nmax", "4")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--suite", "regularity",
                       "--k", "1", "--r", "2", "--N", "3", "--nmax", "5")
    assert code == 0
