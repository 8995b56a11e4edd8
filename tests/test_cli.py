import json

import pytest

from superjack import cli
from superjack.cli import cache_load, cache_store, dispatch
from superjack.coeffring import parse_alpha
from superjack.jack import DegenerateSystem, jack_symbolic, _JACK_CACHE
from superjack.spart import parse_spart


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


@pytest.mark.parametrize("index", ["5", "-1"])
def test_op_apply_index_outside_range_exit_code(capsys, tmp_path, index):
    code, out, err = run(capsys, "op", "apply", "--name", "Cherednik",
                         "--index", index, "--alpha", "sym",
                         "--input", _write_x1_squared(tmp_path))
    assert code == 2 and out == ""
    assert json.loads(err.strip())["error"] == "UsageError"


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
    _JACK_CACHE.pop((L, 3), None)
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


def test_cache_zero_coefficient_evicts(tmp_path, capsys, monkeypatch):
    # a genuine store never writes a zero; a cold compute never prints one
    monkeypatch.delenv("SUPERJACK_CACHE", raising=False)
    L = parse_spart("2;1")
    path = _store_fake(tmp_path, L, 3, {**jack_symbolic(L, 3).coeffs,
                                        parse_spart("0;1,1,1"): 0})
    _JACK_CACHE.pop((L, 3), None)
    code, out, err = run(capsys, "--cache-dir", str(tmp_path), "compute",
                         "--spart", "2;1", "--N", "3", "--out", "json")
    assert code == 0
    assert "0;1,1,1" not in json.loads(out)["coeffs"]
    assert json.loads(err) == {"warning": "evicting cache entry",
                               "entry": path.name,
                               "reason": "zero coefficient at m_[0;1,1,1]"}
    assert "0;1,1,1" not in json.loads(path.read_text())["coeffs"]


def test_dispatch_calls_share_no_state(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; the parsed options are not
    monkeypatch.delenv("SUPERJACK_CACHE", raising=False)
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


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SUPERJACK_CACHE", str(tmp_path))
    code, out, _ = run(capsys, "compute", "--spart", ";2", "--N", "2",
                       "--alpha", "sym", "--out", "json")
    assert code == 0
    assert list(tmp_path.glob("*.json"))


def test_config_file(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SUPERJACK_CACHE", raising=False)
    conf = tmp_path / "conf"
    cachedir = tmp_path / "cache"
    conf.write_text(f"# comment\ncache_dir = {cachedir}\n")
    code, _, _ = run(capsys, "--config", str(conf), "compute", "--spart",
                     ";1,1", "--N", "2", "--alpha", "sym", "--out", "json")
    assert code == 0
    assert list(cachedir.glob("*.json"))


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
