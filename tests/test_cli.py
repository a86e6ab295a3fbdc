"""End-to-end checks of the command line surface.

Everything runs in process through cli.main so we can assert on exit
codes and captured output without spawning interpreters.
"""

import argparse
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from milnor import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_solve_human_output_lists_all_pairs(capsys):
    code, out, _ = run(capsys, "solve", "105")
    assert code == cli.EXIT_OK
    pair_lines = [ln for ln in out.splitlines() if ln.startswith("  (")]
    assert len(pair_lines) == 8
    assert pair_lines[0] == "  (29, 1)"


def test_solve_json_matches_library(capsys):
    code, payload, _ = run_json(capsys, "solve", "105")
    assert code == cli.EXIT_OK
    assert payload["k"] == 105
    assert [29, 1] in payload["solutions"]
    assert [-211, 209] in payload["solutions"]
    assert len(payload["solutions"]) == 8


def test_json_output_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, "solve", "105", "--json")
    _, second, _ = run(capsys, "solve", "105", "--json")
    assert first == second
    _, third, _ = run(capsys, "isotropy", "-3", "5", "1", "5", "--json")
    _, fourth, _ = run(capsys, "isotropy", "-3", "5", "1", "5", "--json")
    assert third == fourth


def test_canonical_and_euler_round_trip(capsys):
    code, payload, _ = run_json(capsys, "canonical", "105")
    assert code == cli.EXIT_OK
    p_minus, p_plus = payload["solution"]
    code2, payload2, _ = run_json(
        capsys, "euler", str(p_minus), str(p_plus))
    assert code2 == cli.EXIT_OK
    assert payload2["k"] == 105


def test_classify_reports_bundle_pair(capsys):
    code, payload, _ = run_json(capsys, "classify", "5", "-3", "1", "5")
    assert code == cli.EXIT_OK
    assert payload["k"] == 3
    assert payload["l"] == 2
    assert payload["euler_number"] == 5
    assert payload["homotopy_sphere"] is False


def test_isotropy_payload_names_orbit_types(capsys):
    code, payload, _ = run_json(capsys, "isotropy", "-3", "5", "1", "5")
    assert code == cli.EXIT_OK
    assert "SO(2)" not in payload["types"]
    assert payload["almost_free"] is True
    assert payload["disc_extension"] in (
        "extension_excluded", "inconclusive", "not_applicable")


def test_table42_agrees_and_exits_zero(capsys):
    code, payload, _ = run_json(capsys, "table42", "3", "-2")
    assert code == cli.EXIT_OK
    assert sorted(payload["dihedral_orders"]) == payload["closed_form_orders"]


def test_table42_without_family_index_is_a_domain_error(capsys):
    code, _, err = run(capsys, "table42", "1", "0")
    assert code == cli.EXIT_DOMAIN
    assert "error:" in err


def test_table42_family_index_accepted(capsys):
    code, payload, _ = run_json(capsys, "table42", "1", "0", "--n", "3")
    assert code == cli.EXIT_OK
    assert payload["n"] == 3


def test_ek_and_diffeo_commands(capsys):
    code, payload, _ = run_json(capsys, "ek", "2")
    assert code == cli.EXIT_OK
    assert payload["class_mod_28"] == 1
    assert payload["standard_sphere"] is False

    code2, payload2, _ = run_json(capsys, "diffeo", "2", "58")
    assert code2 == cli.EXIT_OK
    assert payload2["diffeomorphic"] is True

    code3, payload3, _ = run_json(capsys, "diffeo", "2", "3")
    assert code3 == cli.EXIT_OK
    assert payload3["diffeomorphic"] is False


def test_brieskorn_and_rp5_commands(capsys):
    code, payload, _ = run_json(capsys, "brieskorn", "5", "3")
    assert code == cli.EXIT_OK
    assert payload["dimension"] == 9
    assert payload["exotic"] is True

    code2, _, err = run(capsys, "rp5", "4")
    assert code2 == cli.EXIT_DOMAIN
    assert "error:" in err


def test_s7class_command(capsys):
    code, payload, _ = run_json(capsys, "s7class", "5")
    assert code == cli.EXIT_OK
    assert payload["class_mod_12"] == 3
    assert payload["achievable"] == [0, 1, 3, 4, 6, 7, 9, 10]


def test_cohomology_command(capsys):
    code, out, _ = run(capsys, "cohomology", "sphere2", "5")
    assert code == cli.EXIT_OK
    assert "H^" in out

    code2, _, err = run(capsys, "cohomology", "sphere3", "1")
    assert code2 == cli.EXIT_DOMAIN
    assert "error:" in err


def test_curvature_scan_reports_oracle_gap(capsys):
    code, payload, _ = run_json(
        capsys, "curvature-scan", "--a", "1", "--budget", "2000")
    assert code == cli.EXIT_OK
    assert payload["min_sectional"] >= -1e-9
    assert payload["oracle_max_gap"] < 1e-8


def test_curvature_scan_finds_negative_plane(capsys):
    code, payload, _ = run_json(
        capsys, "curvature-scan", "--a", "1.05", "--budget", "20000",
        "--find-negative")
    assert code == cli.EXIT_OK
    assert payload["negative_plane_found"] is True
    assert payload["negative_value"] < 0


@pytest.mark.parametrize("a, budget", [("1.0001", "20000"), ("1.05", "5")])
def test_curvature_scan_finds_the_shallow_diagonal_plane(capsys, a, budget):
    """At a = 1.0001 the su(2)^2 diagonal's negative planes are about
    -5e-13 deep: a search with a fixed threshold of -1e-10 missed them and
    exited 4. The exact witness finds them for any budget, five planes
    too, which used to be refused."""
    code, payload, _ = run_json(
        capsys, "curvature-scan", "--algebra", "su2^2", "--subalgebra",
        "diagonal", "--a", a, "--budget", budget, "--find-negative")
    assert code == cli.EXIT_OK
    assert payload["negative_plane_found"] is True
    assert payload["negative_value"] < 0 and payload["oracle_value"] < 0
    assert payload["evaluations"] == int(budget)


def test_curvature_scan_negative_search_can_fail(capsys):
    code, payload, _ = run_json(
        capsys, "curvature-scan", "--algebra", "su2", "--subalgebra",
        "span-i", "--a", "1", "--budget", "3000", "--find-negative")
    assert code == cli.EXIT_FAILED
    assert payload["negative_plane_found"] is False


def test_glue_certificate_passes(capsys):
    code, payload, _ = run_json(capsys, "glue", "--a", "4/3", "--r", "1")
    assert code == cli.EXIT_OK
    assert payload["passed"] is True
    assert payload["matching_level"] == 2.0
    names = [c["name"] for c in payload["clauses"]]
    assert "plateau_match" in names


def test_glue_decides_the_window_on_the_exact_scale(capsys):
    """a = 1.3333333333334 lies past 4/3, where the j, k plane of factor 0
    has curvature 4 - 3a < 0. The window used to end at 4/3 + 1e-12 in
    floats, and this call printed PASS."""
    code, payload, _ = run_json(capsys, "glue", "--a",
                                "13333333333334/10000000000000", "--r", "1")
    assert code == cli.EXIT_FAILED
    assert payload["passed"] is False
    clauses = {c["name"]: c for c in payload["clauses"]}
    assert clauses["deformation_range"]["passed"] is False


def test_glue_writes_csv(tmp_path, capsys):
    target = tmp_path / "profile.csv"
    code, out, _ = run(capsys, "glue", "--a", "4/3", "--r", "1",
                       "--csv", str(target))
    assert code == cli.EXIT_OK
    assert str(target) in out
    lines = target.read_text().splitlines()
    assert lines[0] == "t,f,orbit_factor"
    assert len(lines) > 100


def test_glue_reports_an_unwritable_csv_path(tmp_path, capsys):
    """This ended in a FileNotFoundError traceback and exit 1."""
    target = tmp_path / "missing" / "profile.csv"
    code, out, err = run(capsys, "glue", "--a", "4/3", "--r", "1",
                         "--planes", "50", "--csv", str(target))
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err == "error: cannot write {}: No such file or directory\n".format(
        target)
    assert not target.parent.exists()


def test_glue_rejects_undeformed_metric(capsys):
    code, _, err = run(capsys, "glue", "--a", "1", "--r", "1")
    assert code == cli.EXIT_DOMAIN
    assert "error:" in err


def test_solve_zero_without_bound_is_domain_error(capsys):
    code, _, err = run(capsys, "solve", "0")
    assert code == cli.EXIT_DOMAIN
    assert "error:" in err


def test_solve_zero_with_a_huge_bound_is_domain_error(capsys):
    code, out, err = run(capsys, "solve", "0", "--bound", "1000000000000")
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err == ("error: bound must be at most 1000000 for k = 0, "
                   "got 1000000000000\n")


def test_solve_refuses_k_outside_the_proven_range(capsys):
    for k in ("3317044064679887385961981", "-3317044064679887385961981"):
        code, out, err = run(capsys, "solve", k)
        assert code == cli.EXIT_DOMAIN
        assert out == ""
        assert err == ("error: |k| must be below 3317044064679887385961981 "
                       "(the range where the primality test used to factor "
                       "k is proven), got {}\n".format(k))


def test_repro_all_is_clean(capsys):
    code, payload, _ = run_json(capsys, "repro", "all")
    assert code == cli.EXIT_OK
    assert payload["ok"] is True
    assert sorted(payload["results"]) == [
        "ek16", "k105", "s7", "table42", "thm45"]


def test_repro_detects_tampered_expectations(capsys, monkeypatch):
    expected = cli.load_expected()
    tampered = dict(expected)
    tampered["euler105"] = expected["euler105"][:-1]
    monkeypatch.setattr(cli, "load_expected", lambda: tampered)
    code, out, _ = run(capsys, "repro", "k105")
    assert code == cli.EXIT_FAILED
    assert "MISMATCH" in out


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command, flag, text", [
    ("curvature-scan", "--a", "1e400"),
    ("curvature-scan", "--a", "-1e400"),
    ("glue", "--r", "1e400"),
    ("glue", "--a", "-1e400"),
    ("glue", "--r", "nan"),
    ("glue", "--r", "inf"),
])
def test_non_finite_numbers_are_usage_errors(capsys, command, flag, text):
    """A float literal that overflows to infinity is as bad a number as
    'inf' itself; it must not reach the handlers' range checks."""
    argv = {"curvature-scan": ["curvature-scan", "--a", "1", "--budget", "10"],
            "glue": ["glue", "--a", "4/3", "--r", "1"]}[command]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["{}={}".format(flag, text)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument {}: bad number {!r}".format(flag, text) in err


#: Decimal literals: a sign, digits with or without a point, and an
#: optional exponent reaching past both ends of the float range.
DECIMAL_LITERALS = st.tuples(
    st.from_regex(r"[-+]?([0-9]{1,25}(\.[0-9]{0,25})?|\.[0-9]{1,25})",
                  fullmatch=True),
    st.one_of(st.just(""), st.integers(-360, 330).map("e{}".format)),
).map("".join)


@given(DECIMAL_LITERALS.filter(lambda text: math.isfinite(float(text))))
@example("1.05")
@example("1_0.5")
@example("1.7976931348623157e308")
@example("4.9e-324")
@example("2.4e-324")
@example("-0.0")
def test_decimal_literals_keep_the_float_they_had(text):
    """--a 1.05 is read as 21/20, whose float is the float of the text, so
    the JSON's a and the kernels' scale are those of float(text)."""
    value = cli._fraction(text)
    assert type(value) is Fraction and float(value) == float(text)


def test_numbers_are_read_as_the_fractions_they_write():
    assert cli._fraction("1.05") == Fraction(21, 20)
    assert cli._fraction("2.5e-3") == Fraction(1, 400)
    assert cli._fraction("4/3") == Fraction(4, 3)
    assert cli._fraction("10" * 300) == int("10" * 300)
    # past the smallest float the text reads as 0, as its float did
    assert cli._fraction("1e-400") == 0


def test_glue_reads_a_decimal_scale_exactly(capsys):
    """a - 1 was taken in floats, where 1.000000001 - 1 is 8e-8 off."""
    code, payload, _ = run_json(capsys, "glue", "--a", "1.000000001",
                                "--r", "1", "--planes", "10")
    assert code == cli.EXIT_OK
    assert payload["a"] == 1.000000001
    assert payload["matching_level"] == 31622.776617495183


@pytest.mark.parametrize("flag, text", [
    ("--algebra", "so3"),
    ("--algebra", "su2^x"),
    ("--subalgebra", "factorx"),
])
def test_curvature_scan_malformed_algebra_is_domain_error(capsys, flag, text):
    code, out, err = run(capsys, "curvature-scan", flag, text,
                         "--a", "1.05", "--budget", "10")
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error:") and repr(text) in err


BAD_NUMERIC_INPUTS = [
    # seeds: numpy would raise a bare ValueError on a negative one
    ("curvature-scan", ["--seed", "-1"], 3),
    ("curvature-scan", ["--seed", "-1", "--find-negative"], 3),
    ("curvature-scan", ["--seed", "1.5"], 2),
    ("glue", ["--seed", "-1"], 3),
    ("glue", ["--seed", "1e3"], 2),
    # scales outside [A_MIN, A_MAX]: these printed inf or nan, or overflowed
    ("curvature-scan", ["--a", "1e100"], 3),
    ("curvature-scan", ["--a", "1e-300"], 3),
    ("curvature-scan", ["--a", "1e-320"], 3),
    ("curvature-scan", ["--a", "1e300"], 3),
    ("glue", ["--a", "1e200"], 3),
    # plateaus r sqrt(a/(a-1)) outside [PLATEAU_MIN, PLATEAU_MAX]: these
    # overflowed and named grid_step or the plateau data, or ended in a
    # traceback
    ("glue", ["--r", "1e154"], 3),
    ("glue", ["--r", "1e-160"], 3),
    ("glue", ["--r", "1e-200"], 3),
    ("glue", ["--r", "1" + "0" * 400], 3),
    ("glue", ["--a", "1" + "0" * 399 + "1/1" + "0" * 400], 3),
    ("curvature-scan", ["--a", "0"], 3),
    ("curvature-scan", ["--a", "-2"], 3),
    ("curvature-scan", ["--a", "1" + "0" * 400], 3),
    ("curvature-scan", ["--a", "x"], 2),
    ("curvature-scan", ["--a", "1/0"], 2),
    # sample counts
    ("curvature-scan", ["--budget", "0"], 3),
    ("curvature-scan", ["--budget", "-5"], 3),
    ("curvature-scan", ["--budget", "1.5"], 2),
    ("glue", ["--planes", "0"], 3),
    # counts past MAX_PLANES: these failed allocating 43.7 TiB, with a
    # traceback and exit 1
    ("curvature-scan", ["--budget", "1000000000000"], 3),
    ("curvature-scan", ["--budget", "1000000000000", "--find-negative"], 3),
    ("curvature-scan", ["--budget", "1000001"], 3),
    ("glue", ["--planes", "1000000000000"], 3),
    ("glue", ["--planes", "1000001"], 3),
    ("glue", ["--planes", "x"], 2),
    ("glue", ["--factors", "0"], 3),
    ("glue", ["--factors", "-1"], 3),
    ("glue", ["--factors", "two"], 2),
    # factor counts past MAX_FACTORS: these ended in a 43.7 TiB
    # _ArrayMemoryError traceback, or in "subalgebra basis is not
    # Q-orthonormal" after building a (3, 10^8, 3) basis
    ("glue", ["--factors", "100000000"], 3),
    ("curvature-scan", ["--algebra", "su2^100000000"], 3),
    # algebra and subalgebra strings
    ("curvature-scan", ["--algebra", "su2^0"], 3),
    ("curvature-scan", ["--algebra", "su2^-1"], 3),
    ("curvature-scan", ["--algebra", ""], 3),
    ("curvature-scan", ["--subalgebra", "factor9"], 3),
    ("curvature-scan", ["--subalgebra", "factor-1"], 3),
    ("curvature-scan", ["--subalgebra", "span-x"], 3),
    ("curvature-scan", ["--subalgebra", "span-"], 3),
    ("curvature-scan", ["--subalgebra", "nothing"], 3),
]


@pytest.mark.parametrize("command, extra, code", BAD_NUMERIC_INPUTS,
                         ids=[" ".join([c] + e)[:40] for c, e, _ in BAD_NUMERIC_INPUTS])
def test_bad_numeric_inputs_exit_two_or_three_without_a_traceback(
        capsys, command, extra, code):
    """The README's exit-code contract: bad input exits 2 (argparse) or 3
    (one `error:` line), never with a traceback. A later flag overrides
    the valid one before it."""
    argv = {"curvature-scan": ["curvature-scan", "--a", "1.05", "--budget", "50"],
            "glue": ["glue", "--a", "4/3", "--r", "1", "--planes", "50"]}[command]
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + extra)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "error: argument" in err
    else:
        got, out, err = run(capsys, *argv, *extra)
        assert got == cli.EXIT_DOMAIN
        assert err.startswith("error: ") and err.count("\n") == 1
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_refuses_nan_and_infinity(capsys, bad):
    """Strict JSON has no token for NaN or +-inf; neither reaches stdout."""
    args = argparse.Namespace(json=True)
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._emit(args, {"x": [1.0, {"y": bad}]}, [])
    assert capsys.readouterr().out == ""


def test_curvature_scan_payload_keeps_the_algebra_text(capsys):
    code, payload, _ = run_json(capsys, "curvature-scan", "--algebra", "su2^02",
                                "--a", "1", "--budget", "10")
    assert code == cli.EXIT_OK
    assert payload["algebra"] == "su2^02"


def test_curvature_scan_reports_the_scan_and_search_counters(capsys):
    from milnor import deform
    from milnor.liealg import ReductiveSplit, Su2Power

    argv = ["curvature-scan", "--algebra", "su2", "--subalgebra", "span-i",
            "--a", "1", "--budget", "300", "--seed", "5", "--json"]
    code, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    payload = json.loads(first)
    assert set(payload) == {"algebra", "subalgebra", "a", "planes", "seed",
                            "min_sectional", "n_valid", "oracle_max_gap"}
    metric = deform.DeformedMetric(
        ReductiveSplit.circle(Su2Power(1), Su2Power(1).element((1, 0, 0))), 1)
    scan = deform.scan_min_sectional(metric, n_planes=300, seed=5)
    assert payload["n_valid"] == scan.n_valid
    assert payload["min_sectional"] == scan.min_value

    code, first, _ = run(capsys, *argv, "--find-negative")
    _, second, _ = run(capsys, *argv, "--find-negative")
    assert code == cli.EXIT_FAILED
    assert first == second
    payload = json.loads(first)
    res = deform.find_negative_plane(metric, budget=300, seed=5)
    # the search's evaluations are its scan, of the whole budget
    assert payload["evaluations"] == res.evaluations == 300
    assert payload["scan_min"] == res.scan_min
    assert payload["negative_plane_found"] is False


def test_glue_clauses_report_tolerance_and_detail(capsys):
    from milnor import deform, glue
    from milnor.liealg import ReductiveSplit, Su2Power

    argv = ["glue", "--a", "3/2", "--r", "1", "--planes", "500", "--json"]
    code, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert code == cli.EXIT_FAILED
    assert first == second
    clauses = json.loads(first)["clauses"]
    profile = glue.ProfileFunction.capped_sine(Fraction(3, 2), Fraction(1))
    split = ReductiveSplit.circle(Su2Power(1), Su2Power(1).element((1, 0, 0)))
    cert = glue.nonneg_certificate(
        profile, deform.DeformedMetric(split, Fraction(3, 2)), planes=500)
    assert [set(c) for c in clauses] == [
        {"name", "passed", "value", "tolerance", "detail"}] * len(cert.clauses)
    assert [(c["name"], c["tolerance"], c["detail"]) for c in clauses] == [
        (c.name, c.tolerance, c.detail) for c in cert.clauses]
    # past 4/3 the matching level still exists and the plateau reaches it
    plateau = next(c for c in clauses if c["name"] == "plateau_match")
    assert plateau["detail"] == "plateau square must equal a r^2/(a-1)"
    assert plateau["passed"] is True
    assert plateau["value"] == cert.clause("plateau_match").value == 0.0


@pytest.mark.parametrize("argv, value, detail", [
    (["--a", "4/3", "--r", "1"], 0.0, "proven by the abelian rule"),
    (["--a", "404/300", "--r", "1", "--factors", "3"], -0.04,
     "a plane in m has exact sectional curvature -1/25"),
    (["--a", "1e6", "--r", "1"], 4 - 3e6,
     "a plane in m has exact sectional curvature -2999996")],
    ids=["4_3", "404_300-su2^3", "1e6"])
def test_glue_decides_metric_nonneg_exactly(capsys, argv, value, detail):
    """At 404/300 on su(2)^3 a 10k-plane scan passed the clause with a
    minimum of +6.25e-3, and at 10^6 with +2.6e5; span-i has a plane of
    curvature 4 - 3a there, and the clause now fails on it."""
    code, payload, _ = run_json(capsys, "glue", *argv)
    clause = {c["name"]: c for c in payload["clauses"]}["metric_nonneg"]
    assert clause == {"name": "metric_nonneg", "passed": value == 0.0,
                      "value": value, "tolerance": -1e-9, "detail": detail}
    assert code == (cli.EXIT_OK if value == 0.0 else cli.EXIT_FAILED)


# -- one-command parsers ----------------------------------------------------

COMMAND_NAMES = list(cli._COMMANDS)
ALL_CHOICES = "{" + ",".join(COMMAND_NAMES) + "}"


def subparsers(parser):
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def exit_two(capsys, call, argv):
    with pytest.raises(SystemExit) as exc:
        call(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize("columns", ["80", "200"])
@pytest.mark.parametrize("name", COMMAND_NAMES)
def test_one_command_parser_prints_the_full_parsers_help(
        monkeypatch, name, columns):
    monkeypatch.setenv("COLUMNS", columns)
    alone = subparsers(cli.build_parser(name)).choices[name]
    full = subparsers(cli.build_parser()).choices[name]
    assert alone.format_help() == full.format_help()
    assert alone.format_usage() == full.format_usage()


@pytest.mark.parametrize("columns", ["80", "200"])
@pytest.mark.parametrize("name", COMMAND_NAMES)
def test_one_command_parser_prints_the_full_parsers_errors(
        capsys, monkeypatch, name, columns):
    """main builds one subparser for a leading command word; its usage
    errors read as the full parser's."""
    monkeypatch.setenv("COLUMNS", columns)
    full = cli.build_parser().parse_args
    # five words: a bad positional or one too many for every subcommand
    for argv in ([name], [name, "--no-such-flag"], [name] + ["x"] * 5):
        assert exit_two(capsys, cli.main, argv) == exit_two(capsys, full, argv)


@pytest.mark.parametrize("argv", [
    ["solve", "1", "--no-such-flag"],
    ["solve", "1", "canonical"],
    ["repro", "all", "--json", "extra"],
    ["glue", "--a", "4/3", "--r", "1", "--no-such-flag"],
])
def test_top_level_errors_after_one_command_name_every_choice(
        capsys, monkeypatch, argv):
    """Words the subcommand leaves over are reported by the top-level
    parser, whose usage line lists all subcommands either way."""
    monkeypatch.setenv("COLUMNS", "200")
    err = exit_two(capsys, cli.main, argv)
    assert err == exit_two(capsys, cli.build_parser().parse_args, argv)
    assert err.startswith("usage: milnor [-h] {} ...\n".format(ALL_CHOICES))
    assert "unrecognized arguments: " + argv[-1] in err


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["no-such-command"],
     "argument command: invalid choice: 'no-such-command'"),
    (["--json", "solve", "1"], "unrecognized arguments: --json"),
])
def test_no_leading_command_gets_every_choice(capsys, monkeypatch, argv,
                                              message):
    monkeypatch.setenv("COLUMNS", "200")
    err = exit_two(capsys, cli.main, argv)
    assert err.startswith("usage: milnor [-h] {} ...\n".format(ALL_CHOICES))
    assert message in err


def test_one_command_parser_holds_one_choice():
    assert list(subparsers(cli.build_parser("solve")).choices) == ["solve"]
    assert len(COMMAND_NAMES) == 15


def test_console_script_reads_sys_argv(capsys, monkeypatch):
    """The `milnor` console script calls main() with no arguments."""
    expected = run(capsys, "solve", "105", "--json")
    monkeypatch.setattr("sys.argv", ["milnor", "solve", "105", "--json"])
    code = cli.main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected
    assert json.loads(captured.out)["k"] == 105


def cli_process(*argv):
    """A fresh `python -m milnor.cli` process, importing milnor from this
    checkout, whose stdout and stderr are pipes."""
    import os
    import pathlib
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(cli.__file__).resolve().parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.Popen([sys.executable, "-m", "milnor.cli", *argv],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)


@pytest.mark.parametrize("argv, lines", [
    (("glue", "--a", "4/3", "--r", "1", "--json"), 0),
    (("glue", "--a", "4/3", "--r", "1"), 0),
    (("solve", "0", "--bound", "100000", "--json"), 1),
    (("solve", "0", "--bound", "100000"), 1),
])
def test_a_closed_pipe_ends_the_call_quietly(argv, lines):
    """`milnor ... | head -1`: the reader takes `lines` lines and closes
    the pipe. glue's document is written at once, so its reader closes
    before anything is written; solve's listing is many times the pipe's
    capacity, so it is still writing when its reader goes. Either way
    the call exits EXIT_PIPE with nothing on stderr, where it used to end
    in a BrokenPipeError traceback."""
    proc = cli_process(*argv)
    for _ in range(lines):
        assert proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=120) == cli.EXIT_PIPE
    assert proc.stderr.read() == b""
    proc.stderr.close()
