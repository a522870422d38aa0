import csv
import dataclasses
import io
import json
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from cubechar import ProductFormPermutation, caps, gnsfinite, obstruction
from cubechar.cli import main
from conftest import run_cli_capped, traced_peak

EXPECTED = Path(__file__).resolve().parent / "expected"


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


# -- char-eval ----------------------------------------------------------------


def test_char_eval_dyadic():
    code, out = run_cli(["char-eval", "--alpha", "1", "--perm", "level=2: 1 0 2 3"])
    assert code == 0 and out == "1/2\n"


def test_char_eval_infinity_identity():
    code, out = run_cli(["char-eval", "--alpha", "inf", "--perm", "identity(3)"])
    assert code == 0 and out == "1\n"
    code, out = run_cli(["char-eval", "--alpha", "inf", "--perm", "odometer(3)"])
    assert out == "0\n"


def test_char_eval_alpha_zero_is_trivial():
    for perm in ("odometer(3)", "level=2: (0 2)(1 3)", "e"):
        code, out = run_cli(["char-eval", "--alpha", "0", "--perm", perm])
        assert code == 0 and out == "1\n"


def test_char_eval_real_alpha_prints_interval():
    code, out = run_cli(["char-eval", "--alpha", "1.5", "--perm", "level=2: 1 0 2 3"])
    assert code == 0
    assert out.startswith("[0.35355339") and out.rstrip().endswith("]")


def test_char_eval_json():
    code, out = run_cli(
        ["char-eval", "--alpha", "2", "--perm", "level=2: 1 0 2 3", "--format", "json"]
    )
    data = json.loads(out)
    assert data["value"] == "1/4" and data["fixed_fraction"] == "1/2"


def test_parse_failure_exit_code(capsys):
    code, _ = run_cli(["char-eval", "--alpha", "1", "--perm", "level=2: 0 0 1 2"])
    assert code == 2
    code, _ = run_cli(["char-eval", "--alpha", "x", "--perm", "identity(2)"])
    assert code == 2


def test_cycle_point_out_of_range_exit_code(capsys):
    for perm in ("level=2: (0 5)", "level=2: (1 -3)"):
        code, out = run_cli(["char-eval", "--alpha", "1", "--perm", perm])
        assert code == 2 and out == ""
        assert "outside [0, 4)" in capsys.readouterr().err


def test_char_eval_rejects_low_precision(capsys):
    code, out = run_cli(["char-eval", "--alpha", "1.5", "--perm", "identity(2)", "--precision", "-5"])
    assert code == 2 and out == ""
    assert "precision must be at least 64" in capsys.readouterr().err


#: A command that takes --precision, and its exit code at a precision in range.
PRECISION_COMMANDS = {
    "char-eval": (["char-eval", "--alpha", "3/2", "--perm", "level=2: 1 0 2 3"], 0),
    "gram": (["gram", "--alpha", "3/2", "--all-level", "2", "--witness", "signs"], 1),
    "obstruction": (["obstruction", "--alpha", "3/2", "--m", "1..5"], 0),
}


@pytest.mark.parametrize("command", sorted(PRECISION_COMMANDS))
def test_precision_is_refused_outside_64_to_the_cap(command, monkeypatch, capsys):
    argv, in_range = PRECISION_COMMANDS[command]
    monkeypatch.setattr(caps, "PRECISION", dataclasses.replace(caps.PRECISION, limit=128))
    for precision, code, message in (
        (63, 2, "error: precision must be at least 64"),
        (64, in_range, ""),
        (128, in_range, ""),
        (129, 3, "cap exceeded: PRECISION 129 over its limit 128"),
    ):
        got, out = run_cli([*argv, "--precision", str(precision)])
        assert got == code and (out == "") == (code > 1)
        assert message in capsys.readouterr().err


# -- gram ----------------------------------------------------------------------


def test_gram_identity_element():
    code, out = run_cli(["gram", "--alpha", "1", "--elements", "e"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "PSD" and data["matrix"] == [["1"]]


def test_gram_psd_exit_codes():
    code, out = run_cli(["gram", "--alpha", "2", "--all-level", "2"])
    assert code == 0 and json.loads(out)["verdict"] == "PSD"
    code, out = run_cli(
        ["gram", "--alpha", "1.5", "--all-level", "2", "--witness", "signs"]
    )
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "not PSD"
    assert data["witness"] is not None


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gram", "--alpha", "2", "--all-level", "-1"], "--all-level"),
        (["gns-check", "--level", "-1"], "--level"),
        (["gns-check", "--samples", "-3"], "--samples"),
    ],
)
def test_negative_counts_are_refused_by_flag(argv, flag, capsys):
    assert run_cli(argv) == (2, "")
    assert capsys.readouterr().err == f"error: {flag} must be non-negative, got {argv[-1]}\n"


def test_gram_rejects_large_level(capsys):
    """S(2^3) has 40320 elements: the element cap refuses it before any is listed."""
    assert run_cli(["gram", "--alpha", "1", "--all-level", "3"]) == (3, "")
    assert capsys.readouterr().err.startswith("cap exceeded: GRAM_ELEMENTS 40320 over its limit 128")


def test_gram_rejects_low_precision(capsys):
    code, out = run_cli(
        ["gram", "--alpha", "1.5", "--all-level", "2", "--witness", "signs", "--precision", "1"]
    )
    assert code == 2 and out == ""
    assert "precision must be at least 64" in capsys.readouterr().err


# -- obstruction ---------------------------------------------------------------


def test_obstruction_csv_row():
    code, out = run_cli(["obstruction", "--alpha", "3", "--m", "1..8"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,m,value_lo,value_hi,sign,method"
    values = [line.split(",")[2] for line in lines[1:]]
    assert values == ["1", "8", "24", "24", "0", "0", "0", "0"]


def test_obstruction_single_m():
    code, out = run_cli(["obstruction", "--alpha", "2", "--m", "2", "--format", "text"])
    assert code == 0 and "= 4" in out


def test_obstruction_rejects_reversed_range(capsys):
    code, out = run_cli(["obstruction", "--alpha", "3", "--m", "5..1"])
    assert code == 2 and out == ""
    assert "reversed range" in capsys.readouterr().err


@pytest.mark.parametrize("m", ["3..", "..3", "a..b", "3..4..5", "", "1.5"])
def test_obstruction_names_a_malformed_m(m, capsys):
    code, out = run_cli(["obstruction", "--alpha", "3/2", "--m", m])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: --m expects an integer or 'a..b', got {m!r}\n"


@pytest.mark.parametrize("alphas", [",", ""])
def test_obstruction_rejects_an_empty_alpha_list(alphas, capsys):
    for fmt in ("csv", "json"):
        code, out = run_cli(["obstruction", "--alpha", alphas, "--m", "2", "--format", fmt])
        assert code == 2 and out == ""
        assert "at least one value" in capsys.readouterr().err


def test_obstruction_witness_refuses_m(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["obstruction", "--alpha", "3/2", "--witness", "--m", "5"])
    assert exc.value.code == 2
    assert "not allowed with argument --witness" in capsys.readouterr().err


def test_obstruction_witness():
    code, out = run_cli(["obstruction", "--witness", "--alpha", "1.5", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["witness_m"] == 4
    assert data["report"]["sign"] == "negative"


@pytest.mark.parametrize("fmt", [[], ["--format", "csv"]], ids=["default", "csv"])
def test_obstruction_witness_csv(fmt):
    """The witness in CSV, the default format: the header of the range
    output, then the witness's own row."""
    code, out = run_cli(["obstruction", "--witness", "--alpha", "1.5", *fmt])
    assert code == 0
    header, row = csv.reader(io.StringIO(out))
    assert header == ["alpha", "m", "value_lo", "value_hi", "sign", "method"]
    assert row[:2] == ["3/2", "4"] and row[4:] == ["negative", "interval"]
    assert Fraction(row[2]) <= Fraction(row[3]) < 0


def test_obstruction_witness_rejects_integers():
    code, _ = run_cli(["obstruction", "--witness", "--alpha", "2"])
    assert code == 2


def test_obstruction_undetermined_at_precision_cap(monkeypatch, capsys):
    monkeypatch.setattr(caps, "PRECISION", dataclasses.replace(caps.PRECISION, limit=64))
    code, out = run_cli(["obstruction", "--alpha", "201/2", "--m", "103", "--format", "text"])
    assert code == 4
    assert out.startswith("C_201/2(103) = [") and out.endswith(" [undetermined]\n")
    code, out = run_cli(["obstruction", "--witness", "--alpha", "201/2"])
    assert code == 4 and out == ""
    assert capsys.readouterr().err == "undetermined\n"


def test_obstruction_integer_past_cap_exits_3(capsys):
    for alpha in ("20000", "100000000000"):
        code, out = run_cli(["obstruction", "--alpha", alpha, "--m", "3"])
        assert code == 3 and out == ""
        assert "cap exceeded" in capsys.readouterr().err


def test_obstruction_integer_zero_past_cap_exits_3(capsys):
    code, out = run_cli(["obstruction", "--alpha", "1556", "--m", "1558"])
    assert code == 3 and out == ""
    assert "cap exceeded" in capsys.readouterr().err


def test_obstruction_sum_work_caps_exit_3(capsys):
    for argv in (
        ["--alpha", "1000", "--m", "19966"],
        ["--alpha", "3/2", "--m", "2049"],
        ["--alpha", "4095/2", "--witness"],
    ):
        code, out = run_cli(["obstruction", *argv])
        assert code == 3 and out == ""
        assert "cap exceeded" in capsys.readouterr().err


def test_obstruction_unbounded_integers(capsys):
    """Integers past the float range exit 3, except m = 1: C_n(1) = 1."""
    huge = "1" + "0" * 400
    for argv in (["3", huge], ["3", "1.." + huge], [huge, "5"]):
        code, out = run_cli(["obstruction", "--alpha", argv[0], "--m", argv[1]])
        assert code == 3 and out == ""
        assert "cap exceeded" in capsys.readouterr().err
    code, out = run_cli(["obstruction", "--alpha", huge, "--m", "1", "--format", "text"])
    assert code == 0 and out == f"C_{huge}(1) = 1 [positive]\n"


HUGE_EXPONENT_COMMANDS = {
    "char-eval": ["char-eval", "--alpha", "1e5000", "--perm", "level=2: 1 0 2 3"],
    "gram": ["gram", "--alpha", "1e5000", "--elements", "identity(1)"],
    "obstruction-witness": ["obstruction", "--alpha", "1e5000", "--witness"],
    "obstruction-m": ["obstruction", "--alpha", "1e-5000", "--m", "2"],
}


@pytest.mark.parametrize("command", sorted(HUGE_EXPONENT_COMMANDS))
def test_exponent_past_the_digit_cap_exits_3(command, capsys):
    """An exponent whose numerator or denominator has more than 4300 digits
    is refused before anything prints it: 10^5000 has 4999 digits past its
    mantissa's one."""
    code, out = run_cli(HUGE_EXPONENT_COMMANDS[command])
    assert code == 3 and out == ""
    assert capsys.readouterr().err.startswith("cap exceeded: DIGITS 4999 over its limit 4300")


#: Each literal, and the digits the DIGITS cap reports for it.
LITERALS_PAST_THE_DIGIT_CAP = {
    "1e10000000": 9999999,
    "1e-10000000": 9999999,
    "7" * 5000: 5000,
    "1e4300": 4301,
}
LITERAL_COMMANDS = {
    "char-eval": ["char-eval", "--perm", "identity(2)"],
    "gram": ["gram", "--all-level", "1"],
    "obstruction": ["obstruction", "--m", "1..2"],
}


@pytest.mark.parametrize("command", sorted(LITERAL_COMMANDS))
@pytest.mark.parametrize("literal", LITERALS_PAST_THE_DIGIT_CAP, ids=lambda t: t[:12])
def test_exponent_literals_past_the_digit_cap_exit_3_at_once(literal, command):
    """A literal whose value would pass the digit cap, or that has a digit
    run past it, is refused before Fraction builds it: 10^(10^7) alone took
    seconds, and a 5000-digit run exited 2 on int()'s own digit limit."""
    started = time.perf_counter()
    done = run_cli_capped([*LITERAL_COMMANDS[command], "--alpha", literal])
    assert time.perf_counter() - started < 2
    assert (done.returncode, done.stdout) == (3, "")
    digits = LITERALS_PAST_THE_DIGIT_CAP[literal]
    assert done.stderr.startswith(f"cap exceeded: DIGITS {digits} over its limit 4300")


@pytest.mark.parametrize("literal, value", [("0e99999999", "1"), ("1e4299", "1")])
def test_exponent_literals_under_the_digit_cap_are_accepted(literal, value):
    """A zero mantissa is 0 whatever its exponent, and 10^4299 has 4300
    digits: both evaluate, at once, as before."""
    started = time.perf_counter()
    done = run_cli_capped(["char-eval", "--alpha", literal, "--perm", "identity(2)"])
    assert time.perf_counter() - started < 2
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{value}\n", "")


@pytest.mark.parametrize("command", sorted(LITERAL_COMMANDS))
def test_a_zero_denominator_exponent_is_named(command, capsys):
    """alpha 1/0 is an input error that names alpha and its zero denominator,
    not the bare Fraction(1, 0) of ZeroDivisionError."""
    assert run_cli([*LITERAL_COMMANDS[command], "--alpha", "1/0"]) == (2, "")
    assert capsys.readouterr().err == "error: alpha '1/0' has a zero denominator\n"


@pytest.mark.parametrize(
    "elements", [";".join(["level=20: (0 1)"] * 60), ";".join(["e"] * 129)], ids=["level20x60", "ex129"]
)
def test_gram_elements_past_the_caps_exit_3_before_their_tables(elements):
    """gram counts its --elements literals and checks the element and work
    caps at each literal's level before that literal's table is built: 60
    level-20 tables died with MemoryError (exit 1) when they came first."""
    done = run_cli_capped(["gram", "--alpha", "3", "--elements", elements])
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("cap exceeded:") and "Traceback" not in done.stderr


def test_two_thousand_transpositions_at_level_20_parse_in_linear_time():
    """Each cycle is composed into the table in place: the 2^20 table is not
    rebuilt once per cycle (this input took 106 s that way)."""
    perm = "level=20: " + "".join(f"({2 * i} {2 * i + 1})" for i in range(2000))
    started = time.perf_counter()
    done = run_cli_capped(["char-eval", "--alpha", "1", "--perm", perm])
    assert time.perf_counter() - started < 2
    assert (done.returncode, done.stdout) == (0, f"{Fraction((1 << 20) - 4000, 1 << 20)}\n")


def test_obstruction_alpha_is_read_as_every_other_alpha(capsys):
    """--alpha of obstruction goes through Alpha.parse, like char-eval and gram."""
    for alpha, message in (("-1", "alpha must be non-negative"), ("inf", "no rational value")):
        code, out = run_cli(["obstruction", "--alpha", alpha, "--m", "1..2"])
        assert (code, out) == (2, "")
        assert message in capsys.readouterr().err
    assert run_cli(["obstruction", "--alpha", " 3/2 ,1.5E0", "--m", "3"]) == run_cli(
        ["obstruction", "--alpha", "3/2,3/2", "--m", "3"]
    )


def test_obstruction_range_past_cap_exits_3_before_any_sum(monkeypatch, capsys):
    def no_sum(*args, **kwargs):
        raise AssertionError("summed before the range was checked")

    monkeypatch.setattr(obstruction, "c_alpha_real", no_sum)
    for alphas, m_range in (("3/2", "1..3000"), ("3", "1..1000000000"), ("2,5/2", "1..2049")):
        (code, out), peak = traced_peak(
            lambda: run_cli(["obstruction", "--alpha", alphas, "--m", m_range])
        )
        assert code == 3 and out == ""
        assert "cap exceeded" in capsys.readouterr().err
        assert peak < 1 << 16
    # an argument c_alpha_real rejects at the first alpha still exits 2 first
    code, out = run_cli(["obstruction", "--alpha", "0,3/2", "--m", "0..3000"])
    assert code == 2 and out == ""
    assert "m must be positive" in capsys.readouterr().err


def test_obstruction_alpha_zero_is_exact(capsys):
    """0^0 = 1: C_0(1) = 1 and C_0(m) = 0 after; the witness refuses 0 as an integer."""
    code, out = run_cli(["obstruction", "--alpha", "0", "--m", "1..3", "--format", "text"])
    assert (code, out) == (0, "C_0(1) = 1 [positive]\nC_0(2) = 0 [zero]\nC_0(3) = 0 [zero]\n")
    code, out = run_cli(["obstruction", "--witness", "--alpha", "0"])
    assert (code, out) == (2, "")
    assert "error: alpha 0 is within 1/1048576 of an integer" in capsys.readouterr().err


# -- construct-si -----------------------------------------------------------------


def test_construct_si_json():
    code, out = run_cli(["construct-si", "--perm", "odometer(2)", "-r", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["verification"]["ok"] is True
    assert len(data["members"]) == 4
    assert data["family_level"] == 6


def test_construct_si_text_builds_no_json_payload(monkeypatch):
    """The text report prints the verdict only, so no member is densified."""

    def refuse(self):
        raise AssertionError("densified a member that the text report never prints")

    monkeypatch.setattr(ProductFormPermutation, "densify", refuse)
    code, out = run_cli(["construct-si", "--perm", "odometer(2)", "-r", "2", "--format", "text"])
    assert (code, out) == (0, "family of 4 at level 6: all properties verified\n")


def test_construct_si_reports_falsification():
    code, out = run_cli(["construct-si", "--perm", "level=3: (0 1 2 3 4)", "-r", "1"])
    assert code == 1
    data = json.loads(out)
    assert data["verification"]["fix_failures"]


def test_construct_si_past_work_cap_exits_3(capsys):
    (code, out), peak = traced_peak(
        lambda: run_cli(["construct-si", "--perm", "level=1: (0 1)", "-r", "10"])
    )
    assert code == 3 and out == ""
    assert "cap exceeded" in capsys.readouterr().err
    assert peak < 1 << 20


def test_construct_si_past_pair_cap_exits_3(capsys):
    """An identity head builds no tail tables, so only the pair cap stops it."""
    (code, out), peak = traced_peak(
        lambda: run_cli(["construct-si", "--perm", "identity(1)", "-r", "10"])
    )
    assert code == 3 and out == ""
    assert capsys.readouterr().err.startswith("cap exceeded: SI_PAIRS 21 over its limit 20")
    assert peak < 1 << 20


# -- gns-check / verify-all ----------------------------------------------------------


def test_gns_check():
    code, out = run_cli(["gns-check", "--level", "2", "--samples", "10", "--seed", "7"])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["seed"] == 7


def test_gns_check_accepts_nice_set_literal():
    code, out = run_cli(
        ["gns-check", "--level", "2", "--samples", "5", "--nice-set", "k=2:1010"]
    )
    assert code == 0 and json.loads(out)["ok"] is True


def test_gns_check_level_above_cap_exits_before_allocation(capsys):
    (code, _), peak = traced_peak(lambda: run_cli(["gns-check", "--level", "11"]))
    assert code == 3
    assert "cap exceeded" in capsys.readouterr().err
    assert peak < 1 << 20


def test_gns_check_refuses_samples_past_cap_before_the_first(monkeypatch, capsys):
    assert 50 << 2 * 10 <= 1 << caps.GNS_SAMPLES.limit  # the default runs at level 10
    (code, out), peak = traced_peak(
        lambda: run_cli(["gns-check", "--level", "10", "--samples", "65"])
    )
    assert code == 3 and out == ""
    # 65 samples of 4^10 entries: 2^26.02, so 27 rounded up
    assert capsys.readouterr().err.startswith("cap exceeded: GNS_SAMPLES 27 over its limit 26")
    assert peak < 1 << 20
    monkeypatch.setattr(caps, "GNS_SAMPLES", dataclasses.replace(caps.GNS_SAMPLES, limit=10))
    assert run_cli(["gns-check", "--level", "2", "--samples", "64"])[0] == 0
    assert run_cli(["gns-check", "--level", "2", "--samples", "65"]) == (3, "")


def test_gns_check_tensor_check_runs_only_where_the_tensor_is_explicit(monkeypatch):
    calls = []

    def wrong_tensor(s, k):
        calls.append(s.level)
        return gnsfinite.matrix_character(s) ** k + 1

    monkeypatch.setattr(gnsfinite, "tensor_character", wrong_tensor)
    code, out = run_cli(["gns-check", "--level", "3", "--samples", "2", "--format", "text"])
    assert code == 1 and out == "tensor self-check failed\n"
    code, out = run_cli(["gns-check", "--level", "4", "--samples", "2", "--format", "text"])
    assert code == 0 and out == "ok\n"
    assert calls == [3]


#: Byte-exact reports of the certified power sums, the Gram sign witness, an
#: exact (classified) Gram verdict and the acceptance suite:
#: file under tests/expected/, arguments, exit code.
GOLDEN = [
    ("obstruction_m1_30.csv", ["obstruction", "--alpha", "3/2,1/3,41/2,7/10", "--m", "1..30"], 0),
    (
        "obstruction_m60_78.json",
        ["obstruction", "--alpha", "3/2,29/3,43/4", "--m", "60..78", "--format", "json"],
        0,
    ),
    (
        "obstruction_roots_m60_78.json",
        ["obstruction", "--alpha", "12/5,29/8,47/10,25/3", "--m", "60..78", "--format", "json"],
        0,
    ),
    (
        "obstruction_witness_201_2.json",
        ["obstruction", "--witness", "--alpha", "201/2", "--format", "json"],
        0,
    ),
    ("gram_signs_level2.json", ["gram", "--alpha", "3/2", "--all-level", "2", "--witness", "signs"], 1),
    ("gram_alpha3_level2.json", ["gram", "--alpha", "3", "--all-level", "2", "--format", "json"], 0),
    ("gram_alpha1_2_level2.json", ["gram", "--alpha", "1/2", "--all-level", "2", "--format", "json"], 1),
    (
        "gram_alpha0_three_elements.json",
        ["gram", "--alpha", "0", "--elements", "e;level=2: (0 1);odometer(2)", "--format", "json"],
        0,
    ),
    (
        "gram_alphainf_three_elements.json",
        ["gram", "--alpha", "inf", "--elements", "e;level=2: (0 1);odometer(2)", "--format", "json"],
        0,
    ),
    ("char_eval_odometer3.txt", ["char-eval", "--alpha", "7/3", "--perm", "odometer(3)"], 0),
    (
        "char_eval_alpha2_level3.json",
        ["char-eval", "--alpha", "2", "--perm", "level=3: (0 1)(2 3)", "--format", "json"],
        0,
    ),
    ("verify_all_seed7.json", ["verify-all", "--seed", "7", "--format", "json"], 0),
]


@pytest.mark.parametrize("name, argv, code", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_report(name, argv, code, capsys):
    assert run_cli(argv) == (code, (EXPECTED / name).read_bytes().decode())
    assert capsys.readouterr().err == ""


def test_cap_exceeded_exit_code():
    code, _ = run_cli(["char-eval", "--alpha", "1", "--perm", "identity(25)"])
    assert code == 3


def test_exact_power_past_cap_exits_3(capsys):
    for alpha in ("10000", "100000000000"):
        code, out = run_cli(["char-eval", "--alpha", alpha, "--perm", "level=3: (0 1 2 3 4)"])
        assert code == 3 and out == ""
        assert "cap exceeded" in capsys.readouterr().err
    code, _ = run_cli(["gram", "--alpha", "10000", "--elements", "e;level=3: (0 1 2 3 4)"])
    assert code == 3


def test_huge_exponents_exit_3_under_the_endpoint_cap():
    """A power whose enclosure endpoint has a binary exponent near 8e10 is
    refused before its exact value is built."""
    for argv in (
        ["obstruction", "--alpha", "100000000001/2", "--m", "3"],
        ["char-eval", "--alpha", "100000000001/2", "--perm", "level=2: (0 1)"],
    ):
        done = run_cli_capped(argv)
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr.startswith("cap exceeded: ENDPOINT ") and "over its limit 1048576" in done.stderr


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_values_past_the_digit_cap_exit_3_and_print_nothing(fmt):
    """C_{20001/2}(3) has about 4771 integer digits: refused in every
    format, with nothing printed for the value of 3/2 before it."""
    done = run_cli_capped(["obstruction", "--alpha", "3/2,20001/2", "--m", "3", "--format", fmt])
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("cap exceeded: DIGITS 4772 over its limit 4300")


def test_witness_past_the_digit_cap_exits_3_before_its_sum(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the witness sum ran")

    monkeypatch.setattr(obstruction, "power_sum", refuse)
    code, out = run_cli(["obstruction", "--witness", "--alpha", "3501/2"])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err.startswith("cap exceeded: DIGITS 4918 over its limit 4300")


def test_verify_all_json_smoke():
    code, out = run_cli(["verify-all", "--seed", "42", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert len(data["criteria"]) == 12


def test_verify_all_determinism():
    first = run_cli(["verify-all", "--seed", "42"])
    second = run_cli(["verify-all", "--seed", "42"])
    assert first == second
    assert first[0] == 0
