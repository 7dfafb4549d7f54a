import argparse
import contextlib
import functools
import io
import json
import math
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubled_spectral import cli, matchings, s3quad
from doubled_spectral.cli import CliError, _check_finite, main
from doubled_spectral.hopf import HopfMetric, potential_closed
from doubled_spectral.s3quad import MAX_LEVEL, MIN_LEVEL

TWO_PI_SQ = 2.0 * math.pi**2


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestPotential:
    def test_both_on_hopf_pair(self, capsys):
        rec = run_json(
            capsys, "potential", "--g1", "2,2,1,1", "--g2", "1,1,1,1",
            "--method", "both", "--level", "16",
        )
        assert rec["method"] == "both"
        assert rec["value_closed"] == pytest.approx(TWO_PI_SQ, rel=1e-12)
        assert rec["value_numeric"] == pytest.approx(TWO_PI_SQ, rel=1e-10)
        assert rec["abs_difference"] <= 1e-9

    def test_both_on_nearly_identical_hopf_pair(self, capsys):
        # the rule's d_j cancelled here: the two values were 8.5e-8 apart
        rec = run_json(
            capsys, "potential", "--g1", "1.3,1.3,0.7,0.7",
            "--g2", "1.3000000013,1.3000000013,0.6999999993,0.6999999993",
            "--method", "both",
        )
        assert rec["abs_difference"] <= 1e-14 * rec["value_closed"]

    def test_equal_metrics_zero(self, capsys):
        rec = run_json(
            capsys, "potential", "--g1", "1.3,0.7,1.1,0.9",
            "--g2", "1.3,0.7,1.1,0.9", "--method", "numeric", "--level", "8",
        )
        assert rec["value"] == 0.0

    def test_numeric_at_ratio_1e10(self, capsys):
        # 2 pi^2 (s - 1)^2 / (s + 1) at s = 1e10; the rule printed 2967.33
        # here before each axis was normalized
        rec = run_json(
            capsys, "potential", "--g1", "1e10,1,1,1", "--g2", "1,1,1,1",
            "--method", "numeric",
        )
        s = 1e10
        expect = TWO_PI_SQ * (s - 1) ** 2 / (s + 1)
        assert abs(rec["value"] - expect) <= 1e-12 * expect

    def test_numeric_swap_symmetry(self, capsys):
        rec_a = run_json(
            capsys, "potential", "--g1", "1.3,0.7,1.1,0.9", "--g2", "0.8,1.6,0.6,1.2",
            "--method", "numeric", "--level", "16",
        )
        rec_b = run_json(
            capsys, "potential", "--g1", "0.8,1.6,0.6,1.2", "--g2", "1.3,0.7,1.1,0.9",
            "--method", "numeric", "--level", "16",
        )
        assert rec_a["value"] == pytest.approx(rec_b["value"], rel=1e-10)
        assert rec_a["value"] > 0.0

    def test_conjecture_method(self, capsys):
        rec = run_json(
            capsys, "potential", "--g1", "2,2,1,1", "--g2", "1,1,1,1",
            "--method", "conjecture", "--level", "8",
        )
        assert rec["value"] == pytest.approx(TWO_PI_SQ, rel=1e-12)

    def test_conjecture_rejects_non_hopf(self, capsys):
        code, out, err = run_cli(
            capsys, "potential", "--g1", "1,2,3,4", "--g2", "1,1,1,1",
            "--method", "conjecture",
        )
        assert code == 2
        assert "Hopf" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "g1, g2",
        [("1.3,0.7,1.1,0.9", "0.8,1.6,0.6,1.2"), ("0.5,2,1,1.7", "1.9,0.6,1.2,0.55"),
         ("2,2,1,1", "1,1.5,1,1")],
    )
    def test_closed_on_non_hopf_pair_matches_the_rule(self, capsys, g1, g2):
        # the elliptic closed form, which the level-64 rule matches in the box
        closed = run_json(capsys, "potential", "--g1", g1, "--g2", g2, "--method", "closed")
        numeric = run_json(capsys, "potential", "--g1", g1, "--g2", g2, "--method", "numeric")
        assert abs(closed["value"] - numeric["value"]) <= 1e-14 * numeric["value"]
        both = run_json(capsys, "potential", "--g1", g1, "--g2", g2, "--method", "both")
        assert both["value_closed"] == closed["value"]
        assert both["value_numeric"] == numeric["value"]

    def test_rejects_nonpositive_metric(self, capsys):
        code, _, err = run_cli(
            capsys, "potential", "--g1", "1,0,1,1", "--g2", "1,1,1,1",
        )
        assert code == 2
        assert "positive" in json.loads(err)["error"]

    def test_numeric_rejects_out_of_range_scale(self, capsys):
        # 1/a^2 = 1e320 overflows; the oracle used to print NaN and exit 0
        code, out, err = run_cli(
            capsys, "potential", "--g1", "1,1,1e-160,1e-160", "--g2", "1,1,1,1",
            "--method", "numeric", "--level", "8",
        )
        assert code == 2
        assert out == ""
        assert "1/a^2" in json.loads(err)["error"]

    def test_closed_overflow_names_it(self, capsys):
        code, out, err = run_cli(
            capsys, "potential", "--g1", "1e200,1e200,1,1", "--g2", "1,1,1,1",
            "--method", "closed",
        )
        assert code == 2
        assert out == ""
        assert "potential overflows" in json.loads(err)["error"]

    def test_conjecture_ratio_beyond_double_range_names_the_metrics(self, capsys):
        # a1 / a2 = 6e319 overflows; the record names the scales given, not
        # the closed form's rescaled arguments
        code, out, err = run_cli(
            capsys, "potential", "--g1", "9.67e-207,9.67e-207,5.44e266,5.44e266",
            "--g2", "9.43e120,9.43e120,9.05e-54,9.05e-54", "--method", "conjecture",
        )
        assert code == 2
        assert out == ""
        record = json.loads(err)
        assert set(record) == {"error"}
        error = record["error"]
        assert "leaves double range" in error
        for scale in (9.67e-207, 5.44e266, 9.43e120, 9.05e-54):
            assert repr(scale) in error
        assert "inf" not in error

    @pytest.mark.parametrize(
        "g1, g2, expect",
        [
            ("1.3,0.7,1.1,0.9", "0.8,1.2,0.6,1.5", """{
  "g1": [1.3, 0.69999999999999996, 1.1000000000000001, 0.90000000000000002],
  "g2": [0.80000000000000004, 1.2, 0.59999999999999998, 1.5],
  "method": "both",
  "level": 64,
  "value_numeric": 8.2111743510953623,
  "value_closed": 8.2111743510953641,
  "abs_difference": 1.7763568394002505e-15
}
"""),
            ("2,2,0.2,0.2", "0.9,0.9,1.1,1.1", """{
  "g1": [2, 2, 0.20000000000000001, 0.20000000000000001],
  "g2": [0.90000000000000002, 0.90000000000000002, 1.1000000000000001, 1.1000000000000001],
  "method": "both",
  "level": 64,
  "value_numeric": 16.055940889989536,
  "value_closed": 16.055940889989543,
  "abs_difference": 7.1054273576010019e-15
}
"""),
        ],
        ids=["generic", "hopf-10:1"],
    )
    def test_record_bytes(self, capsys, g1, g2, expect):
        # the whole record at the default level 64: every bit of the plane
        # sum, on a generic pair and on a Hopf pair at a 10:1 scale ratio
        code, out, err = run_cli(
            capsys, "potential", "--g1", g1, "--g2", g2, "--method", "both"
        )
        assert (code, err) == (0, "")
        assert out == expect


class TestAction:
    def test_decoupled(self, capsys):
        rec = run_json(
            capsys, "action", "--g1", "1.2,0.8,1.1,0.9", "--g2", "0.7,1.5,0.9,1.3",
            "--phi", "0", "--kappa", "1", "--lambda", "1", "--c", "1",
        )
        assert rec["alpha"] == 0.0
        assert rec["density"] == pytest.approx(rec["lambda_e_sq"] * rec["kinetic"])

    def test_flat_cancellation(self, capsys):
        rec = run_json(
            capsys, "action", "--g1", "1,1,1,1", "--g2", "1,1,1,1",
            "--phi", "1", "--kappa", "1", "--lambda", "1", "--c", "1",
        )
        assert "level" not in rec
        assert rec["kinetic"] == pytest.approx(2 * TWO_PI_SQ, rel=1e-12)
        assert rec["potential"] == 0.0
        assert rec["lambda_e_sq"] == 0.0
        assert rec["density"] == 0.0

    def test_kappa_flips_alpha(self, capsys):
        args = ["--g1", "1,1,1,1", "--g2", "2,2,2,2", "--phi", "0.5",
                "--lambda", "1", "--c", "1"]
        plus = run_json(capsys, "action", *args, "--kappa", "1")
        minus = run_json(capsys, "action", *args, "--kappa", "-1")
        assert plus["alpha"] == -minus["alpha"]

    def test_zero_c_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "action", "--g1", "1,1,1,1", "--g2", "1,1,1,1",
            "--phi", "1", "--kappa", "1", "--lambda", "1", "--c", "0",
        )
        assert code == 2
        assert json.loads(err) == {
            "error": "moment_coeff must be finite and nonzero, got 0.0"
        }

    def test_potential_is_the_1d_integral_at_wide_ratio(self, capsys):
        # at 30:1 the level-64 rule was 4.6e-3 off the closed form
        rec = run_json(
            capsys, "action", "--g1", "30,30,1,1", "--g2", "1,1,1,1",
            "--phi", "0.5", "--kappa", "1", "--lambda", "1", "--c", "1",
        )
        closed = potential_closed(HopfMetric(a=1.0, b=30.0), HopfMetric(a=1.0, b=1.0))
        assert rec["potential"] == pytest.approx(closed, rel=1e-12)

    def test_rejects_out_of_range_scale(self, capsys):
        # 1/a^2 = 1e-400 underflows to 0; the kinetic term used to come out
        # as 3006.8 where the identity gives 2 pi^2 (prod a1 + prod a2) = 2e201
        code, out, err = run_cli(
            capsys, "action", "--g1", "1e200,1,1,1", "--g2", "1,1,1,1",
            "--phi", "1", "--kappa", "1", "--lambda", "1", "--c", "1",
        )
        assert code == 2
        assert out == ""
        assert "1/a^2" in json.loads(err)["error"]


class TestHypothesis:
    def test_small_run(self, capsys):
        rec = run_json(
            capsys, "hypothesis", "--trials", "2", "--seed", "5",
            "--level", "16", "--tol", "1e-3",
        )
        assert rec["trials"] == 2
        assert rec["failures"] == []

    def test_byte_identical_reruns(self, capsys):
        args = ("hypothesis", "--trials", "2", "--seed", "42", "--level", "16")
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_failure_label_is_plain_floats(self, capsys):
        # at tol 0 the rounding of the rescaled pair is a failure; the label
        # must not depend on how the installed numpy prints its scalars
        rec = run_json(capsys, "hypothesis", "--trials", "1", "--level", "8", "--tol", "0")
        labels = [f["transformation"] for f in rec["failures"]]
        assert "scaling[0.765004669954624, 0.9564840162335098, " \
               "0.9051475237623232, 1.330705955635411]" in labels

    def test_record_bytes(self, capsys):
        # the whole record, failures included: field order, list layout and
        # 17-digit floats; at tol 0 every nonzero violation is a failure
        code, out, err = run_cli(
            capsys, "hypothesis", "--trials", "2", "--seed", "3", "--level", "8",
            "--tol", "0",
        )
        assert (code, err) == (0, "")
        assert out == """{
  "trials": 2,
  "seed": 3,
  "level": 8,
  "tol": 0,
  "rng": "numpy.random.Generator(PCG64)",
  "max_violation": 9.0553352952450669e-16,
  "failures": [
    {
      "g1": [0.56303571094356575, 0.69429515700436495, 1.5183968772488834, 1.1206409151361405],
      "g2": [0.56969327637964839, 0.91146166238925708, 0.97137657187309623, 0.6239394042216847],
      "transformation": "scaling[1.164736798506605, 0.757385048838886, 0.9180566071128915, 1.0015031853795322]",
      "discrepancy": 9.0553352952450669e-16
    },
    {
      "g1": [1.3905692329003747, 1.8823494848020912, 0.74144024312328782, 1.2286673853820147],
      "g2": [1.3126042353573317, 0.75024905306544543, 0.50103391469117398, 1.9277534495035511],
      "transformation": "scaling[0.8608465809091967, 0.8701963249810474, 1.298762736881781, 1.050145890671998]",
      "discrepancy": 5.1860670238084292e-16
    },
    {
      "g1": [1.3905692329003747, 1.8823494848020912, 0.74144024312328782, 1.2286673853820147],
      "g2": [1.3126042353573317, 0.75024905306544543, 0.50103391469117398, 1.9277534495035511],
      "transformation": "exchange",
      "discrepancy": 1.3630766045720075e-16
    }
  ]
}
"""


class TestSeries:
    def test_zero_perturbation(self, capsys):
        rec = run_json(
            capsys, "series", "--omega", "2", "--eps", "0,0,0,0,0,0,0,0,0,0",
            "--order", "3", "--level", "8",
        )
        expect = TWO_PI_SQ / 2
        assert rec["value_exact"] == pytest.approx(expect, rel=1e-12)
        assert rec["value_single_trace"] == pytest.approx(expect, rel=1e-12)
        assert rec["value_quadrature"] == pytest.approx(expect, rel=1e-12)

    def test_ratio_column_recorded(self, capsys):
        rec = run_json(
            capsys, "series", "--omega", "1",
            "--eps", "0.05,0,0,0,0.05,0,0,-0.05,0,-0.05",
            "--order", "4", "--level", "16",
        )
        assert rec["ratios_single_trace_vs_exact"][2] == pytest.approx(4.0, rel=1e-12)

    def test_invalid_eps_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "series", "--omega", "1",
            "--eps", "0.1,0,0,0,0,0,0,0,0,0", "--order", "3",
        )
        assert code == 2
        assert "traceless" in json.loads(err)["error"]

    def test_wrong_arity_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "series", "--omega", "1", "--eps", "0,0,0", "--order", "3",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "fmt, expect",
        [
            ("json", """{
  "omega": 1.5,
  "spectral_radius": 0.125,
  "order": 4,
  "terms_exact": [13.159472534785811, -0, 0.032127618493129423, -0.00050199403895514723, 0.00018165909284689389],
  "terms_single_trace": [13.159472534785811, 0, 0.12851047397251769, -0.0040159523116411779, 0.0022213236223765265],
  "ratios_single_trace_vs_exact": [1, null, 4, 8, 12.2279792746114],
  "value_exact": 13.191279818332834,
  "value_single_trace": 13.286188380069063,
  "value_quadrature": 13.191273824868054
}
"""),
            ("csv", "omega,spectral_radius,order,terms_exact,terms_single_trace,"
                    "ratios_single_trace_vs_exact,value_exact,value_single_trace,"
                    "value_quadrature\n"
                    "1.5,0.125,4,"
                    "13.159472534785811;-0;0.032127618493129423;"
                    "-0.00050199403895514723;0.00018165909284689389,"
                    "13.159472534785811;0;0.12851047397251769;"
                    "-0.0040159523116411779;0.0022213236223765265,"
                    "1;;4;8;12.2279792746114,"
                    "13.191279818332834,13.286188380069063,13.191273824868054\n"),
        ],
    )
    def test_record_bytes(self, capsys, fmt, expect):
        # the whole record: field order, list layout, 17-digit floats, -0
        # and null; a diagonal eps has exact eigenvalues
        code, out, err = run_cli(
            capsys, "series", "--omega", "1.5",
            "--eps=0.125,0,0,0,-0.0625,0,0,0.03125,0,-0.09375",
            "--order", "4", "--level", "16", "--format", fmt,
        )
        assert (code, err) == (0, "")
        assert out == expect

    def test_off_diagonal_record_bytes(self, capsys):
        # the a_n recurrence adds left to right from int 0, so these bytes
        # hold on every supported Python (the builtin sum compensates float
        # sums from 3.12 on and moved the last digits of terms_exact)
        code, out, err = run_cli(
            capsys, "series", "--omega", "1.3",
            "--eps=0.3,0.1,0.05,0.02,-0.1,0.07,0.03,0.05,0.04,-0.25", "--order", "12",
        )
        assert (code, err) == (0, "")
        assert out == """{
  "omega": 1.3,
  "spectral_radius": 0.34062675845493184,
  "order": 12,
  "terms_exact": [15.184006770906704, -0, 0.26015264934153487, -0.012494539571609859, 0.010960074215355567, -0.0012844386679614936, 0.00065329921733038501, -0.00011715589367462094, 4.7053682279785652e-05, -1.0648874901667222e-05, 3.8032666971452326e-06, -9.8473289205705208e-07, 3.3122886746054854e-07],
  "terms_single_trace": [15.184006770906704, 0, 1.0406105973661395, -0.099956316572878873, 0.13897040725018195, -0.038818590853947364, 0.033959422371479628, -0.013518903548759601, 0.010022541425588501, -0.0048111639532297792, 0.003291108510797267, -0.0017618748099800052, 0.0011574596831686523],
  "ratios_single_trace_vs_exact": [1, null, 4, 8, 12.679695823179559, 30.222222222222221, 51.981422096677242, 115.39243246529178, 213.0022761235459, 451.8002134175253, 865.33729366589091, 1789.1905756286328, 3494.4408440079969],
  "value_exact": 15.441916214117731,
  "value_single_trace": 16.253151457775264,
  "value_quadrature": 15.441916144791508
}
"""

    def test_non_finite_result_rejected(self, capsys):
        # 2 pi^2 / omega overflows; this used to print Infinity and NaN
        code, out, err = run_cli(
            capsys, "series", "--omega", "1e-320",
            "--eps", "0,0,0,0,0,0,0,0,0,0", "--order", "2", "--level", "8",
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == (
            "the rational integral of the form with eigenvalues [1e-320, 1e-320, "
            "1e-320, 1e-320] overflows double precision"
        )

    def test_underflowing_eigenvalue_named(self, capsys):
        # omega (1 - 0.5) rounds to 0 although the form is positive definite
        code, out, err = run_cli(
            capsys, "series", "--omega", "5e-324",
            "--eps=0.5,0,0,0,-0.5,0,0,0,0,0", "--order", "4",
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == (
            "quadratic form has eigenvalues [0.0, 5e-324, 5e-324, 1e-323]: "
            "one underflows double precision"
        )


class TestMoments:
    def test_m1(self, capsys):
        rec = run_json(capsys, "moments", "--m", "1")
        assert rec["c_m"] == "1/2"
        assert rec["forbidden_free_count"] == 0

    def test_m2(self, capsys):
        rec = run_json(capsys, "moments", "--m", "2")
        assert rec["c_m"] == "1/12"
        assert rec["forbidden_free_count"] == 2
        assert rec["forbidden_free_inclusion_exclusion"] == 2
        census = {tuple(e["cycle_lengths"]): e["count"] for e in rec["pattern_census"]}
        assert census == {(1, 1): 1, (2,): 2}

    def test_m3(self, capsys):
        rec = run_json(capsys, "moments", "--m", "3")
        assert rec["forbidden_free_count"] == 8

    def test_m10(self, capsys):
        # the guard's order: 42 cycle types whose counts sum to 19!!
        rec = run_json(capsys, "moments", "--m", "10")
        counts = [e["count"] for e in rec["pattern_census"]]
        assert (len(counts), sum(counts)) == (42, 654_729_075)
        assert rec["forbidden_free_count"] == 387_099_936
        assert rec["forbidden_free_inclusion_exclusion"] == 387_099_936

    def test_guard(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--m", "11")
        assert code == 2

    def test_one_census_per_request(self, capsys, monkeypatch):
        # the two printed counts come from the recurrence and from
        # inclusion-exclusion, so only the census rows build the census
        calls = []
        census = matchings.pattern_census

        def counting(m):
            calls.append(m)
            return census(m)

        monkeypatch.setattr(matchings, "pattern_census", counting)
        rec = run_json(capsys, "moments", "--m", "7")
        assert calls == [7]
        assert rec["forbidden_free_count"] == rec["forbidden_free_inclusion_exclusion"]


class TestSweep:
    def test_hopf_b_sweep(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--g2", "1,1,1,1", "--base", "1,1,1,1",
            "--sweep", "b:0.5:2.0:7",
            "--output", str(out_file),
        )
        assert code == 0, err
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "g1_0,g1_1,g1_2,g1_3,v_numeric,v_closed,v_prime"
        assert len(lines) == 8
        for line in lines[1:]:
            cells = line.split(",")
            b1 = float(cells[0])
            expect = TWO_PI_SQ * (b1 - 1.0) ** 2
            assert float(cells[4]) == pytest.approx(expect, rel=1e-8, abs=1e-10)
            assert float(cells[5]) == pytest.approx(expect, rel=1e-8, abs=1e-10)

    def test_one_potential_evaluation_per_point(self, capsys, monkeypatch):
        # v_prime is derived from v_numeric, not integrated again
        calls = []
        potential = cli.potential_elliptic

        def counting(g1, g2):
            calls.append(1)
            return potential(g1, g2)

        monkeypatch.setattr(cli, "potential_elliptic", counting)
        code, out, err = run_cli(
            capsys, "sweep", "--g2", "1,1,1,1", "--base", "1,1,1,1",
            "--sweep", "b:0.5:2.0:3",
        )
        assert code == 0, err
        assert len(out.strip().split("\n")) == 4
        assert len(calls) == 3

    def test_single_point_grid(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--g2", "1,1,1,1", "--base", "1.5,1,1,1",
            "--sweep", "0:0.8:0.8:1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("0.8")
        # non-Hopf g1: the closed-form cell stays empty
        assert lines[1].split(",")[5] == ""

    def test_crossing_singular_surface_is_continuous(self, capsys):
        # sweep of b1 through b2 * a1 / a2 = 0.75 with a1 = 1.5, a2 = 2
        code, out, _ = run_cli(
            capsys, "sweep", "--g2", "1.5,1.5,2,2", "--base", "1,1,1.5,1.5",
            "--sweep", "b:0.70:0.80:11",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        values = [float(r[4]) for r in rows]
        closed = [float(r[5]) for r in rows]
        for prev, nxt in zip(values, values[1:]):
            assert abs(nxt - prev) <= 0.05 * max(abs(prev), abs(nxt))
        for vn, vc in zip(values, closed):
            assert vc == pytest.approx(vn, rel=1e-6)

    def test_wide_ratio_point_is_the_1d_integral(self, capsys):
        # at 100:1 the level-64 rule was 47% off the closed form
        code, out, err = run_cli(
            capsys, "sweep", "--g2", "1,1,1,1", "--base", "1,1,1,1",
            "--sweep", "b:100:100:1",
        )
        assert code == 0, err
        row = [float(cell) for cell in out.strip().split("\n")[1].split(",")]
        assert row[4] == pytest.approx(row[5], rel=1e-12)
        assert row[6] == row[4] / TWO_PI_SQ

    @pytest.mark.parametrize(
        "lo, hi, steps",
        [(0.5, 2.0, 7), (0.70, 0.80, 11), (0.1, 0.3, 3), (1e-3, 7.3, 61),
         (0.8, 0.8, 4), (1.25, 1.5, 2), (0.9, 1.7, 1)],
    )
    def test_grid_is_linspace_to_the_bit(self, lo, hi, steps):
        import numpy as np

        expect = np.linspace(lo, hi, steps) if steps > 1 else np.array([lo])
        assert cli._grid(lo, hi, steps) == expect.tolist()

    def test_underflowing_norm_rejected(self, capsys):
        # sqrt(det g2) = 1e-360 is 0 in double precision; v_prime divides by it
        code, out, err = run_cli(
            capsys, "sweep", "--g2", "1e-90,1e-90,1e-90,1e-90",
            "--base", "2e-90,2e-90,1e-90,1e-90", "--sweep", "b:2e-90:2e-90:1",
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == (
            "--g2: 2 pi^2 sqrt(det g2) = 0 under- or overflows double precision, "
            "and v_prime divides by it"
        )

    def test_too_many_axes_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--g2", "1,1,1,1", "--base", "1,1,1,1",
            "--sweep", "0:1:2:3", "--sweep", "1:1:2:3", "--sweep", "2:1:2:3",
        )
        assert code == 2

    def test_infinite_bound_rejected(self, capsys):
        # an inf bound used to reach np.linspace and warn ahead of the record
        code, out, err = run_cli(
            capsys, "sweep", "--g2", "1,1,1,1", "--base", "1,1,1,1",
            "--sweep", "b:1:inf:3",
        )
        assert code == 2
        assert json.loads(err) == {
            "error": "sweep spec 'b:1:inf:3': need finite 0 < min <= max and steps >= 1"
        }

    def test_overlapping_axes_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--g2", "1,1,1,1", "--base", "1,1,1,1",
            "--sweep", "b:1:2:3", "--sweep", "0:1:2:3",
        )
        assert code == 2


class TestFiniteOutput:
    def test_names_first_non_finite_field(self):
        payload = {"n": 1, "ok": 2.0, "rows": [{"v": 1.0, "w": None}, {"v": math.nan}]}
        with pytest.raises(CliError, match=r"^rows\[1\]\.v is not finite: NaN$"):
            _check_finite(payload)
        _check_finite({"a": [1.0, {"b": -2.5}], "c": "text"})

    def test_sweep_rows_checked(self, capsys):
        # at a = 1e-100 the S^3 rule's Q^2 overflowed and its sum came out
        # NaN; the elliptic form rejects the 1e100 scale ratio up front
        code, out, err = run_cli(
            capsys, "sweep", "--g2", "1,1,1,1", "--base", "1,1,1,1",
            "--sweep", "b:1e-100:1e-100:1",
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == (
            "the scale factors of g1 = (1e-100, 1e-100, 1.0, 1.0) and g2 = "
            "(1.0, 1.0, 1.0, 1.0) span a ratio above 1e+75"
        )


def run_quiet(argv):
    """main(argv) with its output captured, for tests that cannot take the
    function-scoped capsys fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# scale factors log-uniform in [1e-50, 1e50]
WIDE_SCALES = st.floats(-50.0, 50.0).map(lambda e: 10.0**e)


@settings(max_examples=150, deadline=None)
@given(a1=WIDE_SCALES, b1=WIDE_SCALES, a2=WIDE_SCALES, b2=WIDE_SCALES)
def test_wide_hopf_pairs_exit_cleanly_and_agree(a1, b1, a2, b2):
    # every request exits 0 with finite values or 2 with one JSON error
    # record, and none raises; where two evaluators both give a value,
    # they agree
    g1 = f"{b1!r},{b1!r},{a1!r},{a1!r}"
    g2 = f"{b2!r},{b2!r},{a2!r},{a2!r}"
    requests = {
        "closed": ["potential", "--g1", g1, "--g2", g2, "--method", "closed"],
        "conjecture": ["potential", "--g1", g1, "--g2", g2, "--method", "conjecture"],
        "action": ["action", "--g1", g1, "--g2", g2, "--phi", "0.5", "--kappa", "1",
                   "--lambda", "1", "--c", "1"],
        "sweep": ["sweep", "--g2", g2, "--base", g1, "--sweep", f"b:{b1!r}:{b1!r}:1"],
    }
    values = {}
    for name, argv in requests.items():
        code, out, err = run_quiet(argv)
        if code == 2:
            assert out == ""
            assert set(json.loads(err)) == {"error"}
            continue
        assert code == 0 and err == ""
        if name == "sweep":
            header, row = out.strip().split("\n")
            cells = [float(c) for c in row.split(",") if c]
            assert all(math.isfinite(c) for c in cells)
            values[name] = cells[4]
        else:
            rec = json.loads(out)
            assert all(math.isfinite(v) for v in rec.values() if isinstance(v, float))
            values[name] = rec["potential" if name == "action" else "value"]
    # the closed and the ratio form sum terms of size
    # 2 pi^2 ((a1 b1)^2 + (a2 b2)^2) = 2 pi^2 (p^2 + q^2), which cancel as the metrics approach
    # each other: agreement is to 1e-12 of that size
    p, q = a1 * b1, a2 * b2
    size = TWO_PI_SQ * (p * p + q * q)
    for other in ("conjecture", "action", "sweep"):
        if "closed" in values and other in values:
            assert abs(values["closed"] - values[other]) <= 1e-12 * size, other


# request -> (argv, exit code), each run in process
CLEAN_EXITS = {
    # the 1/a^2 span 1e300 and the rule's plane overflows: numpy's
    # floating-point warnings stay off while it sums
    "numeric": (["potential", "--g1", "1e-150,1,1,1", "--g2", "1,1,1,1", "--method", "numeric"],
                2),
    # V ~ 1e280 * 1e60 overflows the elliptic form's final scaling
    "sweep": (["sweep", "--g2", "1e70,1e70,1e70,1e70", "--base", "1e70,1e70,1e70,1e70",
               "--sweep", "b:1e100:1e100:1"], 2),
    "series": (["series", "--omega", "1e-320", "--eps=0,0,0,0,0,0,0,0,0,0",
                "--order", "2", "--level", "8"], 2),
    # the eigenvalue 1.9e308 of omega (I + eps) overflows, though the form is
    # positive definite
    "series-eigenvalues": (["series", "--omega", "1e308", "--eps=0.9,0,0,0,-0.9,0,0,0,0,0",
                            "--order", "3"], 2),
    # the closed form overflows, and is evaluated before the series sums
    "series-closed-form": (["series", "--omega", "2e-308", "--eps=0.5,0,0,0,-0.5,0,0,0,0,0",
                            "--order", "4"], 2),
    # the closed form is finite, but the single-trace sum is not
    "series-single-trace": (["series", "--omega", "1e-280",
                             "--eps=0.999,0,0,0,-0.999,0,0,0.5,0,-0.5", "--order", "100"], 2),
    # off-diagonal entries of 1e300, or of 1.7e308, whose largest eigenvalue
    # leaves double range: the spectral radius is at least 1, so exit 2
    "eps-1e300": (["series", "--omega", "1", "--eps=0,1e300,0,0,0,0,0,0,0,0"], 2),
    "eps-3e300": (["series", "--omega", "1e-300",
                   "--eps=0,1e300,1e300,1e300,0,1e300,1e300,0,1e300,0"], 2),
    "eps-1.7e308": (["series", "--omega", "1",
                     "--eps=0,1.7e308,1.7e308,0,0,1.7e308,1.7e308,0,1.7e308,0"], 2),
    "eps-1e300-and-1e-300": (["series", "--omega", "1", "--eps=0,1e-300,1e300,0,0,0,0,0,0,0"],
                             2),
    # off-diagonal entries of 1e-300 and 5e-324 leave only the constant term
    "eps-1e-300": (["series", "--omega", "1e300",
                    "--eps=0,1e-300,1e-300,1e-300,0,1e-300,1e-300,0,1e-300,0"], 0),
    "eps-5e-324": (["series", "--omega", "1e-300",
                    "--eps=0,5e-324,0,5e-324,0,5e-324,0,0,5e-324,0", "--order", "100"], 0),
    "eps-1e-300-beside-0.5": (["series", "--omega", "1",
                               "--eps=0.5,1e-300,0,0,-0.5,1e-300,0,0,0,0"], 0),
}


@pytest.mark.parametrize("argv, expect", CLEAN_EXITS.values(), ids=CLEAN_EXITS.keys())
def test_extreme_request_exits_cleanly(capfd, argv, expect):
    # a numpy overflow warning would print ahead of the error record, and the
    # eigensolve never forms theta^2 of a huge rotation angle: no warning and
    # no exception, and capfd reads the file descriptors a process would
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capfd.readouterr()
    assert [str(w.message) for w in caught] == []
    assert code == expect
    if expect == 2:
        assert out == ""
        assert set(json.loads(err)) == {"error"}
    else:
        assert err == ""
        rec = json.loads(out)
        if rec["spectral_radius"] < 1e-200:
            expect = TWO_PI_SQ / rec["omega"]
            assert rec["value_quadrature"] == pytest.approx(expect, rel=1e-15)
            assert rec["value_exact"] == rec["value_single_trace"] == rec["terms_exact"][0]


# dataclasses loads inspect, ast and dis: about 10 ms per request
NO_NUMPY = {"numpy", "doubled_spectral.s3quad", "dataclasses"}
# contract -> (modules its requests load, modules they never load, request ->
# argv); a contract's requests run in table order in one fresh interpreter
IMPORT_TABLE = {
    "numpy-free": (set(), NO_NUMPY, {
        "closed": ["potential", "--g1", "2,2,1,1", "--g2", "1,1,1,1", "--method", "closed"],
        # a2 b1 = a1 b2: the surface where the paper's form is 0/0
        "closed-tube": ["potential", "--g1", "1.5,1.5,1.2,1.2", "--g2", "1.25,1.25,1,1",
                        "--method", "closed"],
        "conjecture": ["potential", "--g1", "2,2,1,1", "--g2", "1,1,1,1",
                       "--method", "conjecture"],
        # a pair that is not Hopf-shaped: the elliptic form
        "closed-general": ["potential", "--g1", "1.3,0.7,1.1,0.9", "--g2", "0.8,1.6,0.6,1.2",
                           "--method", "closed"],
        "moments": ["moments", "--m", "7"],
        # the potential of action and sweep is the elliptic form, not the S^3 rule
        "action": ["action", "--g1", "30,30,1,1", "--g2", "1.2,0.8,1.1,0.9", "--phi", "0.5",
                   "--kappa", "-1", "--lambda", "2", "--c", "0.7"],
        "sweep": ["sweep", "--g2", "1,1,1.5,1.5", "--base", "1,1,2,2",
                  "--sweep", "b:0.5:2:3", "--sweep", "a:1:100:2"],
        # requests whose unscaled products under- or overflow: a sweep point at
        # scales near 1e-60, the ratio form where (x - y)(x + y)^2 underflows,
        # and an action (with its derived columns) whose 1/a^2 spread 1e140
        "sweep-tiny": ["sweep", "--g2", "1e-64,1e-64,1e-56,1e-56",
                       "--base", "1e-55,1e-55,1e-66,1e-66", "--sweep", "b:1e-55:1e-55:1"],
        "conjecture-tiny-against-huge": ["potential", "--g1", "1e-55,1e-55,2e-55,2e-55",
                                         "--g2", "1e55,1e55,1e55,1e55", "--method", "conjecture"],
        "action-1e-70": ["action", "--g1", "1e-70,1,1,1", "--g2", "1,1,1,1", "--phi", "0.5",
                         "--kappa", "1", "--lambda", "1", "--c", "1"],
    }),
    # the rational integral is a closed form and the eigensolve pure Python;
    # only moments loads decimal (through fractions)
    "series": (set(), NO_NUMPY | {"decimal"}, {
        "series": ["series", "--omega", "1.5",
                   "--eps=0.125,0.01,0,0,-0.0625,0.02,0,0.03125,0,-0.09375", "--order", "4"],
    }),
    # numpy.random adds about 6 MB of RSS to a request, and the suite draws
    # its PCG64 stream in pure Python; the rule's Gauss-Legendre nodes come
    # from Newton's method, where leggauss imported all six numpy.polynomial
    # modules and ran a LAPACK eigensolve, about 2 MB of RSS
    "rule": ({"numpy", "doubled_spectral.s3quad"}, {"numpy.random", "numpy.polynomial"}, {
        "hypothesis": ["hypothesis", "--trials", "1", "--level", "8"],
        "numeric": ["potential", "--g1", "1,1.2,2,0.8", "--g2", "1.5,0.6,0.7,1.1",
                    "--method", "numeric"],
    }),
}
# the rule contract's two halves keep tests of their own, below
IMPORT_ROWS = [(contract, name) for contract, (_, _, rows) in IMPORT_TABLE.items()
               if contract != "rule" for name in rows]
RULE_REQUESTS = list(IMPORT_TABLE["rule"][2])

# runs the JSON list of requests in argv[1] in order and prints a JSON line
# for each: its exit code, stdout, stderr and the modules loaded after it
_CONTRACT_RUNNER = """\
import contextlib, io, json, sys
from doubled_spectral.cli import main
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    print(json.dumps((code, out.getvalue(), err.getvalue(), sorted(sys.modules))))
"""


@functools.cache
def _contract_reports(contract):
    """request -> (code, stdout, stderr, loaded modules) for the requests of
    `contract`, all run in one fresh interpreter: a module stays loaded, so
    the first request that loads a forbidden one is the first to fail."""
    rows = IMPORT_TABLE[contract][2]
    out = subprocess.run([sys.executable, "-c", _CONTRACT_RUNNER, json.dumps(list(rows.values()))],
                         capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
    return dict(zip(rows, map(json.loads, out.stdout.splitlines())))


def _assert_request_loads(contract, name, need, never):
    """The request `name` of `contract` succeeds with its record on stdout,
    has loaded every module of `need` and none of `never`."""
    code, out, err, loaded = _contract_reports(contract)[name]
    assert (code, err) == (0, "")
    assert need <= set(loaded), f"{sorted(need - set(loaded))} not loaded"
    assert not never & set(loaded), f"{sorted(never & set(loaded))} loaded"
    argv = IMPORT_TABLE[contract][2][name]
    if argv[0] == "sweep":
        points = math.prod(int(spec.rsplit(":", 1)[1])
                           for flag, spec in zip(argv, argv[1:]) if flag == "--sweep")
        assert len(out.strip().split("\n")) == 1 + points
    else:
        key = {"potential": "value", "action": "potential", "moments": "m",
               "series": "value_quadrature", "hypothesis": "trials"}[argv[0]]
        assert json.loads(out)[key]


@pytest.mark.parametrize("contract, name", IMPORT_ROWS, ids=[name for _, name in IMPORT_ROWS])
def test_request_keeps_its_import_contract(contract, name):
    need, never, _ = IMPORT_TABLE[contract]
    _assert_request_loads(contract, name, need, never)


@pytest.mark.parametrize("name", RULE_REQUESTS)
def test_numpy_requests_do_not_import_numpy_random(name):
    _assert_request_loads("rule", name, {"numpy"}, {"numpy.random"})


@pytest.mark.parametrize("name", RULE_REQUESTS)
def test_rule_requests_do_not_import_numpy_polynomial(name):
    _assert_request_loads("rule", name, {"doubled_spectral.s3quad"}, {"numpy.polynomial"})


def test_every_subcommand_has_an_import_contract():
    (subcommands,) = (action.choices for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    requests = [argv for _, _, rows in IMPORT_TABLE.values() for argv in rows.values()]
    assert {argv[0] for argv in requests} == set(subcommands)


class TestConfigAndDeterminism:
    def test_emit_config(self, capsys):
        rec = run_json(
            capsys, "potential", "--g1", "1,1,1,1", "--g2", "1,1,1,1",
            "--level", "8", "--emit-config",
        )
        assert rec == {
            "subcommand": "potential",
            "level": 8,
            "output_path": None,
            "format": "json",
        }

    def test_emit_config_without_level(self, capsys):
        rec = run_json(
            capsys, "action", "--g1", "1,1,1,1", "--g2", "2,2,1,1", "--phi", "1",
            "--kappa", "1", "--lambda", "1", "--c", "1", "--emit-config",
        )
        assert rec == {"subcommand": "action", "output_path": None, "format": "json"}

    def test_bad_level_rejected(self, capsys):
        for level in (2, MIN_LEVEL - 1):
            code, _, err = run_cli(
                capsys, "potential", "--g1", "1,1,1,1", "--g2", "1,1,1,1",
                "--level", str(level),
            )
            assert code == 2

    @pytest.mark.parametrize("flags", [(), ("--emit-config",)], ids=["run", "emit-config"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("potential", "--g1", "1,1,1,1", "--g2", "2,2,1,1"),
            ("hypothesis", "--trials", "1"),
            ("series", "--omega", "1", "--eps", "0,0,0,0,0,0,0,0,0,0"),
        ],
        ids=["potential", "hypothesis", "series"],
    )
    def test_level_above_max_rejected(self, capsys, monkeypatch, argv, flags):
        # level 2000000 used to reach the Gauss-Legendre solver, which asked
        # numpy for 29 TiB and exited 1 with a traceback; now the parser
        # rejects it before any rule is built
        def no_factors(level):
            raise AssertionError(f"factors of level {level} computed")

        monkeypatch.setattr(s3quad, "_factors", no_factors)
        code, out, err = run_cli(capsys, *argv, "--level", "2000000", *flags)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": f"argument --level: must be <= {MAX_LEVEL}, got '2000000'"
        }
        # the largest level accepted builds its rule and sums it
        monkeypatch.undo()
        code, out, err = run_cli(capsys, *argv, "--level", str(MAX_LEVEL), *flags)
        assert (code, err) == (0, "")
        assert json.loads(out)

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    @pytest.mark.parametrize(
        "argv, error",
        [
            # potential reads no tolerance, so it has no --tol
            (("potential", "--g1", "1,1,1,1", "--g2", "2,2,1,1", "--emit-config"),
             "unrecognized arguments: --tol {tol}"),
            (("hypothesis", "--trials", "2", "--level", "8"),
             "tol must be finite and >= 0, got {tol}"),
        ],
        ids=["potential-emit-config", "hypothesis"],
    )
    def test_non_finite_tol_rejected(self, capsys, argv, error, tol):
        code, out, err = run_cli(capsys, *argv, "--tol", tol)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == error.format(tol=tol)

    @pytest.mark.parametrize(
        "argv, error",
        [
            (("hypothesis", "--tol", "-1"), "tol must be finite and >= 0"),
            (("hypothesis", "--trials", "0"), "trials must be >= 1"),
            (("moments", "--m", "99"), "--m must be in 1.."),
            (("moments", "--m", "0"), "--m must be in 1.."),
            (("potential", "--g1", "1,0,1,1", "--g2", "1,1,1,1"),
             "--g1 entries must be positive"),
            (("potential", "--g1", "1,2,3,4", "--g2", "1,1,1,1", "--method", "conjecture"),
             "--g1 is not Hopf-shaped"),
            (("action", "--g1", "1,1,1,1", "--g2", "2,2,1,1", "--phi", "1",
              "--kappa", "1", "--lambda", "-1", "--c", "1"),
             "cutoff must be finite and positive"),
            (("sweep", "--g2", "1,1,1,1", "--base", "1,1,1,1", "--sweep", "x:1:2:3"),
             "sweep axis must be one of"),
            (("sweep", "--g2", "1,1,1,1", "--base", "1,1,1,1",
              "--sweep", "b:1:2:3", "--sweep", "0:1:2:3"), "swept axes overlap"),
            (("series", "--omega", "1", "--eps", "0,0,0"), "--eps needs the 10"),
            (("series", "--omega", "1", "--eps", "0.5,0,0,0,0,0,0,0,0,0"), "traceless"),
            (("series", "--omega", "1", "--eps", "0,0,0,0,0,0,0,0,0,0", "--order", "101"),
             "exceeds the guard"),
            (("series", "--omega", "1", "--eps", "0,0,0,0,0,0,0,0,0,0", "--order", "1"),
             "order must be >= 2"),
        ],
        ids=[
            "hypothesis-tol", "hypothesis-trials", "moments-m-high", "moments-m-low",
            "potential-metric", "potential-hopf", "action-cutoff", "sweep-axis",
            "sweep-overlap", "series-eps-arity", "series-eps-trace",
            "series-order-high", "series-order-low",
        ],
    )
    def test_emit_config_validates_first(self, capsys, argv, error):
        # the configuration is printed only for a run that would be accepted
        if argv[0] in ("potential", "hypothesis", "series"):  # those with --level
            argv = (*argv, "--level", "8")
        plain = run_cli(capsys, *argv)
        flagged = run_cli(capsys, *argv, "--emit-config")
        assert plain[0] == flagged[0] == 2
        assert plain[1] == flagged[1] == ""
        assert plain[2] == flagged[2]
        assert error in json.loads(flagged[2])["error"]

    def test_repeat_runs_byte_identical(self, capsys):
        args = ("series", "--omega", "1.5",
                "--eps", "0.02,0.01,0,0,0.01,0,0,-0.02,0,-0.01",
                "--order", "4", "--level", "16")
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b

    def test_csv_list_cells(self, capsys):
        # a list is one cell of 17-digit floats; None is an empty element
        def cells(*argv):
            code, out, err = run_cli(capsys, *argv, "--level", "8", "--format", "csv")
            assert code == 0, err
            header, row = out.strip().split("\n")
            return dict(zip(header.split(","), row.split(",")))

        rec = cells("potential", "--g1", "0.1,1,1,1", "--g2", "1,1,1,1")
        assert rec["g1"] == "0.10000000000000001;1;1;1"
        rec = cells("series", "--omega", "1", "--eps", "0,0,0,0,0,0,0,0,0,0",
                    "--order", "2")
        assert rec["ratios_single_trace_vs_exact"] == "1;;"

    def test_csv_format_for_single_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "potential", "--g1", "1,1,1,1", "--g2", "1,1,1,1",
            "--method", "numeric", "--level", "8", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert "value" in lines[0].split(",")

    @pytest.mark.parametrize(
        "argv, error",
        [
            (("potential", "--g1", "1,1,1,1"), "the following arguments are required: --g2"),
            (("potential", "--g1", "1,1,1,1", "--g2", "1,1,1,1", "--level", "x"),
             "argument --level: must be an integer >= 4, got 'x'"),
            (("moments", "--m", "2", "--bogus"), "unrecognized arguments: --bogus"),
            # a subcommand declares only the options it reads
            (("moments", "--m", "2", "--level", "8"), "unrecognized arguments: --level 8"),
            (("potential", "--g1", "1,1,1,1", "--g2", "2,2,1,1", "--seed", "1"),
             "unrecognized arguments: --seed 1"),
            (("sweep", "--g2", "1,1,1,1", "--base", "1,1,1,1", "--sweep", "b:1:2:3",
              "--format", "json"), "unrecognized arguments: --format json"),
            (("hypothesis", "--trials", "1", "--format", "csv"),
             "unrecognized arguments: --format csv"),
            # action and sweep do not use the S^3 rule
            (("action", "--g1", "1,1,1,1", "--g2", "2,2,1,1", "--phi", "1", "--kappa", "1",
              "--lambda", "1", "--c", "1", "--level", "8"),
             "unrecognized arguments: --level 8"),
            (("sweep", "--g2", "1,1,1,1", "--base", "1,1,1,1", "--sweep", "b:1:2:3",
              "--level", "8"), "unrecognized arguments: --level 8"),
            (("hypothesis", "--trials", "1", "--seed", "-1"), "seed must be >= 0, got -1"),
            (("action", "--g1", "1,1,1,1", "--g2", "2,2,1,1", "--phi", "inf", "--kappa", "1",
              "--lambda", "1", "--c", "1"), "coupling |Phi| must be finite and >= 0, got inf"),
        ],
        ids=["missing-option", "bad-level", "unknown-option", "moments-level",
             "potential-seed", "sweep-format", "hypothesis-format", "action-level",
             "sweep-level", "hypothesis-negative-seed", "action-infinite-phi"],
    )
    def test_usage_error_is_one_json_record(self, capsys, argv, error):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": error}

    @pytest.mark.parametrize(
        "subcommand, options",
        [
            ("potential", {"--level", "--format", "--g1", "--g2", "--method"}),
            ("action", {"--format", "--g1", "--g2", "--phi", "--kappa", "--lambda",
                        "--c"}),
            ("series", {"--level", "--format", "--omega", "--eps", "--order"}),
            ("hypothesis", {"--level", "--seed", "--tol", "--trials"}),
            ("sweep", {"--g2", "--base", "--sweep"}),
            ("moments", {"--m"}),
        ],
    )
    def test_help_lists_only_read_options(self, capsys, subcommand, options):
        with pytest.raises(SystemExit) as exit_:
            main([subcommand, "--help"])
        assert exit_.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        listed = set(re.findall(r"^  (?:-h, )?(--[\w-]+)", captured.out, re.MULTILINE))
        assert listed == options | {"--help", "--output", "--emit-config"}

    def test_module_entry_point(self):
        out = subprocess.run(
            [sys.executable, "-m", "doubled_spectral", "moments", "--m", "2"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        rec = json.loads(out.stdout)
        assert rec["forbidden_free_count"] == 2
