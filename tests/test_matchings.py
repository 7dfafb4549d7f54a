import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from doubled_spectral import (
    PerturbedForm,
    c_coefficient,
    compare_series,
    count_n,
    count_n_formula,
    double_factorial,
    moment_integral,
    pattern_census,
    rational_integral,
    series_exact,
)
from doubled_spectral import matchings
from doubled_spectral.matchings import MAX_MATCHING_ORDER, MAX_SERIES_ORDER
from conftest import Matching, enumerate_matchings, product_sum, trace_pattern

PI_SQ = math.pi**2
TWO_PI_SQ = 2.0 * PI_SQ


def random_traceless(rng, rho_target):
    raw = rng.standard_normal((4, 4))
    sym = 0.5 * (raw + raw.T)
    sym -= np.eye(4) * (np.trace(sym) / 4.0)
    rho = float(np.abs(np.linalg.eigvalsh(sym)).max())
    return sym * (rho_target / rho)


class TestDoubleFactorial:
    def test_values(self):
        assert [double_factorial(n) for n in (-1, 0, 1, 2, 3, 4, 5, 6)] == [
            1, 1, 1, 2, 3, 8, 15, 48,
        ]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            double_factorial(-3)


class TestCCoefficient:
    def test_area_term(self):
        assert c_coefficient(0) == Fraction(2)

    def test_first(self):
        assert c_coefficient(1) == Fraction(1, 2)

    def test_second(self):
        assert c_coefficient(2) == Fraction(1, 12)

    @given(m=st.integers(1, 12))
    def test_recursion_exact(self, m):
        assert c_coefficient(m) == c_coefficient(m - 1) / (2 * m + 2)


class TestEnumeration:
    def test_counts(self):
        for m in (1, 2, 3, 4):
            assert sum(1 for _ in enumerate_matchings(m)) == double_factorial(2 * m - 1)

    def test_m2_explicit(self):
        got = {mt.pairs for mt in enumerate_matchings(2)}
        assert got == {
            ((1, 2), (3, 4)),
            ((1, 3), (2, 4)),
            ((1, 4), (2, 3)),
        }

    def test_guard(self):
        with pytest.raises(ValueError):
            list(enumerate_matchings(11))
        with pytest.raises(ValueError):
            list(enumerate_matchings(0))
        with pytest.raises(ValueError):
            pattern_census(11)
        with pytest.raises(ValueError):
            pattern_census(0)

    def test_canonical_form_enforced(self):
        with pytest.raises(ValueError):
            Matching(((2, 1), (3, 4)))
        with pytest.raises(ValueError):
            Matching(((3, 4), (1, 2)))
        with pytest.raises(ValueError):
            Matching(((1, 2), (3, 5)))


class TestTracePattern:
    def test_cross_pairing_is_two_cycle(self):
        assert trace_pattern(Matching(((1, 3), (2, 4)))).cycle_lengths == (2,)

    def test_block_pairing_is_two_singletons(self):
        assert trace_pattern(Matching(((1, 2), (3, 4)))).cycle_lengths == (1, 1)

    def test_two_independent_two_cycles(self):
        mt = Matching(((1, 3), (2, 4), (5, 7), (6, 8)))
        assert trace_pattern(mt).cycle_lengths == (2, 2)

    def test_full_cycle(self):
        mt = Matching(((1, 4), (2, 5), (3, 6)))
        assert trace_pattern(mt).cycle_lengths == (3,)


class TestCensus:
    def test_matches_direct_enumeration(self):
        for m in (1, 2, 3, 4, 5, 6):
            direct = Counter(
                trace_pattern(mt).cycle_lengths for mt in enumerate_matchings(m)
            )
            assert dict(pattern_census(m)) == dict(direct)

    def test_total_count(self):
        for m in range(1, 11):
            assert sum(c for _, c in pattern_census(m)) == double_factorial(2 * m - 1)

    def test_no_one_cycle_count_is_inclusion_exclusion(self):
        # the matchings with no block pair (2l-1, 2l) are those whose cycle
        # type has no 1-cycle
        for m in range(1, 11):
            free = sum(count for pat, count in pattern_census(m) if 1 not in pat)
            assert free == count_n_formula(m)

    def test_closed_form_cross_check(self):
        # independent count per cycle type: partition the m blocks into
        # cycles, times 2^(k-1) (k-1)! single-cycle matchings per k-cycle
        for m in (2, 3, 4, 5, 6, 7):
            for pat, count in pattern_census(m):
                mult = Counter(pat)
                ways = math.factorial(m)
                for k, nk in mult.items():
                    ways //= math.factorial(k) ** nk * math.factorial(nk)
                    ways *= (2 ** (k - 1) * math.factorial(k - 1)) ** nk
                assert count == ways

    def test_m4_census_values(self):
        assert dict(pattern_census(4)) == {
            (4,): 48,
            (3, 1): 32,
            (2, 2): 12,
            (2, 1, 1): 12,
            (1, 1, 1, 1): 1,
        }


class TestCountN:
    def test_small_values(self):
        assert count_n(1) == 0
        assert count_n(2) == 2
        assert count_n(3) == 8

    def test_matches_inclusion_exclusion(self):
        for m in range(1, 11):
            assert count_n(m) == count_n_formula(m)

    def test_recurrence_matches_inclusion_exclusion(self):
        # the single-trace series reads N_{2m} from the recurrence
        counts = matchings._count_n_recurrence(MAX_SERIES_ORDER)
        assert len(counts) == MAX_SERIES_ORDER + 1
        for m in range(1, MAX_SERIES_ORDER + 1):
            assert counts[m] == count_n_formula(m)

    def test_brute_force_definition(self):
        for m in (2, 3, 4):
            direct = sum(
                1
                for mt in enumerate_matchings(m)
                if not any(b == a + 1 and a % 2 == 1 for a, b in mt.pairs)
            )
            assert count_n(m) == direct


class TestMomentIntegral:
    def test_pair(self):
        assert moment_integral((0, 0)) == Fraction(1, 2)

    def test_parity_zero(self):
        assert moment_integral((0, 1)) == 0

    def test_fourth_power(self):
        assert moment_integral((0, 0, 0, 0)) == Fraction(1, 4)

    def test_odd_count_is_zero(self):
        assert moment_integral((0,)) == 0
        assert moment_integral((0, 0, 1)) == 0

    def test_empty_is_area(self):
        assert moment_integral(()) == Fraction(2)

    def test_at_the_guard(self):
        # m = 10: the 20 slots of one axis pair in 19!! ways
        assert moment_integral((0,) * 20) == c_coefficient(10) * 654_729_075

    def test_guards(self):
        with pytest.raises(ValueError):
            moment_integral((0,) * 22)
        with pytest.raises(ValueError):
            moment_integral((0, 4))

    def test_matches_matching_count_definition(self):
        rng = np.random.default_rng(97)
        for _ in range(25):
            m = int(rng.integers(1, 4))
            idx = tuple(int(v) for v in rng.integers(0, 4, 2 * m))
            direct = sum(
                1
                for mt in enumerate_matchings(m)
                if all(idx[a - 1] == idx[b - 1] for a, b in mt.pairs)
            )
            assert moment_integral(idx) == c_coefficient(m) * direct

    def test_against_quadrature(self):
        rng = np.random.default_rng(101)
        for _ in range(15):
            m = int(rng.integers(1, 5))
            idx = tuple(int(v) for v in rng.integers(0, 4, 2 * m))
            exact = float(moment_integral(idx)) * PI_SQ
            quad = product_sum(32, lambda x: np.prod([x[:, i] for i in idx], axis=0))
            if exact == 0.0:
                assert abs(quad) <= 1e-13
            else:
                assert abs(quad - exact) <= 1e-11 * abs(exact)


class TestPerturbedForm:
    def test_rejects_asymmetric(self):
        eps = np.zeros((4, 4))
        eps[0, 1] = 0.1
        with pytest.raises(ValueError, match="symmetric"):
            PerturbedForm(omega=1.0, eps=eps)

    def test_rejects_traceful(self):
        with pytest.raises(ValueError, match="traceless"):
            PerturbedForm(omega=1.0, eps=np.diag([0.1, 0.0, 0.0, 0.0]))

    def test_rejects_large_spectral_radius(self):
        with pytest.raises(ValueError, match="spectral radius"):
            PerturbedForm(omega=1.0, eps=np.diag([1.5, -0.5, -0.5, -0.5]))

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError, match="omega"):
            PerturbedForm(omega=0.0, eps=np.zeros((4, 4)))

    def test_spectral_radius(self):
        pf = PerturbedForm(omega=1.0, eps=np.diag([0.3, 0.3, -0.3, -0.3]))
        assert abs(pf.spectral_radius - 0.3) <= 1e-15

    def test_accepts_nested_lists_and_arrays_alike(self):
        eps = random_traceless(np.random.default_rng(3), 0.4)
        a, b = PerturbedForm(1.0, eps), PerturbedForm(1.0, eps.tolist())
        assert a == b
        assert all(type(x) is float for row in a.eps for x in row)

    @pytest.mark.parametrize("eps", [np.zeros((3, 3)), [0.0] * 16, np.zeros((4, 4, 1)),
                                     [[0.0] * 4] * 3 + [[0.0] * 5]])
    def test_rejects_wrong_shape(self, eps):
        with pytest.raises(ValueError, match="eps must be 4x4, got shape"):
            PerturbedForm(omega=1.0, eps=eps)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="eps has non-finite entries"):
            PerturbedForm(omega=1.0, eps=np.diag([math.inf, 0.0, 0.0, 0.0]))


def givens(n_rotations, rng, mat):
    """mat conjugated by n_rotations seeded Givens rotations."""
    for _ in range(n_rotations):
        p, q = rng.choice(4, 2, replace=False)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        g = np.eye(4)
        g[p, p] = g[q, q] = np.cos(angle)
        g[p, q], g[q, p] = np.sin(angle), -np.sin(angle)
        mat = g @ mat @ g.T
    return 0.5 * (mat + mat.T)


class TestJacobi:
    """The pure-Python eigensolve of a symmetric 4x4, with numpy's LAPACK
    eigvalsh as the reference.  Against 50-digit eigenvalues of 1,500 draws
    like those below, the Jacobi values were within 4 ulp of rho and
    eigvalsh's within 10, so the two may differ by 14."""

    def test_matches_eigvalsh(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            rho = math.exp(rng.uniform(math.log(1e-8), math.log(0.999)))
            eps = random_traceless(rng, rho)
            ref = np.linalg.eigvalsh(eps).tolist()
            got = matchings._spectrum(eps.tolist())
            assert got == sorted(got)
            ulp = math.ulp(max(map(abs, ref)))
            assert max(abs(g - r) for g, r in zip(got, ref)) <= 16 * ulp
            pf = PerturbedForm(omega=1.0, eps=eps)
            assert pf.spectral_radius == max(map(abs, got))

    @pytest.mark.parametrize("diag", [(0.125, -0.0625, 0.03125, -0.09375),
                                      (0.0, -0.0, 0.0, -0.0),
                                      (1e-300, -3e-310, 0.75, -0.75),
                                      (1e300, 5e-324, -1e300, 0.1)])
    def test_diagonal_is_exact_with_no_rotation(self, monkeypatch, diag):
        # with no sweep allowed, only a matrix that needs no rotation passes
        monkeypatch.setattr(matchings, "_JACOBI_SWEEPS", 0)
        got = matchings._symmetric_eigenvalues(np.diag(diag).tolist())
        assert got == sorted(got)
        signed = sorted((v, math.copysign(1.0, v)) for v in got)
        assert signed == sorted((v, math.copysign(1.0, v)) for v in diag)

    def test_sweeps_are_capped(self, monkeypatch):
        monkeypatch.setattr(matchings, "_JACOBI_SWEEPS", 2)
        mat = random_traceless(np.random.default_rng(7), 0.5).tolist()
        with pytest.raises(AssertionError, match="Jacobi rotations"):
            matchings._symmetric_eigenvalues(mat)

    def test_repeated_eigenvalues_converge(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            mat = givens(6, rng, np.diag(rng.permutation([0.3, 0.3, -0.3, -0.3])))
            got = matchings._spectrum(mat.tolist())
            assert max(abs(g - r) for g, r in zip(got, [-0.3, -0.3, 0.3, 0.3])) \
                <= 8 * math.ulp(0.3)

    def test_power_of_two_scaling_is_exact(self):
        # the solve runs on the matrix scaled to a largest entry in
        # [1/2, 1): any power of two in the data scales the values exactly
        eps = random_traceless(np.random.default_rng(5), 0.7).tolist()
        base = matchings._spectrum(eps)
        for k in (-990, -500, -1, 1, 500, 1000):
            scaled = [[math.ldexp(x, k) for x in row] for row in eps]
            assert matchings._spectrum(scaled) == [math.ldexp(v, k) for v in base]

    @pytest.mark.parametrize("size", [1e300, 1.7e308, 1e-300, 5e-324])
    def test_extreme_off_diagonal_entries(self, size):
        # eigenvalues 2.56, -1.56, -1 and 0 times size, beyond double range
        # at 1.7e308: the largest comes back infinite, with no exception
        a = [[0.0, size, size, 0.0], [size, 0.0, size, size],
             [size, size, 0.0, size], [0.0, size, size, 0.0]]
        got = matchings._spectrum(a)
        ref = [(1 - math.sqrt(17)) / 2, -1.0, 0.0, (1 + math.sqrt(17)) / 2]
        for g, r in zip(got, ref):
            if abs(r * size) > 1.7976931348623157e308:
                assert g == math.copysign(math.inf, r)
            else:
                assert abs(g - r * size) <= 1e-15 * 2.6 * size + 2 * 5e-324


class TestSeries:
    def test_zero_perturbation(self):
        pf = PerturbedForm(omega=2.0, eps=np.zeros((4, 4)))
        assert series_exact(pf, 4) == TWO_PI_SQ / 2.0
        assert compare_series(pf, 4).value_single_trace == TWO_PI_SQ / 2.0

    def test_exact_quadratic_coefficient(self):
        rng = np.random.default_rng(103)
        eps = random_traceless(rng, 0.2)
        pf = PerturbedForm(omega=1.3, eps=eps)
        tr2 = float(np.trace(eps @ eps))
        expect = (TWO_PI_SQ + PI_SQ / 6.0 * tr2) / 1.3
        assert abs(series_exact(pf, 2) - expect) <= 1e-13 * abs(expect)

    def test_single_trace_quadratic_coefficient(self):
        rng = np.random.default_rng(107)
        eps = random_traceless(rng, 0.2)
        pf = PerturbedForm(omega=1.0, eps=eps)
        tr2 = float(np.trace(eps @ eps))
        expect = TWO_PI_SQ + TWO_PI_SQ / 3.0 * tr2
        got = compare_series(pf, 2).value_single_trace
        assert abs(got - expect) <= 1e-13 * abs(expect)

    def test_odd_traces_drop_for_balanced_diagonal(self):
        eta = 0.05
        pf = PerturbedForm(omega=1.0, eps=np.diag([eta, eta, -eta, -eta]))
        expect = TWO_PI_SQ + TWO_PI_SQ / 3.0 * 4 * eta**2
        got = compare_series(pf, 3).value_single_trace
        assert abs(got - expect) <= 1e-13 * expect

    def test_permutation_conjugation_invariance(self):
        rng = np.random.default_rng(109)
        eps = random_traceless(rng, 0.3)
        pf = PerturbedForm(omega=1.0, eps=eps)
        base = series_exact(pf, 5)
        for _ in range(5):
            p = rng.permutation(4)
            pmat = np.eye(4)[p]
            conj = PerturbedForm(omega=1.0, eps=pmat.T @ eps @ pmat)
            assert abs(series_exact(conj, 5) - base) <= 1e-13 * abs(base)

    def test_truncation_tail_bound(self):
        rng = np.random.default_rng(113)
        for order in (3, 4, 5):
            for _ in range(4):
                rho = float(rng.uniform(0.02, 0.1))
                pf = PerturbedForm(
                    omega=float(rng.uniform(0.5, 2.0)),
                    eps=random_traceless(rng, rho),
                )
                quad = rational_integral(matchings._eigenvalues(pf))
                trunc = series_exact(pf, order)
                bound = 10.0 * rho ** (order + 1) * TWO_PI_SQ / pf.omega
                assert abs(trunc - quad) <= bound

    @pytest.mark.parametrize("omega", [2e-308, 1e-320, 5e-324])
    def test_overflow_raises_value_error(self, omega):
        # 2 pi^2 / Omega overflows: no OverflowError and no Infinity
        pf = PerturbedForm(omega=omega, eps=np.diag([0.5, 0.0, 0.0, -0.5]))
        with pytest.raises(ValueError, match="overflows double precision"):
            series_exact(pf, 4)

    def test_order_guards(self):
        pf = PerturbedForm(omega=1.0, eps=np.zeros((4, 4)))
        with pytest.raises(ValueError, match="exceeds the guard 100"):
            series_exact(pf, 101)
        with pytest.raises(ValueError, match="exceeds the guard 100"):
            compare_series(pf, 101)
        with pytest.raises(ValueError):
            compare_series(pf, 1)


class TestExponentialFormula:
    def test_recurrence_matches_census(self):
        # the census is the recurrence's independent check: each term, in
        # units of 2 pi^2 / Omega, against (-1)^m / (m! 2^m (m+1)) times the
        # sum over cycle types of count * prod tr
        rng = np.random.default_rng(139)
        for _ in range(200):
            eps = random_traceless(rng, float(rng.uniform(0.01, 0.9)))
            traces = matchings._trace_powers(eps, MAX_MATCHING_ORDER)
            terms = matchings._exact_terms(MAX_MATCHING_ORDER, traces)
            assert terms[0] == 1.0
            for m in range(1, MAX_MATCHING_ORDER + 1):
                census_sum = math.fsum(
                    count * math.prod(traces[k] for k in pat)
                    for pat, count in pattern_census(m)
                )
                expect = (-1) ** m * census_sum / (math.factorial(m) * 2**m * (m + 1))
                if abs(expect) > 1e-14:
                    assert abs(terms[m] - expect) <= 1e-15 * abs(expect)

    def test_recurrence_matches_census_exactly(self):
        # on Fraction traces of an integer eps the recurrence is exact:
        # m! 2^m a_m is the census sum of count * prod tr(eps^k)
        rng = np.random.default_rng(163)
        for _ in range(20):
            eps = rng.integers(-3, 4, (4, 4)).tolist()
            eps = [[eps[i][j] + eps[j][i] for j in range(4)] for i in range(4)]
            eps[3][3] -= sum(eps[i][i] for i in range(4))
            traces, power = [None], [[int(i == j) for j in range(4)] for i in range(4)]
            for _ in range(MAX_MATCHING_ORDER):
                power = [[sum(power[i][k] * eps[k][j] for k in range(4)) for j in range(4)]
                         for i in range(4)]
                traces.append(Fraction(sum(power[i][i] for i in range(4))))
            a = matchings._wick_coefficients(MAX_MATCHING_ORDER, traces)
            for m in range(1, MAX_MATCHING_ORDER + 1):
                census_sum = sum(count * math.prod(traces[k] for k in pat)
                                 for pat, count in pattern_census(m))
                assert math.factorial(m) * 2**m * a[m] == census_sum

    def test_trace_powers_from_entries(self):
        # integer entries keep every product below 2^53, so each trace is
        # exact; a traceless eps keeps tr(eps) = +0, so the order-1 exact
        # term prints -0
        rng = np.random.default_rng(167)
        for _ in range(20):
            eps = rng.integers(-3, 4, (4, 4))
            eps = eps + eps.T
            eps[3, 3] -= np.trace(eps)
            exact = [0] + [int(np.trace(np.linalg.matrix_power(eps, k))) for k in range(1, 7)]
            assert matchings._trace_powers(eps.astype(float), 6) == exact
        for diag in ([0.125, -0.0625, 0.03125, -0.09375], [0.5, 0.25, -0.25, -0.5]):
            traces = matchings._trace_powers(np.diag(diag).tolist(), 3)
            assert math.copysign(1.0, traces[1]) == 1.0 and traces[1] == 0.0
        eps = random_traceless(np.random.default_rng(173), 0.9)
        got = matchings._trace_powers(eps.tolist(), 20)
        for k in range(1, 21):
            ref = float(np.trace(np.linalg.matrix_power(eps, k)))
            assert abs(got[k] - ref) <= 1e-14 * 0.9**k

    def test_series_path_never_reads_census(self, monkeypatch):
        def refuse(m):
            raise AssertionError("pattern_census called on the series path")

        monkeypatch.setattr(matchings, "pattern_census", refuse)
        rng = np.random.default_rng(149)
        pf = PerturbedForm(omega=1.3, eps=random_traceless(rng, 0.5))
        assert math.isfinite(series_exact(pf, 100))
        assert math.isfinite(compare_series(pf, 8).value_exact)

    @pytest.mark.parametrize("rho, bound", [(0.05, 1e-15), (0.5, 4e-15)])
    def test_order_40_matches_closed_form(self, rho, bound):
        # against the closed form; the series converges geometrically at the
        # rate rho: at order 40 the last term is 1e-55 of the sum at
        # rho = 0.05, 1e-15 at 0.5
        rng = np.random.default_rng(151)
        for _ in range(5):
            pf = PerturbedForm(omega=1.3, eps=random_traceless(rng, rho))
            cmp_ = compare_series(pf, 40)
            quad = cmp_.value_quadrature
            assert abs(cmp_.value_exact - quad) <= bound * quad

    def test_highest_order_terms_finite(self):
        rng = np.random.default_rng(157)
        pf = PerturbedForm(omega=1.0, eps=random_traceless(rng, 0.99))
        cmp_ = compare_series(pf, MAX_SERIES_ORDER)
        assert MAX_SERIES_ORDER == 100
        for term in cmp_.terms_exact + cmp_.terms_single_trace:
            assert math.isfinite(term)
        assert math.isfinite(series_exact(pf, MAX_SERIES_ORDER))


class TestCompareSeries:
    def test_zero_perturbation_all_agree(self):
        pf = PerturbedForm(omega=1.7, eps=np.zeros((4, 4)))
        cmp_ = compare_series(pf, 3)
        expect = TWO_PI_SQ / 1.7
        for val in (cmp_.value_exact, cmp_.value_single_trace, cmp_.value_quadrature):
            assert abs(val - expect) <= 1e-12 * expect

    def test_quadratic_ratio_is_four(self):
        rng = np.random.default_rng(127)
        pf = PerturbedForm(omega=1.0, eps=random_traceless(rng, 0.1))
        cmp_ = compare_series(pf, 4)
        assert cmp_.ratios_single_trace_vs_exact[2] == pytest.approx(4.0, rel=1e-12)

    def test_order_one_single_trace_term_is_positive_zero(self):
        # N_2 = 0: the term is +0 whatever the sign of the rounded tr(eps)
        for last in (-1e-17, 0.0, 1e-17):
            pf = PerturbedForm(omega=1.0, eps=np.diag([0.1, -0.05, -0.05, last]))
            term = compare_series(pf, 2).terms_single_trace[1]
            assert term == 0.0 and math.copysign(1.0, term) == 1.0

    def test_multi_cycle_pattern_breaks_single_trace_form(self):
        # tr(eps^3) = 0 but tr(eps^4) != 0: at order 4 the exact expansion
        # keeps the tr(eps^2)^2 pattern the single-trace form cannot express
        eta = 0.05
        pf = PerturbedForm(omega=1.0, eps=np.diag([eta, -eta, eta, -eta]))
        cmp_ = compare_series(pf, 4)
        tr2 = 4 * eta**2
        tr4 = 4 * eta**4
        c4 = float(c_coefficient(4)) * PI_SQ
        expect_exact = c4 * (48 * tr4 + 12 * tr2**2)
        assert cmp_.terms_exact[4] == pytest.approx(expect_exact, rel=1e-12)
        expect_single = 16.0 * c4 * 60 * tr4
        assert cmp_.terms_single_trace[4] == pytest.approx(expect_single, rel=1e-12)
        tail = 10.0 * eta**5 * TWO_PI_SQ
        assert abs(cmp_.value_exact - cmp_.value_quadrature) <= tail
        assert cmp_.terms_single_trace[4] != pytest.approx(expect_exact, rel=1e-3)

    def test_value_exact_is_series_exact(self):
        # both sum the same per-order terms, so they agree to the bit
        rng = np.random.default_rng(131)
        for _ in range(200):
            pf = PerturbedForm(
                omega=float(np.exp(rng.uniform(-0.7, 0.7))),
                eps=random_traceless(rng, float(rng.uniform(0.01, 0.9))),
            )
            order = int(rng.integers(2, 9))
            cmp_ = compare_series(pf, order)
            assert series_exact(pf, order) == cmp_.value_exact

    def test_dict_round_trip(self):
        pf = PerturbedForm(omega=1.0, eps=np.zeros((4, 4)))
        d = compare_series(pf, 2).to_dict()
        assert set(d) >= {
            "value_exact",
            "value_single_trace",
            "value_quadrature",
            "terms_exact",
            "terms_single_trace",
            "ratios_single_trace_vs_exact",
        }
