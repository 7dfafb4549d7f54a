import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from doubled_spectral import (
    DiagonalMetric,
    build_rule,
    kinetic_term,
    potential_elliptic,
    potential_numeric,
    rational_integral,
    s3quad,
)
from doubled_spectral.geometry import MAX_LEVEL, MIN_LEVEL
from doubled_spectral.matchings import PerturbedForm
from conftest import draw_scales, full_product_set, potential_1d, product_sum, unfolded

TWO_PI_SQ = 2.0 * math.pi**2
# level 26: the k = level/2 angle rounds past pi/2, where its cosine is
# -1.6e-16 rather than 0
FOLD_LEVELS = [4, 5, 7, 8, 16, 26, 64]


class TestRule:
    def test_level_guard(self, monkeypatch):
        with pytest.raises(ValueError):
            build_rule(3)

        # above MAX_LEVEL the guard fires before any factor is computed;
        # level 2000000 used to ask numpy for a 29 TiB companion matrix
        def no_factors(level):
            raise AssertionError(f"factors of level {level} computed")

        monkeypatch.setattr(s3quad, "_factors", no_factors)
        for level in (MAX_LEVEL + 1, 2_000_000):
            with pytest.raises(ValueError, match=f"level must be <= {MAX_LEVEL}"):
                build_rule(level)

    def test_node_count_and_invariants(self):
        # odd levels and even ones, whose k = level/2 orbit has 2 members
        for level in FOLD_LEVELS:
            rule = build_rule(level)
            k = level // 2 + 1
            assert rule.node_count == 4 * level**3
            assert rule.t_factor.shape == (2, level)
            assert rule.t_weights.shape == (level,)
            assert rule.angle_factor.shape == (2, k)
            assert rule.angle_weights.shape == (k,)
            area = (
                math.fsum(rule.t_weights.tolist())
                * math.fsum(rule.angle_weights.tolist()) ** 2
            )
            assert abs(area - TWO_PI_SQ) <= 1e-12 * TWO_PI_SQ
            for rows in (rule.t_factor, rule.angle_factor):
                assert float(np.abs(rows[0] + rows[1] - 1.0).max()) <= 1e-14
                assert np.all(rows >= 0)
            assert np.all(rule.t_weights > 0)
            assert np.all(rule.angle_weights > 0)
            # the fold is the only node set, stored as its factors
            fields = [f.name for f in dataclasses.fields(rule)]
            assert fields == [
                "level", "t_factor", "t_weights", "angle_factor", "angle_weights"
            ]

    def test_rule_arrays_read_only(self, rule8):
        with pytest.raises(ValueError):
            rule8.t_factor[0, 0] = 0.0
        with pytest.raises(ValueError):
            rule8.t_weights[0] = 0.0
        with pytest.raises(ValueError):
            rule8.angle_factor[0, 0] = 0.0
        with pytest.raises(ValueError):
            rule8.angle_weights[0] = 0.0

    def test_evaluator_and_build_memory(self):
        # the rule stores no node array, and the evaluators sum a plane
        g1 = DiagonalMetric((0.7, 1.3, 1.1, 0.9))
        g2 = DiagonalMetric((1.2, 0.8, 0.6, 1.5))
        pf = PerturbedForm(omega=1.0, eps=np.diag([0.3, -0.1, -0.4, 0.2]))
        rule = s3quad._factors(64)
        tracemalloc.start()
        try:
            potential_numeric(g1, g2, rule)
            rational_integral(pf, rule)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            s3quad._factors(MAX_LEVEL)
            _, build_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert build_peak < 8e6

    def test_no_evaluator_allocates_the_product_set(self):
        g1 = DiagonalMetric((0.7, 1.3, 1.1, 0.9))
        g2 = DiagonalMetric((1.2, 0.8, 0.6, 1.5))
        pf = PerturbedForm(omega=1.0, eps=np.diag([0.3, -0.1, -0.4, 0.2]))
        rule = build_rule(36)  # a new rule, so the plane sum is not memoized
        tracemalloc.start()
        try:
            potential_numeric(g1, g2, rule)
            rational_integral(pf, rule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # nodes (4 floats) and weights (1 float) of the 4 L^3 product set
        product_bytes = rule.node_count * 5 * 8
        assert peak < product_bytes / 4


# 30-digit nonnegative nodes (ascending) and their weights of the level-8
# and level-64 Gauss-Legendre rules on [-1, 1]: Newton's method on P_n in
# 50-digit arithmetic (mpmath 1.3), checked there against P_n(x) = 0 and
# the weight sum 2
GAUSS_LEGENDRE_REFERENCE = {
    8: [
        ("0.183434642495649804939476142360", "0.362683783378361982965150449277"),
        ("0.525532409916328985817739049189", "0.313706645877887287337962201987"),
        ("0.796666477413626739591553936476", "0.222381034453374470544355994426"),
        ("0.960289856497536231683560868569", "0.101228536290376259152531354310"),
    ],
    64: [
        ("0.0243502926634244325089558428537", "0.0486909570091397203833653907347"),
        ("0.0729931217877990394495429419403", "0.0485754674415034269347990667840"),
        ("0.121462819296120554470376463492", "0.0483447622348029571697695271580"),
        ("0.169644420423992818037313629748", "0.0479993885964583077281261798713"),
        ("0.217423643740007084149648748989", "0.0475401657148303086622822069442"),
        ("0.264687162208767416373964172510", "0.0469681828162100173253262857546"),
        ("0.311322871990210956157512698560", "0.0462847965813144172959532492323"),
        ("0.357220158337668115950442615046", "0.0454916279274181444797709969713"),
        ("0.402270157963991603695766771260", "0.0445905581637565630601347100309"),
        ("0.446366017253464087984947714759", "0.0435837245293234533768278609737"),
        ("0.489403145707052957478526307022", "0.0424735151236535890073397679088"),
        ("0.531279464019894545658013903544", "0.0412625632426235286101562974736"),
        ("0.571895646202634034283878116659", "0.0399537411327203413866569261283"),
        ("0.611155355172393250248852971019", "0.0385501531786156291289624969468"),
        ("0.648965471254657339857761231993", "0.0370551285402400460404151018096"),
        ("0.685236313054233242563558371031", "0.0354722132568823838106931467152"),
        ("0.719881850171610826848940217832", "0.0338051618371416093915654821107"),
        ("0.752819907260531896611863774886", "0.0320579283548515535854675043479"),
        ("0.783972358943341407610220525214", "0.0302346570724024788679740598195"),
        ("0.813265315122797559741923338086", "0.0283396726142594832275113052002"),
        ("0.840629296252580362751691544696", "0.0263774697150546586716917926252"),
        ("0.865999398154092819760783385070", "0.0243527025687108733381775504091"),
        ("0.889315445995114105853404038273", "0.0222701738083832541592983303842"),
        ("0.910522137078502805756380668008", "0.0201348231535302093723403167285"),
        ("0.929569172131939575821490154559", "0.0179517157756973430850453020011"),
        ("0.946411374858402816062481491347", "0.0157260304760247193219659952975"),
        ("0.961008799652053718918614121897", "0.0134630478967186425980607666860"),
        ("0.973326827789910963741853507352", "0.0111681394601311288185904930192"),
        ("0.983336253884625956931299302157", "0.00884675982636394772303091465973"),
        ("0.991013371476744320739382383443", "0.00650445796897836285611736039998"),
        ("0.996340116771955279346924500676", "0.00414703326056246763528753572855"),
        ("0.999305041735772139456905624346", "0.00178328072169643294729607914497"),
    ],
}


def exactness_error(x, w):
    """Worst |(k+1) sum_i w_i t_i^k / 2 - 1| over k < 2 len(x), with
    t = (1 + x)/2: the error of the rule on the monomials of [0, 1] that it
    integrates exactly."""
    t = 0.5 * (1.0 + x)
    k = np.arange(2 * len(x))
    moments = np.sum(0.5 * w * t ** k[:, None], axis=1)
    return float(np.max(np.abs((k + 1) * moments - 1.0)))


class TestGaussLegendre:
    LEVELS = range(MIN_LEVEL, MAX_LEVEL + 1)

    def test_matches_leggauss(self):
        # leggauss is the eigensolve the package no longer calls; nodes are
        # compared in ulps of max(|x|, 1/2), the ulp of the t rows (1 -+ x)/2
        # of a node near 0, whose relative accuracy neither rule keeps
        eps = np.finfo(float).eps
        for level in self.LEVELS:
            x, w = s3quad._gauss_legendre(level)
            xr, wr = np.polynomial.legendre.leggauss(level)
            ulp = np.spacing(np.maximum(np.abs(xr), 0.5))
            assert np.all(np.abs(x - xr) <= 2 * ulp), level
            assert np.all(x[1:] > x[:-1]) and np.array_equal(x, -x[::-1])
            assert np.array_equal(w, w[::-1])
            # against 34-digit references leggauss's weights are off by up
            # to 1.6e-10 (level 246), the package's by 4.1e-13
            assert float(np.max(np.abs(w - wr) / wr)) <= 2e-10, level
            # a correctly rounded rule reads up to 11 eps here (level 22), so
            # below 8 eps the figure measures its own rounding
            assert exactness_error(x, w) <= 2 * max(
                exactness_error(xr, wr), 8 * eps
            ), level

    @pytest.mark.parametrize("level", sorted(GAUSS_LEGENDRE_REFERENCE))
    def test_thirty_digit_reference(self, level):
        half = GAUSS_LEGENDRE_REFERENCE[level]
        xr = np.array([float(v) for v, _ in half])
        wr = np.array([float(v) for _, v in half])
        xr = np.concatenate([-xr[::-1], xr])
        wr = np.concatenate([wr[::-1], wr])
        x, w = s3quad._gauss_legendre(level)
        assert np.all(np.abs(x - xr) <= np.spacing(np.abs(xr)))
        # leggauss: 8.0e-15 at level 8, 1.3e-12 at level 64
        assert float(np.max(np.abs(w - wr) / wr)) <= 3e-14

    def test_build_calls_no_linear_algebra(self, monkeypatch):
        # the nodes used to come from numpy.polynomial's eigvalsh of the
        # Legendre companion matrix
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in np.linalg.__all__:
            if not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, refuse)
        for level in (64, MAX_LEVEL):
            assert build_rule(level).level == level


class TestKinetic:
    def test_euclidean(self):
        g = DiagonalMetric((1, 1, 1, 1))
        assert abs(kinetic_term(g, g) - 2 * TWO_PI_SQ) <= 1e-12 * TWO_PI_SQ

    def test_uniform_scaling(self):
        lam = 1.3
        g = DiagonalMetric((lam,) * 4)
        expect = 2 * TWO_PI_SQ * lam**4
        assert abs(kinetic_term(g, g) - expect) <= 1e-12 * expect

    def test_two_constant_sheets(self):
        g1 = DiagonalMetric((1, 1, 1, 1))
        g2 = DiagonalMetric((2, 2, 2, 2))
        expect = TWO_PI_SQ * (1 + 16)
        assert abs(kinetic_term(g1, g2) - expect) <= 1e-12 * expect

    def test_wide_ratio(self):
        # the level-64 rule's sum is 0.46% off here
        g1 = DiagonalMetric((30, 30, 1, 1))
        g2 = DiagonalMetric((1, 1, 1, 1))
        expect = TWO_PI_SQ * 901
        assert abs(kinetic_term(g1, g2) - expect) <= 1e-15 * expect

    def test_rule_checks_the_identity(self):
        rng = np.random.default_rng(67)
        for _ in range(5):
            g1 = DiagonalMetric(draw_scales(rng))
            g2 = DiagonalMetric(draw_scales(rng))
            c1 = 1.0 / np.array(g1.scales) ** 2
            c2 = 1.0 / np.array(g2.scales) ** 2
            val = product_sum(64, lambda x: ((x * x) @ c1) ** -2 + ((x * x) @ c2) ** -2)
            expect = kinetic_term(g1, g2)
            assert abs(val - expect) <= 1e-13 * expect

    def test_overflow_rejected(self):
        g = DiagonalMetric((1e100, 1e100, 1e100, 1e100))
        with pytest.raises(ValueError, match="overflows"):
            kinetic_term(g, DiagonalMetric((1, 1, 1, 1)))


@pytest.mark.parametrize(
    "scales", [(1e200, 1.0, 1.0, 1.0), (1.0, 1.0, 1e-160, 1e-160)],
    ids=["inverse-square-zero", "inverse-square-inf"],
)
@pytest.mark.parametrize("evaluator", [potential_numeric], ids=["potential"])
def test_out_of_range_scale_rejected(rule8, evaluator, scales):
    # 1/a^2 = 0 or inf: the sums used to come out NaN or silently wrong
    g = DiagonalMetric((1.0, 1.0, 1.0, 1.0))
    for pair in ((DiagonalMetric(scales), g), (g, DiagonalMetric(scales))):
        with pytest.raises(ValueError, match="1/a\\^2"):
            evaluator(*pair, rule8)


class TestPotential:
    def test_convergence_under_doubling(self, rule16, rule32, rule64):
        # eccentric pair so the level-16 error is far above the float floor
        g1 = DiagonalMetric((0.5, 2.0, 0.5, 2.0))
        g2 = DiagonalMetric((1.9, 0.6, 1.4, 0.52))
        v16 = potential_numeric(g1, g2, rule16)
        v32 = potential_numeric(g1, g2, rule32)
        v64 = potential_numeric(g1, g2, rule64)
        d1 = abs(v32 - v16)
        d2 = abs(v64 - v32)
        assert d1 > 1e-13 * abs(v64)
        assert d2 <= d1 / 10.0

    def test_equal_metrics_exactly_zero(self, rule16):
        rng = np.random.default_rng(23)
        g = DiagonalMetric(draw_scales(rng))
        assert potential_numeric(g, g, rule16) == 0.0

    @pytest.mark.parametrize("scale", [1e-150, 1e-80, 1.0, 1e80, 1e150])
    def test_equal_metrics_exactly_zero_at_any_scale(self, rule64, scale):
        rng = np.random.default_rng(19)
        g = DiagonalMetric(tuple(scale * a for a in draw_scales(rng)))
        assert potential_numeric(g, g, rule64) == 0.0

    @pytest.mark.parametrize("delta", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_nearly_equal_metrics_against_elliptic(self, rule64, delta):
        # d_j = (1/a2_j - 1/a1_j)^2 cancelled here: 3.5e-13 off at
        # delta = 1e-4, 3.8e-9 at 1e-8 and 4.0e-5 at 1e-12
        a1 = (1.3, 0.7, 1.1, 0.9)
        a2 = tuple(a * (1 + delta * (j + 1)) for j, a in enumerate(a1))
        g1, g2 = DiagonalMetric(a1), DiagonalMetric(a2)
        expect = potential_elliptic(g1, g2)
        assert abs(potential_numeric(g1, g2, rule64) - expect) <= 1e-14 * expect

    def test_power_of_two_scaling_is_exact(self, rule64):
        # V(2^k g1, 2^k g2) = 2^(4k) V(g1, g2), bit for bit, also at scales
        # where the integrand's Q1^2 Q2^2 overflows (k = -150) or underflows
        # (k = 150)
        rng = np.random.default_rng(17)
        a1 = np.array(draw_scales(rng))
        a2 = np.array(draw_scales(rng))
        base = potential_numeric(DiagonalMetric(tuple(a1)), DiagonalMetric(tuple(a2)), rule64)
        for k in (-150, -41, -1, 1, 30, 150):
            g1 = DiagonalMetric(tuple(np.ldexp(a1, k)))
            g2 = DiagonalMetric(tuple(np.ldexp(a2, k)))
            assert potential_numeric(g1, g2, rule64) == math.ldexp(base, 4 * k)

    def test_scaled_box_against_1d_integral(self, rule64):
        # the box [0.35, 2.8] that the invariance suite's rescaling reaches
        rng = np.random.default_rng(43)
        for _ in range(20):
            g1 = DiagonalMetric(draw_scales(rng, 0.35, 2.8))
            g2 = DiagonalMetric(draw_scales(rng, 0.35, 2.8))
            expect = potential_1d(g1, g2)
            assert abs(potential_numeric(g1, g2, rule64) - expect) <= 1e-8 * expect

    @pytest.mark.parametrize(
        "scales", [(1e-10, 1, 1, 1), (1e-30, 1e-30, 1, 1), (1e-70, 1, 1, 1)]
    )
    def test_wide_axes_on_psi_against_1d_integral(self, rule64, scales):
        # the smallest scales go on psi, whose integral is exact, and the
        # sum stays finite up to a 1e140 spread of the 1/a^2
        g1, g2 = DiagonalMetric(scales), DiagonalMetric((1, 1, 1, 1))
        expect = potential_1d(g1, g2)
        assert abs(potential_numeric(g1, g2, rule64) - expect) <= 1e-11 * expect

    def test_hopf_reduction_value(self, rule32):
        g1 = DiagonalMetric((2, 2, 1, 1))
        g2 = DiagonalMetric((1, 1, 1, 1))
        val = potential_numeric(g1, g2, rule32)
        assert abs(val - TWO_PI_SQ) <= 1e-10 * TWO_PI_SQ

    def test_swap_symmetry(self, rule32):
        rng = np.random.default_rng(29)
        for _ in range(10):
            g1 = DiagonalMetric(draw_scales(rng))
            g2 = DiagonalMetric(draw_scales(rng))
            a = potential_numeric(g1, g2, rule32)
            b = potential_numeric(g2, g1, rule32)
            assert abs(a - b) <= 1e-10 * a

    def test_nonnegative(self, rule16):
        rng = np.random.default_rng(31)
        for _ in range(10):
            g1 = DiagonalMetric(draw_scales(rng))
            g2 = DiagonalMetric(draw_scales(rng))
            assert potential_numeric(g1, g2, rule16) >= 0.0

    @pytest.mark.parametrize("level", FOLD_LEVELS)
    def test_fold_matches_full_rule(self, level):
        rule = build_rule(level)
        # the same evaluators, run over the unfolded product rule
        full_rule = unfolded(rule)
        rng = np.random.default_rng(53)
        pairs = [
            (DiagonalMetric(draw_scales(rng)), DiagonalMetric(draw_scales(rng)))
            for _ in range(5)
        ]
        pairs.append((DiagonalMetric((1, 1, 1, 1)), DiagonalMetric((100, 1, 0.5, 1))))
        for g1, g2 in pairs:
            folded = potential_numeric(g1, g2, rule)
            full = potential_numeric(g1, g2, full_rule)
            assert abs(folded - full) <= 1e-14 * abs(full)

    def test_joint_permutation_invariance(self, rule32):
        rng = np.random.default_rng(37)
        for _ in range(8):
            g1 = DiagonalMetric(draw_scales(rng))
            g2 = DiagonalMetric(draw_scales(rng))
            p = [int(i) for i in rng.permutation(4)]
            g1p = DiagonalMetric(tuple(g1.scales[i] for i in p))
            g2p = DiagonalMetric(tuple(g2.scales[i] for i in p))
            # the canonical axis order makes it exact
            assert potential_numeric(g1p, g2p, rule32) == potential_numeric(g1, g2, rule32)


class TestRationalIntegral:
    def test_identity_form(self, rule8):
        pf = PerturbedForm(omega=1.0, eps=np.zeros((4, 4)))
        val = rational_integral(pf, rule8)
        assert abs(val - TWO_PI_SQ) <= 1e-13 * TWO_PI_SQ

    def test_omega_scaling_constant(self, rule8):
        pf = PerturbedForm(omega=3.0, eps=np.zeros((4, 4)))
        val = rational_integral(pf, rule8)
        assert abs(val - TWO_PI_SQ / 3) <= 1e-13 * TWO_PI_SQ

    def test_omega_scaling_generic(self, rule16):
        rng = np.random.default_rng(41)
        raw = rng.standard_normal((4, 4))
        eps = 0.1 * (raw + raw.T)
        eps -= np.eye(4) * (np.trace(eps) / 4)
        one = rational_integral(PerturbedForm(omega=1.0, eps=eps), rule16)
        scaled = rational_integral(PerturbedForm(omega=2.5, eps=eps), rule16)
        assert abs(scaled - one / 2.5) <= 1e-13 * abs(one)

    @pytest.mark.parametrize("rho", [0.05, 0.5])
    @pytest.mark.parametrize("level", [32, 64])
    def test_eigenbasis_matches_general_form(self, level, rho):
        # the level-64 product rule applied to xi^T A xi, with no rotation;
        # with psi in closed form a level-32 value is no longer the level-32
        # product rule regrouped, and the level-64 one is the closer reference
        rng = np.random.default_rng(59)
        raw = rng.standard_normal((4, 4))
        eps = raw + raw.T
        eps -= np.eye(4) * (np.trace(eps) / 4)
        eps *= rho / np.abs(np.linalg.eigvalsh(eps)).max()
        pf = PerturbedForm(omega=1.7, eps=eps)
        amat = pf.omega * (np.eye(4) + eps)
        xi, w = full_product_set(64)
        q = np.einsum("ni,ij,nj->n", xi, amat, xi)
        reference = math.fsum((w / q).tolist())
        val = rational_integral(pf, build_rule(level))
        assert abs(val - reference) <= 1e-14 * reference

    def test_asymmetric_eps_uses_symmetric_part(self, rule16):
        # xi^T A xi sees only the symmetric part of A
        rng = np.random.default_rng(61)
        raw = 0.1 * rng.standard_normal((4, 4))
        sym = SimpleNamespace(omega=1.2, eps=0.5 * (raw + raw.T))
        asym = SimpleNamespace(omega=1.2, eps=raw)
        assert rational_integral(asym, rule16) == rational_integral(sym, rule16)

    def test_indefinite_form_rejected(self, rule8, rule64):
        # bypasses PerturbedForm validation.  The second form has the
        # eigenvalue -1e-4, yet xi^T A xi > 0 at every node of either rule.
        for eps in (np.diag([-3.0, 1.0, 1.0, 1.0]), np.diag([-1.0001, 0.0, 0.0, 0.0])):
            bad = SimpleNamespace(omega=1.0, eps=eps)
            for rule in (rule8, rule64):
                with pytest.raises(ValueError, match="positive definite"):
                    rational_integral(bad, rule)

    def test_overflowing_sum_rejected(self, rule8):
        # the form is positive at every node, but 1/(xi^T A xi) overflows
        tiny = PerturbedForm(omega=1e-320, eps=np.zeros((4, 4)))
        with pytest.raises(ValueError, match="rational integral .* is not finite"):
            rational_integral(tiny, rule8)


class TestPsiClosedForms:
    """The psi integrals of the plane against a 4,096-point periodic
    trapezoid, which is exact to rounding for forms whose X / Y stays
    within 1e3 of 1."""

    N = 4096

    def trapezoid(self, f):
        psi = 2.0 * math.pi * np.arange(self.N) / self.N
        return math.fsum(f(np.cos(psi) ** 2, np.sin(psi) ** 2).tolist()) * (
            2.0 * math.pi / self.N
        )

    @staticmethod
    def draw(rng):
        # X and Y in 1e-6 .. 1e6, within 10^1.5 of a common magnitude
        return 10.0 ** rng.uniform(-4.5, 4.5) * 10.0 ** rng.uniform(-1.5, 1.5, 2)

    @staticmethod
    def three_terms(x, y):
        """The psi integral with a general numerator S.z, as the mixed
        second derivatives of int dpsi / (Q_1 Q_2): x and y stack the X and
        Y values of Q_1, Q_2, D and S."""
        alpha, gamma, beta, delta = np.sqrt([x[0], x[1], y[0], y[1]])
        sigma = alpha * delta + beta * gamma
        a = alpha * gamma / sigma
        b = beta * delta / sigma
        w = 1.0 / (sigma * sigma)
        d_x, s_x, d_y, s_y = x[2] * w, x[3] * w, y[2] * w, y[3] * w
        return math.pi * (
            d_x * s_x * (1.0 + a * (a + b)) / (a * a * a)
            + (d_x * s_y + d_y * s_x) * (a + b) / (a * b)
            + d_y * s_y * (1.0 + b * (a + b)) / (b * b * b)
        )

    def test_potential(self):
        # the potential's numerator S.z is Q_1 + Q_2, so S_X = X_1 + X_2 and
        # S_Y = Y_1 + Y_2 (the fourth draw goes unused)
        rng = np.random.default_rng(73)
        for i in range(60):
            (x1, y1), (x2, y2), (d_x, d_y), _ = (self.draw(rng) for _ in range(4))
            if i % 2:
                # proportional forms, X1 / Y1 = X2 / Y2
                k = 10.0 ** rng.uniform(-3, 3)
                x2, y2 = k * x1, k * y1
            s_x, s_y = x1 + x2, y1 + y2

            def f(c, s):
                q1 = x1 * c + y1 * s
                q2 = x2 * c + y2 * s
                return (d_x * c + d_y * s) * (s_x * c + s_y * s) / ((q1 * q1) * (q2 * q2))

            expect = self.trapezoid(f)
            got = float(s3quad._psi_potential(
                np.array([x1, x2, d_x]), np.array([y1, y2, d_y])
            ))
            assert abs(got - expect) <= 1e-14 * expect
            other = self.three_terms([x1, x2, d_x, s_x], [y1, y2, d_y, s_y])
            assert abs(other - expect) <= 1e-14 * expect

    def test_potential_identities_agree(self):
        # the first-derivative identity against the three-term one, on
        # 20,000 draws, half of them proportional forms
        rng = np.random.default_rng(83)
        n = 20_000
        x1, y1, x2, y2, d_x, d_y = (10.0 ** rng.uniform(-6, 6, n) for _ in range(6))
        k = 10.0 ** rng.uniform(-3, 3, n)
        half = n // 2
        x2[:half], y2[:half] = k[:half] * x1[:half], k[:half] * y1[:half]
        x = np.stack([x1, x2, d_x])
        y = np.stack([y1, y2, d_y])
        expect = self.three_terms([x1, x2, d_x, x1 + x2], [y1, y2, d_y, y1 + y2])
        got = s3quad._psi_potential(x, y)
        assert float(np.abs(got / expect - 1.0).max()) <= 2e-15

    def test_reciprocal(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            x, y = self.draw(rng)
            expect = self.trapezoid(lambda c, s: 1.0 / (x * c + y * s))
            got = float(s3quad._psi_reciprocal(np.array(x), np.array(y)))
            assert abs(got - expect) <= 1e-14 * expect
