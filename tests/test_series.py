import re
import sys
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from harmonicdisk import ClassParams, DomainError, PolarGrid, TruncatedSeries, series
from harmonicdisk.membership import apply_operator, operator_coeffs
from harmonicdisk.series import (
    _EDGE_SLACK,
    _LOW_EXPONENTS,
    _MIN_PART_POINTS,
    _UNDERFLOW_LOG2,
    _pow_table,
    _radius_powers,
    eval_many,
    eval_rings,
)

from helpers import EPS, circle_points, mixed_order_map, random_params, ring_rounding_bound, random_series

finite_coeff = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)
coeff_lists = st.lists(finite_coeff, min_size=2, max_size=12)


class TestEvaluate:
    def test_identity_series(self):
        s = TruncatedSeries([0, 1])
        assert s.evaluate(0.3 + 0.4j) == pytest.approx(0.3 + 0.4j)

    def test_unit_coefficient_sum(self):
        s = TruncatedSeries([0, 1, 0.25])
        assert s.evaluate(1.0) == pytest.approx(1.25)

    def test_direct_arithmetic(self):
        s = TruncatedSeries([0, 1, 0.25])
        assert s.evaluate(0.5j) == pytest.approx(-0.0625 + 0.5j, abs=1e-15)

    @pytest.mark.parametrize("z", [1.01, 2.0j, -1.5])
    def test_rejects_outside_disk(self, z):
        with pytest.raises(DomainError):
            TruncatedSeries([0, 1]).evaluate(z)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            TruncatedSeries([0, 1]).evaluate(complex(float("nan"), 0))

    @pytest.mark.parametrize("z", [[0.5, 1.01], [0.5, complex(float("nan"), 0)], [[0.1j], [-2.0]]])
    def test_eval_many_rejects_what_evaluate_rejects(self, z):
        with pytest.raises(DomainError):
            eval_many(TruncatedSeries([0, 1]), np.array(z))

    @pytest.mark.parametrize(
        "z, message",
        [
            ([0.5, float("nan")], "evaluation points must be finite"),
            ([2.0, float("nan")], "evaluation points must be finite"),
            ([0.5, float("inf")], "evaluation points must be finite"),
            ([complex(0.5, float("-inf")), 2.0], "evaluation points must be finite"),
            ([1 + 1e-9], "evaluation points must satisfy |z| <= 1, got |z| = 1.000000001"),
            ([0.5j, -2.0, 0.1], "evaluation points must satisfy |z| <= 1, got |z| = 2.0"),
        ],
    )
    def test_eval_many_names_what_is_wrong(self, z, message):
        """A non-finite point is named before a point outside the disk, whatever their order."""
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            eval_many(TruncatedSeries([0, 1]), np.array(z))
        if len(z) == 1:
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                TruncatedSeries([0, 1]).evaluate(z[0])

    def test_eval_many_accepts_no_points(self):
        assert eval_many(TruncatedSeries([0, 1]), np.zeros(0, dtype=complex)).shape == (0,)

    def test_rejects_nonfinite_coeffs(self):
        with pytest.raises(DomainError):
            TruncatedSeries([0, float("inf")])


def _kernel_points(kind: str) -> np.ndarray:
    if kind == "0-d":
        return np.asarray(0.3 - 0.55j)
    if kind == "empty":
        return np.zeros(0, dtype=np.complex128)
    if kind == "circle":
        return 0.9 * np.exp(2j * np.pi * np.arange(257) / 257)
    if kind == "origin":
        return np.zeros(2, dtype=np.complex128)
    if kind == "signed zeros":
        # every sign of a zero part, on the origin and on the axes
        return np.array([complex(x, y) for x in (0.0, -0.0, 0.6, -0.6) for y in (0.0, -0.0, 0.7, -0.7)])
    return PolarGrid(max_radius=0.95, n_radii=7, n_angles=33).points()


POINT_KINDS = ["0-d", "empty", "circle", "grid", "origin", "signed zeros"]

#: Scalar points for ``evaluate``: the origin with each sign of its parts, and points on the axes.
SCALAR_POINTS = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0.5, complex(-0.5, -0.0),
                 complex(-0.0, 0.8), 0.3 - 0.55j]


def _sparse_series(kind: str) -> TruncatedSeries:
    """An order-40 series with the zero pattern named by *kind*."""
    rng = np.random.default_rng(7)
    c = rng.standard_normal(41) + 1j * rng.standard_normal(41)
    if kind == "interior zero runs":
        c[3:9] = c[12:30] = c[33] = 0.0
    elif kind == "padded":
        c[6:] = 0.0  # the leading zeros of pad_to
    elif kind == "all zero":
        c[:] = 0.0
    elif kind == "zero constant":
        c[0] = c[2:20] = 0.0
    elif kind == "-0 part":
        # the last add meets a zero at the origin, so a skipped add would show in its sign
        c[1:30] = 0.0
        c[0] = complex(0.25, -0.0)
    elif kind == "-0 coefficient":
        c[1:30] = 0.0
        c[17] = complex(-0.0, 0.0)
        c[0] = complex(-0.0, -0.0)
    return TruncatedSeries(c)


SPARSE_KINDS = ["interior zero runs", "padded", "all zero", "zero constant", "-0 part", "-0 coefficient"]


def _same_bits(out, ref) -> bool:
    return np.shape(out) == np.shape(ref) and np.asarray(out).tobytes() == np.asarray(ref).tobytes()


def _fuzz_parts(rng: np.random.Generator, n: int, special: np.ndarray, zero_frac: float) -> np.ndarray:
    """*n* floats: normal draws, a *zero_frac* share set to +0, and a few entries from *special*."""
    x = rng.standard_normal(n)
    x[rng.random(n) < zero_frac] = 0.0
    k = int(rng.integers(0, 3))
    x[rng.integers(0, n, size=k)] = rng.choice(special, size=k)
    return x


class TestHornerKernel:
    """Every series value is bitwise equal to numpy's ``polyval``, the reference.

    The kernel skips the adds of exact +0 coefficients unless a -0 part is
    present; the sparse series and signed-zero points test that rule.
    """

    @pytest.mark.parametrize("kind", POINT_KINDS)
    @pytest.mark.parametrize("order", [0, 1, 16, 600])
    def test_eval_many_matches_polyval(self, order, kind):
        rng = np.random.default_rng(order)
        s = random_series(rng, order)
        z = _kernel_points(kind)
        assert _same_bits(eval_many(s, z), npoly.polyval(z, s.coeffs))

    @pytest.mark.parametrize("point_kind", POINT_KINDS)
    @pytest.mark.parametrize("kind", SPARSE_KINDS)
    def test_sparse_eval_many_matches_polyval(self, kind, point_kind):
        s, z = _sparse_series(kind), _kernel_points(point_kind)
        assert _same_bits(eval_many(s, z), npoly.polyval(z, s.coeffs))

    @pytest.mark.parametrize("kind", SPARSE_KINDS)
    def test_sparse_evaluate_matches_polyval(self, kind):
        s = _sparse_series(kind)
        for z in SCALAR_POINTS:
            assert _same_bits(s.evaluate(z), complex(npoly.polyval(complex(z), s.coeffs)))

    def test_seeded_fuzz(self):
        """Sparse series with -0 parts and subnormals, on points with signed-zero parts."""
        rng = np.random.default_rng(20261019)
        coeff_special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0])
        point_special = np.array([0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5])
        for _ in range(300):
            n = int(rng.integers(1, 30))
            zero_frac = float(rng.uniform(0.0, 0.95))
            # complex(x, y) keeps a -0 part, where x + 1j*y can change its sign
            re, im = (_fuzz_parts(rng, n, coeff_special, zero_frac) for _ in range(2))
            s = TruncatedSeries([complex(x, y) for x, y in zip(re, im)])
            m = int(rng.integers(2, 12))
            radius, angle = rng.uniform(0.0, 0.85, m), rng.uniform(0.0, 2 * np.pi, m)
            x, y = radius * np.cos(angle), radius * np.sin(angle)
            for part in (x, y):
                hits = rng.random(m) < 0.2
                part[hits] = rng.choice(point_special, size=int(hits.sum()))
            z = np.array([complex(a, b) for a, b in zip(x, y)])
            c, z0 = s.coeffs, complex(z[0])
            assert _same_bits(eval_many(s, z), npoly.polyval(z, c)), (c, z)
            assert _same_bits(eval_many(s, np.asarray(z0)), npoly.polyval(np.asarray(z0), c)), (c, z0)
            assert _same_bits(s.evaluate(z0), complex(npoly.polyval(z0, c))), (c, z0)

    @pytest.mark.parametrize("kind", ["circle", "grid"])
    def test_signed_zero_leading_coefficient(self, kind):
        # polyval starts from c[-1] + z*0, which decides the sign of a zero;
        # adding -0.0 keeps that sign up to the result
        s = TruncatedSeries([-0.0, -0.0, -0.0])
        z = _kernel_points(kind)
        assert _same_bits(eval_many(s, z), npoly.polyval(z, s.coeffs))

    @pytest.mark.parametrize("order", [0, 1, 16, 600])
    def test_evaluate_matches_polyval(self, order):
        rng = np.random.default_rng(100 + order)
        s = random_series(rng, order)
        for z in (0j, 0.5, -0.2 + 0.9j, 0.7 * np.exp(2.1j)):
            assert _same_bits(s.evaluate(z), complex(npoly.polyval(complex(z), s.coeffs)))

    @pytest.mark.parametrize("order", [1, 16, 600])
    def test_apply_operator_matches_polyval(self, order):
        rng = np.random.default_rng(200 + order)
        h = random_series(rng, order)
        p = ClassParams(gamma=0.7, delta=1.3, lam=0.1)
        for z in (0.0, 0.4 - 0.3j, 0.95 * np.exp(0.6j)):
            z = np.asarray(complex(z))
            d1, d2, d3 = (npoly.polyval(z, h.derivative(k).coeffs) for k in (1, 2, 3))
            ref = p.gamma * d1 + p.delta * z * d2 + 0.5 * (p.delta - p.gamma) * z * z * d3
            assert _same_bits(apply_operator(h, p, complex(z)), complex(ref))


def _split_points(kind: str) -> np.ndarray:
    """Points in the disk for the split kernel: 1-d arrays around the split size, the fine grid and views."""
    rng = np.random.default_rng(11)

    def disk(n):
        return rng.uniform(0.0, 0.95, n) * np.exp(2j * np.pi * rng.random(n))

    sizes = {"below": 2 * _MIN_PART_POINTS - 1, "at": 2 * _MIN_PART_POINTS, "above": 2 * _MIN_PART_POINTS + 1,
             "three parts": 3 * _MIN_PART_POINTS + 1}
    if kind in sizes:
        return disk(sizes[kind])
    grid = PolarGrid(max_radius=0.95, n_radii=96, n_angles=384).points()
    if kind == "grid":
        return grid
    if kind == "transposed grid":
        return grid.T
    return disk(4 * _MIN_PART_POINTS + 6)[::2]  # "strided": every other point, odd length


SPLIT_POINT_KINDS = ["below", "at", "above", "three parts", "grid", "transposed grid", "strided"]


class _CountingThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


@pytest.fixture
def counting_threads(monkeypatch):
    """Threads the kernel starts, counted; the kernel's ``threading`` is replaced for the test."""
    counter = type("Counter", (_CountingThread,), {"started": 0})
    monkeypatch.setattr(series, "threading", types.SimpleNamespace(Thread=counter))
    return counter


def _expected_parts(z: np.ndarray, cpus: int) -> int:
    return min(cpus, z.size // _MIN_PART_POINTS, len(z)) if z.size >= 2 * _MIN_PART_POINTS else 1


class TestSplitKernel:
    """Horner split into row blocks across threads keeps ``polyval``'s bits.

    The CPU count is patched, so the split runs on a machine of any size;
    the counted threads show that it did.
    """

    @pytest.mark.parametrize("point_kind", SPLIT_POINT_KINDS)
    @pytest.mark.parametrize("kind", ["dense", "interior zero runs", "-0 part", "all zero"])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_matches_polyval(self, monkeypatch, counting_threads, cpus, kind, point_kind):
        monkeypatch.setattr(series, "_cpu_count", lambda: cpus)
        s = random_series(np.random.default_rng(40), 40) if kind == "dense" else _sparse_series(kind)
        z = _split_points(point_kind)
        out = eval_many(s, z)
        assert _same_bits(out, np.ascontiguousarray(npoly.polyval(z, s.coeffs)))
        # the all-zero series' plan has no step, so it runs in one part
        parts = 1 if kind == "all zero" else _expected_parts(z, cpus)
        assert counting_threads.started == parts - 1
        assert out.ctypes.data % 64 == 0 and out.flags.c_contiguous

    @pytest.mark.parametrize(
        "where, message",
        [
            # 1e308*z + 1e308 overflows only where z is near 1, which is the last part
            ("last part", "add"),
            # every part overflows: the first in its multiply, the others in their add
            ("every part", "multiply"),
        ],
    )
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_overflow_in_a_worker_part_raises(self, monkeypatch, cpus, where, message):
        monkeypatch.setattr(series, "_cpu_count", lambda: cpus)
        z = np.full(3 * _MIN_PART_POINTS, 0.1 + 0j)
        z[-_MIN_PART_POINTS:] = 1.0
        s = TruncatedSeries([1e308, 1e308])
        if where == "every part":
            z[_MIN_PART_POINTS:] = 1.0
            z[:_MIN_PART_POINTS] = np.exp(0.25j * np.pi)  # 1.5e308 * (1+1j) * z has an imaginary part past the range
            s = TruncatedSeries([1e308, 1.5e308 * (1 + 1j)])
        before = threading.active_count()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match=message):
            eval_many(s, z)
        assert threading.active_count() == before
        with np.errstate(over="ignore"):
            assert np.isinf(eval_many(s, z)[-1].real)

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(series, "_cpu_count", lambda: 1)

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was created")

        monkeypatch.setattr(series, "threading", types.SimpleNamespace(Thread=no_thread))
        s = random_series(np.random.default_rng(42), 16)
        z = _split_points("grid")
        assert _same_bits(eval_many(s, z), npoly.polyval(z, s.coeffs))

    def test_shared_series_across_threads(self, monkeypatch):
        monkeypatch.setattr(series, "_cpu_count", lambda: 2)
        c = random_series(np.random.default_rng(43), 64).coeffs
        z = _split_points("grid")
        ref = eval_many(TruncatedSeries(c), z)
        shared = TruncatedSeries(c)  # its plan is first built by one of the threads
        results = [None] * 4

        def work(i):
            results[i] = eval_many(shared, z)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(_same_bits(out, ref) for out in results)


class TestEvalRings:
    """Ring values by folded DFT agree with Horner on the same points to rounding."""

    N_ANGLES = 64

    @staticmethod
    def _assert_close(s, radii, n, points):
        out = eval_rings(s, radii, n)
        assert out.shape == (len(radii), n)
        tol = ring_rounding_bound(s, radii, n)[:, None]
        assert np.all(np.abs(out - eval_many(s, points)) <= tol)

    @pytest.mark.parametrize("order", [0, 1, 16, N_ANGLES - 1, N_ANGLES, N_ANGLES + 1, 3 * N_ANGLES + 5])
    def test_matches_horner_across_fold_boundaries(self, order):
        s = random_series(np.random.default_rng(order), order)
        # the rings are the grid's points, radius-major
        grid = PolarGrid(max_radius=0.95, n_radii=7, n_angles=self.N_ANGLES)
        self._assert_close(s, grid.radii(), self.N_ANGLES, grid.points())
        n = 4 * self.N_ANGLES
        self._assert_close(s, [0.8], n, circle_points(0.8, n)[None, :])

    @pytest.mark.parametrize("order", [0, 16, 3 * N_ANGLES + 5])
    def test_radius_zero_gives_the_constant_term(self, order):
        s = random_series(np.random.default_rng(order), order)
        out = eval_rings(s, [0.0], self.N_ANGLES)
        np.testing.assert_allclose(out, s.coeffs[0], rtol=0, atol=4 * EPS * abs(s.coeffs[0]))

    def test_underflowing_and_unit_radii(self):
        s = random_series(np.random.default_rng(5), 600)
        assert 1e-3**600 == 0.0
        radii = np.array([0.0, 1e-3, 0.5, 1.0])
        points = np.stack([circle_points(r, self.N_ANGLES) for r in radii])
        self._assert_close(s, radii, self.N_ANGLES, points)

    def test_unit_roots_of_the_identity(self):
        out = eval_rings(TruncatedSeries([0, 1]), [1.0], 8)[0]
        np.testing.assert_allclose(out, np.exp(2j * np.pi * np.arange(8) / 8), atol=1e-15)

    def test_no_rings(self):
        assert eval_rings(TruncatedSeries([0, 1]), [], 16).shape == (0, 16)

    @pytest.mark.parametrize(
        "radii", [[0.5, float("nan")], [1.0 + 10 * _EDGE_SLACK], [float("inf")], [-0.5], [[0.5]]]
    )
    def test_rejects_bad_radii(self, radii):
        with pytest.raises(DomainError):
            eval_rings(TruncatedSeries([0, 1]), radii, 16)

    def test_admits_edge_slack(self):
        out = eval_rings(TruncatedSeries([0, 1]), [1.0 + _EDGE_SLACK], 16)
        assert np.all(np.isfinite(out))

    def test_rejects_no_angles(self):
        with pytest.raises(DomainError):
            eval_rings(TruncatedSeries([0, 1]), [0.5], 0)

    def test_no_rings_past_one_power_step(self):
        assert eval_rings(random_series(np.random.default_rng(3), 300), [], 16).shape == (0, 16)


class TestRadiusPowers:
    """Tables of r**k from r**(k - k % 64) * r**(k % 64): within 2 ulp of pow, and the same bits in any table."""

    RADII = np.array([0.0, 1e-3, 0.5, 0.95, 1.0, 1.0 + _EDGE_SLACK])

    @staticmethod
    def _k(k0, n):
        return np.arange(float(k0), k0 + n)

    @pytest.mark.parametrize("k0", [0, 1, 37, 64, 4097, 10**6])
    @pytest.mark.parametrize("n", [1, 27, 64, 300, 4097])
    def test_normal_entries_within_two_ulp_of_pow(self, k0, n):
        k = self._k(k0, n)
        got = _radius_powers(self.RADII, k)
        ref = self.RADII[:, None] ** k
        assert got.shape == (len(self.RADII), n)
        normal = ref >= np.finfo(np.float64).tiny
        assert np.all(np.abs(got - ref)[normal] <= 2 * np.spacing(ref[normal]))
        # an entry below every normal is tiny as well
        assert np.all(got[~normal] < 2 * np.finfo(np.float64).tiny)

    def test_same_bits_in_any_table(self):
        k = self._k(0, 5000)
        whole = _radius_powers(self.RADII, k)
        for k0, n in [(0, 1), (2, 64), (37, 300), (63, 2), (64, 65), (1000, 4000), (4097, 903)]:
            part = _radius_powers(self.RADII, self._k(k0, n))
            assert part.tobytes() == np.ascontiguousarray(whole[:, k0 : k0 + n]).tobytes(), (k0, n)
            for i, r in enumerate(self.RADII):
                one = _radius_powers(np.array([r]), self._k(k0, n))
                assert one.tobytes() == np.ascontiguousarray(part[i : i + 1]).tobytes(), (k0, n, r)

    def test_pow_bits_where_a_factor_is_one(self):
        k = self._k(0, 1000)
        got = _radius_powers(self.RADII, k)
        ref = self.RADII[:, None] ** k
        exact = (k < 64) | (k % 64 == 0)
        assert got[:, exact].tobytes() == ref[:, exact].tobytes()
        assert _radius_powers(self.RADII, self._k(0, 64)).tobytes() == ref[:, :64].tobytes()

    def test_entries_past_the_underflow_cut_are_zero(self):
        radii = np.array([1e-3, 0.5, 0.95])
        k = self._k(1000, 20000)
        got = _radius_powers(radii, k)
        past = k * np.log2(radii)[:, None] < _UNDERFLOW_LOG2
        assert past.any() and (~past).any()
        assert not got[past].any()

    @pytest.mark.parametrize("k0,n", [(0, 1), (0, 5), (0, 200), (37, 100), (4097, 10)])
    def test_radius_zero(self, k0, n):
        got = _radius_powers(np.array([0.0]), self._k(k0, n))[0]
        expected = np.zeros(n)
        if k0 == 0:
            expected[0] = 1.0
        assert got.tobytes() == expected.tobytes()


class TestPowTable:
    """A pow table computed whole has the bits of one whose entries past the underflow cut are skipped."""

    RADII = np.array([0.0, 5e-324, 1e-300, 0.001, 0.5, 0.95, 1.0])

    @staticmethod
    def _masked(radii, k):
        """pow on the entries above the cut only, the others left at 0."""
        log2r = np.log2(np.maximum(radii, np.finfo(np.float64).smallest_subnormal))[:, None]
        out = np.zeros((len(radii), len(k)))
        np.power(radii[:, None], k, out=out, where=k * log2r > _UNDERFLOW_LOG2)
        return out

    # k * log2(r) crosses the cut at k of about 1.02 for 5e-324, 1.1 for 1e-300,
    # 110 for 0.001 and 1100 for 0.5; the last two tables are the low and
    # high exponents of :func:`_radius_powers`
    EXPONENTS = [
        np.array([0.0]),
        np.array([0.0, 1.0]),
        np.arange(0.0, 3.0),
        np.arange(0.0, 64.0),
        np.arange(64.0, 200.0),
        np.arange(1050.0, 1150.0),
        np.arange(4096.0, 4160.0),
        np.concatenate((_LOW_EXPONENTS, np.arange(0.0, 20000.0, 64.0))),
        np.concatenate((_LOW_EXPONENTS, np.arange(1024.0, 1216.0, 64.0))),
    ]

    @pytest.mark.parametrize("k", EXPONENTS, ids=lambda k: f"{k[0]:g}..{k[-1]:g}")
    def test_unmasked_table_is_the_masked_one(self, k):
        whole = self.RADII[:, None] ** k
        assert whole.tobytes() == self._masked(self.RADII, k).tobytes()
        assert _pow_table(self.RADII, k).tobytes() == whole.tobytes()
        for i in range(len(self.RADII)):
            for radii in (self.RADII[i : i + 1], self.RADII[i:], self.RADII[: i + 1]):
                assert _pow_table(radii, k).tobytes() == self._masked(radii, k).tobytes(), (radii, k)

    @pytest.mark.parametrize("k", EXPONENTS, ids=lambda k: f"{k[0]:g}..{k[-1]:g}")
    def test_no_radii(self, k):
        assert _pow_table(np.empty(0), k).shape == (0, len(k))


class TestDerivative:
    def test_power_rule(self):
        d = TruncatedSeries([0, 1, 0.25]).derivative(1)
        np.testing.assert_allclose(d.coeffs, [1, 0.5])

    def test_k_zero_is_identity(self):
        s = TruncatedSeries([0.1, 1, 2j, -0.5])
        np.testing.assert_array_equal(s.derivative(0).coeffs, s.coeffs)

    def test_cube_third_derivative(self):
        d = TruncatedSeries([0, 0, 0, 1]).derivative(3)
        np.testing.assert_allclose(d.coeffs, [6])

    def test_order_floors_at_zero(self):
        d = TruncatedSeries([0, 1]).derivative(3)
        assert d.order == 0
        np.testing.assert_allclose(d.coeffs, [0])

    @pytest.mark.parametrize("k", [-1, 4])
    def test_rejects_out_of_range(self, k):
        with pytest.raises(DomainError):
            TruncatedSeries([0, 1, 1]).derivative(k)

    @given(coeff_lists)
    @settings(max_examples=50)
    def test_composition_matches_second_derivative(self, coeffs):
        s = TruncatedSeries(coeffs)
        twice = s.derivative(1).derivative(1)
        direct = s.derivative(2)
        np.testing.assert_allclose(twice.coeffs, direct.coeffs, atol=1e-12)


class TestDerivedSeries:
    """Series computed from a valid series are read-only and bitwise the public constructor's."""

    @staticmethod
    def pairs(f, p):
        """(derived series, the public constructor on the same formula) by name."""
        s, t = f.s.coeffs, f.t.coeffs
        n = f.order
        padded = [np.concatenate([c, np.zeros(n + 1 - len(c))]) for c in (s, t)]
        eps = np.exp(0.3j)
        m = np.arange(1.0, len(s))
        t3 = t
        for _ in range(3):
            t3 = t3[1:] * np.arange(1, len(t3)) if len(t3) > 1 else np.zeros(1, dtype=complex)
        k = min(len(s), len(t))
        return {
            "derivative 1": (f.s.derivative(1), s[1:] * np.arange(1, len(s))),
            "derivative 3": (f.t.derivative(3), t3),
            "derivative 0": (f.s.derivative(0), s),
            "pad_to": (f.t.pad_to(n + 7), np.concatenate([t, np.zeros(n + 7 - len(t) + 1)])),
            "hadamard": (f.s.hadamard(f.t), s[:k] * t[:k]),
            "analytic_slice": (f.analytic_slice(eps), padded[0] + eps * padded[1]),
            "operator_coeffs": (operator_coeffs(f.s, p), s[1:] * (p.coefficient_weight(m) / 2.0)),
        }

    @pytest.mark.parametrize("orders", [(2, 2), (16, 5), (5, 16), (300, 300)])
    def test_read_only_and_bitwise_the_public_series(self, orders):
        rng = np.random.default_rng(sum(orders))
        f = mixed_order_map(rng, *orders)
        for name, (h, formula) in self.pairs(f, random_params(rng)).items():
            assert not h.coeffs.flags.writeable, name
            with pytest.raises(ValueError):
                h.coeffs[0] = 1.0
            assert h.coeffs.tobytes() == TruncatedSeries(formula).coeffs.tobytes(), name


class TestHadamard:
    def test_truncates_to_min_order(self):
        out = TruncatedSeries([0, 1]).hadamard(TruncatedSeries([0, 1, 7]))
        np.testing.assert_allclose(out.coeffs, [0, 1])

    def test_geometric_series_is_identity(self):
        s = TruncatedSeries([0, 1, 1])
        geo = TruncatedSeries.geometric(8)
        np.testing.assert_allclose(s.hadamard(geo).coeffs, s.coeffs)

    def test_direct_arithmetic(self):
        s = TruncatedSeries([0, 1, 0.25])
        np.testing.assert_allclose(s.hadamard(s).coeffs, [0, 1, 0.0625])

    def test_overflowing_product_is_a_domain_error(self):
        s = TruncatedSeries([0, 1, 1e155])
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="coefficients must be finite"):
            s.hadamard(s)

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=50)
    def test_commutative(self, a, b):
        # complex multiply is one ulp shy of bitwise commutativity under FMA
        sa, sb = TruncatedSeries(a), TruncatedSeries(b)
        np.testing.assert_allclose(sa.hadamard(sb).coeffs, sb.hadamard(sa).coeffs, atol=1e-12)

    @given(coeff_lists, coeff_lists, coeff_lists)
    @settings(max_examples=50)
    def test_associative_up_to_common_truncation(self, a, b, c):
        sa, sb, sc = TruncatedSeries(a), TruncatedSeries(b), TruncatedSeries(c)
        left = sa.hadamard(sb).hadamard(sc)
        right = sa.hadamard(sb.hadamard(sc))
        np.testing.assert_allclose(left.coeffs, right.coeffs, atol=1e-12)


class TestScaleArgument:
    def test_unit_scale_is_identity(self):
        s = TruncatedSeries([0, 1, 0.25, -2j])
        np.testing.assert_array_equal(s.scale_argument(1.0).coeffs, s.coeffs)

    def test_quadratic_coefficient(self):
        out = TruncatedSeries([0, 1, 0.25]).scale_argument(0.5)
        np.testing.assert_allclose(out.coeffs, [0, 1, 0.125])

    def test_cubic_coefficient(self):
        out = TruncatedSeries([0, 1, 0, 1]).scale_argument(0.5)
        np.testing.assert_allclose(out.coeffs, [0, 1, 0, 0.25])

    @pytest.mark.parametrize("r", [0.0, -0.5, 1.5])
    def test_rejects_bad_scale(self, r):
        with pytest.raises(DomainError):
            TruncatedSeries([0, 1]).scale_argument(r)

    @given(
        coeff_lists,
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.99),
        st.floats(min_value=0.0, max_value=2 * np.pi),
    )
    @settings(max_examples=100)
    def test_evaluation_identity(self, coeffs, r, rho, theta):
        # scale_argument realizes f(r z)/r: r * scaled(z) == f(r z)
        f = TruncatedSeries(coeffs)
        z = rho * complex(np.cos(theta), np.sin(theta))
        lhs = f.scale_argument(r).evaluate(z) * r
        rhs = f.evaluate(r * z)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestPartialSumIdentities:
    """N-term sums of m*r^(m-1) and m^2*r^(m-1) against their closed forms.

    The admissible discrepancy is a geometric tail bound (term ratios are
    eventually below q = r*(1+1/(N+1))^k, so the tail is at most
    first_term/(1-q)) plus the series-level float tolerance, which dominates
    once the mathematical tail drops under summation noise.
    """

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_first_moment_sum(self, r):
        n = 400
        m = np.arange(2, n + 1, dtype=float)
        partial = float(np.sum(m * r ** (m - 1)))
        closed = r * (2 - r) / (1 - r) ** 2
        q = r * (1 + 1 / (n + 1))
        tail_bound = (n + 1) * r**n / (1 - q)
        assert abs(partial - closed) <= tail_bound + 1e-12

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_second_moment_sum(self, r):
        n = 400
        m = np.arange(2, n + 1, dtype=float)
        partial = float(np.sum(m * m * r ** (m - 1)))
        closed = r * (4 - 3 * r + r * r) / (1 - r) ** 3
        q = r * (1 + 1 / (n + 1)) ** 2
        tail_bound = (n + 1) ** 2 * r**n / (1 - q)
        assert abs(partial - closed) <= tail_bound + 1e-12


class TestConstructors:
    def test_zero_and_identity(self):
        assert TruncatedSeries.zero(3).order == 3
        s = TruncatedSeries.identity(4)
        assert s.coeff(1) == 1 and s.coeff(0) == 0 and s.order == 4

    def test_monomial_and_padding(self):
        s = TruncatedSeries.monomial(3, 2.0, order=5)
        assert s.coeff(3) == 2.0 and s.order == 5
        assert s.coeff(10) == 0
        assert s.pad_to(8).order == 8
        with pytest.raises(DomainError):
            TruncatedSeries.monomial(3, order=2)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            TruncatedSeries([])
