import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from orthocount import valcomb
from orthocount.valcomb import (
    MIN_SET_GUARD,
    DecaySchedule,
    SuperspecialProfile,
    ValuationProfile,
    build_schedule,
    min_set,
    min_sets,
    nu,
    predicted_index,
    schedule_h,
    schedule_hprime,
    ssp_min_valuation,
    verify_minval,
    weight,
)


def random_profile(rng, n_max=4, a_max=12):
    n = rng.randint(1, n_max)
    return ValuationProfile(n=n, p=rng.choice([5, 7]),
                            a=tuple(rng.randint(1, a_max) for _ in range(n + 1)))


class TestNu:
    def test_all_ones(self):
        prof = ValuationProfile(n=2, p=5, a=(3, 1, 1))
        assert nu((1, 1, 1), prof) == 3 * (1 + 5 + 25)

    def test_hand_evaluations(self):
        prof = ValuationProfile(n=1, p=5, a=(10, 1))
        assert nu((1, 2), prof) == 10 + 5 * 1
        assert nu((2, 1), prof) == 1 + 25 * 10

    def test_monotone_in_a(self, rng):
        for _ in range(20):
            prof = random_profile(rng)
            r = rng.randint(1, 4)
            I = tuple(rng.randint(1, prof.n + 1) for _ in range(r))
            bigger = ValuationProfile(prof.n, prof.p,
                                      tuple(x + 1 for x in prof.a))
            assert nu(I, bigger) > nu(I, prof)

    def test_extension_increases(self, rng):
        for _ in range(20):
            prof = random_profile(rng)
            I = tuple(rng.randint(1, prof.n + 1) for _ in range(3))
            assert nu(I + (1,), prof) > nu(I, prof)


class TestMinSet:
    def test_exhaustive_small(self):
        prof = ValuationProfile(n=1, p=5, a=(10, 1))
        v, argmin = min_set(2, prof)
        assert v == 15 and argmin == [(1, 2)]

    def test_r1_is_min_a(self, rng):
        for _ in range(10):
            prof = random_profile(rng)
            v, argmin = min_set(1, prof)
            assert v == min(prof.a)
            assert {i for (i,) in argmin} == {i + 1 for i, x in enumerate(prof.a)
                                              if x == min(prof.a)}

    def test_constant_profile_minimizers(self):
        prof = ValuationProfile(n=2, p=5, a=(4, 4, 4))
        _, argmin = min_set(2, prof)
        assert all(I[0] == 1 for I in argmin)

    def test_guard(self, monkeypatch):
        # the guard bounds the argmin set, not (n+1)^r: the constant profile
        # ties only at the last index, so 5^11 tuples leave 5 argmins
        prof = ValuationProfile(n=4, p=5, a=(1, 1, 1, 1, 1))
        v, argmin = min_set(11, prof)
        assert v == sum(5 ** k for k in range(11))
        assert argmin == [(1,) * 10 + (i,) for i in range(1, 6)]
        # a = (3, 1, 1) at p = 2 ties twice at r = 1 and twice again at r = 2
        # (3 + 2 = 1 + 4): 4 argmins from r = 2 on
        tied = ValuationProfile(n=2, p=2, a=(3, 1, 1))
        assert min_set(3, tied) == ref_min_set(3, tied)
        assert min_set(2, tied) == (5, [(1, 2), (1, 3), (2, 2), (2, 3)])
        monkeypatch.setattr(valcomb, "MIN_SET_GUARD", 3)
        assert min_set(1, tied) == (1, [(2,), (3,)])
        for r in (2, 3):
            with pytest.raises(ValueError, match="argmin set too large: 4 tuples of "
                               "length 2 exceed MIN_SET_GUARD = 3"):
                min_set(r, tied)


class TestMinSets:
    def test_levels_match_dp(self):
        # one pass gives every level: (nu_r, argmins) of dp_min_set for r <= 8
        for prof in SWEEP:
            assert list(min_sets(8, prof)) == [dp_min_set(r, prof) for r in range(1, 9)]

    def test_guard_after_the_levels_below(self, monkeypatch):
        tied = ValuationProfile(n=2, p=2, a=(3, 1, 1))
        monkeypatch.setattr(valcomb, "MIN_SET_GUARD", 3)
        levels = min_sets(3, tied)
        assert next(levels) == (1, [(2,), (3,)])
        with pytest.raises(ValueError, match="4 tuples of length 2"):
            next(levels)
        with pytest.raises(ValueError, match="r must be >= 1"):
            next(min_sets(0, tied))


# ---------------------------------------------------------------------------
# reference: the tuple-at-a-time search that min_set replaced, kept verbatim

def ref_min_set(r, prof):
    """(nu_r, sorted argmin tuples) by exhaustive search over (n+1)^r tuples."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if (prof.n + 1) ** r > MIN_SET_GUARD:
        raise ValueError("index space too large to enumerate")
    best = None
    argmin = []
    for I in itertools.product(range(1, prof.n + 2), repeat=r):
        v = nu(I, prof)
        if best is None or v < best:
            best = v
            argmin = [I]
        elif v == best:
            argmin.append(I)
    return best, sorted(argmin)


@lru_cache(maxsize=None)
def _cached_ref_min_set(r, prof):
    # shared by the CHUNK parametrisations below
    return ref_min_set(r, prof)


def dp_min_set(r, prof):
    """nu_r and its argmin from nu(i, J) = a_i + p^i nu(J): as p^i > 0, (i, J)
    is minimal iff J is minimal of length r - 1 and i minimizes
    a_i + p^i nu_{r-1}."""
    best, argmin = 0, [()]
    for _ in range(r):
        vals = {i: prof.a[i - 1] + prof.p ** i * best for i in range(1, prof.n + 2)}
        best = min(vals.values())
        argmin = sorted((i,) + J for i, v in vals.items() if v == best for J in argmin)
    return best, argmin


def _sweep_profiles():
    rng = random.Random(20261018)
    profs = []
    for p in (2, 3, 5, 7, 11):
        for n in range(1, 5):
            profs.append(ValuationProfile(n, p, (rng.randint(1, 10 ** 6),) * (n + 1)))
            for a_max in (3, 10 ** 6):
                profs.append(ValuationProfile(
                    n, p, tuple(rng.randint(1, a_max) for _ in range(n + 1))))
    return profs


SWEEP = _sweep_profiles()
# p = 2, r = 4: the tuples split into 9 prefix rows of 9 cells, and the two
# minimizers (2,3,3,3) and (3,3,3,3) sit in rows 5 and 8
LATE_TIES = ValuationProfile(2, 2, (10 ** 6, 293, 1))


class TestMinSetAgainstReference:
    @pytest.mark.parametrize("chunk", [valcomb.CHUNK, 1, 7, 18])
    def test_sweep(self, chunk, monkeypatch):
        monkeypatch.setattr(valcomb, "CHUNK", chunk)
        for prof in SWEEP:
            for r in range(1, 7):
                assert valcomb._search(r, prof, {}) == _cached_ref_min_set(r, prof), \
                    (prof, r, chunk)

    def test_recursion_matches_search(self):
        # 2,400 (profile, r) cases, n <= 4, p <= 11, r <= 6: small a (ties),
        # wide a, and a_1 placed so that nu(1, ..., 1) crosses CAP at some r
        rng = random.Random(20261021)
        cases = 0
        t0 = time.perf_counter()
        for p in (2, 3, 5, 7, 11):
            for n in range(1, 5):
                for j in range(20):
                    if j < 8:
                        a = [rng.randint(1, 3) for _ in range(n + 1)]
                    elif j < 14:
                        a = [rng.randint(1, 10 ** 4) for _ in range(n + 1)]
                    else:
                        edge = valcomb.CAP // sum(p ** k for k in range(rng.randint(1, 6)))
                        a = [edge + rng.randint(-2, 2)] + [rng.randint(1, 2 * edge)
                                                            for _ in range(n)]
                    prof = ValuationProfile(n, p, tuple(a))
                    tables = {}
                    for r in range(1, 7):
                        assert min_set(r, prof) == valcomb._search(r, prof, tables), (prof, r)
                        cases += 1
        assert cases == 2400
        assert time.perf_counter() - t0 < 2

    @pytest.mark.parametrize("chunk", [1, 7, 18])
    def test_minimum_in_later_blocks(self, chunk, monkeypatch):
        # 18 cells are two rows, so the last block is one row; with every
        # chunk the minimum first shows in a later block and ties span two
        monkeypatch.setattr(valcomb, "CHUNK", chunk)
        v, argmin = ref_min_set(4, LATE_TIES)
        step = max(1, chunk // 9)
        blocks = [((I[0] - 1) * 3 + I[1] - 1) // step for I in argmin]
        assert blocks[0] > 0 and len(set(blocks)) == 2
        assert valcomb._search(4, LATE_TIES, {}) == (v, argmin) == dp_min_set(4, LATE_TIES)

    def test_shared_half_tables_match(self):
        # verify_minval's search reads one set of half tables for every r
        for prof in SWEEP:
            tables = {}
            for r in range(1, 7):
                assert valcomb._search(r, prof, tables) == min_set(r, prof) \
                    == _cached_ref_min_set(r, prof), (prof, r)
            assert max(map(len, tables.values())) == 4

    def test_verify_minval_builds_half_tables_once(self, monkeypatch):
        # nu(1, ..., 1) = 2 (1 + 7 + ... + 7^5) < 2^31, so every r <= 6 is
        # searched over int64 and the three half tables are built once; for
        # a = (2^26, 1), nu(1, ..., 1) passes 2^31 at r = 4, so r <= 3 is
        # searched over int64 and r >= 4 over Python ints: one set each
        built = []
        real = valcomb._grow

        def counting(tables, k, prof):
            n = len(tables)
            real(tables, k, prof)
            built.append(len(tables) - n)

        monkeypatch.setattr(valcomb, "_grow", counting)
        assert verify_minval(ValuationProfile(4, 7, (2, 1, 1, 1, 1)), 6).ok
        assert len(built) == 6 and sum(built) == 3
        built.clear()
        assert verify_minval(ValuationProfile(1, 5, (3, 1)), 6).ok
        assert sum(built) == 3
        built.clear()
        assert verify_minval(ValuationProfile(1, 5, (2 ** 26, 1)), 6).ok
        assert sum(built) == 2 + 3

    @pytest.mark.parametrize("prof, r, dtype", [
        # nu(1) = 2^31 - 1: the last int64 value, a tie, and a_3 saturated
        (ValuationProfile(2, 3, (2 ** 31 - 1, 2 ** 31 - 1, 2 ** 31 + 5)), 1, np.int64),
        # nu(1) = 2^31: the first object value
        (ValuationProfile(2, 3, (2 ** 31, 2 ** 31, 1)), 1, object),
        # nu(1, 1) = 4 (2^29 - 1) = 2^31 - 4, tied with nu(1, 2)
        (ValuationProfile(1, 3, (2 ** 29 - 1, 2 ** 29 - 1)), 2, np.int64),
        # nu(1, 1) = 4 * 2^29 = 2^31
        (ValuationProfile(1, 3, (2 ** 29, 2 ** 29)), 2, object),
        # nu(1, ..., 1) just below 2^31, tables, a_i and powers saturated
        (ValuationProfile(4, 11, (178956970,) * 5), 2, np.int64),
        (ValuationProfile(4, 11, (16146484, 10 ** 12, 1, 5, 10 ** 9)), 3, np.int64),
        # nu(1, ..., 1) far past 2^31: the Python-int route
        (ValuationProfile(4, 11, (178956970, 10 ** 12, 1, 5, 10 ** 9)), 3, object),
        (ValuationProfile(2, 7, (10 ** 12, 1, 3)), 4, object),
        (ValuationProfile(3, 5, (10 ** 30, 10 ** 30, 10 ** 29, 10 ** 31)), 5, object),
    ])
    def test_int64_cap_edge(self, prof, r, dtype):
        tables = {}
        got = valcomb._search(r, prof, tables)
        assert list(tables) == [dtype]
        assert got == min_set(r, prof) == dp_min_set(r, prof) == ref_min_set(r, prof)

    def test_guard_edge(self):
        prof = ValuationProfile(4, 7, (12, 11, 9, 5, 1))
        assert (prof.n + 1) ** 10 <= MIN_SET_GUARD
        t0 = time.perf_counter()
        v, argmin = min_set(10, prof)
        elapsed = time.perf_counter() - t0
        assert (v, argmin) == dp_min_set(10, prof)
        assert all(nu(I, prof) == v for I in argmin)
        assert elapsed < 5, elapsed


class TestRefusals:
    def test_prime_p_only(self):
        for p in (-3, 0, 1, 4, 9):
            with pytest.raises(ValueError, match="prime"):
                ValuationProfile(n=1, p=p, a=(3, 1))
            with pytest.raises(ValueError, match="prime"):
                SuperspecialProfile(p=p, h=2, hprime=13, a=1)

    def test_verify_minval_r_max(self):
        prof = ValuationProfile(n=1, p=5, a=(10, 1))
        for r_max in (0, -1):
            with pytest.raises(ValueError, match="r_max"):
                verify_minval(prof, r_max)

    def test_verify_minval_guard_up_front(self):
        prof = ValuationProfile(4, 7, (12, 11, 9, 5, 1))
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=r"5\^11 = 48828125 exceeds MIN_SET_GUARD = 10000000"):
            verify_minval(prof, 11)
        assert time.perf_counter() - t0 < 0.5


class TestMinvalProperties:
    def test_200_random_profiles(self, rng):
        for _ in range(200):
            prof = random_profile(rng, n_max=4)
            rep = verify_minval(prof, r_max=6)
            assert rep.ok, (prof, rep.violations[:3])

    def test_n1_weight_spread(self, rng):
        for _ in range(30):
            prof = random_profile(rng, n_max=1)
            _, argmin = min_set(4, prof)
            ws = [weight(I) for I in argmin]
            assert max(ws) - min(ws) < 2

    def test_adversarial_profile(self):
        prof = ValuationProfile(n=3, p=5, a=(40, 7, 2, 1))
        assert verify_minval(prof, r_max=6).ok

    def test_nu_r2_bound(self, rng):
        # nu_{r+2} <= nu_{(1,...,1)} = a_1 (1 + p + ... + p^{r+1})
        for _ in range(20):
            prof = random_profile(rng, n_max=3)
            for r in range(0, 3):
                v, _ = min_set(r + 2, prof)
                assert v <= prof.a[0] * sum(prof.p ** k for k in range(r + 2))


class TestSspMinValuation:
    def test_case1_unique_argmin(self):
        # h < h': the pure top-block chain wins
        prof = SuperspecialProfile(p=5, h=2, hprime=13, a=1)
        for r in range(0, 4):
            v, argmin = ssp_min_valuation(1, r, prof)
            assert argmin == [(r + 1, 0)]
            assert v == 1 + 2 * sum(5 ** i for i in range(1, r + 2))

    def test_case1_kind2_value(self):
        prof = SuperspecialProfile(p=5, h=2, hprime=13, a=1)
        for r in range(0, 3):
            v, argmin = ssp_min_valuation(2, r, prof)
            assert argmin == [(r, 0)]
            assert v == 1 + 2 * sum(5 ** i for i in range(1, r + 1)) + 5 ** (r + 1)

    def test_kind2_r0_value(self):
        # unique element of the kind-2 set at r=0 has valuation a + p a
        for prof in (SuperspecialProfile(p=5, h=2, hprime=13, a=1),
                     SuperspecialProfile(p=5, h=8, hprime=30, a=4),
                     SuperspecialProfile(p=7, h=6, hprime=50, a=3)):
            v, argmin = ssp_min_valuation(2, 0, prof)
            assert argmin == [(0, 0)]
            assert v == prof.a + prof.p * prof.a

    def test_case3_two_argmins(self):
        # h'(1 + p^{2e-1}) = h(1 + p): exactly two minimizers for r >= e-1
        p = 5
        for e, h, hp_ in ((1, 6, 6), (2, 126, 6)):
            prof = SuperspecialProfile(p=p, h=h, hprime=hp_, a=1)
            assert hp_ * (1 + p ** (2 * e - 1)) == h * (1 + p)
            for r in range(e - 1, e + 2):
                _, argmin = ssp_min_valuation(1, r, prof)
                assert sorted(argmin) == sorted([(r - e + 1, e), (r - e + 2, e - 1)]), (e, r)

    def test_case3_kind2_unique(self):
        p = 5
        prof = SuperspecialProfile(p=p, h=126, hprime=6, a=1)
        for r in range(0, 4):
            _, argmin = ssp_min_valuation(2, r, prof)
            assert len(argmin) == 1


class TestSchedules:
    def test_h_values(self):
        assert schedule_h(2, 5, 2) == [2, 12, 62]

    def test_hprime_values(self):
        assert schedule_hprime(2, 5, 1, a=1) == [0, 2, 12]

    def test_generic_bucket(self):
        assert predicted_index(13, "generic", h=2, p=5) == 4

    def test_generic_uncovered_below(self):
        assert predicted_index(1, "generic", h=2, p=5) is None
        assert predicted_index(3, "generic", h=2, p=5) == 2

    def test_case1_windows(self):
        # h=2, a=1, p=5: h'_{-1}=0, h'_0=2, h'_1=12, h'_2=62
        assert predicted_index(1, "ssp-case1", h=2, p=5, a=1) is None
        assert predicted_index(2, "ssp-case1", h=2, p=5, a=1) == 1
        assert predicted_index(3, "ssp-case1", h=2, p=5, a=1) == 2
        assert predicted_index(7, "ssp-case1", h=2, p=5, a=1) == 2
        assert predicted_index(8, "ssp-case1", h=2, p=5, a=1) == 3
        assert predicted_index(12, "ssp-case1", h=2, p=5, a=1) == 3
        assert predicted_index(13, "ssp-case1", h=2, p=5, a=1) == 4

    def test_case2_windows(self):
        assert predicted_index(2, "ssp-case2", h=2, p=5, a=1) == 1
        assert predicted_index(3, "ssp-case2", h=2, p=5, a=1) == 3
        assert predicted_index(12, "ssp-case2", h=2, p=5, a=1) == 3
        assert predicted_index(13, "ssp-case2", h=2, p=5, a=1) == 5

    def test_nondecreasing(self):
        for case in ("generic", "ssp-case1", "ssp-case2"):
            vals = [predicted_index(n, case, h=4, p=5, a=2) for n in range(1, 400)]
            cov = [v for v in vals if v is not None]
            assert cov == sorted(cov), case

    def test_build_schedule_consecutive(self):
        for case in ("generic", "ssp-case1", "ssp-case2"):
            sched = build_schedule(case, h=4, p=5, a=2, r_max=3)
            assert isinstance(sched, DecaySchedule)
            for lo, hi, e in sched.windows:
                for n in (lo, hi):
                    assert predicted_index(n, case, h=4, p=5, a=2) == e

    def test_schedule_validation(self):
        # a gap between windows is allowed: predicted_index leaves such n
        # uncovered when a p^r is fractional
        assert DecaySchedule("generic", ((1, 5, 2), (7, 9, 4))).windows[1] == (7, 9, 4)
        with pytest.raises(ValueError):
            DecaySchedule("generic", ((1, 5, 2), (5, 9, 4)))
        with pytest.raises(ValueError):
            DecaySchedule("generic", ((7, 9, 2), (1, 5, 4)))
        with pytest.raises(ValueError):
            DecaySchedule("generic", ((1, 5, 4), (6, 9, 2)))

    def test_fractional_a_windows_match_predicted_index(self):
        # h = 1, p = 3, a = 1/2: n >= h'_{r-1} + a p^r + 1 opens each level,
        # so n = 1 is uncovered and the first windows are (2, 2, 2), (4, 4, 3)
        sched = build_schedule("ssp-case1", h=1, p=3)
        assert sched.windows[:3] == ((2, 2, 2), (4, 4, 3), (5, 8, 4))
        assert [predicted_index(n, "ssp-case1", h=1, p=3) for n in (1, 3, 9)] == [None] * 3
        for case in ("generic", "ssp-case1", "ssp-case2"):
            for h, p, a in ((1, 3, None), (3, 5, Fraction(1, 2)), (2, 3, Fraction(7, 2)),
                            (1, 5, 2)):
                windows = build_schedule(case, h, p, a=a, r_max=3).windows
                exponent = {n: e for lo, hi, e in windows for n in range(lo, hi + 1)}
                for n in range(1, windows[-1][1] + 1):
                    assert exponent.get(n) == _ref_predicted_index(n, case, h, p, a=a), \
                        (case, h, p, a, n)


def test_profile_validation():
    with pytest.raises(ValueError):
        ValuationProfile(n=2, p=5, a=(1, 1))
    with pytest.raises(ValueError):
        ValuationProfile(n=2, p=5, a=(1, 0, 1))
    with pytest.raises(ValueError):
        SuperspecialProfile(p=5, h=2, hprime=4, a=1)


# ---------------------------------------------------------------------------
# reference: the schedules as Fraction geometric sums to r_cap levels (cached
# here only to keep the grid below fast)

@lru_cache(maxsize=None)
def _ref_schedule_h(h, p, r_max):
    return [int(h * (sum(Fraction(p) ** k for k in range(r + 1)) + Fraction(1, p)))
            for r in range(r_max + 1)]


@lru_cache(maxsize=None)
def _ref_schedule_hprime(h, p, r_max, a):
    return [int(a / p)] + [int(h * sum(Fraction(p) ** k for k in range(r + 1)) + a / p)
                           for r in range(r_max + 1)]


def _ref_predicted_index(n, case, h, p, a=None, r_cap=64):
    if case == "generic":
        hr = _ref_schedule_h(h, p, r_cap)
        if n <= hr[0]:
            return None
        for r in range(r_cap - 1):
            if hr[r] + 1 <= n <= hr[r + 1]:
                return 2 + 2 * r
        raise ValueError(f"n lies past the first {r_cap} levels")
    a = Fraction(h, 2) if a is None else Fraction(a)
    hp = _ref_schedule_hprime(h, p, r_cap, a)
    if case == "ssp-case1":
        for r in range(r_cap - 1):
            if n < hp[r] + a * p ** r + 1:
                return None
            if n <= hp[r + 1]:
                return 1 + 2 * r
            if n <= hp[r + 1] + a * p ** (r + 1):
                return 2 + 2 * r
        raise ValueError(f"n lies past the first {r_cap} levels")
    if n < hp[0] + a + 1:
        return None
    if n <= hp[1]:
        return 1
    for r in range(r_cap - 2):
        if hp[r + 1] + 1 <= n <= hp[r + 2]:
            return 3 + 2 * r
    raise ValueError(f"n lies past the first {r_cap} levels")


def _outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except ValueError as e:
        return str(e)


class TestClosedFormSchedules:
    def test_schedules_match_fraction_sums(self):
        for p in (2, 3, 5, 7, 11):
            for h in range(1, 13):
                assert schedule_h(h, p, 12) == _ref_schedule_h(h, p, 12)
                for a2 in range(1, h + 1):
                    a = Fraction(a2, 2)
                    assert schedule_hprime(h, p, 12, a) == _ref_schedule_hprime(h, p, 12, a)
                assert schedule_hprime(h, p, 12) == _ref_schedule_hprime(h, p, 12, Fraction(h, 2))

    def test_predicted_index_matches_fraction_reference(self, monkeypatch):
        # every n up to past the third window, plus far-out n that exhaust a
        # small R_CAP; the error outcomes must agree too
        for p in (3, 5, 7):
            for h in (1, 2, 4, 7):
                for a in (None, Fraction(1, 2), 1, h):
                    for case in ("generic", "ssp-case1", "ssp-case2"):
                        for r_cap in (3, 8):
                            monkeypatch.setattr(valcomb, "R_CAP", r_cap)
                            for n in list(range(1, 3 * h * p ** 2)) + [10 ** 4, 10 ** 9]:
                                assert _outcome(predicted_index, n, case, h, p, a=a) \
                                    == _outcome(_ref_predicted_index, n, case, h, p, a=a,
                                                r_cap=r_cap), (n, case, h, p, a, r_cap)
