"""Command-line driver.

Exit codes: 0 success, 1 input error, 2 mathematical-assertion failure:
an InvariantError or a VerificationFailure, and nothing else (reserved so
CI can grep for genuine verification breakage).  Any other ArithmeticError,
such as a ZeroDivisionError from an input that no check refused, exits 1.
"""

import argparse
import json
import sys
from fractions import Fraction

from .arith import InvariantError
from .tableio import emit_table, int_rows, json_object, parse_rational


class VerificationFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: a ValueError, so exit 1, not 2."""

    def error(self, message):
        raise ValueError(message)


def main(argv=None):
    try:
        return _dispatch(argv if argv is not None else sys.argv[1:])
    except VerificationFailure as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 2
    except InvariantError as e:
        print(f"arithmetic failure: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, ArithmeticError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


# the least value of each bounded integer option, by subcommand; `crystal
# --rmax` is bounded once the profile's case is known (_cmd_crystal)
LEAST = {"lattice": {"mmax": 0}, "density": {"p": 3},
         "valcomb min-set": {"rmax": 1}, "valcomb schedules": {"h": 1},
         "valcomb verify-minval": {"rmax": 1, "nmax": 1, "trials": 1},
         "valcomb ssp-min": {"rmax": 0}, "budget ssmain-table": {"b": 3},
         "budget formal-curve": {"jmax": 0}, "budget intersect": {"ncap": 1}}


def _dispatch(argv):
    ap = _Parser(prog="orthocount")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_lat = sub.add_parser("lattice", help="invariants and theta tables")
    p_lat.add_argument("--in", dest="infile", required=True)
    p_lat.add_argument("--mmax", type=int, default=20)
    p_lat.add_argument("--out", default="-")

    p_den = sub.add_parser("density", help="naive vs recursive local densities")
    p_den.add_argument("--in", dest="infile", required=True)
    p_den.add_argument("--p", type=int, required=True)
    p_den.add_argument("--mmax", type=int, default=20)
    p_den.add_argument("--out", default="-")

    p_eis = sub.add_parser("eis", help="Eisenstein/theta coefficient tables")
    p_eis.add_argument("--e8-check", action="store_true")
    p_eis.add_argument("--in", dest="infile")
    p_eis.add_argument("--b", type=int)
    p_eis.add_argument("--p", type=int, default=7)
    p_eis.add_argument("--mmax", type=int, default=20)
    p_eis.add_argument("--out", default="-")

    p_cry = sub.add_parser("crystal", help="decay traces from a curve profile")
    p_cry.add_argument("--profile", required=True)
    p_cry.add_argument("--rmax", type=int, default=1)
    p_cry.add_argument("--w", default="eprime1", choices=["e1", "f1", "eprime1"],
                       help="tracked vector for superspecial traces")
    p_cry.add_argument("--tmax", type=int, help="override the profile's T_max")
    p_cry.add_argument("--out", default="-")

    p_val = sub.add_parser("valcomb", help="valuation combinatorics")
    val_sub = p_val.add_subparsers(dest="mode", required=True)
    v1 = val_sub.add_parser("min-set")
    v1.add_argument("--p", type=int, default=5)
    v1.add_argument("--n", type=int, required=True)
    v1.add_argument("--a", required=True, help="comma-separated a_1..a_{n+1}")
    v1.add_argument("--rmax", type=int, default=4)
    v1.add_argument("--out", default="-")
    v2 = val_sub.add_parser("verify-minval")
    v2.add_argument("--trials", type=int, default=200)
    v2.add_argument("--seed", type=int, default=0)
    v2.add_argument("--rmax", type=int, default=6)
    v2.add_argument("--nmax", type=int, default=4)
    v2.add_argument("--out", default="-")
    v3 = val_sub.add_parser("schedules")
    v3.add_argument("--p", type=int, default=5)
    v3.add_argument("--h", type=int, required=True)
    v3.add_argument("--a", type=int)
    v3.add_argument("--rmax", type=int, default=4)
    v3.add_argument("--out", default="-")
    v4 = val_sub.add_parser("ssp-min")
    v4.add_argument("--p", type=int, default=5)
    v4.add_argument("--h", type=int, required=True)
    v4.add_argument("--hprime", type=int, required=True)
    v4.add_argument("--a", type=int, required=True)
    v4.add_argument("--rmax", type=int, default=4)
    v4.add_argument("--out", default="-")

    p_bud = sub.add_parser("budget", help="intersection bookkeeping")
    bud_sub = p_bud.add_subparsers(dest="mode", required=True)
    b1 = bud_sub.add_parser("ssmain-table")
    b1.add_argument("--b", type=int, default=6)
    b1.add_argument("--pmax", type=int, default=97)
    b1.add_argument("--out", default="-")
    b2 = bud_sub.add_parser("formal-curve")
    b2.add_argument("--p", type=int, default=5)
    b2.add_argument("--c", type=int, default=1)
    b2.add_argument("--qe", type=int, default=1)
    b2.add_argument("--qf", type=int, default=1)
    b2.add_argument("--jmax", type=int, default=1)
    b2.add_argument("--out", default="-")
    b3 = bud_sub.add_parser("ledger")
    b3.add_argument("--in", dest="infile", required=True)
    b3.add_argument("--ql", required=True, help="|q_L(m)| as num/den")
    b3.add_argument("--out", default="-")
    b4 = bud_sub.add_parser("intersect")
    b4.add_argument("--in", dest="infile", required=True)
    b4.add_argument("--mmax", type=int, default=20)
    b4.add_argument("--ncap", type=int, default=10)
    b4.add_argument("--out", default="-")

    args = ap.parse_args(argv)
    command = " ".join(filter(None, (args.cmd, getattr(args, "mode", None))))
    for flag, least in LEAST.get(command, {}).items():
        if getattr(args, flag) < least:
            ap.error(f"--{flag} must be >= {least}")
    return {
        "lattice": _cmd_lattice,
        "density": _cmd_density,
        "eis": _cmd_eis,
        "crystal": _cmd_crystal,
        "valcomb": _cmd_valcomb,
        "budget": _cmd_budget,
    }[args.cmd](args)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _cmd_lattice(args):
    from .lattice import (det_and_elementary_divisors, lattice_from_json,
                          successive_minima, theta_table)
    L = lattice_from_json(_load_json(args.infile))
    det, divisors = det_and_elementary_divisors(L)
    rows = [("det", Fraction(det)), ("disc_group_order", Fraction(abs(det))),
            ("elementary_divisors", ";".join(map(str, divisors)))]
    if L.positive_definite:
        # the table first: its walk is kept and serves the minima as well
        table = theta_table(L, args.mmax)
        mu_sq, a_sq = successive_minima(L)
        rows.append(("mu_sq", ";".join(map(str, mu_sq))))
        rows.append(("a_sq", ";".join(map(str, a_sq))))
        for m, c in enumerate(table):
            rows.append((f"r({m})", Fraction(c)))
    emit_table(rows, ["key", "value"], args.out,
               manifest={"cmd": "lattice", "in": args.infile, "mmax": args.mmax})
    return 0


def _cmd_density(args):
    from .density import local_density_naive, local_density_recursive
    from .lattice import lattice_from_json
    L = lattice_from_json(_load_json(args.infile))
    rows = []
    ok = True
    for m in range(1, args.mmax + 1):
        if m % args.p == 0:
            continue
        dn = local_density_naive(args.p, L, m, 1)
        dr = local_density_recursive(args.p, L, m)
        match = dn == dr
        ok = ok and match
        rows.append((m, dn, dr, match))
    emit_table(rows, ["m", "delta_naive", "delta_recursive", "agree"], args.out,
               manifest={"cmd": "density", "in": args.infile, "p": args.p,
                         "mmax": args.mmax})
    if not ok:
        raise VerificationFailure("naive and recursive densities disagree")
    return 0


def _cmd_eis(args):
    from .eisenstein import EisensteinContext, e8_check, eis_coeff_theta
    from .lattice import lattice_from_json, theta_table
    if args.e8_check:
        L = _e8()
        ok, rows = e8_check(L, mmax=args.mmax, b=6, p=args.p)
        out_rows = [(m, q, r, q == r) for m, q, r in rows]
        emit_table(out_rows, ["m", "coeff", "rep_count", "agree"], args.out,
                   manifest={"cmd": "eis", "mode": "e8-check", "mmax": args.mmax,
                             "p": args.p})
        if not ok:
            raise VerificationFailure("theta coefficient != representation count")
        return 0
    if not args.infile or args.b is None:
        raise ValueError("need --in and --b (or --e8-check)")
    from .density import local_density
    from .eisenstein import eis_coeff_global
    L = lattice_from_json(_load_json(args.infile))
    ctx = EisensteinContext.from_lattice(L, b=args.b, p=args.p)
    table = theta_table(L, args.mmax)
    rows = []
    for m in range(1, args.mmax + 1):
        q = eis_coeff_theta(ctx, L, m)
        # the signature-(b,2) coefficient with matching local data off p
        dens = {ell: local_density(ell, L, m) for ell in ctx.badPrimes}
        qg = abs(eis_coeff_global(ctx, dens, m))
        rows.append((m, qg, q, table[m], Fraction(table[m]) - q))
    emit_table(rows, ["m", "qL_abs", "qLprime", "rep_count", "cusp_residual"],
               args.out, manifest={"cmd": "eis", "in": args.infile, "b": args.b,
                                   "p": args.p, "mmax": args.mmax})
    return 0


def _e8():
    from .lattice import QuadLattice
    return QuadLattice.from_rows([
        [2, -1, 0, 0, 0, 0, 0, 0],
        [-1, 2, -1, 0, 0, 0, 0, 0],
        [0, -1, 2, -1, 0, 0, 0, 0],
        [0, 0, -1, 2, -1, 0, 0, 0],
        [0, 0, 0, -1, 2, -1, 0, -1],
        [0, 0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, 0, -1, 2, 0],
        [0, 0, 0, 0, -1, 0, 0, 2],
    ], positive_definite=True)


PROFILE_KEYS = ("p", "case", "m", "T_max", "series")  # n and R_max are optional


def load_curve_profile(obj):
    """Curve-profile JSON -> CurveSubstitution.  A profile that is not an
    object with the required keys, p prime >= 5 and n, m, T_max, R_max >= 1
    is refused with a ValueError."""
    from .arith import is_prime
    from .crystal import CurveSubstitution, crystal_ring, superspecial_ring
    from .series import SeriesRing
    json_object(obj, "curve profile", PROFILE_KEYS)
    p = obj["p"]
    case = obj["case"]
    n = obj.get("n", 1)
    m = obj["m"]
    tmax = obj["T_max"]
    rmax = obj.get("R_max", 8)
    if type(p) is not int or p < 5 or not is_prime(p):
        raise ValueError(f"the profile's p must be a prime >= 5, not {p!r}")
    for key, x in (("n", n), ("m", m), ("T_max", tmax), ("R_max", rmax)):
        if type(x) is not int or x < 1:
            raise ValueError(f"the profile's {key} must be an integer >= 1, not {x!r}")
    if not isinstance(obj["series"], dict):
        raise ValueError("the profile's series must be a JSON object")
    ring = superspecial_ring(p, rmax) if case == "superspecial" \
        else crystal_ring(p, rmax, n)
    sr = SeriesRing(ring, tmax)

    def is_term(t):
        """[t_exp, unit, pval] of ints, the unit maybe a list of at most deg ints."""
        if not (isinstance(t, list) and len(t) == 3):
            return False
        coords = t[1] if isinstance(t[1], list) and len(t[1]) <= ring.deg else [t[1]]
        return all(type(x) is int for x in [t[0], t[2], *coords])

    def coeff(unit):
        if isinstance(unit, list):  # extension-ring coordinates
            return tuple(unit) + (0,) * (ring.deg - len(unit))
        return unit

    for name, terms in obj["series"].items():
        if not (isinstance(terms, list) and all(map(is_term, terms))):
            raise ValueError(f"the profile's series {name} must be a list of [t_exp, "
                             f"unit, pval] int triples, a unit maybe a list of at most "
                             f"{ring.deg} ints")
    series = {name: sr.from_terms((t_exp, coeff(unit), pval)
                                  for t_exp, unit, pval in terms)
              for name, terms in obj["series"].items()}
    return CurveSubstitution(case, n, m, sr, series)


def _cmd_crystal(args):
    from .crystal import (f_infinity_partial, first_nonintegral_order,
                          frobenius_F, integral_basis_matrix, min_tval_at_pval,
                          ssp_s0prime, synthesize_s0prime)
    from .valcomb import (SuperspecialProfile, min_sets, schedule_hprime,
                          ssp_min_valuation)
    prof = _load_json(args.profile)
    if args.tmax is not None and isinstance(prof, dict):
        prof["T_max"] = args.tmax
    coords = load_curve_profile(prof)
    if coords.case == "superspecial":
        if args.rmax < 0:
            raise ValueError("--rmax must be >= 0")
    elif args.rmax < 1:
        raise ValueError("--rmax must be >= 1 for a generic profile, whose trace starts at r = 1")
    sr = coords.sring
    p = sr.ring.p
    if coords.case == "superspecial":
        s0, s0inv = ssp_s0prime(sr.ring)
    else:
        s0, s0inv = synthesize_s0prime(sr.ring, coords.n, seed=prof.get("seed", 1))
    F = frobenius_F(coords, s0, s0inv)
    # the fewest factors N with v_t(F^(N)) = p^N v_t(F) > T_max; an F with a
    # constant t-term (v_t(F) = 0) is refused by f_infinity_partial
    minv, N = F.t_valuation(), 1
    while minv and minv * p ** N <= sr.tmax:
        N += 1
    finf = f_infinity_partial(F, N)
    rows = []
    ok = True
    if coords.case == "superspecial":
        basis = integral_basis_matrix(sr, s0inv, 1, 2 * coords.m)
        h = coords.q_series().t_valuation()
        hp = coords.r_series().t_valuation()
        a = min(s.t_valuation() for s in coords.series.values())
        sprof = SuperspecialProfile(p=p, h=h, hprime=hp, a=a)
        hps = schedule_hprime(h, p, args.rmax + 1, a)
        fp1 = 2 + coords.m
        wvecs = {"e1": [1, 0] + [0] * (2 * coords.m),
                 "f1": [0, 1] + [0] * (2 * coords.m),
                 "eprime1": [0, 0, 1] + [0] * (2 * coords.m - 1)}
        w = wvecs[args.w]
        kind = 2 if args.w == "eprime1" else 1
        for r in range(args.rmax + 1):
            probe = first_nonintegral_order(finf, w, r, basis, components=[fp1])
            expected, _ = ssp_min_valuation(kind, r, sprof)
            sched = hps[r + 1]
            this_ok = probe.status == "detected" and probe.nu == expected \
                and probe.decay_bound <= sched + 1
            ok = ok and this_ok
            rows.append((r, probe.nu, probe.decay_bound, sched, this_ok))
        emit_table(rows, ["r", "nu", "decay_bound", "schedule_bound", "pass"],
                   args.out, manifest={"cmd": "crystal", "profile": args.profile,
                                       "rmax": args.rmax, "w": args.w})
    else:
        vprof = coords.valuation_profile()
        for r, (nu_r, _) in enumerate(min_sets(args.rmax, vprof), 1):
            got = min_tval_at_pval(finf, r, rows=range(2 * coords.n),
                                   cols=range(2 * coords.n))
            this_ok = (nu_r > sr.tmax and got is None) or got == nu_r
            ok = ok and this_ok
            bound = -(-got // p) if got is not None else None
            rows.append((r, got, bound, nu_r, this_ok))
        emit_table(rows, ["r", "nu", "decay_bound", "schedule_bound", "pass"],
                   args.out, manifest={"cmd": "crystal", "profile": args.profile,
                                       "rmax": args.rmax, "block": "F_inf(1)"})
    if not ok:
        raise VerificationFailure("decay trace disagrees with the schedule")
    return 0


def _cmd_valcomb(args):
    import random

    from .valcomb import (SuperspecialProfile, ValuationProfile, min_sets,
                          schedules, ssp_min_valuation, verify_minval)
    if args.mode == "min-set":
        a = tuple(int(x) for x in args.a.split(","))
        prof = ValuationProfile(n=args.n, p=args.p, a=a)
        rows = [(r, nu_r, ";".join("".join(map(str, I)) for I in argmin))
                for r, (nu_r, argmin) in enumerate(min_sets(args.rmax, prof), 1)]
        emit_table(rows, ["r", "nu_r", "argmins"], args.out,
                   manifest={"cmd": "valcomb.min-set", "p": args.p, "n": args.n,
                             "a": args.a, "rmax": args.rmax})
        return 0
    if args.mode == "verify-minval":
        rng = random.Random(args.seed)
        rows = []
        bad = 0
        for k in range(args.trials):
            n = rng.randint(1, args.nmax)
            prof = ValuationProfile(n=n, p=rng.choice([5, 7]),
                                    a=tuple(rng.randint(1, 12) for _ in range(n + 1)))
            rep = verify_minval(prof, args.rmax)
            bad += len(rep.violations)
            rows.append((k, n, prof.p, ",".join(map(str, prof.a)),
                         rep.checked, len(rep.violations)))
        emit_table(rows, ["trial", "n", "p", "a", "tuples_checked", "violations"],
                   args.out, manifest={"cmd": "valcomb.verify-minval",
                                       "trials": args.trials, "seed": args.seed,
                                       "rmax": args.rmax, "nmax": args.nmax})
        if bad:
            raise VerificationFailure(f"{bad} minimal-set property violations")
        return 0
    if args.mode == "schedules":
        hr, hpr = schedules(args.h, args.p, args.rmax, args.a)
        rows = [("h", r, v) for r, v in enumerate(hr)]
        rows += [("hprime", r - 1, v) for r, v in enumerate(hpr)]
        emit_table(rows, ["kind", "r", "value"], args.out,
                   manifest={"cmd": "valcomb.schedules", "h": args.h, "p": args.p,
                             "a": args.a if args.a is not None else "h/2",
                             "rmax": args.rmax})
        return 0
    if args.mode == "ssp-min":
        prof = SuperspecialProfile(p=args.p, h=args.h, hprime=args.hprime, a=args.a)
        rows = []
        for r in range(args.rmax + 1):
            for kind in (1, 2):
                v, argmin = ssp_min_valuation(kind, r, prof)
                rows.append((kind, r, v,
                             ";".join(f"({al},{be})" for al, be in argmin)))
        emit_table(rows, ["kind", "r", "min_valuation", "argmins"], args.out,
                   manifest={"cmd": "valcomb.ssp-min", "p": args.p, "h": args.h,
                             "hprime": args.hprime, "a": args.a})
        return 0


def _cmd_budget(args):
    from .arith import is_prime
    from .budget import (CurveBudget, certify_membership, formal_curve_sequence,
                         local_intersection, ssmain_bound)
    if args.mode == "ssmain-table":
        rows = []
        for q in range(5, args.pmax + 1):
            if not is_prime(q):
                continue
            for case in ("nonss", "ssp1", "ssp2"):
                val, ceil = ssmain_bound(q, args.b, case)
                if val > ceil:
                    raise VerificationFailure(f"{case} bound exceeded at p={q}")
                rows.append((q, case, val, ceil, val <= ceil))
        emit_table(rows, ["p", "case", "value", "ceiling", "pass"], args.out,
                   manifest={"cmd": "budget.ssmain-table", "b": args.b,
                             "pmax": args.pmax})
        return 0
    if args.mode == "formal-curve":
        curve = formal_curve_sequence(args.p, args.c, args.qe, args.qf, args.jmax)
        rows = []
        for j in range(args.jmax + 1):
            m_j, expo = certify_membership(curve, j)
            rows.append((j, curve.n_seq[j + 1], m_j, f"{args.p}^{expo}"))
        emit_table(rows, ["j", "n_{j+1}", "m_j", "iP_lower_bound"], args.out,
                   manifest={"cmd": "budget.formal-curve", "p": args.p,
                             "c": args.c, "qe": args.qe, "qf": args.qf,
                             "jmax": args.jmax})
        return 0
    if args.mode == "ledger":
        obj = json_object(_load_json(args.infile), "ledger", ("p", "omegaC", "points"),
                          lists=("points",))
        points = [json_object(pt, "ledger point", ("label", "h", "type"))
                  for pt in obj["points"]]
        budget = CurveBudget(
            obj["p"], parse_rational(obj["omegaC"], "the ledger's omegaC"),
            tuple((pt["label"], pt["h"], pt["type"]) for pt in points))
        ql = parse_rational(args.ql, "--ql")
        total, target, ok = budget.ledger_identity(ql)
        emit_table([("mass", Fraction(budget.mass())),
                    ("target_mass", Fraction((budget.p - 1)) * budget.omegaC),
                    ("sum_gP", total), ("qL_times_omegaC", target),
                    ("identity", ok)],
                   ["key", "value"], args.out,
                   manifest={"cmd": "budget.ledger", "in": args.infile,
                             "qL": args.ql})
        if budget.is_complete() and not ok:
            raise VerificationFailure("complete ledger does not satisfy the identity")
        return 0
    if args.mode == "intersect":
        from .budget import NestedLatticeSequence
        from .lattice import SublatticeBasis, lattice_from_json
        obj = json_object(_load_json(args.infile), "nested lattice sequence",
                          ("ambient", "levels"), lists=("levels",))
        ambient = lattice_from_json(obj["ambient"])

        def level(lvl):
            n = json_object(lvl, "sequence level", ("n_start", "cols"), lists=("cols",))["n_start"]
            if type(n) is not int:
                raise ValueError(f"the sequence level's n_start must be a JSON integer, not {n!r}")
            cols = int_rows(lvl["cols"], "the sequence level's cols")
            return n, SublatticeBasis.from_cols(ambient, cols)

        seq = NestedLatticeSequence(ambient, tuple(map(level, obj["levels"])))
        rows = [(m, local_intersection(seq, m, args.ncap))
                for m in range(1, args.mmax + 1)]
        emit_table(rows, ["m", "local_intersection"], args.out,
                   manifest={"cmd": "budget.intersect", "in": args.infile,
                             "mmax": args.mmax, "ncap": args.ncap})
        return 0


if __name__ == "__main__":
    sys.exit(main())
