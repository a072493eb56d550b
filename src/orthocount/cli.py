"""Command-line driver.

Exit codes: 0 success, 1 input error, 2 mathematical-assertion failure
(the latter is reserved so CI can grep for genuine verification breakage).
"""

import argparse
import json
import sys
from fractions import Fraction

from .tableio import emit_table, parse_rational


class VerificationFailure(Exception):
    pass


def main(argv=None):
    try:
        return _dispatch(argv if argv is not None else sys.argv[1:])
    except VerificationFailure as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:
        print(f"arithmetic failure: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _dispatch(argv):
    ap = argparse.ArgumentParser(prog="orthocount")
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
    from .lattice import (det_and_disc_group, elementary_divisors,
                          lattice_from_json, successive_minima, theta_table)
    L = lattice_from_json(_load_json(args.infile))
    det, disc = det_and_disc_group(L)
    rows = [("det", Fraction(det)), ("disc_group_order", Fraction(disc)),
            ("elementary_divisors", ";".join(map(str, elementary_divisors(L))))]
    if L.positive_definite:
        mu_sq, a_sq = successive_minima(L)
        rows.append(("mu_sq", ";".join(map(str, mu_sq))))
        rows.append(("a_sq", ";".join(map(str, a_sq))))
        table = theta_table(L, args.mmax)
        for m, c in enumerate(table):
            rows.append((f"r({m})", Fraction(c)))
    emit_table(rows, ["key", "value"], args.out,
               manifest={"cmd": "lattice", "in": args.infile, "mmax": args.mmax})
    return 0


def _cmd_density(args):
    from .density import local_density_naive, local_density_recursive
    from .lattice import lattice_from_json
    L = lattice_from_json(_load_json(args.infile))
    if args.p < 3:
        raise ValueError("p must be an odd prime")
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


def load_curve_profile(obj):
    """Curve-profile JSON -> CurveSubstitution."""
    from .crystal import CurveSubstitution, crystal_ring, superspecial_ring
    from .series import SeriesRing
    p = obj["p"]
    case = obj["case"]
    n = obj.get("n", 1)
    m = obj["m"]
    tmax = obj["T_max"]
    rmax = obj.get("R_max", 8)
    ring = superspecial_ring(p, rmax) if case == "superspecial" \
        else crystal_ring(p, rmax, n)
    sr = SeriesRing(ring, tmax)
    series = {}
    for name, terms in obj["series"].items():
        s = sr.zero_series()
        for t_exp, unit, pval in terms:
            if isinstance(unit, list):  # extension-ring coordinates
                coeff = tuple(int(x) for x in unit) + (0,) * (ring.deg - len(unit))
            else:
                coeff = int(unit)
            s = s.add(sr.monomial(int(t_exp), coeff, pshift=int(pval)))
        series[name] = s
    return CurveSubstitution(case, n, m, sr, series)


def _cmd_crystal(args):
    from .crystal import (f_infinity_partial, first_nonintegral_order,
                          frobenius_F, integral_basis_matrix, min_tval_at_pval,
                          ssp_s0prime, superspecial_F, synthesize_s0prime)
    from .valcomb import (SuperspecialProfile, min_set, schedule_hprime,
                          ssp_min_valuation)
    prof = _load_json(args.profile)
    if args.tmax is not None:
        prof["T_max"] = args.tmax
    coords = load_curve_profile(prof)
    sr = coords.sring
    p = sr.ring.p
    if coords.case == "superspecial":
        F = superspecial_F(coords)
    else:
        s0, s0inv = synthesize_s0prime(sr.ring, coords.n, seed=prof.get("seed", 1))
        F = frobenius_F(coords, s0, s0inv)
    # the fewest factors N with v_t(F^(N)) = p^N v_t(F) > T_max; an F with a
    # constant t-term (v_t(F) = 0) is refused by f_infinity_partial
    minv, N = F.min_t_valuation(), 1
    while minv and minv * p ** N <= sr.tmax:
        N += 1
    finf = f_infinity_partial(F, N)
    rows = []
    ok = True
    if coords.case == "superspecial":
        _, sinv = ssp_s0prime(sr.ring)
        basis = integral_basis_matrix(sr, sinv, 1, 2 * coords.m)
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
        for r in range(1, args.rmax + 1):
            nu_r, _ = min_set(r, vprof)
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

    from .valcomb import (SuperspecialProfile, ValuationProfile, min_set,
                          schedules, ssp_min_valuation, verify_minval)
    if args.mode in ("min-set", "verify-minval"):
        for flag in ("rmax", "nmax"):
            if getattr(args, flag, 1) < 1:
                raise ValueError(f"--{flag} must be >= 1")
    if args.mode == "min-set":
        a = tuple(int(x) for x in args.a.split(","))
        prof = ValuationProfile(n=args.n, p=args.p, a=a)
        rows = []
        for r in range(1, args.rmax + 1):
            nu_r, argmin = min_set(r, prof)
            rows.append((r, nu_r, ";".join("".join(map(str, I)) for I in argmin)))
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
    raise ValueError(f"unknown valcomb mode {args.mode}")


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
        obj = _load_json(args.infile)
        budget = CurveBudget(
            obj["p"], parse_rational(obj["omegaC"]),
            tuple((pt["label"], pt["h"], pt["type"]) for pt in obj["points"]))
        ql = parse_rational(args.ql)
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
        obj = _load_json(args.infile)
        ambient = lattice_from_json(obj["ambient"])
        levels = tuple(
            (lvl["n_start"], SublatticeBasis.from_cols(ambient, lvl["cols"]))
            for lvl in obj["levels"])
        seq = NestedLatticeSequence(ambient, levels)
        rows = [(m, local_intersection(seq, m, args.ncap))
                for m in range(1, args.mmax + 1)]
        emit_table(rows, ["m", "local_intersection"], args.out,
                   manifest={"cmd": "budget.intersect", "in": args.infile,
                             "mmax": args.mmax, "ncap": args.ncap})
        return 0
    raise ValueError(f"unknown budget mode {args.mode}")


if __name__ == "__main__":
    sys.exit(main())
