import hashlib
import json

import pytest

from orthocount.cli import main
from orthocount.tableio import emit_table, render_cell
from fractions import Fraction


@pytest.fixture
def lattice_file(tmp_path):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({
        "rank": 2, "gram": [[2, 0], [0, 2]], "positive_definite": True}))
    return str(path)


class TestTableIO:
    def test_rational_rendering(self):
        assert render_cell(Fraction(7, 20)) == "7/20"
        assert render_cell(Fraction(4)) == "4"
        assert render_cell(None) == ""
        assert render_cell(True) == "true"

    def test_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_table([], ["a", "b"], str(path))
        assert path.read_text() == "a,b\n"

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rows = [(1, Fraction(1, 3)), (2, Fraction(2, 3))]
        emit_table(rows, ["m", "v"], str(p1), manifest={"seed": 7, "cmd": "x"})
        emit_table(rows, ["m", "v"], str(p2), manifest={"cmd": "x", "seed": 7})
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().startswith("# cmd=x seed=7\n")

    def test_arity_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            emit_table([(1, 2, 3)], ["a", "b"], str(tmp_path / "x.csv"))


class TestCli:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert capsys.readouterr().err.startswith("error: argument cmd: invalid choice")

    def test_missing_file(self):
        assert main(["lattice", "--in", "/nonexistent.json"]) == 1

    def test_lattice(self, lattice_file, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["lattice", "--in", lattice_file, "--mmax", "4",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "r(1),4" in text and "det,4" in text

    def test_lattice_smith_form_once(self, tmp_path, monkeypatch, capsys):
        # the elementary divisors row and the discriminant group order share
        # one Smith form
        import orthocount.lattice as lattice
        calls = []
        real = lattice.smith_normal_form
        monkeypatch.setattr(lattice, "smith_normal_form",
                            lambda M: calls.append(1) or real(M))
        path = tmp_path / "lat.json"
        path.write_text(json.dumps({"gram": [[2, 1, 0], [1, 2, 0], [0, 0, 40]],
                                    "positive_definite": True}))
        assert main(["lattice", "--in", str(path), "--mmax", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "elementary_divisors,1;1;120" in lines and "disc_group_order,120" in lines
        assert len(calls) == 1

    def test_density(self, lattice_file, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["density", "--in", lattice_file, "--p", "5", "--mmax", "8",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "m,delta_naive,delta_recursive,agree"
        assert all(line.endswith("true") for line in lines[2:])

    def test_eis_e8_check(self, tmp_path):
        out = tmp_path / "e8.csv"
        assert main(["eis", "--e8-check", "--mmax", "6", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[2].startswith("1,240,240,true")

    def test_eis_requires_input(self):
        assert main(["eis", "--mmax", "4"]) == 1

    def test_valcomb_minset(self, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["valcomb", "min-set", "--n", "1", "--a", "10,1",
                     "--rmax", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[3] == "2,15,12"

    def test_valcomb_minset_past_the_index_space(self, capsys):
        # 5^11 index tuples, one argmin: the guard bounds the output only
        assert main(["valcomb", "min-set", "--n", "4", "--p", "7", "--a", "12,11,9,5,1",
                     "--rmax", "11"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "11,847425745,11111111115"

    def test_valcomb_minset_rows_in_one_pass(self, monkeypatch, capsys):
        # the rows r = 1..rmax come from one pass of the recursion, not from
        # one min_set call per r
        import orthocount.valcomb as valcomb_mod
        real, passes = valcomb_mod.min_sets, []

        def counted(rmax, prof):
            passes.append(rmax)
            return real(rmax, prof)

        monkeypatch.setattr(valcomb_mod, "min_sets", counted)
        monkeypatch.setattr(valcomb_mod, "min_set", None)
        assert main(["valcomb", "min-set", "--n", "4", "--p", "7", "--a", "12,11,9,5,1",
                     "--rmax", "300"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert passes == [300] and len(rows) == 302  # a manifest line, the header, 300 rows
        assert rows[-1].startswith("300,") and rows[-1].endswith("," + "1" * 299 + "5")

    def test_valcomb_verify(self, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["valcomb", "verify-minval", "--trials", "20", "--seed", "7",
                     "--rmax", "4", "--out", str(out)]) == 0

    def test_valcomb_verify_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["valcomb", "verify-minval", "--trials", "10", "--seed", "3",
                  "--rmax", "3", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_valcomb_schedules(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["valcomb", "schedules", "--h", "2", "--p", "5", "--a", "1",
                     "--rmax", "2", "--out", str(out)]) == 0
        text = out.read_text()
        assert "h,0,2" in text and "h,1,12" in text and "h,2,62" in text
        assert "hprime,-1,0" in text

    def test_valcomb_sspmin(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["valcomb", "ssp-min", "--h", "2", "--hprime", "13", "--a", "1",
                     "--rmax", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[2].startswith("1,0,11,")

    @pytest.mark.parametrize("argv", [
        ["min-set", "--n", "1", "--a", "3,1", "--rmax", "0"],
        ["verify-minval", "--rmax", "0"],
        ["verify-minval", "--rmax", "-2"],
        ["verify-minval", "--nmax", "0"],
        ["min-set", "--n", "1", "--p", "4", "--a", "3,1"],
        ["min-set", "--n", "1", "--p", "1", "--a", "3,1"],
        ["verify-minval", "--nmax", "4", "--rmax", "11", "--trials", "1"],
    ])
    def test_valcomb_refusals(self, argv, capsys):
        assert main(["valcomb"] + argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_valcomb_readme_bytes(self, capsys):
        # the bytes the tuple-at-a-time search printed for the README examples
        assert main(["valcomb", "min-set", "--n", "2", "--a", "10,3,1", "--rmax", "4"]) == 0
        assert capsys.readouterr().out.encode() == (
            b"# a=10,3,1 cmd=valcomb.min-set n=2 p=5 rmax=4\n"
            b"r,nu_r,argmins\n1,1,3\n2,15,13\n3,85,113\n4,435,1113\n")
        assert main(["valcomb", "verify-minval", "--trials", "200", "--seed", "7"]) == 0
        out = capsys.readouterr().out.encode()
        assert len(out) == 3973
        assert hashlib.sha256(out).hexdigest() == \
            "5d885d57a235f43f15b91c8eee37c27da17a65639ffae4b69333d0a344d5068a"

    def test_budget_ssmain(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["budget", "ssmain-table", "--pmax", "13",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "5,nonss,7/20,11/12,true" in text
        assert "5,ssp1,61/62,61/62,true" in text
        assert "5,ssp2,17/20,17/20,true" in text

    def test_budget_formal_curve(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["budget", "formal-curve", "--jmax", "1",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[2] == "0,1,2,5^1"
        assert lines[3] == "1,25,37,5^25"

    def test_budget_ledger(self, tmp_path):
        blob = {"p": 5, "omegaC": "3", "points": [
            {"label": "P1", "h": 4, "type": "superspecial"},
            {"label": "P2", "h": 8, "type": "nonss-supersingular"},
        ]}
        path = tmp_path / "budget.json"
        path.write_text(json.dumps(blob))
        out = tmp_path / "l.csv"
        assert main(["budget", "ledger", "--in", str(path), "--ql", "100",
                     "--out", str(out)]) == 0
        assert "identity,true" in out.read_text()

    def test_budget_ledger_rationals(self, tmp_path):
        blob = {"p": 5, "omegaC": "3/2", "points": [
            {"label": "P1", "h": 4, "type": "superspecial"},
            {"label": "P2", "h": 2, "type": "nonss-supersingular"},
            {"label": "Q", "h": 0, "type": "ordinary"},
        ]}
        path = tmp_path / "budget.json"
        path.write_text(json.dumps(blob))
        out = tmp_path / "l.csv"
        assert main(["budget", "ledger", "--in", str(path), "--ql", "7/3",
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == [
            "key,value", "mass,6", "target_mass,6", "sum_gP,7/2",
            "qL_times_omegaC,7/2", "identity,true"]

    def test_budget_intersect(self, tmp_path):
        blob = {
            "ambient": {"rank": 2, "gram": [[2, 0], [0, 2]], "positive_definite": True},
            "levels": [
                {"n_start": 1, "cols": [[1, 0], [0, 1]]},
                {"n_start": 2, "cols": [[0, 5], [1, 0]]},
                {"n_start": 3, "cols": [[0, 5], [5, 0]]},
            ],
        }
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(blob))
        out = tmp_path / "i.csv"
        assert main(["budget", "intersect", "--in", str(path), "--mmax", "2",
                     "--ncap", "10", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[2] == "1,6"

    def test_crystal_superspecial_profile(self, tmp_path):
        # a Case-1 geometry (h=2 < h'=6), small window, r = 0 only
        prof = {
            "p": 5, "case": "superspecial", "n": 1, "m": 2,
            "series": {
                "x1": [[1, 1, 0]], "y1": [[1, 1, 0]],
                "x2": [[3, 1, 0]], "y2": [[2, 1, 0]],
            },
            "T_max": 120, "R_max": 8,
        }
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(prof))
        out = tmp_path / "c.csv"
        for w in ("e1", "eprime1"):
            rc = main(["crystal", "--profile", str(path), "--rmax", "0",
                       "--w", w, "--out", str(out)])
            assert rc == 0
            text = out.read_text().splitlines()
            assert text[1] == "r,nu,decay_bound,schedule_bound,pass"
            assert all(line.endswith("true") for line in text[2:])

    def test_crystal_generic_profile(self, tmp_path):
        prof = {
            "p": 5, "case": "generic", "n": 2, "m": 1,
            "series": {
                "x1": [[2, 1, 0]], "y1": [[1, 1, 0]],
                "xp1": [[2, 2, 0]], "yp1": [[1, 3, 0]],
            },
            "T_max": 160, "R_max": 8, "seed": 5,
        }
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(prof))
        out = tmp_path / "c.csv"
        assert main(["crystal", "--profile", str(path), "--rmax", "3",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert all(line.endswith("true") for line in lines[2:])

    def test_crystal_constant_t_term(self, tmp_path, capsys):
        # x1 = 1 + ... puts a t^0 term into F, so no N makes F_inf converge
        profiles = [
            {"p": 5, "case": "superspecial", "n": 1, "m": 2,
             "series": {"x1": [[0, 1, 0]], "y1": [[1, 1, 0]],
                        "x2": [[3, 1, 0]], "y2": [[2, 1, 0]]},
             "T_max": 40, "R_max": 8},
            {"p": 5, "case": "generic", "n": 2, "m": 1,
             "series": {"x1": [[0, 1, 0]], "y1": [[1, 1, 0]],
                        "xp1": [[2, 2, 0]], "yp1": [[1, 3, 0]]},
             "T_max": 40, "R_max": 8, "seed": 5},
        ]
        path = tmp_path / "curve.json"
        for prof in profiles:
            path.write_text(json.dumps(prof))
            assert main(["crystal", "--profile", str(path), "--rmax", "1",
                         "--out", str(tmp_path / "c.csv")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: F has a constant t-term"), err

    def test_lattice_rank_zero(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"rank": 0, "gram": []}))
        assert main(["lattice", "--in", str(path), "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == "error: a lattice needs rank >= 1\n"

    def test_lattice_refuses_huge_enumeration(self, tmp_path, capsys):
        # E8 to 100 is about 6.5e9 points: refused up front, not run for hours
        from conftest import E8_GRAM
        path = tmp_path / "e8.json"
        path.write_text(json.dumps({"rank": 8, "gram": E8_GRAM, "positive_definite": True}))
        assert main(["lattice", "--in", str(path), "--mmax", "100",
                     "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: enumeration to bound 100 would visit about 6.49e+09 ")
        assert err.endswith(" guard\n")

    def test_lattice_refuses_huge_table(self, tmp_path, capsys):
        # a rank-1 table to 10^12 would need 10^12 + 1 counts: refused up
        # front rather than dying allocating them
        path = tmp_path / "a1.json"
        path.write_text(json.dumps({"rank": 1, "gram": [[2]], "positive_definite": True}))
        assert main(["lattice", "--in", str(path), "--mmax", "1000000000000",
                     "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err == ("error: a theta table to bound 1000000000000 has 1000000000001 "
                       "entries, more than the 1e+08 guard\n")

    @pytest.mark.parametrize("p", ["9", "15", "25"])
    def test_eis_rejects_composite_p(self, p, capsys):
        assert main(["eis", "--e8-check", "--p", p, "--mmax", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: p must be an odd prime >= 5\n"

    def test_exit_code_2_on_arithmetic_failure(self, tmp_path, capsys, monkeypatch):
        # a 3-adic Jordan scale of 3^8 is within the splitting's working
        # precision, so the table is written
        import orthocount.density as density_mod
        import orthocount.lattice as lattice_mod
        path = tmp_path / "deep.json"
        gram = [[2 if i == j else 0 for j in range(5)] for i in range(5)]
        gram[4][4] = 2 * 3 ** 8
        path.write_text(json.dumps({"rank": 5, "gram": gram, "positive_definite": True}))
        args = ["eis", "--in", str(path), "--b", "3", "--out", str(tmp_path / "x.csv")]
        assert main(args) == 0
        assert capsys.readouterr().err == ""
        # a broken splitting invariant is an ArithmeticError: exit code 2
        monkeypatch.setattr(lattice_mod, "valuation", lambda n, p, zero: zero)
        density_mod._blockwise_factors.cache_clear()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("arithmetic failure: a pivot of valuation >= ")
        assert err.endswith(", beyond v_ell(det) = 0\n")

    def test_other_arithmetic_errors_exit_1(self, monkeypatch, capsys):
        # exit code 2 is only for InvariantError and VerificationFailure: a
        # ZeroDivisionError from an input no check refused is an input error
        import orthocount.valcomb as valcomb_mod

        def divide(rmax, prof):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(valcomb_mod, "min_sets", divide)
        assert main(["valcomb", "min-set", "--n", "1", "--a", "10,1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: division by zero\n"

    def test_exit_code_2_on_verification_failure(self, lattice_file, tmp_path,
                                                 monkeypatch):
        # exit code 2 is reserved for mathematical-assertion failures; force
        # one by breaking an oracle
        import orthocount.cli as cli_mod
        import orthocount.density as density_mod
        from fractions import Fraction as F

        def broken(p, L, m):
            return F(999)

        monkeypatch.setattr(density_mod, "local_density_recursive", broken)
        assert main(["density", "--in", lattice_file, "--p", "5", "--mmax", "4",
                     "--out", str(tmp_path / "x.csv")]) == 2


def _a_gram(n):
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
            for i in range(n)]


def _d_gram(n):
    G = _a_gram(n)
    G[n - 2][n - 1] = G[n - 1][n - 2] = 0
    G[n - 3][n - 1] = G[n - 1][n - 3] = -1
    return G


def _e_gram(n):
    G = _a_gram(n)
    G[n - 2][n - 1] = G[n - 1][n - 2] = 0
    G[2][n - 1] = G[n - 1][2] = -1
    return G


def _cusp_gram():
    # 2 diag(1, 1, 1, 1, 1, 16): not alone in its genus, nonzero residuals
    G = [[2 * (i == j) for j in range(6)] for i in range(6)]
    G[5][5] = 32
    return G


class TestEisGoldenBytes:
    """SHA-256 of the `eis` CSV rows (header on; the manifest line carries
    the input path) at m <= 40, p = 7: every cell is an exact rational."""

    CASES = {
        "D8": (_d_gram(8), 6,
               "6d07d2114404f4d092aaa61ae5e9bf1ba0a0558e86e9884da6dd71df34b8c68e"),
        "E7": (_e_gram(7), 5,
               "28cf16b814edd354c314dd7035de9754f5c4342c5d59ff08dd69db09514514dd"),
        "A5": (_a_gram(5), 3,
               "4750314d258843ef6690667cdf6c98e96a2ad60431a393fa31481d5c6a6cbe3d"),
        "D5": (_d_gram(5), 3,
               "23f1348c38b8467009a29d4e17d58be2ec36cff1288eabc8fe1f889f8a78bf8b"),
        "E6": (_e_gram(6), 4,
               "a5cc9994b1e32d4a4f09e9aaebfa6ea166a24141e20f309416366fb9071aab9a"),
        "cusp6": (_cusp_gram(), 4,
                  "bdf98a05eb48ce580dac6b8801f39826070d88a9b0e01bc4183c1dbacc1b40b4"),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_eis_rows(self, tmp_path, name):
        gram, b, digest = self.CASES[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"rank": len(gram), "gram": gram,
                                    "positive_definite": True}))
        out = tmp_path / f"{name}.csv"
        assert main(["eis", "--in", str(path), "--b", str(b), "--mmax", "40",
                     "--out", str(out)]) == 0
        manifest, rows = out.read_bytes().split(b"\n", 1)
        assert manifest.startswith(b"# b=")
        assert rows.startswith(b"m,qL_abs,qLprime,rep_count,cusp_residual\n")
        assert hashlib.sha256(rows).hexdigest() == digest

    def test_e8_check(self, tmp_path):
        out = tmp_path / "e8.csv"
        assert main(["eis", "--e8-check", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "a409b5956207a488f66dee25732d83374b6fe8551d0d8b0b29f7889ec5b55eaa"

    def test_broken_invariant_exits_2(self, tmp_path, capsys, monkeypatch):
        # an L-value reporting the wrong power of pi leaves a power of pi over
        import orthocount.eisenstein as eis_mod
        real = eis_mod.lvalue_closed_form

        def shifted(s, D):
            q, spow, d = real(s, D)
            return q, spow + 1, d

        path = tmp_path / "e6.json"
        path.write_text(json.dumps({"rank": 6, "gram": _e_gram(6),
                                    "positive_definite": True}))
        monkeypatch.setattr(eis_mod, "lvalue_closed_form", shifted)
        assert main(["eis", "--in", str(path), "--b", "4", "--mmax", "2",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == \
            "arithmetic failure: pi^(-1) survives in a coefficient\n"


class TestDensityGoldenBytes:
    """SHA-256 of the `density` CSV rows (header on; the manifest line carries
    the input path) at m <= 20: naive against recursive at depth 1."""

    CASES = {
        "hyp_p5": ([[0, 1], [1, 0]], False, 5,
                   "8fdff7474a13ed6be8c1819ba3d24429ba1416705588ab93f4097ac5fcdf44dd"),
        "rank4_p7": ([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 6]], True, 7,
                     "531dbed1a2c6a71c257512de50b9d7138dcbf08417d9d0ad09c86fe7dc3dea6c"),
        # det 3051 = 3^3 113: a Jordan block of scale 3 next to the unit part
        "rank6_p3": ([[2, 1, 0, 0, 0, 0], [1, 4, 1, 0, 0, 0], [0, 1, 4, 3, 0, 0],
                      [0, 0, 3, 6, 3, 0], [0, 0, 0, 3, 6, 3], [0, 0, 0, 0, 3, 12]], True, 3,
                     "08bdd9f357b7cd67714207e809eb52530fc2891f9f4afeb1672b02a12b2cb84a"),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_density_rows(self, tmp_path, name):
        gram, positive_definite, p, digest = self.CASES[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"rank": len(gram), "gram": gram,
                                    "positive_definite": positive_definite}))
        out = tmp_path / f"{name}.csv"
        assert main(["density", "--in", str(path), "--p", str(p), "--mmax", "20",
                     "--out", str(out)]) == 0
        manifest, rows = out.read_bytes().split(b"\n", 1)
        assert manifest.startswith(b"# cmd=density")
        assert rows.startswith(b"m,delta_naive,delta_recursive,agree\n")
        assert hashlib.sha256(rows).hexdigest() == digest


class TestCrystalGoldenBytes:
    """SHA-256 of the `crystal` CSV rows (header on; the manifest line carries
    the profile path) for the superspecial and generic profiles of TestCli."""

    SSP = {"p": 5, "case": "superspecial", "n": 1, "m": 2,
           "series": {"x1": [[1, 1, 0]], "y1": [[1, 1, 0]],
                      "x2": [[3, 1, 0]], "y2": [[2, 1, 0]]},
           "T_max": 120, "R_max": 8}
    GENERIC = {"p": 5, "case": "generic", "n": 2, "m": 1,
               "series": {"x1": [[2, 1, 0]], "y1": [[1, 1, 0]],
                          "xp1": [[2, 2, 0]], "yp1": [[1, 3, 0]]},
               "T_max": 160, "R_max": 8, "seed": 5}
    CASES = {
        "ssp_e1": (SSP, ["--rmax", "1", "--w", "e1"],
                   "5066f3915f1f428ef805916b00cf5a402bd55de1fffaa7c6a7ede394dc9c0c4f"),
        "ssp_f1": (SSP, ["--rmax", "1", "--w", "f1"],
                   "5066f3915f1f428ef805916b00cf5a402bd55de1fffaa7c6a7ede394dc9c0c4f"),
        "ssp_eprime1": (SSP, ["--rmax", "1", "--w", "eprime1"],
                        "0a41c5298e6b311286a03b564cbfdf2eaf5f14188730a2d2fe5631d07a7eca8e"),
        "generic": (GENERIC, ["--rmax", "3"],
                    "e78023616d15654a908405561bfe873c04c12af8fede98edb89f67d23b1698ff"),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_crystal_rows(self, tmp_path, name):
        prof, argv, digest = self.CASES[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(prof))
        out = tmp_path / f"{name}.csv"
        assert main(["crystal", "--profile", str(path), "--out", str(out)] + argv) == 0
        manifest, rows = out.read_bytes().split(b"\n", 1)
        assert b"cmd=crystal " in manifest
        assert rows.startswith(b"r,nu,decay_bound,schedule_bound,pass\n")
        assert hashlib.sha256(rows).hexdigest() == digest

    def test_unit_as_coordinate_list(self, tmp_path):
        # a unit written as extension-ring coordinates, [1], is the unit 1
        prof = dict(self.SSP, series=dict(self.SSP["series"], x2=[[3, [1], 0]]))
        path = tmp_path / "list_unit.json"
        path.write_text(json.dumps(prof))
        out = tmp_path / "list_unit.csv"
        assert main(["crystal", "--profile", str(path), "--out", str(out),
                     "--rmax", "1", "--w", "eprime1"]) == 0
        rows = out.read_bytes().split(b"\n", 1)[1]
        assert hashlib.sha256(rows).hexdigest() == self.CASES["ssp_eprime1"][2]


def _skewed_e8():
    from conftest import E8_GRAM, random_unimodular

    from orthocount.intmat import mat_mul, transpose
    U = random_unimodular(__import__("random").Random(5), 8, steps=30)
    return mat_mul(mat_mul(transpose(U), E8_GRAM), U)


class TestLatticeGoldenBytes:
    """SHA-256 of the `lattice` CSV rows (header on; the manifest line
    carries the input path) at m <= 12, as the separate theta and minima
    walks printed them: the table is now computed first and its kept walk
    serves the minima."""

    CASES = {
        "E8": (_e_gram(8),
               "cde9a336e82fb9c30253e08dcd6b5d1f07727d8b0d2355ff6efbc020e7439c14"),
        "D8": (_d_gram(8),
               "4bd9f94eb2e21902dc450c440a5a4bce78c2d1eef9a1a5b2ce3331f9b7292691"),
        # three orthogonal blocks; the last minimum (20) is past the table
        "A2_A2_40": ([[2, 1, 0, 0, 0], [1, 2, 0, 0, 0], [0, 0, 2, 1, 0],
                      [0, 0, 1, 2, 0], [0, 0, 0, 0, 40]],
                     "920f3e00563f646120d5647b2d742259545532f391cfa490e7f3dd74f24ed31b"),
        # E8 in a basis of vectors up to Q ~ 10^4: the same invariants
        "skewed_E8": (_skewed_e8(),
                      "cde9a336e82fb9c30253e08dcd6b5d1f07727d8b0d2355ff6efbc020e7439c14"),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_lattice_rows(self, tmp_path, name):
        gram, digest = self.CASES[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"rank": len(gram), "gram": gram,
                                    "positive_definite": True}))
        out = tmp_path / f"{name}.csv"
        assert main(["lattice", "--in", str(path), "--mmax", "12", "--out", str(out)]) == 0
        manifest, rows = out.read_bytes().split(b"\n", 1)
        assert b"cmd=lattice " in manifest
        assert rows.startswith(b"key,value\ndet,")
        assert hashlib.sha256(rows).hexdigest() == digest


class TestInputBoundary:
    """Bad input exits 1 with a one-line message, never a traceback or the
    exit code 2 of a broken invariant."""

    SSP = TestCrystalGoldenBytes.SSP
    SERIES_X1 = ("the profile's series x1 must be a list of [t_exp, unit, pval] int "
                 "triples, a unit maybe a list of at most 2 ints")

    @staticmethod
    def refused(argv, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
        return err

    @pytest.mark.parametrize("profile, message", [
        (dict(SSP, p=2), "the profile's p must be a prime >= 5, not 2"),
        (dict(SSP, p=4), "the profile's p must be a prime >= 5, not 4"),
        (dict(SSP, p=3), "the profile's p must be a prime >= 5, not 3"),
        ([SSP], "a curve profile must be a JSON object"),
        (dict(SSP, T_max=0), "the profile's T_max must be an integer >= 1, not 0"),
        (dict(SSP, m=0), "the profile's m must be an integer >= 1, not 0"),
        (dict(SSP, n=0), "the profile's n must be an integer >= 1, not 0"),
        (dict(SSP, R_max=-1), "the profile's R_max must be an integer >= 1, not -1"),
        ({k: v for k, v in SSP.items() if k != "m"}, "the curve profile lacks m"),
        ({"case": "generic"}, "the curve profile lacks p, m, T_max, series"),
        (dict(SSP, series=[]), "the profile's series must be a JSON object"),
        (dict(SSP, series=dict(SSP["series"], x1=5)), SERIES_X1),
        (dict(SSP, series=dict(SSP["series"], x1=[[1, 1]])), SERIES_X1),
        (dict(SSP, series=dict(SSP["series"], x1=[["1", 1, 0]])), SERIES_X1),
        (dict(SSP, series=dict(SSP["series"], x1=[[1, 1.5, 0]])), SERIES_X1),
        (dict(SSP, series=dict(SSP["series"], x1=[[1, [1, 0, 0], 0]])), SERIES_X1),
        (dict(SSP, series=dict(SSP["series"], x1=[[1, [1, "0"], 0]])), SERIES_X1),
    ], ids=["p2", "p4", "p3", "list", "tmax0", "m0", "n0", "rmax_neg", "no_m",
            "four_missing", "series_list", "series_int", "term_pair", "texp_str",
            "unit_float", "unit_too_long", "unit_str"])
    def test_curve_profile(self, tmp_path, capsys, profile, message):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(profile))
        # --tmax overrides T_max before the check, and must not trip first
        for extra in ([], [] if "T_max" in message else ["--tmax", "40"]):
            err = self.refused(["crystal", "--profile", str(path), "--rmax", "1",
                                "--out", str(tmp_path / "c.csv")] + extra, capsys)
            assert err == f"error: {message}\n"

    def test_tmax_override_zero(self, tmp_path, capsys):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(self.SSP))
        err = self.refused(["crystal", "--profile", str(path), "--tmax", "0",
                            "--out", str(tmp_path / "c.csv")], capsys)
        assert err == "error: the profile's T_max must be an integer >= 1, not 0\n"

    def test_superspecial_ring_needs_an_odd_prime(self):
        from orthocount.crystal import superspecial_ring
        for p in (1, 2, 4, 9):
            with pytest.raises(ValueError, match=f"needs an odd prime p, not {p}$"):
                superspecial_ring(p, 4)

    @pytest.mark.parametrize("p", ["1", "6", "0"])
    def test_schedules_refuse_non_prime_p(self, p, capsys):
        err = self.refused(["valcomb", "schedules", "--h", "1", "--p", p], capsys)
        assert err == f"error: p must be prime, not {p}\n"

    def test_lattice_rank_must_match_gram(self, tmp_path, capsys):
        path = tmp_path / "lat.json"
        path.write_text(json.dumps({"rank": 3, "gram": [[2, 0], [0, 2]]}))
        err = self.refused(["lattice", "--in", str(path), "--out", str(tmp_path / "x.csv")],
                           capsys)
        assert err == "error: rank 3 disagrees with a 2x2 gram\n"

    @pytest.mark.parametrize("obj, message", [
        ([[2, 0], [0, 2]], "a lattice must be a JSON object"),
        ({}, "the lattice lacks gram"),
        ({"gram": 4}, "the lattice's gram must be a JSON list"),
        ({"gram": [2]}, "the lattice's gram must be a list of rows"),
        # int() read these as A2 (det 3) before
        ({"gram": [[2.9, 1], [1, 2]]}, "the lattice's gram must hold JSON integers, not 2.9"),
        ({"gram": [["2", 1], [1, 2]]}, "the lattice's gram must hold JSON integers, not '2'"),
        ({"gram": [[2, True], [True, 2]]},
         "the lattice's gram must hold JSON integers, not True"),
    ], ids=["list", "empty", "gram_int", "gram_flat", "gram_float", "gram_str", "gram_bool"])
    @pytest.mark.parametrize("argv", [["lattice"], ["density", "--p", "5"],
                                      ["eis", "--b", "6"]], ids=lambda a: a[0])
    def test_lattice_json(self, tmp_path, capsys, obj, message, argv):
        path = tmp_path / "lat.json"
        path.write_text(json.dumps(obj))
        err = self.refused(argv + ["--in", str(path), "--out", str(tmp_path / "x.csv")],
                           capsys)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("obj, message", [
        ([], "a ledger must be a JSON object"),
        ({"p": 5, "omegaC": "1"}, "the ledger lacks points"),
        ({"p": 5, "omegaC": "1", "points": 3}, "the ledger's points must be a JSON list"),
        ({"p": 5, "omegaC": "1", "points": [["P", 1, "superspecial"]]},
         "a ledger point must be a JSON object"),
        ({"p": 5, "omegaC": "1", "points": [{"label": "P"}]}, "the ledger point lacks h, type"),
    ], ids=["list", "no_points", "points_int", "point_list", "point_keys"])
    def test_ledger_json(self, tmp_path, capsys, obj, message):
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(obj))
        err = self.refused(["budget", "ledger", "--in", str(path), "--ql", "1",
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert err == f"error: {message}\n"

    LEDGER = {"p": 5, "omegaC": "1", "points": [
        {"label": "P", "h": 4, "type": "superspecial"}]}

    @pytest.mark.parametrize("obj, ql, message", [
        (dict(LEDGER, omegaC="1/0"), "1", "the ledger's omegaC must be an integer or a "
         "num/den string with a nonzero den, not '1/0'"),
        (dict(LEDGER, omegaC=1.5), "1", "the ledger's omegaC must be an integer or a "
         "num/den string with a nonzero den, not 1.5"),
        (LEDGER, "1/0", "--ql must be an integer or a num/den string with a nonzero "
         "den, not '1/0'"),
        (LEDGER, "abc", "--ql must be an integer or a num/den string with a nonzero "
         "den, not 'abc'"),
        (dict(LEDGER, p=1), "1", "the ledger's p must be a prime, not 1"),
        (dict(LEDGER, p=6), "1", "the ledger's p must be a prime, not 6"),
        (dict(LEDGER, p="5"), "1", "the ledger's p must be a prime, not '5'"),
        (dict(LEDGER, points=[{"label": "P", "h": "x", "type": "superspecial"}]), "1",
         "the ledger point's h must be an integer, not 'x'"),
    ], ids=["omegaC_zero_den", "omegaC_float", "ql_zero_den", "ql_word", "p1", "p6",
            "p_str", "h_str"])
    def test_ledger_values(self, tmp_path, capsys, obj, ql, message):
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(obj))
        err = self.refused(["budget", "ledger", "--in", str(path), "--ql", ql,
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["lattice"], "the following arguments are required: --in"),
        (["lattice", "--in", "x.json", "--mmax", "abc"],
         "argument --mmax: invalid int value: 'abc'"),
        (["frobnicate"], "argument cmd: invalid choice: 'frobnicate'"),
        ([], "the following arguments are required: cmd"),
        (["budget", "ledger", "--in", "x.json"], "the following arguments are required: --ql"),
        (["crystal", "--profile", "x.json", "--w", "g1"], "argument --w: invalid choice: 'g1'"),
    ], ids=["no_in", "mmax_word", "unknown", "empty", "no_ql", "bad_choice"])
    def test_usage_errors(self, capsys, argv, message):
        err = self.refused(argv, capsys)
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("argv", [["--help"], ["budget", "--help"],
                                      ["budget", "ledger", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith("usage: orthocount")

    LAT = {"gram": [[2, 0], [0, 2]], "positive_definite": True}

    @pytest.mark.parametrize("obj, message", [
        ([LAT], "a nested lattice sequence must be a JSON object"),
        ({"levels": []}, "the nested lattice sequence lacks ambient"),
        ({"ambient": [], "levels": []}, "a lattice must be a JSON object"),
        ({"ambient": LAT, "levels": {}},
         "the nested lattice sequence's levels must be a JSON list"),
        ({"ambient": LAT, "levels": [[1, [[1, 0], [0, 1]]]]},
         "a sequence level must be a JSON object"),
        ({"ambient": LAT, "levels": [{"cols": [[1, 0], [0, 1]]}]},
         "the sequence level lacks n_start"),
        ({"ambient": LAT, "levels": [{"n_start": 1, "cols": 1}]},
         "the sequence level's cols must be a JSON list"),
        ({"ambient": LAT, "levels": [{"n_start": 1, "cols": [1, 0]}]},
         "the sequence level's cols must be a list of rows"),
        # int() read these as the identity and as n = 2 before
        ({"ambient": LAT, "levels": [{"n_start": 1, "cols": [[1.5, 0], [0, 1]]}]},
         "the sequence level's cols must hold JSON integers, not 1.5"),
        ({"ambient": LAT, "levels": [{"n_start": 1, "cols": [[1, 0], [0, 1]]},
                                     {"n_start": 2.5, "cols": [[5, 0], [0, 1]]}]},
         "the sequence level's n_start must be a JSON integer, not 2.5"),
        ({"ambient": LAT, "levels": [{"n_start": "1", "cols": [[1, 0], [0, 1]]}]},
         "the sequence level's n_start must be a JSON integer, not '1'"),
    ], ids=["list", "no_ambient", "ambient_list", "levels_dict", "level_list", "level_keys",
            "cols_int", "cols_flat", "cols_float", "n_start_float", "n_start_str"])
    def test_sequence_json(self, tmp_path, capsys, obj, message):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(obj))
        err = self.refused(["budget", "intersect", "--in", str(path),
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, flag, least", [
        (["valcomb", "schedules", "--h", "{x}"], "h", 1),
        (["budget", "ssmain-table", "--pmax", "7", "--b", "{x}"], "b", 3),
        (["valcomb", "ssp-min", "--h", "2", "--hprime", "13", "--a", "1", "--rmax", "{x}"],
         "rmax", 0),
        (["budget", "formal-curve", "--jmax", "{x}"], "jmax", 0),
        (["lattice", "--in", "{lat}", "--mmax", "{x}"], "mmax", 0),
        (["density", "--in", "{lat}", "--mmax", "4", "--p", "{x}"], "p", 3),
        (["valcomb", "min-set", "--n", "1", "--a", "1,2", "--rmax", "{x}"], "rmax", 1),
        (["valcomb", "verify-minval", "--trials", "1", "--nmax", "{x}"], "nmax", 1),
        (["valcomb", "verify-minval", "--trials", "{x}"], "trials", 1),
        (["budget", "intersect", "--in", "{seq}", "--mmax", "2", "--ncap", "{x}"], "ncap", 1),
        (["crystal", "--profile", "{ssp}", "--rmax", "{x}"], "rmax", 0),
    ], ids=["schedules_h", "ssmain_b", "ssp_min_rmax", "formal_curve_jmax", "lattice_mmax",
            "density_p", "min_set_rmax", "verify_minval_nmax", "verify_minval_trials",
            "intersect_ncap", "crystal_rmax"])
    def test_option_floor(self, tmp_path, capsys, lattice_file, argv, flag, least):
        # each of these printed a table with no rows, or with every row 0, and exited 0
        seq, ssp = tmp_path / "seq.json", tmp_path / "ssp.json"
        seq.write_text(json.dumps({"ambient": self.LAT, "levels": [
            {"n_start": 1, "cols": [[1, 0], [0, 1]]}]}))
        ssp.write_text(json.dumps(self.SSP))

        def run(x):
            return [a.format(x=x, lat=lattice_file, seq=seq, ssp=ssp) for a in argv] + \
                ["--out", str(tmp_path / "x.csv")]
        for x in (least - 1, -3):
            err = self.refused(run(x), capsys)
            assert err == f"error: --{flag} must be >= {least}\n"
        assert main(run(least)) == 0

    def test_generic_crystal_states_one_floor(self, tmp_path, capsys):
        # --rmax -1 printed the superspecial floor ">= 0", --rmax 0 then ">= 1"
        path = tmp_path / "generic.json"
        path.write_text(json.dumps(TestCrystalGoldenBytes.GENERIC))
        for x in ("-1", "-3", "0"):
            err = self.refused(["crystal", "--profile", str(path), "--rmax", x,
                                "--out", str(tmp_path / "x.csv")], capsys)
            assert err == "error: --rmax must be >= 1 for a generic profile, whose trace " \
                "starts at r = 1\n"

    def test_generic_crystal_needs_rmax_1(self, tmp_path, capsys):
        # the generic trace starts at r = 1, so --rmax 0 printed no rows
        path = tmp_path / "generic.json"
        path.write_text(json.dumps(TestCrystalGoldenBytes.GENERIC))
        argv = ["crystal", "--profile", str(path), "--out", str(tmp_path / "x.csv")]
        err = self.refused(argv + ["--rmax", "0"], capsys)
        assert err == "error: --rmax must be >= 1 for a generic profile, whose trace starts " \
            "at r = 1\n"
        assert main(argv + ["--rmax", "1"]) == 0
