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
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_file(self):
        assert main(["lattice", "--in", "/nonexistent.json"]) == 1

    def test_lattice(self, lattice_file, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["lattice", "--in", lattice_file, "--mmax", "4",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "r(1),4" in text and "det,4" in text

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
