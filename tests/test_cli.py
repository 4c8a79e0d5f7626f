import ctypes
import itertools
import json
import math
import os
import platform
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qmcnet
from oracles import grid_coeff_oracle
from qmcnet import families as fam
from qmcnet import cli, haar, norms
from qmcnet.cli import IntegrandSpec, main
from qmcnet.cs import CSParams, cs_generating_matrices, cs_point_set
from qmcnet.errors import InvalidParams, SizeOverflow
from qmcnet.field import enumerate_span
from qmcnet.nets import GeneratingMatrices, PointSet, dual_set, save_pointset
from qmcnet.norms import warnock_l2_sq
from qmcnet.walsh import interval_coeff_vector


def run(argv):
    return main(argv)


def small_netfile(tmp_path):
    path = str(tmp_path / "d1.net")
    # CS parameters small enough for fast runs: b=3, d=1, w=2 (n=4, N=81)
    assert run(["generate", "--base", "3", "--dim", "1", "--w", "2", "--out", path]) == 0
    return path


def test_generate_and_verify_roundtrip(tmp_path):
    path = small_netfile(tmp_path)
    assert run(["verify", "--net", path]) == 0
    # determinism: regenerate and compare bytes
    path2 = str(tmp_path / "again.net")
    run(["generate", "--base", "3", "--dim", "1", "--w", "2", "--out", path2])
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_verify_reports_each_stage(tmp_path, capsys):
    # the paper's CS-11 net: the character-sum stage runs on its 11^4 dual words
    cs11 = str(tmp_path / "cs11.net")
    assert run(["generate", "--base", "11", "--dim", "2", "--w", "1", "--out", cs11]) == 0
    assert run(["verify", "--net", cs11]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["char_sum_ok"] is True and rep["dual_ok"] is True and "notice" not in rep
    # with the digital provenance of --matrices both stages are skipped and
    # the report says so
    mpath = tmp_path / "h.json"
    mpath.write_text(fam.hammersley_matrices(4).to_json())
    h4 = str(tmp_path / "h4.net")
    assert run(["generate", "--matrices", str(mpath), "--out", h4]) == 0
    assert run(["verify", "--net", h4]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["char_sum_ok"] is None and rep["dual_ok"] is None
    assert "character-sum" in rep["notice"]


def test_generate_to_stdout_matches_netfile(tmp_path, capsys):
    path = small_netfile(tmp_path)
    capsys.readouterr()
    assert run(["generate", "--base", "3", "--dim", "1", "--w", "2"]) == 0
    assert capsys.readouterr().out == Path(path).read_text()


def test_generate_bad_base_exit_code():
    assert run(["generate", "--base", "12", "--dim", "2"]) == 2


def test_generate_from_matrices(tmp_path, capsys):
    mat = GeneratingMatrices(2, 3, 2, np.stack([np.eye(3, dtype=np.int64)] * 2))
    mpath = tmp_path / "mats.json"
    mpath.write_text(mat.to_json())
    out = str(tmp_path / "m.net")
    assert run(["generate", "--matrices", str(mpath), "--out", out]) == 0
    # the two identical matrices give a diagonal (duplicated) point set:
    # still a valid netfile, but verify must fail the net property
    capsys.readouterr()
    assert run(["verify", "--net", out]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["net_route"] == "matrices" and rep["witness_shape"] == [1, 2]


def test_verify_a_digital_netfile_by_its_matrices(tmp_path, capsys):
    g = fam.hammersley_matrices(6)
    mpath = tmp_path / "h6.json"
    mpath.write_text(g.to_json())
    h6 = tmp_path / "h6.net"
    assert run(["generate", "--matrices", str(mpath), "--out", str(h6)]) == 0
    lines = h6.read_text().splitlines(keepends=True)
    prov = json.dumps({"kind": "digital", "matrices": g.mats.tolist()}, sort_keys=True)
    assert lines[1] == f"#provenance {prov}\n"
    # the rest of the file is the netfile of the points alone
    bare = tmp_path / "bare.net"
    save_pointset(PointSet(2, 6, 2, fam.hammersley(6).numerators), str(bare))
    assert lines[:1] + lines[2:] == bare.read_text().splitlines(keepends=True)

    def verify(text):
        h6.write_text("".join(text))
        code = run(["verify", "--net", str(h6)])
        return code, json.loads(capsys.readouterr().out)

    code, rep = verify(lines)
    assert code == 0 and rep["net_route"] == "matrices" and rep["passed"] is True
    assert "character-sum" in rep["notice"]
    # the matrices no longer generate the points in order: the boxes are scanned
    moved = lines[:-1] + [lines[-2]]  # a point on top of another
    code, rep = verify(moved)
    assert code == 1 and rep["net_route"] == "points" and rep["is_net"] is False
    swapped = lines[:3] + [lines[4], lines[3]] + lines[5:]
    code, rep = verify(swapped)
    assert code == 0 and rep["net_route"] == "points" and rep["is_net"] is True


@pytest.mark.parametrize("text", ["{not json", '{"b": 3}', "[1]", '{"b": 2.0, "n": 1, "d": 1}',
                                  '{"b": 2, "n": 1, "d": 1, "matrices": [[[1.5]]]}'])
def test_generate_from_a_malformed_matrices_file_is_a_parameter_error(tmp_path, capsys, text):
    # exit 2 with a message, not a JSONDecodeError, KeyError or TypeError traceback
    mpath = tmp_path / "mats.json"
    mpath.write_text(text)
    assert run(["generate", "--matrices", str(mpath)]) == 2
    assert "bad generating-matrix JSON" in capsys.readouterr().err


def with_provenance(path, prov):
    """Rewrite the netfile's #provenance line to `prov`."""
    text = re.sub("^#provenance .*$", "#provenance " + prov, Path(path).read_text(), flags=re.M)
    Path(path).write_text(text)
    return path


CS11_VERIFY = (
    '{"char_sum_ok": true, "dual_delta_min": 5, "dual_kappa_min": 5, '
    '"dual_ok": true, "is_net": true, "net_route": "points", "passed": true, "schema": 1}\n'
)


def test_verify_enumerates_no_dual_words(tmp_path, monkeypatch, capsys):
    # the minima come from ranks and the character sums run on the dual's
    # basis, so no span is enumerated
    cs11 = str(tmp_path / "cs11.net")
    assert run(["generate", "--base", "11", "--dim", "2", "--w", "1", "--out", cs11]) == 0
    capsys.readouterr()
    calls = []

    def counted(basis, b):
        calls.append(basis.shape)
        return enumerate_span(basis, b)

    for module in (qmcnet.cs, qmcnet.nets):
        monkeypatch.setattr(module, "enumerate_span", counted)
    assert run(["verify", "--net", cs11]) == 0
    assert calls == []
    assert capsys.readouterr().out == CS11_VERIFY


def test_verify_runs_past_the_enumeration_limit(tmp_path, monkeypatch, capsys):
    # the dual of CS-11 has 11^4 = 14641 words, above this limit
    cs11 = str(tmp_path / "cs11.net")
    assert run(["generate", "--base", "11", "--dim", "2", "--w", "1", "--out", cs11]) == 0
    capsys.readouterr()
    monkeypatch.setenv("QMCNET_LIMIT", "1000")
    assert run(["verify", "--net", cs11]) == 0
    assert capsys.readouterr().out == CS11_VERIFY


def test_verify_character_sums_fail_when_a_point_leaves_the_code(tmp_path, capsys):
    # point 2566 of CS-11 moved from k_2 = 5778 to 3044: one sum on the
    # dual's basis is not N, though the four least dual frequencies all are
    p = cs_point_set(CSParams(11, 2, 1))
    nums = p.numerators.copy()
    assert nums[2566, 1] == 5778
    nums[2566, 1] = 3044
    path = str(tmp_path / "moved.net")
    save_pointset(PointSet(11, 4, 2, nums, provenance=p.provenance), path)
    assert run(["verify", "--net", path]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["dual_ok"] is True and rep["char_sum_ok"] is False


def test_verify_character_sums_fail_on_another_net(tmp_path, capsys):
    # a (0, 4, 2)-net from other betas, with the default CS-11 provenance: the
    # dual's least frequencies do not sum to N on it
    other = cs_point_set(CSParams(11, 2, 1, ((0, 1, 2, 3), (4, 5, 6, 8))))
    prov = cs_point_set(CSParams(11, 2, 1)).provenance
    path = str(tmp_path / "other.net")
    save_pointset(PointSet(11, 4, 2, other.numerators, provenance=prov), path)
    assert run(["verify", "--net", path]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["is_net"] is True and rep["dual_ok"] is True
    assert rep["char_sum_ok"] is False and rep["passed"] is False


@pytest.mark.parametrize(
    "prov",
    [
        '{"kind": "cs"}',
        '{"kind": "cs", "params": {"b": "x", "d": 1, "w": 2}}',
        '{"kind": "cs", "params": {"b": 3, "d": 1, "w": 2, "betas": 5}}',
        '{"kind": "cs", "params": {"b": 3, "d": 1, "w": 2, "betas": [[0, 1.5]]}}',
        "[1]",
        "3",
        # the digital kind on the b=3, n=4, d=1 netfile: its matrices must
        # be 1 list of 4 lists of 4 JSON integers in [0, 3)
        '{"kind": "digital"}',
        '{"kind": "digital", "matrices": [[[1, 0], [0, 1]]]}',
        '{"kind": "digital", "matrices": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]]]}',
        '{"kind": "digital", "matrices": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.5]]]}',
        '{"kind": "digital", "matrices": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, "1"]]]}',
        '{"kind": "digital", "matrices": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, true]]]}',
    ],
)
def test_verify_malformed_provenance_is_a_parameter_error(tmp_path, capsys, prov):
    path = with_provenance(small_netfile(tmp_path), prov)
    assert run(["verify", "--net", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("base, dim, prov_base", [(3, 1, 5), (13, 2, 11)])
def test_verify_rejects_the_provenance_of_another_net(tmp_path, capsys, base, dim, prov_base):
    # a b=5 provenance once passed the b=3 net on its empty dual, and a b=11
    # one reported the b=11 code's minima for the b=13 net
    path = str(tmp_path / "cs.net")
    assert run(["generate", "--base", str(base), "--dim", str(dim), "--out", path]) == 0
    other = json.dumps({"kind": "cs", "params": {"b": prov_base, "d": dim, "w": 1}})
    capsys.readouterr()
    assert run(["verify", "--net", with_provenance(path, other)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    n = 2 * dim
    assert f"({prov_base}, {n}, {dim})" in captured.err and f"({base}, {n}, {dim})" in captured.err


def test_verify_corrupted_netfile(tmp_path):
    path = small_netfile(tmp_path)
    lines = open(path).read().splitlines()
    # duplicate one point to break the one-per-box property
    lines[-1] = lines[-2]
    bad = tmp_path / "bad.net"
    bad.write_text("\n".join(lines) + "\n")
    assert run(["verify", "--net", str(bad)]) == 1


def test_norm_reports(tmp_path, capsys):
    path = small_netfile(tmp_path)
    assert (
        run(["norm", "--net", path, "--p", "2", "--q", "2", "--r", "0.25", "--warnock"])
        == 0
    )
    out = capsys.readouterr().out.strip().splitlines()
    kinds = []
    for line in out:
        obj = json.loads(line)
        assert obj["schema"] == 1
        kinds.append(obj["kind"])
    assert kinds[0] == "parseval"
    assert kinds[1] == "besov"
    assert "warnock_crosscheck" in kinds
    cross = json.loads(out[kinds.index("warnock_crosscheck")])
    assert cross["within_tail"]


def test_norm_warnock_compares_with_the_exact_square(capsys):
    # Parseval's line carries its exact value, which is Warnock's exact
    # square; its value is that correctly rounded, within half an ulp
    assert run(["norm", "--base", "11", "--dim", "2", "--w", "1", "--warnock"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    pv, bs, cross = lines
    assert cross["kind"] == "warnock_crosscheck" and cross["parseval"] == pv["value"]
    exact = warnock_l2_sq(cs_point_set(CSParams(11, 2, 1)))
    assert Fraction(pv["exact"]) == exact and pv["exact"] == f"{exact.numerator}/{exact.denominator}"
    assert cross["warnock_sq"] == pv["value"] == float(exact)
    assert cross["within_tail"] is True
    assert pv["tail_bound"] == math.ulp(pv["value"]) / 2
    assert "exact" not in bs and set(pv) == set(bs) - {"out_of_window"} | {"exact"}


def test_norm_out_of_window_warning(tmp_path, capsys):
    path = small_netfile(tmp_path)
    run(["norm", "--net", path, "--r", "0.8"])
    out = capsys.readouterr().out
    assert "outside 0 < r < 1/p window" in out


@pytest.mark.parametrize("bad_line", ["x", "1.5", "#provenance {"])
def test_verify_malformed_netfile_is_a_parameter_error(tmp_path, bad_line):
    path = small_netfile(tmp_path)
    lines = open(path).read().splitlines()
    lines[-1] = bad_line
    bad = tmp_path / "bad.net"
    bad.write_text("\n".join(lines) + "\n")
    assert run(["verify", "--net", str(bad)]) == 2


@pytest.mark.parametrize("text", ["#qmcnet v1 b=1 n=1 d=2 N=1\n0 0\n", "#qmcnet v1 b=0 n=0 d=1 N=1\n0\n"])
@pytest.mark.parametrize("command", ["norm", "audit"])
def test_a_netfile_of_base_below_two_is_a_parameter_error(tmp_path, capsys, command, text):
    # norm raised a ZeroDivisionError and audit a zero-size ValueError, both
    # exit 1, the verification-failure code
    path = tmp_path / "small.net"
    path.write_text(text)
    assert run([command, "--net", str(path)]) == 2
    assert "need base b >= 2" in capsys.readouterr().err


def test_enumeration_limit_from_environment(monkeypatch, tmp_path):
    mpath = tmp_path / "h12.json"
    mpath.write_text(fam.hammersley_matrices(12).to_json())
    h12 = str(tmp_path / "h12.net")
    assert run(["generate", "--matrices", str(mpath), "--out", h12]) == 0
    monkeypatch.setenv("QMCNET_LIMIT", "1000")
    # b^n = 11^4 points and an 11^4-word null space both exceed 1000, and so
    # does regenerating the 2^12 points of a digital netfile for the rank test
    assert run(["generate", "--base", "11", "--dim", "2"]) == 3
    assert run(["verify", "--net", h12]) == 3
    with pytest.raises(SizeOverflow):
        dual_set(cs_generating_matrices(CSParams(11, 2, 1)))


def test_audit_cap_past_the_grid_changes_only_the_cap_and_level_count(tmp_path, capsys):
    # past n - 1 a cap adds only regime-(iv) levels, where no point is
    # interior: every constant is the default cap's, and no cap is too large
    path = small_netfile(tmp_path)  # b=3 d=1 n=4: default cap 6
    assert run(["audit", "--net", path]) == 0
    default = json.loads(capsys.readouterr().out)
    assert run(["audit", "--net", path, "--cap", "100"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep.pop("cap"), rep.pop("part_iv_levels_checked")) == (100, 102 - 5)  # (cap + 2)^d - (n + 1)^d
    assert (default.pop("cap"), default.pop("part_iv_levels_checked")) == (6, 8 - 5)
    assert rep == default


def test_norm_sweeps_each_level_once(monkeypatch):
    levels, masses, single = [], [], []
    aggregate, mass = haar.level_aggregate, haar.LevelAggregate.mass
    contract = haar._single_point_masses

    def counted(p, j, *prefix):
        levels.append(tuple(j))
        return aggregate(p, j, *prefix)

    def counted_mass(self, p):
        masses.append(self.j)
        return mass(self, p)

    def contracted(p, js):
        single.append(list(js))
        return contract(p, js)

    monkeypatch.setattr(haar, "level_aggregate", counted)
    monkeypatch.setattr(haar.LevelAggregate, "mass", counted_mass)
    monkeypatch.setattr(haar, "_single_point_masses", contracted)
    # the CS net b=11 d=2 w=1 (n=4) has (n+1)^d = 25 levels.  Heads 1, 2
    # and 3 first hold one point per box at (1, 3), (2, 2) and (3, 1): those
    # levels are aggregated but their mass is not read, and they and the
    # deeper levels of their heads come from one contraction; the other 22
    # are aggregated once, and the mass of the 19 with a multi-point box is
    # read once (p = 2: Parseval and Besov share it)
    assert run(["norm", "--base", "11", "--dim", "2", "--w", "1"]) == 0
    single_point = [(1, 3), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]
    deeper = [(2, 3), (3, 2), (3, 3)]
    all_levels = list(itertools.product(range(-1, 4), repeat=2))
    assert levels == [j for j in all_levels if j not in deeper]
    assert masses == [j for j in all_levels if j not in single_point]
    assert single == [single_point]


def test_audit_sweeps_only_to_its_cap(monkeypatch, capsys):
    levels = []
    aggregate = haar.level_aggregate

    def counted(p, j, *prefix):
        levels.append(tuple(j))
        return aggregate(p, j, *prefix)

    monkeypatch.setattr(haar, "level_aggregate", counted)
    assert run(["audit", "--base", "11", "--dim", "2", "--w", "1", "--cap", "1"]) == 0
    assert sorted(levels) == list(itertools.product(range(-1, 2), repeat=2))
    # the report recorded when the audit still swept all (n+1)^d levels, but
    # for const_small_levels: it read 1181.08, the volume coefficient of an
    # empty box that no level up to the cap has.  It is now one float DFT of
    # the exact integer box sums less the volume, 1.4e-16 from the sup over
    # `exact_mu_oracle`, …2974 (…2996 from float box sums, …2987 when mu
    # summed complex rows).  const_full_cube is b^n |mu| of the one box at
    # s = 0, exact (…64896 from a float sum).  occupancy_ok came later: no
    # box holds more than b^max(n - |j|, 0) points
    assert capsys.readouterr().out.strip() == (
        '{"b": 11, "cap": 1, "const_exceptional": 0.0, '
        '"const_full_cube": 0.5000170753363842, '
        '"const_small_levels": 0.28633421748029736, "const_typical": 0.0, '
        '"d": 2, "exceptional_counts": {}, "n": 4, "occupancy_ok": true, "part_iii_ok": true, '
        '"part_iv_exceptions": 0, "part_iv_levels_checked": 0, "passed": true, '
        '"schema": 1}'
    )


def test_integrate_table(tmp_path, capsys):
    path = small_netfile(tmp_path)
    assert run(["integrate", "--net", path]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "family,param,qmc,exact,error"
    assert len(rows) > 5


def test_integrate_unknown_integrand_is_a_parameter_error(capsys):
    # exit 2 with a message, not a KeyError traceback and the verification code 1
    assert run(["integrate", "--base", "3", "--dim", "1", "--integrand", "nope"]) == 2
    assert "unknown integrand family 'nope'" in capsys.readouterr().err


def test_integrand_exact_values():
    spec = IntegrandSpec("product_monomial", 2, 1)
    assert spec.exact() == 0.25
    spec = IntegrandSpec("product_monomial", 3, 3)
    assert spec.exact() == 0.25**3
    with pytest.raises(InvalidParams):
        IntegrandSpec("mystery", 2, 1)


def test_audit_cap_below_minus_one_is_a_parameter_error(capsys):
    assert run(["audit", "--base", "3", "--dim", "1", "--cap", "-2"]) == 2
    assert "cap -2 < -1" in capsys.readouterr().err


def test_audit_counts_a_deep_level_grid_without_building_it(tmp_path, capsys):
    # 66^5 levels up to cap 64: the counts stop where no point is interior
    path = tmp_path / "d5.net"
    path.write_text("#qmcnet v1 b=2 n=1 d=5 N=1\n0 0 0 0 0\n")
    assert run(["audit", "--net", str(path), "--cap", "64"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["part_iv_levels_checked"] == 66**5 - 2**5
    assert rep["part_iv_exceptions"] == 0


def test_norm_nan_r_is_a_parameter_error(capsys):
    # the report would carry "value": NaN, which is not JSON
    assert run(["norm", "--base", "3", "--dim", "1", "--r", "nan"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "r a number" in err


@pytest.mark.parametrize("r", ["inf", "-inf"])
def test_norm_infinite_r_is_a_parameter_error(r, capsys):
    # the report carried "value": NaN, "tail_bound": NaN with exit 0
    assert run(["norm", "--base", "3", "--dim", "1", f"--r={r}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"r = {r}" in err


def test_norm_divergent_besov_sum_is_a_parameter_error(capsys):
    # at r >= 1 the Besov sum diverges: the report carried "value":
    # Infinity, "tail_bound": Infinity, which is not JSON, with exit 0
    assert run(["norm", "--base", "3", "--dim", "1", "--r", "1.5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Besov sum diverges at p = 2.0, q = 2.0, r = 1.5" in err


def test_norm_overflowing_parameters_are_a_parameter_error(capsys):
    # b^(|j| (r - 1/p + 1) q) overflowed into an OverflowError traceback
    assert run(["norm", "--base", "3", "--dim", "1", "--p", "1e308", "--q", "1e308"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "p = 1e+308, q = 1e+308, r = 0.25" in err


@pytest.mark.parametrize(
    "argv", [["--nmin", "5", "--nmax", "4"], ["--nmax", "5", "--kinds", "l2,l2"]]
)
def test_scaling_bad_sizes_or_kinds_are_parameter_errors(argv, capsys):
    assert run(["scaling"] + argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("command", ["norm", "integrate", "audit", "verify"])
def test_empty_point_set_is_a_parameter_error(command, tmp_path, capsys):
    # a netfile of no points loads; norm died dividing by N = 0, integrate
    # printed nan rows and audit passed
    path = tmp_path / "empty.net"
    path.write_text("#qmcnet v1 b=2 n=3 d=2 N=0\n")
    assert run([command, "--net", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: empty point set: N = 0\n"


@pytest.mark.parametrize("argv", [["audit", "--base", "3", "--dim", "1"], ["walsh-check"]])
def test_negative_seed_is_a_parameter_error(argv, capsys):
    assert run(argv + ["--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: seed -1 < 0\n"


def test_scaling_balanced_hammersley_below_n1_is_a_parameter_error(capsys):
    argv = ["scaling", "--family", "balanced_hammersley", "--nmin", "-2", "--nmax", "1"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "need n >= 1" in err


def test_audit_command(tmp_path, capsys):
    path = small_netfile(tmp_path)
    assert run(["audit", "--net", path, "--cap", "5"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["passed"] is True


def test_audit_fails_a_set_with_an_overfull_box(tmp_path, capsys):
    # 2^10 seeded random points at b = 2, d = 2 are no (0, 10, 2)-net: some
    # box of volume 2^-|j| holds more than 2^max(10 - |j|, 0) interior
    # points, so the audit exits 1, though every regime-(iii) level has at
    # most b^n occupied boxes
    p = PointSet(2, 10, 2, np.random.default_rng(12).integers(0, 2**10, size=(2**10, 2)))
    path = tmp_path / "random.net"
    save_pointset(p, path)
    assert run(["audit", "--net", str(path)]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["occupancy_ok"] is False and obj["part_iii_ok"] is True and obj["passed"] is False


def test_scaling_command(capsys):
    assert (
        run(["scaling", "--family", "balanced_hammersley", "--nmin", "4", "--nmax", "6"])
        == 0
    )
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0].startswith("n,N,norm_kind")
    assert len(rows) == 4


def test_scaling_unknown_kind_exits_before_building_a_point_set(monkeypatch, capsys):
    # it built the first size and ran its whole Haar sweep, then exited 2
    built = []
    monkeypatch.setitem(fam.FAMILIES, "hammersley", lambda n: built.append(n) or fam.hammersley(n))
    assert run(["scaling", "--family", "hammersley", "--kinds", "parseval,nope"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: unknown norm kind 'nope'\n"
    assert built == []


def test_scaling_with_a_dead_worker_exits_3_naming_the_size(monkeypatch, capsys):
    parent = os.getpid()

    def family(n):
        if n == 6 and os.getpid() != parent:
            os._exit(1)
        return fam.hammersley(n)

    monkeypatch.setattr(norms, "_usable_cpus", lambda: 2)
    monkeypatch.setitem(fam.FAMILIES, "hammersley", family)
    assert run(["scaling", "--family", "hammersley", "--nmin", "4", "--nmax", "7"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: size n = 6: its worker process died (out of memory?)\n"


def test_scaling_unknown_family():
    assert run(["scaling", "--family", "nope"]) == 2


def test_walsh_check(capsys):
    assert run(["walsh-check"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["passed"] is True
    # the analysis route lands within 5e-16 of fine_price_coeff; a
    # sequential sum of walsh_eval_1d values over the b^-5 grid was 2.8e-15
    # off at seed 0 and 1.4e-15 at seed 3
    assert obj["fine_price_max_err"] < 5e-16
    assert run(["walsh-check", "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["fine_price_max_err"] < 5e-16


def test_grid_coeff_matches_fraction_reference():
    # walsh-check's reference for fine_price_coeff is the analysis route
    # interval_coeff_vector(y, b, 4), exact for t < b^4 and y on the b^-4 grid
    rng = np.random.default_rng(17)
    for b in (2, 3, 5):
        ys = [0, *(Fraction(int(k), b**4) for k in rng.integers(0, b**4, size=3))]
        ys.append(1 - Fraction(1, b**4))
        # the reference spends 40 us per cell, so at b = 5 (3125 cells) a
        # seeded sample of t stands in for all 125
        ts = range(b**3) if b < 5 else [0, b**3 - 1, *rng.integers(1, b**3 - 1, size=2)]
        for y in ys:
            coeffs = interval_coeff_vector(y, b, 4)
            for t in ts:
                assert abs(coeffs[t] - grid_coeff_oracle(int(t), y, b)) < 1e-15


def test_outputs_deterministic(tmp_path):
    path = small_netfile(tmp_path)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        run(["norm", "--net", path, "--out", str(target)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["integrate", "--format", "csv"],
        ["norm", "--workers", "2"],
        ["generate", "--seed", "1"],
        ["walsh-check", "--p", "3"],
        ["norm", "--cap", "3"],
        ["scaling", "--cap", "3"],
    ],
)
def test_subcommands_reject_flags_they_do_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = re.search(r'^version = "([^"]+)"$', pyproject.read_text(), re.M)
    assert qmcnet.__version__ == declared.group(1)


def test_main_calls_the_handler_the_module_binds(monkeypatch):
    # a rebinding of cli.cmd_* (a monkeypatch, a tracer's wrapper) is the
    # handler argparse dispatches to
    seeds = []
    monkeypatch.setattr(cli, "cmd_walsh_check", lambda args: seeds.append(args.seed) or 7)
    assert run(["walsh-check", "--seed", "3"]) == 7
    assert seeds == [3]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator policy")
def test_second_audit_in_a_process_reuses_freed_memory(python):
    # the CLI keeps freed sweep temporaries in the heap, so a second audit of
    # CS-11 in the same process faults in (almost) no fresh pages
    out = python(
        "import contextlib, io, json, resource\n"
        "from qmcnet.cli import main\n"
        "runs = []\n"
        "for _ in range(2):\n"
        "    text = io.StringIO()\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    with contextlib.redirect_stdout(text):\n"
        "        rc = main(['audit', '--base', '11', '--dim', '2', '--w', '1'])\n"
        "    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
        "    runs.append([rc, faults, text.getvalue()])\n"
        "print(json.dumps(runs))\n"
    ).stdout
    (rc1, _, text1), (rc2, faults, text2) = json.loads(out)
    assert rc1 == rc2 == 0 and text1 == text2
    assert faults < 1000


NORM_ARGV = ["norm", "--base", "3", "--dim", "1", "--w", "2"]


@pytest.mark.parametrize("fallback", ["other libc", "no symbol lookup"])
def test_allocator_policy_falls_back_silently(monkeypatch, capsys, fallback):
    assert run(NORM_ARGV) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(cli, "_allocator_set", False)
    if fallback == "other libc":
        monkeypatch.setattr(platform, "libc_ver", lambda: ("musl", "1.2"))
    else:

        def no_libc(name):
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(ctypes, "CDLL", no_libc)
    assert run(NORM_ARGV) == 0
    assert capsys.readouterr().out == expected


def test_allocator_policy_is_set_once_per_process(monkeypatch):
    calls = []

    class Libc:
        def __init__(self, name):
            assert name is None  # the process's own symbols, no library search

        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(cli, "_allocator_set", False)
    monkeypatch.setattr(platform, "libc_ver", lambda: ("glibc", "2.36"))
    monkeypatch.setattr(ctypes, "CDLL", Libc)
    for _ in range(3):
        assert run(NORM_ARGV) == 0
    # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD at glibc's dynamic ceiling
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
