import hashlib
import json

import pytest

from adesurf import _json
from adesurf.cli import run
from adesurf.lattice import build_surface
from adesurf.linesroots import enumerate_roots

from .oracles import weyl_orbit_bfs


def run_cli(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_surface_info(capsys):
    code, out = run_cli(capsys, ["surface", "--kind", "p2", "--n", "6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 7
    assert doc["K_dot_K"] == 3
    assert doc["K"]["coeffs"] == [-3, 1, 1, 1, 1, 1, 1]
    assert "effective_generators" not in doc


def test_surface_collisions(capsys):
    code, out = run_cli(
        capsys, ["surface", "--kind", "hirzebruch", "--n", "2", "--collisions", "1,2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["induced_curves"] == [
        {"basis": "hirzebruch_blowup(2)", "coeffs": [0, 0, -1, 1]}
    ]


def test_lines_27(capsys):
    code, out = run_cli(capsys, ["lines", "--kind", "p2", "--n", "6"])
    assert code == 0
    assert json.loads(out)["count"] == 27


def test_lines_fiber_constraint(capsys):
    code, out = run_cli(
        capsys, ["lines", "--kind", "hirzebruch", "--n", "3", "--constraint", "f=0"]
    )
    assert code == 0
    assert json.loads(out)["count"] == 6


def test_roots_and_orbit_and_weights(capsys):
    code, out = run_cli(capsys, ["roots", "--kind", "hirzebruch", "--n", "4"])
    doc = json.loads(out)
    assert (code, doc["type"], doc["count"]) == (0, "A3", 12)

    code, out = run_cli(
        capsys,
        ["orbit", "--kind", "hirzebruch", "--n", "4", "--class", "[-1,0,1,0,0,0]"],
    )
    assert code == 0
    assert json.loads(out)["size"] == 4

    code, out = run_cli(
        capsys,
        ["weights", "--kind", "hirzebruch", "--n", "4", "--class", "[0,0,1,0,0,0]"],
    )
    assert code == 0
    assert json.loads(out)["weights"][0]["weight"] == [-1, 0, 0]


def test_weights_of_all_lines(capsys):
    code, out = run_cli(capsys, ["weights", "--kind", "p2", "--n", "6", "--lines"])
    doc = json.loads(out)
    assert code == 0
    assert len(doc["weights"]) == 27
    assert len(doc["simple_roots"]) == 6
    # line weights against the E6 simple roots take values in {-1, 0, 1}
    for entry in doc["weights"]:
        assert all(w in (-1, 0, 1) for w in entry["weight"])


@pytest.mark.parametrize(
    "kind, n, orth, cls",
    [
        ("hirzebruch", 4, ("K", "f", "b"), [-1, 0, 1, 0, 0, 0]),  # the README example
        ("p2", 7, ("K",), [0, 0, 0, 0, 0, 0, 0, 1]),  # a line on dP2
    ],
    ids=["readme", "dp2-line"],
)
def test_orbit_stdout_is_the_oracle_orbit(capsys, kind, n, orth, cls):
    code, out = run_cli(capsys, ["orbit", "--kind", kind, "--n", str(n), "--class", json.dumps(cls)])
    model = build_surface(kind, n)
    orbit = weyl_orbit_bfs(enumerate_roots(model, orth), model.cls(cls))
    want = {"basis": model.basis_id, "size": len(orbit), "classes": [list(c.coeffs) for c in orbit]}
    assert (code, out) == (0, _json.dumps(want))


def test_orbit_over_cap_is_a_domain_error(capsys):
    code, out = run_cli(
        capsys, ["orbit", "--kind", "p2", "--n", "8", "--class", "[1,0,0,0,0,0,0,0,0]", "--cap", "100"]
    )
    error = json.loads(out)["error"]
    assert (code, error["type"]) == (1, "OrbitCapExceededError")
    assert "17280" in error["message"]


def test_weights_of_all_lines_stdout_is_pinned(capsys):
    code, out = run_cli(capsys, ["weights", "--kind", "p2", "--n", "6", "--lines"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "01496450f0d8eef5c43b1a4681d1b934c7f99bcf7ee71ce6f6d1abbc7d707a68"
    )


# sha256 of stdout, taken before the kernel swept one representative per
# orbit of interchangeable coordinates
_ENUMERATION_DIGESTS = {
    "lines --kind p2 --n 8": "bf91faa85509167c15404b502e9d239dd4db0c1cfcfb6f1a23e4376eb41ae1aa",
    "lines --kind hirzebruch --n 7 --constraint f=1":
        "bb588d39ee3efcbe05e34c3200bdb04c62a45e8f7199da82210d3d266fd80892",
    "roots --kind p2 --n 8": "932646c94a31a5b3ebd8fe8b7b15c0b20f542dd826c26a11f963e06fe0691b6d",
    "roots --kind hirzebruch --n 7": "331e7b4a06fd740a34a74e167747c4b6ed0d929e6e97bada77d31929c7e2bd9a",
}


@pytest.mark.parametrize("argv", list(_ENUMERATION_DIGESTS))
def test_enumeration_stdout_is_pinned(capsys, argv):
    code, out = run_cli(capsys, argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _ENUMERATION_DIGESTS[argv]


def test_suite_fast_path(capsys):
    code, out = run_cli(capsys, ["suite", "--name", "paper-checks", "--trials", "16", "--maxdeg", "3"])
    doc = json.loads(out)
    assert code == 0
    assert doc["all_pass"] is True
    assert [r["name"] for r in doc["results"]] == [
        "line_counts_p2_1_to_8",
        "root_data_and_orbits",
        "ext_index_dichotomy",
        "boundary_degrees",
        "transform_restriction_compatibility",
        "local_model_suite",
        "spectral_branch_and_degrees",
        "property_suites",
    ]


def test_suite_unknown_name_is_schema_error(capsys):
    code, out = run_cli(capsys, ["suite", "--name", "nope"])
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "schema",
        "path": "--name",
        "message": "--name: unknown suite 'nope'",
    }


def test_chi_and_ext(capsys):
    code, out = run_cli(
        capsys, ["chi", "--kind", "p2", "--n", "6", "--class", "[3,-1,-1,-1,-1,-1,-1]"]
    )
    assert code == 0
    assert json.loads(out)["chi"] == 4

    code, out = run_cli(
        capsys,
        [
            "ext", "--kind", "hirzebruch", "--n", "2",
            "--l1", "[0,0,1,0]", "--l2", "[0,0,0,1]", "--collide", "1", "2",
        ],
    )
    doc = json.loads(out)
    assert code == 0
    assert (doc["ext0"], doc["ext1"], doc["ext2"], doc["index"]) == (1, 1, 0, 0)

    code, out = run_cli(
        capsys,
        ["ext", "--kind", "hirzebruch", "--n", "2", "--l1", "[0,0,1,0]", "--l2", "[0,0,0,1]"],
    )
    doc = json.loads(out)
    assert (doc["ext0"], doc["ext1"]) == (0, 0)
    assert doc["difference_effective"] == "not_effective"
    assert "certificate" not in doc


def test_ext_section_outside_old_generators(capsys):
    # O(b) has a section, though b is no sum of l_i and f
    code, out = run_cli(
        capsys,
        ["ext", "--kind", "hirzebruch", "--n", "2", "--l1", "[0,0,1,0]", "--l2", "[1,0,1,0]"],
    )
    assert code == 0
    assert json.loads(out) == {
        "basis": "hirzebruch_blowup(2)",
        "ext0": 1,
        "ext1": 0,
        "ext2": 0,
        "index": 1,
        "difference_effective": "effective",
        "certificate": [{"class": [1, 0, 0, 0], "mult": 1}],
    }


def test_crossed_collisions_are_errors(tmp_path, capsys):
    surface = tmp_path / "s.json"
    surface.write_text('{"kind": "hirzebruch_blowup", "n": 2, "collisions": [[1, 2], [2, 1]]}')
    datum = tmp_path / "d.json"
    datum.write_text('{"N": 12, "points": [5, 5]}')
    for argv in (
        ["ext", "--kind", "p2", "--n", "4", "--l1", "[0,1,0,0,0]", "--l2", "[0,0,1,0,0]",
         "--collide", "1", "2", "--collide", "2", "1"],
        ["surface", "--kind", "p2", "--n", "3", "--collisions", "1,2;2,1"],
        ["transform", "run", "--surface", str(surface), "--spectral", str(datum)],
    ):
        code, out = run_cli(capsys, argv)
        assert code == 1
        assert "meeting in 2" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize(
    "flag, value", [("--trials", "0"), ("--trials", "-5"), ("--maxdeg", "-1")]
)
def test_suite_rejects_bad_counts(capsys, flag, value):
    argv = ["suite", "--trials", "16", "--maxdeg", "2"]
    argv[argv.index(flag) + 1] = value
    code, out = run_cli(capsys, argv)
    assert code == 1
    err = json.loads(out)["error"]
    assert (err["type"], err["path"]) == ("schema", flag)


def test_lines_rejects_a_negative_margin(capsys):
    code, out = run_cli(capsys, ["lines", "--kind", "p2", "--n", "6", "--margin", "-1"])
    assert code == 1
    err = json.loads(out)["error"]
    assert (err["type"], err["path"]) == ("schema", "--margin")
    for margin in ("0", "1", "2"):
        code, out = run_cli(capsys, ["lines", "--kind", "p2", "--n", "6", "--margin", margin])
        assert (code, json.loads(out)["count"]) == (0, 27)


def test_bundle_and_restrict(capsys):
    code, out = run_cli(
        capsys,
        ["bundle", "--kind", "hirzebruch", "--n", "2", "--rep", "vector_d", "--minus-l0"],
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["rank"] == 4
    assert doc["boundary_degrees"] == [0, 0, 0, 0]

    code, out = run_cli(
        capsys,
        [
            "restrict", "--kind", "hirzebruch", "--n", "2", "--rep", "vector_d",
            "--points", "5,7", "--N", "12",
        ],
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["su_constraint_holds"] is True
    assert {p["p"] for p in doc["points"]} == {5, 7}

    code, out = run_cli(
        capsys,
        [
            "restrict", "--kind", "hirzebruch", "--n", "2", "--rep", "vector_d",
            "--points", "5,6", "--N", "12",
        ],
    )
    assert code == 0
    assert json.loads(out)["su_constraint_holds"] is False


def test_spectral_analyze(tmp_path, capsys):
    cover = tmp_path / "cover.json"
    cover.write_text('{"n": 2, "coeffs": [[0, -1], []]}')
    code, out = run_cli(capsys, ["spectral", "analyze", "--cover", str(cover)])
    doc = json.loads(out)
    assert code == 0
    assert doc["branch_points"] == ["0/1"]
    assert doc["ramification_profile"] == [{"partition": [2], "t": "0/1"}]


def test_spectral_analyze_large_constant(tmp_path, capsys):
    # u^2 + t^2 + 1000000007^2: its rational roots come from factoring, not a divisor search
    cover = tmp_path / "cover.json"
    cover.write_text('{"n": 2, "coeffs": [[1000000007000000049, 0, 1], []]}')
    code, out = run_cli(capsys, ["spectral", "analyze", "--cover", str(cover)])
    doc = json.loads(out)
    assert code == 0
    assert doc["branch_points"] == []
    assert {"coeffs": ["1000000007000000049/1", "0/1", "1/1"]} in doc["nonrational_factors"]


@pytest.mark.parametrize(
    "coeffs, stdout",
    [
        (
            '[["1/2", 0, -3], [0, "2/3"], [1]]',
            '{"branch_multiplicities":[],"branch_points":[],'
            '"discriminant":{"coeffs":["35/4","-6/1","-841/9","1004/27","243/1"]},"n":3,'
            '"nonrational_factors":[{"coeffs":["945/1","-648/1","-10092/1","4016/1","26244/1"]}],'
            '"ramification_profile":[]}\n',
        ),
        # u^2 - (2t - 1)(3t + 1)/4 branches at t = -1/3 and t = 1/2
        (
            '[["1/4", "1/4", "-3/2"], []]',
            '{"branch_multiplicities":[1,1],"branch_points":["-1/3","1/2"],'
            '"discriminant":{"coeffs":["1/1","1/1","-6/1"]},"n":2,"nonrational_factors":[],'
            '"ramification_profile":[{"partition":[2],"t":"-1/3"},{"partition":[2],"t":"1/2"}]}\n',
        ),
    ],
    ids=["rational-discriminant", "rational-branch-points"],
)
def test_spectral_analyze_rational_cover_stdout(tmp_path, capsys, coeffs, stdout):
    # rationals print as "p/q" strings, integral ones too
    cover = tmp_path / "cover.json"
    cover.write_text(f'{{"n": {len(json.loads(coeffs))}, "coeffs": {coeffs}}}')
    assert run_cli(capsys, ["spectral", "analyze", "--cover", str(cover)]) == (0, stdout)


# stdout of `spectral analyze` on the eight covers of the classcalc benchmark,
# pinned by sha256: u^n - (t - a)(t - b)(t^2 + c) for n = 2..5, and products
# of 2..5 sheets u - (a + b t), whose branch points are mostly not integers
_BENCH_COVERS = [
    ("u2-g", "[[4123168602555, -549755813674, -274877906822, -2, -1], []]", "362b60193f1afa42fa550fe8d56b44d66e545254883ea7cda8b379053c618ab9"),
    ("u3-g", "[[-1924145348258, 1236950581023, -137438953461, 9, -1], [], []]", "9483a3f7d8a5ed63e5f206ee00f961b0d045a057fae5d5660ab806b18cf193dd"),
    ("u4-g", "[[824633720772, 68719476731, -68719476719, 1, -1], [], [], []]", "0a2de9081aa45ebc6136b6fb4ba5d0b96f1ff9bec82fe4c9bc86f8c6fcf790dd"),
    ("u5-g", "[[6000000042, -5000000035, -1000000001, -5, -1], [], [], [], []]", "e751b90e4e0ec8dc407a253f0a2988752af01e9c6e6eb8b7f6cc971f0ac0bd3c"),
    ("2-sheets", "[[3, 5, -2], [-4, -1]]", "ed0163451aa46c11a776d69673f08b0af41c5284cf3817fdc13c6123afe80bab"),
    ("3-sheets", "[[0, -15, -25, 10], [3, 25, 3], [-4, -6]]", "41fcfda0415de346d08c67d13250e135e7ae3c25bf0b7935d57c7ff518dd4160"),
    ("4-sheets", "[[0, -30, -35, 45, -10], [6, 32, -44, 7], [-5, 17, 9], [-2, -7]]", "8efdb99e6304efe99cc8571b9b6842fa8c297797fea6bf4d3a221d266331eca2"),
    ("5-sheets", "[[0, 120, 230, -75, -95, 30], [-24, -176, 45, 149, -31], [26, -21, -131, -20], [3, 51, 30], [-6, -10]]", "3e84566c02b6768d7882c08b8bef5e6006bb6886a004e8e1c41411b4197b7fc6"),
]


@pytest.mark.parametrize("coeffs, digest", [c[1:] for c in _BENCH_COVERS], ids=[c[0] for c in _BENCH_COVERS])
def test_spectral_analyze_benchmark_covers_stdout_is_pinned(tmp_path, capsys, coeffs, digest):
    cover = tmp_path / "cover.json"
    cover.write_text(f'{{"n": {len(json.loads(coeffs))}, "coeffs": {coeffs}}}')
    code, out = run_cli(capsys, ["spectral", "analyze", "--cover", str(cover)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_transform_run_collided_stdout_is_pinned(tmp_path, capsys):
    # two blocks of collided sheets: three at 7 and two at 300
    surface = tmp_path / "s.json"
    surface.write_text('{"kind": "hirzebruch_blowup", "n": 5}')
    datum = tmp_path / "d.json"
    datum.write_text('{"N": 720, "points": [7, 300, 7, 7, 300]}')
    code, out = run_cli(capsys, ["transform", "run", "--surface", str(surface), "--spectral", str(datum)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4ea07c9684d9a51c5a4dfeb46a2fef9f9c8cba68adcd60520dc3bc6b2e36ea75"
    )


@pytest.mark.parametrize(
    "twist, digest",
    [
        ("raw", "d5e2356b866d0e12531b64734e5da67b65a2bcf8f262b0c25c0b700caa63f23a"),
        ("minus_l0", "13e13dd8dffe0cda71a69625df3d42e437063a534015dfe53d140b4c07b82dda"),
    ],
)
def test_transform_run_collided_twists_stdout_is_pinned(tmp_path, capsys, twist, digest):
    surface = tmp_path / "s.json"
    surface.write_text('{"kind": "hirzebruch_blowup", "n": 5}')
    datum = tmp_path / "d.json"
    datum.write_text('{"N": 720, "points": [7, 300, 7, 7, 300]}')
    argv = ["transform", "run", "--surface", str(surface), "--spectral", str(datum), "--twist", twist]
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_transform_run_missing_collision_stdout_is_pinned(tmp_path, capsys):
    # the surface collides l_2, l_3 but the datum also collides l_1, l_2
    surface = tmp_path / "s.json"
    surface.write_text('{"kind":"hirzebruch","n":3,"collisions":[[2,3]]}')
    datum = tmp_path / "d.json"
    datum.write_text('{"N":720,"points":[5,5,9]}')
    code, out = run_cli(capsys, ["transform", "run", "--surface", str(surface), "--spectral", str(datum)])
    assert code == 1
    assert "lacks pairs [(1, 2)]" in json.loads(out)["error"]["message"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c9529d06025cb344858f42fcbcbf1d5baaec283d9c73e19d4ff63caac733f666"
    )


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (
            ["--n", "3", "--rep", "vector_d", "--points", "3,5,7", "--N", "720"],
            0,
            "df1959d1432e9fd50282fa745e1f72c71638c82c5ba554199e105ef2c2f4540e",
        ),
        (
            ["--n", "2", "--rep", "adjoint", "--points", "5,7", "--N", "12", "--raw"],
            0,
            "709bb6115129fc58ea438de475ba4b696ae4183238d59a9de2eedf2eff4be02c",
        ),
        (
            # untwisted fundamental summands have boundary degree one
            ["--n", "2", "--rep", "fundamental_a", "--points", "5,7", "--raw"],
            1,
            "89ece7cb4ceddd9c5541c85d001d69c75773e9dcd04b5fa4b363587a9fcd7152",
        ),
    ],
    ids=["vector_d", "adjoint-raw", "fundamental-raw-refused"],
)
def test_restrict_stdout_is_pinned(capsys, argv, code, digest):
    got_code, out = run_cli(capsys, ["restrict", "--kind", "hirzebruch", *argv])
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_suite_stdout_is_pinned(capsys):
    code, out = run_cli(capsys, ["suite"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "54e8ff25734844d047928da0b865fe892f740e751f037018ca01ea519e8fb589"
    )


def test_orbit_of_h_on_dp8_stdout_is_pinned(capsys):
    code, out = run_cli(capsys, ["orbit", "--kind", "p2", "--n", "8", "--class", "[1,0,0,0,0,0,0,0,0]"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "71308975fa6c1284312fdaf1e43d4c6d631c5ce6b0873242774bb5db17a44a3e"
    )


def test_spectral_sen(capsys):
    code, out = run_cli(
        capsys,
        ["spectral", "sen", "--b2", "[0,1]", "--b4", "[1]", "--b6", "[0,1]", "--dL", "1"],
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["cover_degree"] == 12
    assert doc["degenerate"] is False


def test_transform_run(tmp_path, capsys):
    surface = tmp_path / "s.json"
    surface.write_text('{"kind": "hirzebruch_blowup", "n": 2}')
    datum = tmp_path / "d.json"
    datum.write_text('{"n": 2, "N": 12, "points": [5, 7], "su_constraint": true}')
    code, out = run_cli(
        capsys,
        ["transform", "run", "--surface", str(surface), "--spectral", str(datum), "--twist", "full"],
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["bundle"]["rank"] == 2
    assert doc["boundary"] == doc["fm_classlevel"]
    assert doc["base_twist_degree"] == 1


def test_transform_collision_inferred(tmp_path, capsys):
    surface = tmp_path / "s.json"
    surface.write_text('{"kind": "hirzebruch_blowup", "n": 2}')
    datum = tmp_path / "d.json"
    datum.write_text('{"N": 12, "points": [5, 5]}')
    code, out = run_cli(
        capsys,
        ["transform", "run", "--surface", str(surface), "--spectral", str(datum), "--twist", "minus_l0"],
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["bundle"]["summands"][0]["ext_group"] == 1
    assert doc["boundary"]["points"][0]["regular"] is True


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["localmodel", "verify", "--maxdeg", "-1"], "--maxdeg"),
        (["localmodel", "dims", "--ring", "RING", "--upto", "-3"], "--upto"),
    ],
)
def test_localmodel_rejects_negative_degrees(tmp_path, capsys, argv, flag):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"vars": [{"name": "x", "degree": 1}], "max_degree": 4}))
    code, out = run_cli(capsys, [str(ring) if a == "RING" else a for a in argv])
    assert code == 1
    err = json.loads(out)["error"]
    assert (err["type"], err["path"]) == ("schema", flag)


def test_localmodel_verify(capsys):
    code, out = run_cli(capsys, ["localmodel", "verify", "--maxdeg", "4"])
    doc = json.loads(out)
    assert code == 0
    assert doc["ok"] is True
    assert doc["suite"] == "conifold"
    assert doc["min_generators"] == {"cartier_sum": 1, "universal_divisor": 2}


def test_localmodel_verify_warns_near_the_truncation_bound(capsys):
    assert run(["localmodel", "verify", "--maxdeg", "2"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["truncation_warning"] is True
    assert captured.err == (
        "warning: a verified claim only settles near the truncation bound; raise --maxdeg\n"
    )
    assert run(["localmodel", "verify", "--maxdeg", "3"]) == 0
    assert capsys.readouterr().err == ""


def test_localmodel_verify_has_no_suite_flag():
    with pytest.raises(SystemExit) as exc:
        run(["localmodel", "verify", "--suite", "conifold"])
    assert exc.value.code == 2


def _ring_doc():
    return {
        "vars": [{"name": "x", "degree": 1}, {"name": "s", "degree": 1}],
        "relations": [{"var": "s", "power": 2, "rhs": [{"coeff": 1, "exps": [2, 0]}]}],
    }


@pytest.mark.parametrize(
    "spoil, path",
    [
        (lambda d: d["relations"][0]["rhs"][0].update(exps=2), "relations[0].rhs[0].exps"),
        (lambda d: d["vars"][0].update(name=["x"]), "vars[0].name"),
        (lambda d: d["relations"][0].update(var="w"), "relations[0].var"),
        (lambda d: d.update(relations=5), "relations"),
        (lambda d: d["relations"][0].update(rhs=5), "relations[0].rhs"),
    ],
    ids=["exps_not_array", "name_not_string", "var_names_nothing", "relations_not_array", "rhs_not_array"],
)
def test_ring_file_errors_are_schema_errors(tmp_path, capsys, spoil, path):
    doc = _ring_doc()
    spoil(doc)
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(doc))
    code, out = run_cli(capsys, ["localmodel", "dims", "--ring", str(ring), "--upto", "2"])
    assert code == 1
    err = json.loads(out)["error"]
    assert (err["type"], err["path"]) == ("schema", path)


def test_localmodel_dims(tmp_path, capsys):
    ring = tmp_path / "ring.json"
    ring.write_text(
        json.dumps(
            {
                "vars": [
                    {"name": "x", "degree": 1},
                    {"name": "y", "degree": 1},
                    {"name": "z", "degree": 1},
                    {"name": "s", "degree": 1},
                ],
                "relations": [
                    {
                        "var": "s",
                        "power": 2,
                        "rhs": [
                            {"coeff": 1, "exps": [2, 0, 0, 0]},
                            {"coeff": -1, "exps": [0, 2, 0, 0]},
                            {"coeff": 1, "exps": [0, 0, 2, 0]},
                        ],
                    }
                ],
                "max_degree": 8,
            }
        )
    )
    code, out = run_cli(capsys, ["localmodel", "dims", "--ring", str(ring), "--upto", "2"])
    doc = json.loads(out)
    assert code == 0
    assert doc["dims"] == [1, 4, 9]


def test_determinism_byte_identical(capsys):
    commands = [
        ["surface", "--kind", "p2", "--n", "6"],
        ["lines", "--kind", "p2", "--n", "5"],
        ["roots", "--kind", "hirzebruch", "--n", "3"],
        ["localmodel", "verify", "--maxdeg", "3"],
    ]
    for argv in commands:
        _, first = run_cli(capsys, argv)
        _, second = run_cli(capsys, argv)
        assert first == second


def test_output_roundtrip(capsys):
    # every emitted document re-parses, and class payloads feed back in
    code, out = run_cli(capsys, ["lines", "--kind", "p2", "--n", "3"])
    doc = json.loads(out)
    cls = doc["classes"][0]
    code, out = run_cli(
        capsys, ["chi", "--kind", "p2", "--n", "3", "--class", json.dumps(cls)]
    )
    assert code == 0
    assert json.loads(out)["chi"] == 1


def test_schema_error_names_field(tmp_path, capsys):
    datum = tmp_path / "bad.json"
    datum.write_text('{"n": 2, "N": 12}')
    surface = tmp_path / "s.json"
    surface.write_text('{"kind": "hirzebruch_blowup", "n": 2}')
    code, out = run_cli(
        capsys,
        ["transform", "run", "--surface", str(surface), "--spectral", str(datum)],
    )
    doc = json.loads(out)
    assert code == 1
    assert doc["error"]["type"] == "schema"
    assert "points" in doc["error"]["message"] or "coeffs" in doc["error"]["message"]


@pytest.mark.parametrize("collisions", [5, {"a": 1}], ids=["number", "object"])
def test_surface_collisions_not_array_is_schema_error(tmp_path, capsys, collisions):
    surface = tmp_path / "s.json"
    surface.write_text(json.dumps({"kind": "hirzebruch_blowup", "n": 2, "collisions": collisions}))
    datum = tmp_path / "d.json"
    datum.write_text('{"N": 12, "points": [5, 7]}')
    code, out = run_cli(capsys, ["transform", "run", "--surface", str(surface), "--spectral", str(datum)])
    assert code == 1
    err = json.loads(out)["error"]
    assert (err["type"], err["path"]) == ("schema", "collisions")


def test_class_coeffs_not_array_is_schema_error(capsys):
    cls = '{"basis": "p2_blowup(2)", "coeffs": 5}'
    code, out = run_cli(capsys, ["chi", "--kind", "p2", "--n", "2", "--class", cls])
    assert code == 1
    err = json.loads(out)["error"]
    assert (err["type"], err["path"]) == ("schema", "--class.coeffs")


def test_parse_error_reports_position(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"n": 2,,}')
    surface = tmp_path / "s.json"
    surface.write_text('{"kind": "hirzebruch_blowup", "n": 2}')
    code, out = run_cli(
        capsys,
        ["transform", "run", "--surface", str(surface), "--spectral", str(bad)],
    )
    doc = json.loads(out)
    assert code == 1
    assert ":1:" in doc["error"]["path"]


def test_zero_group_order_rejected(tmp_path, capsys):
    datum = tmp_path / "d.json"
    datum.write_text('{"N": 0, "points": []}')
    surface = tmp_path / "s.json"
    surface.write_text('{"kind": "hirzebruch_blowup", "n": 0}')
    code, out = run_cli(
        capsys,
        ["transform", "run", "--surface", str(surface), "--spectral", str(datum)],
    )
    doc = json.loads(out)
    assert code == 1
    assert doc["error"]["path"] == "N"


def test_domain_error_exit_one(capsys):
    code, out = run_cli(capsys, ["surface", "--kind", "p2", "--n", "99"])
    assert code == 1
    assert "error" in json.loads(out)


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        run(["lines", "--kind", "p2"])  # missing --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2
    for argv in (
        ["spectral", "analyze", "--cover", "cover.json", "--strict"],
        ["transform", "run", "--surface", "s.json", "--spectral", "d.json", "--strict"],
        ["surface", "--kind", "p2", "--n", "6", "info"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


def _su_violating_run(tmp_path, su_constraint):
    datum = tmp_path / "d.json"
    tail = ', "su_constraint": true}' if su_constraint else "}"
    datum.write_text('{"N": 12, "points": [5, 6]' + tail)
    surface = tmp_path / "s.json"
    surface.write_text('{"kind": "hirzebruch_blowup", "n": 2}')
    return ["transform", "run", "--surface", str(surface), "--spectral", str(datum)]


def test_su_warning_not_strict(tmp_path, capsys):
    # a broken SU constraint is warned about and dropped; stdout is that of
    # the same datum without the constraint
    code = run(_su_violating_run(tmp_path, False))
    plain = capsys.readouterr()
    assert (code, plain.err) == (0, "")
    code = run(_su_violating_run(tmp_path, True))
    warned = capsys.readouterr()
    assert code == 0
    assert warned.out == plain.out
    assert warned.err == "warning: SU constraint violated: points do not sum to 0 mod N\n"


def test_su_violation_strict(tmp_path):
    # there is no strict mode: --strict is a usage error
    with pytest.raises(SystemExit) as exc:
        run(_su_violating_run(tmp_path, True) + ["--strict"])
    assert exc.value.code == 2


def test_every_cli_setting_is_read():
    # each argument a subcommand declares is read as args.<dest> by a handler;
    # the subcommand selectors only dispatch
    import argparse
    import inspect

    from adesurf import cli

    source = inspect.getsource(cli)
    unread = []

    def walk(parser, path):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    walk(child, path + [name])
            elif not isinstance(action, argparse._HelpAction):
                if f"args.{action.dest}" not in source:
                    unread.append((" ".join(path), action.dest))

    walk(cli.build_parser(), ["adesurf"])
    assert unread == []


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = run(["--output", str(target), "lines", "--kind", "p2", "--n", "2"])
    assert code == 0
    assert json.loads(target.read_text())["count"] == 3


def test_input_directory_is_io_error(tmp_path, capsys):
    code, out = run_cli(capsys, ["localmodel", "dims", "--ring", str(tmp_path), "--upto", "2"])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "io"


def test_input_not_utf8_is_schema_error(tmp_path, capsys):
    ring = tmp_path / "ring.json"
    ring.write_bytes(b"\xff\xfe" + json.dumps(_ring_doc()).encode("utf-16-le"))
    code, out = run_cli(capsys, ["localmodel", "dims", "--ring", str(ring), "--upto", "2"])
    assert code == 1
    err = json.loads(out)["error"]
    assert (err["type"], err["path"]) == ("schema", str(ring))


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_output_is_io_error(tmp_path, capsys, where):
    target = tmp_path / "nonexistent" / "x.json" if where == "missing_dir" else tmp_path
    code, out = run_cli(capsys, ["--output", str(target), "lines", "--kind", "p2", "--n", "6"])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "io"


def test_surface_kind_is_case_sensitive(tmp_path, capsys):
    datum = tmp_path / "d.json"
    datum.write_text('{"N": 12, "points": [0, 0]}')
    surface = tmp_path / "s.json"
    surface.write_text('{"kind": "F1", "n": 2}')
    code, out = run_cli(
        capsys,
        ["transform", "run", "--surface", str(surface), "--spectral", str(datum)],
    )
    assert code == 1
    assert "unknown surface kind 'F1'" in json.loads(out)["error"]["message"]


def test_json_integer_and_rational_encoding():
    from fractions import Fraction

    from adesurf._json import dumps, jsonable

    assert jsonable(2 ** 53 - 1) == 2 ** 53 - 1
    assert jsonable(2 ** 53) == str(2 ** 53)
    assert jsonable(-(2 ** 60)) == str(-(2 ** 60))
    assert jsonable(Fraction(3, 7)) == "3/7"
    assert dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'
    with pytest.raises(TypeError):
        jsonable(1.5)


def test_restrict_adjoint_raw(capsys):
    # adjoint summands are already flat, so --raw restricts directly
    code, out = run_cli(
        capsys,
        [
            "restrict", "--kind", "hirzebruch", "--n", "2", "--rep", "adjoint",
            "--points", "5,7", "--N", "12", "--raw",
        ],
    )
    doc = json.loads(out)
    assert code == 0
    assert {p["p"] for p in doc["points"]} == {0, 10, 2}  # 0, p1-p2, p2-p1


def test_malformed_flag_values(capsys):
    code, out = run_cli(
        capsys,
        ["lines", "--kind", "hirzebruch", "--n", "2", "--constraint", "f=x"],
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "schema"
    code, out = run_cli(
        capsys,
        ["restrict", "--kind", "hirzebruch", "--n", "2", "--rep", "vector_d",
         "--points", "5,seven", "--N", "12"],
    )
    assert code == 1
    assert "points" in json.loads(out)["error"]["path"]


def test_big_chi_via_cli(capsys):
    # chi of a large class exceeds the 53-bit window and comes back a string
    code, out = run_cli(
        capsys,
        ["chi", "--kind", "p2", "--n", "2", "--class", "[100000000000, 0, 0]"],
    )
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc["chi"], str)
    assert int(doc["chi"]) == 1 + (10 ** 22 + 3 * 10 ** 11) // 2
