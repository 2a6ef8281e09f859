"""CLI tests driven through main(argv); exit codes and document shapes."""

import hashlib
import json
from fractions import Fraction as F

import pytest

from quanthelly.cli import main
from quanthelly.jsonio import (
    body_from_json,
    body_to_json,
    dump,
    dumps,
    family_to_json,
    load,
    measure_to_json,
)
from quanthelly.combinat import Family
from quanthelly.geometry import body_contains_body, convex_hull
from quanthelly.measures import Measure, certified_ge


def box(x0, y0, x1, y1):
    return convex_hull([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


@pytest.fixture
def vol_path(tmp_path):
    p = tmp_path / "vol.json"
    dump(measure_to_json(Measure.volume()), p)
    return str(p)


@pytest.fixture
def lat_path(tmp_path):
    p = tmp_path / "lat.json"
    dump(measure_to_json(Measure.lattice()), p)
    return str(p)


@pytest.fixture
def squares_path(tmp_path):
    fam = Family((box(0, 0, 2, 2), box(1, 0, 3, 2), box(2, 0, 4, 2)))
    p = tmp_path / "squares.json"
    dump(family_to_json(fam), p)
    return str(p)


def test_gen_writes_family_with_generator_block(tmp_path):
    out = tmp_path / "fam.json"
    rc = main(
        [
            "gen",
            "--kind",
            "point-cloud",
            "--params",
            '{"n": 5}',
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = load(out)
    assert doc["schema"] == "quanthelly/family-v1"
    assert doc["generator"]["kind"] == "point-cloud"
    assert doc["generator"]["seed"] == 3
    assert len(doc["members"]) == 5


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["gen", "--kind", "point-cloud", "--params", '{"n": 4}', "--seed", "9"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_pierce_three_squares(tmp_path, squares_path, vol_path):
    out = tmp_path / "cert.json"
    svg = tmp_path / "cert.svg"
    rc = main(
        [
            "pierce",
            "--family",
            squares_path,
            "--measure",
            vol_path,
            "--p",
            "3",
            "--q",
            "2",
            "--lambda",
            "1",
            "--eps",
            "1/8",
            "--out",
            str(out),
            "--svg",
            str(svg),
        ]
    )
    assert rc == 0
    cert = load(out)
    assert cert["schema"] == "quanthelly/certificate-v1"
    assert len(cert["witnesses"]) <= 2
    assert svg.read_text().startswith("<?xml")


def test_pierce_hypothesis_exit_2(tmp_path, vol_path):
    fam = Family((box(0, 0, 1, 1), box(5, 5, 6, 6)))
    fp = tmp_path / "f.json"
    dump(family_to_json(fam), fp)
    rc = main(
        [
            "pierce",
            "--family",
            str(fp),
            "--measure",
            vol_path,
            "--p",
            "2",
            "--q",
            "2",
            "--lambda",
            "1",
            "--eps",
            "1/8",
        ]
    )
    assert rc == 2


def test_pierce_fractional_tau_exit_0(tmp_path, vol_path):
    # boxes around the edges of a pentagon: tau* = 5/2 rounds to 3 witnesses
    verts = [(10, 0), (3, 10), (-8, 6), (-8, -6), (3, -10)]
    fam = Family(
        tuple(
            box(min(ax, bx) - 2, min(ay, by) - 2, max(ax, bx) + 2, max(ay, by) + 2)
            for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1])
        )
    )
    fp = tmp_path / "pentagon.json"
    dump(family_to_json(fam), fp)
    out = tmp_path / "cert.json"
    rc = main(
        ["pierce", "--family", str(fp), "--measure", vol_path, "--p", "3",
         "--q", "2", "--lambda", "1", "--eps", "1/8", "--out", str(out)]
    )
    assert rc == 0
    assert len(load(out)["witnesses"]) == 3


@pytest.mark.parametrize(
    "kind, params, measure, p, eps, digest",
    [
        ("clustered-lattice", '{"clusters":3}', "lat", "4", "0",
         "0f20ee5ac334cbadea4047296b73de7116eb57f17abd7ac3ae052ecda509f986"),
        ("clustered-volume", '{"clusters":2}', "vol", "3", "1/8",
         "941680ce4975cb954b3cf0fc7e614a77b60f4dc7d784f0eaa3856eff9322a34a"),
    ],
)
def test_pierce_certificate_bytes_pinned(
    tmp_path, lat_path, vol_path, kind, params, measure, p, eps, digest
):
    # refactors of the piercing pipeline keep these certificates byte-identical
    fam, out = tmp_path / "fam.json", tmp_path / "cert.json"
    assert main(["gen", "--kind", kind, "--params", params, "--seed", "7",
                 "--out", str(fam)]) == 0
    msr = {"lat": lat_path, "vol": vol_path}[measure]
    rc = main(
        ["pierce", "--family", str(fam), "--measure", msr, "--p", p, "--q", "2",
         "--lambda", "1", "--eps", eps, "--out", str(out)]
    )
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_pierce_pool_error_prints_stage_and_indices(tmp_path, vol_path, capsys):
    # member 1 is below lambda and meets no other member: no candidate lies in it
    fam = Family((box(0, 0, 2, 2), box(10, 10, F(21, 2), F(21, 2))))
    fp = tmp_path / "lone.json"
    dump(family_to_json(fam), fp)
    base = ["pierce", "--family", str(fp), "--measure", vol_path, "--p", "2",
            "--q", "1", "--lambda", "1", "--eps", "1/8"]
    assert main(base) == 3
    err = capsys.readouterr().err
    assert err == ("pool insufficient (stage lp, indices (1,)): "
                   "family member 1 contains no pool candidate\n")
    assert main(base + ["--smax", "0"]) == 3
    assert "pool insufficient (stage pool, indices ()): s_max" in capsys.readouterr().err


POINT_CLOUDS = {9: 5, 4: 2}  # points -> generator seed


@pytest.mark.parametrize(
    "n, argv, digest",
    [
        (9, ["tverberg", "--parts", "3"],
         "495d20a2e8adb38ae2f5941217dcbf2e0178ca40c7c6dc2174569e4b75c306b6"),
        (9, ["net"],
         "753c966061bb83b28d04be44b3764356a1c0e03806916d7f2acc085ce7ef8ba6"),
        (9, ["selection"],
         "b1e03c3fcae382f4e16b105cbd932e6777cd8839027bd310d87c0746c501ca9a"),
        (4, ["tverberg", "--parts", "2"],
         "5c3fe6a8450be2d8eb6b21a891accf9af3d7551a5218ed927706c60e1005d93f"),
        (4, ["net", "--epsp", "3/4"],
         "55630f8270b7287b065ccac9d680b04eeda079d064b6c4f16c83fcb390d06bcb"),
        (4, ["selection"],
         "e610dffb22916eead175860aeb7fba439d9e262e5daad13f684185b8f9d2b7e4"),
    ],
)
def test_point_commands_bytes_pinned(tmp_path, n, argv, digest):
    # refactors of the weak-net/selection/Tverberg path keep these outputs
    # byte-identical (the 4-point cloud is in convex position: its Tverberg
    # witness is a segment crossing)
    fam, out = tmp_path / "pts.json", tmp_path / "out.json"
    assert main(["gen", "--kind", "point-cloud", "--params", f'{{"n": {n}}}',
                 "--seed", str(POINT_CLOUDS[n]), "--out", str(fam)]) == 0
    assert main(argv[:1] + ["--family", str(fam)] + argv[1:] + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_helly_check_exit_codes(tmp_path, vol_path, capsys):
    rc = main(["gen", "--kind", "bkp-counterexample", "--out", str(tmp_path / "bkp.json")])
    assert rc == 0
    bkp = str(tmp_path / "bkp.json")
    # h=3 at lam=1: hypothesis true, conclusion false
    rc = main(
        ["helly-check", "--family", bkp, "--measure", vol_path, "--h", "3",
         "--lambda", "1", "--eps", "0", "--out", str(tmp_path / "r.json")]
    )
    assert rc == 4
    doc = load(tmp_path / "r.json")
    assert doc["hypothesis_holds"] is True
    assert doc["conclusion_holds"] is False
    # h=4 at lam=1/100: both hold
    rc = main(
        ["helly-check", "--family", bkp, "--measure", vol_path, "--h", "4",
         "--lambda", "1/100", "--eps", "0", "--out", str(tmp_path / "r2.json")]
    )
    assert rc == 0
    # h=4 at lam=2: hypothesis itself fails
    rc = main(
        ["helly-check", "--family", bkp, "--measure", vol_path, "--h", "4",
         "--lambda", "2", "--eps", "0", "--out", str(tmp_path / "r3.json")]
    )
    assert rc == 2


def test_floating_body_command(tmp_path, vol_path):
    body_doc = {
        "schema": "quanthelly/body-v1",
        "dim": 2,
        "vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]],
    }
    bp = tmp_path / "K.json"
    bp.write_text(dumps(body_doc))
    out = tmp_path / "fb.json"
    rc = main(
        ["floating-body", "--body", str(bp), "--measure", vol_path,
         "--eps", "1/4", "--dirs", "axis", "--out", str(out)]
    )
    assert rc == 0
    doc = load(out)
    assert doc["delta"] == "3/4"
    assert sorted(doc["body"]["vertices"]) == [
        ["1/4", "1/4"], ["1/4", "3/4"], ["3/4", "1/4"], ["3/4", "3/4"],
    ]


def test_floating_body_command_lattice(tmp_path, lat_path):
    # the farey directions are not generic for this triangle's lattice points
    tri = convex_hull([(0, 0), (7, 0), (2, 5)])
    bp = tmp_path / "tri.json"
    dump(body_to_json(tri), bp)
    out = tmp_path / "fb.json"
    rc = main(
        ["floating-body", "--body", str(bp), "--measure", lat_path,
         "--eps", "1/4", "--dirs", "farey:3", "--out", str(out)]
    )
    assert rc == 0
    assert body_contains_body(tri, body_from_json(load(out)["body"]))


def test_tverberg_command(tmp_path):
    fam = Family.from_points([(0, 0), (4, 0), (0, 4), (1, 1)])
    fp = tmp_path / "pts.json"
    dump(family_to_json(fam), fp)
    out = tmp_path / "tv.json"
    rc = main(["tverberg", "--family", str(fp), "--parts", "2", "--out", str(out)])
    assert rc == 0
    doc = load(out)
    assert len(doc["partition"]) == 2
    assert doc["witness"]["vertices"] == [["1", "1"]]


def test_net_command(tmp_path):
    fam = Family.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
    fp = tmp_path / "pts.json"
    dump(family_to_json(fam), fp)
    out = tmp_path / "net.json"
    rc = main(
        ["net", "--family", str(fp), "--eps", "1/8", "--epsp", "3/4", "--out", str(out)]
    )
    assert rc == 0
    doc = load(out)
    assert doc["certified"] is True
    assert len(doc["net"]) >= 1


def test_selection_command(tmp_path):
    fam = Family.from_points([(0, 0), (2, 0), (2, 2), (0, 2)])
    fp = tmp_path / "pts.json"
    dump(family_to_json(fam), fp)
    out = tmp_path / "sel.json"
    rc = main(["selection", "--family", str(fp), "--out", str(out)])
    assert rc == 0
    doc = load(out)
    assert doc["r"] == 3
    assert doc["exhaustive"] is True


def test_colorful_helly_command(tmp_path, vol_path):
    paths = []
    shifts = [(0, 0), (-1, 0), (0, -1)]
    for i, (sx, sy) in enumerate(shifts):
        mems = tuple(
            box(-2 + sx + j, -2 + sy, 2 + sx + j, 2 + sy) for j in range(2)
        )
        p = tmp_path / f"class{i}.json"
        dump(family_to_json(Family(mems)), p)
        paths.append(str(p))
    out = tmp_path / "ch.json"
    rc = main(
        ["colorful-helly", "--classes", *paths, "--measure", vol_path,
         "--lambda", "1", "--eps", "0", "--v", "1,0", "--out", str(out)]
    )
    assert rc == 0
    doc = load(out)
    assert doc["class_index"] in (0, 1, 2)
    assert doc["transcript"]["omitted"] in (0, 1, 2)
    witness = body_from_json(doc["witness"])
    assert certified_ge(Measure.volume(), witness, F(1)) is True


def test_colorful_helly_conclusion_fails_exit_4(tmp_path, capsys):
    classes = [
        Family((box(0, 0, 1, 10), box(5, 0, 6, 10))),
        Family((box(-1, 0, 7, 1), box(-1, 8, 7, 9))),
    ]
    paths = []
    for i, cls in enumerate(classes):
        p = tmp_path / f"class{i}.json"
        dump(family_to_json(cls), p)
        paths.append(str(p))
    ne = tmp_path / "ne.json"
    dump(measure_to_json(Measure.nonempty()), ne)
    rc = main(
        ["colorful-helly", "--classes", *paths, "--measure", str(ne),
         "--lambda", "1", "--eps", "0", "--v", "1,0"]
    )
    assert rc == 4
    assert "class 0" in capsys.readouterr().err


def test_experiment_command_csv(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(
        dumps(
            {
                "schema": "quanthelly/experiment-v1",
                "kind": "helly-campaign",
                "name": "t",
                "trials": 2,
                "seed": 5,
            }
        )
    )
    out = tmp_path / "out.csv"
    rc = main(
        ["experiment", "--config", str(cfg), "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("index,")
    assert len(lines) == 3


def test_experiment_seed_override(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(
        dumps({"kind": "helly-campaign", "name": "t", "trials": 1, "seed": 5})
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["experiment", "--config", str(cfg), "--out", str(a)]) == 0
    assert (
        main(["experiment", "--config", str(cfg), "--seed", "6", "--out", str(b)])
        == 0
    )
    assert load(a)["records"] != load(b)["records"]


def test_missing_file_exit_1(vol_path, capsys):
    rc = main(
        ["helly-check", "--family", "/nonexistent.json", "--measure", vol_path, "--h", "3"]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_stdout_default(tmp_path, capsys, vol_path):
    fam = Family((box(0, 0, 2, 2),))
    fp = tmp_path / "f.json"
    dump(family_to_json(fam), fp)
    rc = main(
        ["helly-check", "--family", str(fp), "--measure", vol_path, "--h", "1",
         "--lambda", "1"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["holds"] is True
