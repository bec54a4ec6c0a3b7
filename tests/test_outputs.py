"""sha256 digests of CLI outputs, so that a change meant to keep them shows any it moves.

A change that moves one of these outputs on purpose updates its digest here and
says why in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import raymat
from raymat.cli import main

DIGESTS = {
    'demo': 'd196137b7a50e2e8ea7535be1fcef8b34ede1ff77a000042c87483dd463641c3',
    'demo scene': '505fdc67afcca8545a5a2073e60ced8705f27fa3224bb5b98cdc0254597dbde8',
    'trace k=1': 'b5b85bc1efef1fe2859a414e8dc915aceeff1c361893235e162208c374739727',
    'trace k=2': 'df9a4899a4292ad7df3dd05c89a8522dd68946d04385711d5e6a65071f627975',
    'trace k=3': '7eb72beb3603a044e3947d8bcae1294ec2c173e346111a0153b1f4b957eb93b4',
    'trace k=4': '2c9a31906efd9515738a5973184c5bc15d471c16127e1f2fd2007abf2c8448ca',
    'simulate k=2 seed=0': '3aeddb95e48785dd31e92f6bcea6ecf1daac1137b92730c4fc7ec307e7c7bc0b',
    'identify k=2 seed=0': 'c9f10fc89880caa0cedfda36c1f529f60c1ffec02eddd19df07e9a254d05f66c',
    'simulate k=2 seed=1': 'b3e9f237f14106a85cb9043af116013a9114212d10f5e3437f370e88c28d3be8',
    'identify k=2 seed=1': 'c9f10fc89880caa0cedfda36c1f529f60c1ffec02eddd19df07e9a254d05f66c',
    'simulate k=2 seed=7': 'f19641dd2fbdc1e1505abee8dfa7969c4e1180805d991cca213fb0dae5589a42',
    'identify k=2 seed=7': 'c9f10fc89880caa0cedfda36c1f529f60c1ffec02eddd19df07e9a254d05f66c',
    'simulate k=3 seed=0': 'c14666967c99474d8204143aeb0dd0c84f83887243f64baf7a7d6a261d5209d8',
    'identify k=3 seed=0': '1d62e809b3998a689c2929f6dabf7f9c2da00fd4808868ff0f4bc64d090a48c5',
    'simulate k=3 seed=1': '865526622c58272f5f456bf5569abbd5f07b09941a1e8caa91892c7069f34a2e',
    'identify k=3 seed=1': '1d62e809b3998a689c2929f6dabf7f9c2da00fd4808868ff0f4bc64d090a48c5',
    'simulate k=3 seed=7': 'fa6d10a0deddb021082028f90b6e223c81cbfdba9627ab0d6df0847629c9f223',
    'identify k=3 seed=7': '1d62e809b3998a689c2929f6dabf7f9c2da00fd4808868ff0f4bc64d090a48c5',
    'simulate k=2 seed=2 noise=0.5': '60495ec543f3cd521d3e831ffd84da98c7dcdf953a948f10b40133dd8db9e0fa',
    'identify k=2 seed=2 noise=0.5': 'fb23704a761f3db3fc07f0ff949a76b293ad55c85d1bd808a57d32d266efc65c',
    'simulate k=3 seed=4 noise=0.5': 'fb1292c3a869ee00a0ce4d24dfc079036deef424a20e384cb23d99d73613b4a7',
    'identify k=3 seed=4 noise=0.5': 'a9651560c9cbec8962b73bab239cda78f4e6f1c269f3abb08c96b27a1b644e98',
    'rl wood 28': '6cd1bcb18e0624dd8d2f7ca899db2dc54d89c51d6c1a93d01519d25f0ba8fa30',
    'rl wood 100': 'a942b4244b04d96cc60b2c73a1545cb5dc45eef07d66989d252c0b82217a5813',
    'rl wood 1000': 'fd0c66ec9257bb8957c9869ba0e82584fa4764567d87cbf173b5f6a8b75a5d56',
    'rl plaster 28': 'ad8e25b1551faaa1878e72ba6ad258b1fdc524819aa5de5585b1ccb8cd212b90',
    'rl plaster 100': 'a98edaed76301da97ad0defb3b23a529ca297eb51966cc2f7695510a4a0ff205',
    'rl plaster 1000': 'e3b387c8bccf211a3295347c5e9063b26d7f00091d58abbc63a8059808780697',
    'rl glass 28': 'd0fbf82122bd72f516098cdfc0b148254316a3d0ccd9231bebba5f6a8322015f',
    'rl glass 100': '3df0b8763e366612e3f7df39b6dd7efbda1a512c7bb292e137fe607c4bb35455',
    'rl glass 1000': '1bccb711ef38b0c893d1031c40a260d40d2f33a1076cbd3e5769eb2f7f4f4fa8',
    'coeff wood 28': 'b490236dfdf74d375ba53c80e53a0d81c75c0ecac05da11e538cdeddf007caea',
    'coeff wood 100': 'f949b2b360da0e6d519d37f96e4836ec43bc8db0b91e31b50e61373e57bbd521',
    'coeff wood 1000': '701611b02b1bb5119b7db7c53ee75194312c7e0dd41332b377e3c3f177a59305',
    'coeff plaster 28': '830ee619a55685cf1e783048501db9208fc521c4285c36d02638c7cd012c86cd',
    'coeff plaster 100': '4f47957cc325f5066663e8bed7b259ee4f8cd40dd0f18af4b9a01ee6f045a46c',
    'coeff plaster 1000': '305b65526de76806ec2e1f17aeb4f185b1e67bd751ae4b06038b110d53b52b68',
    'coeff glass 28': '6e1b00432227e2c10ee68ad12a9344b25195009aa5ef5c0b0b8ac936ca5992d5',
    'coeff glass 100': '71319e2d6cd85de76f9f0ea31dab6e29d0c78eb1542693a727b69dcda17a9baf',
    'coeff glass 1000': '0d33a61e2ccb0429f5fad86c118efab058878e79d6ad45b893a93bf35915e99c',
    'settling wood 28': '0ac14ff41cc8140ab831cfd9822efd2da251509b71e46fe1615c783798755d96',
    'settling wood 100': 'f59383d53cdab62dd88bf421bf419be70f6fcf22c31a3974cd8430cfdffd28c6',
    'settling wood 1000': 'febc3547411fcb7c6862b882546a9255941339c74b04a206de5fc4b2a9cc75e7',
    'settling plaster 28': 'f1e321f63536f65372509c2a2bfd5ff9202833ac116accf688c4c36fb0ef4982',
    'settling plaster 100': '9716f869a02f9a1c727d40699d3c08266a91f174bd8a5fd56bb3283b98123264',
    'settling plaster 1000': '5b4c037384793d1407a2db387abb3473c77f937a7941e6929cc6bd4ae3dab071',
    'settling glass 28': '2c5b9730394af3bb1cfff50e54ce2f48b8e3189e41a1d7dcccc57b67a8bc06da',
    'settling glass 100': '58b0ea4ac7feda7eaec2bd4b8b08522a0ab40849dc079fbd908bff88a9aa86d5',
    'settling glass 1000': '6931061e3a95620fd0a8261ac906dd8a514fbcb6eb1ee0fd3ebe4eb0d22a2b5c',
    'settling glass 100 --grid-step 0.01': '5fea334aaaddbd9ba0e58a14e8ed7b32ee9311fbd9cb510da8f62d72024987e1',
    'rldb build': 'e8564ee9a015dac48f9f5b87fb14c4fb40eab36de577065f22b7de117f494fc7',
    'rldb show': 'e759c6baf03887ab3143f930562cd1eaad95c5b45ef5215170ad863e9e19f41f',
}


def _check(key, data: bytes):
    assert hashlib.sha256(data).hexdigest() == DIGESTS[key], key


def _stdout(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out.encode("utf-8")


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """The demo's directory, its positions CSV and its --tx/--rx flags."""
    outdir = tmp_path_factory.mktemp("demo")
    positions = outdir / "positions.csv"
    assert main(["demo", "--outdir", str(outdir), "--output", str(positions)]) == 0
    flags = []
    for line in positions.read_text(encoding="utf-8").splitlines():
        role, _, xyz = line.partition(",")
        if role[:2] in ("tx", "rx") and role[2:].isdigit():
            flags += [f"--{role[:2]}", xyz]
    return outdir, positions.read_bytes(), flags


def test_demo_outputs(demo):
    outdir, positions, _ = demo
    _check("demo", positions)
    _check("demo scene", (outdir / "demo_building.json").read_bytes())


def test_module_entry_point_runs_the_demo(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(raymat.__file__)))
    child = subprocess.run(
        [sys.executable, "-m", "raymat", "demo", "--outdir", str(tmp_path)],
        env=env, capture_output=True, check=False,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == demo[1]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_trace_digest(demo, capsys, k):
    outdir, _, flags = demo
    scene = str(outdir / "demo_building.json")
    code, out = _stdout(capsys, "trace", "--scene", scene, *flags, "--max-bounces", str(k))
    assert code == 0
    _check(f"trace k={k}", out)


def _simulate_identify(demo, capsys, tmp_path, k, seed, noise):
    """The measurement file and ``exit <code>`` + report of a demo simulate/identify run."""
    outdir, _, flags = demo
    common = ["--scene", str(outdir / "demo_building.json"), *flags,
              "--max-bounces", str(k), "--freq", "100", "--u", "1"]
    m_path = tmp_path / "m.csv"
    argv = ["simulate", *common, "--noise", noise, "--seed", str(seed), "--output", str(m_path)]
    assert main(argv) == 0
    code, out = _stdout(capsys, "identify", *common, "--measurements", str(m_path))
    return m_path.read_bytes(), b"exit %d\n" % code + out


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("k", [2, 3])
def test_simulate_identify_digest(demo, capsys, tmp_path, k, seed):
    measurements, report = _simulate_identify(demo, capsys, tmp_path, k, seed, "0.2")
    _check(f"simulate k={k} seed={seed}", measurements)
    _check(f"identify k={k} seed={seed}", report)


@pytest.mark.parametrize(("k", "seed"), [(2, 2), (3, 4)])
def test_contradicting_identify_digest(demo, capsys, tmp_path, k, seed):
    """Runs whose propagation ends in a contradiction (exit 2)."""
    measurements, report = _simulate_identify(demo, capsys, tmp_path, k, seed, "0.5")
    assert report.startswith(b"exit 2\n")
    _check(f"simulate k={k} seed={seed} noise=0.5", measurements)
    _check(f"identify k={k} seed={seed} noise=0.5", report)


@pytest.mark.parametrize("freq", ["28", "100", "1000"])
@pytest.mark.parametrize("material", ["wood", "plaster", "glass"])
@pytest.mark.parametrize(
    "command",
    [
        ("rl", "--angles", "0:85:5", "--kappa", "0.0005"),
        ("coeff", "--theta", "30", "--h-grid", "0:40:0.25"),
        ("settling", "--theta", "20", "--tol", "0.2"),
    ],
    ids=["rl", "coeff", "settling"],
)
def test_model_digest(capsys, command, material, freq):
    code, out = _stdout(capsys, command[0], "--material", material, "--freq", freq, *command[1:])
    assert code == 0
    _check(f"{command[0]} {material} {freq}", out)


def test_settling_explicit_step_digest(capsys):
    argv = ("settling", "--material", "glass", "--freq", "100", "--grid-step", "0.01")
    code, out = _stdout(capsys, *argv)
    assert code == 0
    _check("settling glass 100 --grid-step 0.01", out)


def test_rldb_build_digest(tmp_path):
    db = tmp_path / "db.csv"
    argv = ["rldb", "build", "--db", str(db), "--freqs", "28:1000:162",
            "--angles", "0:85:5", "--kappa", "0.0002"]
    assert main(argv) == 0
    _check("rldb build", db.read_bytes())


def test_rldb_show_digest(capsys, tmp_path):
    db = tmp_path / "db.csv"
    argv = ["rldb", "build", "--db", str(db), "--freqs", "28:1000:162",
            "--angles", "0:85:5", "--kappa", "0.0002"]
    assert main(argv) == 0
    code, out = _stdout(capsys, "rldb", "show", "--db", str(db))
    assert code == 0
    _check("rldb show", out)
