"""Pinned output bits: sha256 digests of what train, evaluate and grad-check
write, recorded before the zero-state kernels (step 0 skips its products
with h = c = 0). Every change to the training or inference kernels must
keep them.

Floating-point bits depend on the BLAS kernels, so the digests hold only
for the build they were recorded with: numpy 2.4.6 linked to OpenBLAS
0.3.31 on x86-64. Elsewhere the test skips. Each digest holds on one
worker and on two, the serial and the threaded paths.
"""

import hashlib

import numpy as np
import pytest

from prognost.cli import run
from prognost.model import load_model
from test_model import use_cores

RECORDED_BUILD = ("2.4.6", "0.3.31")

# Small stacks on a 150-point degradation fixture, 3 epochs of batches of 16;
# every case ends each epoch in a short batch (104 or 100 training windows).
CASES = {
    "8,4-mse-w1": dict(hidden_dims="8,4", loss_mode="mse", window=1),
    "8,4-mse-w7": dict(hidden_dims="8,4", loss_mode="mse", window=7),
    "6,5,4-bce-clip-w1": dict(hidden_dims="6,5,4", loss_mode="bce", max_grad_norm=0.05,
                              window=1),
    "6,5,4-bce-clip-w7": dict(hidden_dims="6,5,4", loss_mode="bce", max_grad_norm=0.05,
                              window=7),
}

PINNED = {
    "8,4-mse-w1": {
        "theta": "7bab32215d2454c5c2c490e52c32770b0ebe9cbb02d3c4ba4725b31f55702563",
        "report": "b236814fe5aa4604df41c5e938e0f45f896e337a7e2091a712748e1230ba6e55",
        "trace": "cc40995b6c86beaaf2a727cba9723e6ebba688c943546080d1b338f3ae945430",
    },
    "8,4-mse-w7": {
        "theta": "b3eb915cfa79f74d897f2cadc68612bb5ddb76497e4ad75cbb8efa4fe53a00fc",
        "report": "b8ce84ee86af2a07fde1a28ae13543efb8eb7f4a835fd4e7e65b3d1a004a6b07",
        "trace": "daced111deb1d216781e4454ff7337cd37db4840152baf5dcf64f866e28c0ac7",
    },
    "6,5,4-bce-clip-w1": {
        "theta": "5017cf2a0211796b6a83ea3335f7bb26b835c11eb32bc933e633cef92f982be2",
        "report": "92b9fb3de2da3c51c4059142867048200946746d0444d539b968facf8d501abf",
        "trace": "d0f595c521c40ee151006ad49c7ece731c5f7b28b203737a92135b888474334c",
    },
    "6,5,4-bce-clip-w7": {
        "theta": "e83b77d28f6fc64cd161bc1e492319d7b698ef0636f364885ac4180679cd709d",
        "report": "8e65c5630880d5f171e8e71c39199bacf55ec05e88f2d5dd6ad99d979038bc38",
        "trace": "003ef12b3f78761e11d679c7022a627ed891edcf8863c620b181dcd0862a9c9b",
    },
}

PINNED_GRAD_CHECK = {
    "defaults": "8f542c21d51160ffbd0e89f5540738556b226582d5f1c8f9115c1998fbdb3c3d",
    "dims-6,3-seed-4": "9e048c1465b34569a5732ab56a1f60af9ba4aad2c56a37bbc6b7916d7c0009eb",
}

GRAD_CHECK_ARGS = {"defaults": [], "dims-6,3-seed-4": ["--dims", "6,3", "--seed", "4"]}


def _build() -> tuple[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return np.__version__, ".".join(str(blas.get("version")).split(".")[:3])


pytestmark = pytest.mark.skipif(
    _build() != RECORDED_BUILD,
    reason=f"digests recorded with numpy/OpenBLAS {RECORDED_BUILD}, not {_build()}",
)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    d = tmp_path_factory.mktemp("pinned")
    raw, clean = d / "raw.csv", d / "clean.csv"
    assert run(["gen-fixture", "--kind", "degradation", "--n", "150", "--out", str(raw)]) == 0
    assert run(["preprocess", "--in", str(raw), "--out", str(clean)]) == 0
    return clean


def digests(tmp_path, clean, case) -> dict[str, str]:
    settings = {"epochs": 3, "batch_size": 16, "seed": 11, **CASES[case]}
    cfg, model = tmp_path / "cfg", tmp_path / "m.model"
    report, metrics, trace = tmp_path / "r.csv", tmp_path / "met.csv", tmp_path / "tr.csv"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    assert run(["train", "--in", str(clean), "--config", str(cfg),
                "--model-out", str(model), "--report-out", str(report)]) == 0
    assert run(["evaluate", "--model", str(model), "--in", str(clean),
                "--metrics-out", str(metrics), "--trace-out", str(trace)]) == 0
    return {"theta": sha(load_model(model).theta.tobytes()),
            "report": sha(report.read_bytes()), "trace": sha(trace.read_bytes())}


def on_cores(cases):
    """``(case, cores)`` parameters: each case on one worker, under its own
    id, then on two workers (test_model.use_cores)."""
    return ([pytest.param(case, 1, id=case) for case in cases]
            + [pytest.param(case, 2, id=f"{case}-2-cores") for case in cases])


@pytest.mark.parametrize("case, cores", on_cores(CASES))
def test_train_and_evaluate_keep_the_pinned_bits(tmp_path, monkeypatch, clean, case, cores):
    use_cores(monkeypatch, cores)
    assert digests(tmp_path, clean, case) == PINNED[case]


@pytest.mark.parametrize("case, cores", on_cores(GRAD_CHECK_ARGS))
def test_grad_check_keeps_the_pinned_text(capsys, monkeypatch, case, cores):
    use_cores(monkeypatch, cores)
    assert run(["grad-check", *GRAD_CHECK_ARGS[case]]) == 0
    assert sha(capsys.readouterr().out.encode()) == PINNED_GRAD_CHECK[case]
