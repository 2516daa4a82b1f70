"""The bitwise contract as a committed check: a small grid of cases hashed
against sha256s recorded in ``tests/data/bits.json``.

Each case builds a seeded model, then hashes its infer logits and two train
steps: the train logits, every parameter gradient, and the parameters after
each Adam update. numpy's ``exp`` and ``tanh`` dispatch on the CPU's
features, so the recorded hashes are keyed by the numpy version plus the
enabled CPU features. On a key with no record the test skips and prints the
key and the hashes it computed; a deliberate change of the bits adds or
replaces the record, next to a note in CHANGES.md. To print this machine's
record:

    PYTHONPATH=src python tests/test_bits.py
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from sentigru.layers import softmax_cross_entropy
from sentigru.model import ModelConfig, build_model
from sentigru.trainer import Adam

RECORDS = pathlib.Path(__file__).parent / "data" / "bits.json"
DTYPES = ("float32", "float64")
BATCHES = (1, 3, 64)
LENGTHS = (5, 1)


def machine_key() -> str:
    from numpy._core._multiarray_umath import __cpu_features__
    enabled = sorted(name for name, on in __cpu_features__.items() if on)
    return f"numpy {np.__version__}; " + " ".join(enabled)


def case_hash(dtype: str, batch: int, seq_len: int) -> str:
    """sha256 over one case's infer logits and two train steps. BatchNorm
    needs two rows in train mode, so a one-row case hashes only infer."""
    cfg = ModelConfig(vocab_size=300, embed_dim=12, seq_len=seq_len,
                      gru_units=(16, 10, 8), dtype=dtype)
    model = build_model(cfg, seed=5)
    rng = np.random.default_rng(batch * 100 + seq_len)
    ids = rng.integers(0, cfg.vocab_size, (batch, seq_len))
    labels = rng.integers(0, cfg.num_classes, batch)
    digest = hashlib.sha256(model.forward(ids, "infer").tobytes())
    if batch * seq_len < 2:
        return digest.hexdigest()
    adam = Adam()
    for _ in range(2):
        logits = model.forward(ids, "train")
        _, dlogits = softmax_cross_entropy(logits, labels)
        model.zero_grad()
        model.backward(dlogits)
        digest.update(logits.tobytes())
        triples = model.trainable()
        for _, _, g in triples:
            digest.update(g.tobytes())
        adam.step(triples)
        for _, p, _ in triples:
            digest.update(p.tobytes())
    return digest.hexdigest()


def grid_hashes() -> dict[str, str]:
    return {f"{dtype} B{b} T{t}": case_hash(dtype, b, t)
            for dtype in DTYPES for b in BATCHES for t in LENGTHS}


def test_grid_matches_recorded_hashes():
    key = machine_key()
    computed = grid_hashes()
    recorded = json.loads(RECORDS.read_text(encoding="utf-8")).get(key)
    if recorded is None:
        pytest.skip("no recorded hashes for this machine; record "
                    + json.dumps({key: computed}))
    differ = sorted(case for case in computed if computed[case] != recorded.get(case))
    assert not differ, f"bits changed in {differ}"


if __name__ == "__main__":
    print(json.dumps({machine_key(): grid_hashes()}, indent=2))
