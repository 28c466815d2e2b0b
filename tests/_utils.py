"""Shared test helpers: finite-difference gradient checking on a
float64 shadow of the graph, the supervised contrastive loss as a
double sum, the reference for `contrastive.supcon_loss`, and a small
corpus of records at chosen rates."""

import numpy as np

from ecgrecon.contrastive import TEMPERATURE
from ecgrecon.synth import builtin_class_specs, generate_record
from ecgrecon.tensor import Tensor
from ecgrecon.wfdb_io import write_record


def finite_diff_check(build_loss, arrays, step=1e-3, tol=1e-4):
    """Compare backward grads with central differences in float64.

    build_loss(tensors) -> scalar Tensor; `arrays` are the float64 leaf
    values. Returns the worst relative error over all inputs.
    """
    leaves = [Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
    loss = build_loss(leaves)
    loss.backward()
    grads = [l.grad.copy() if l.grad is not None else np.zeros_like(l.data)
             for l in leaves]

    worst = 0.0
    for li, base in enumerate(arrays):
        fd = np.zeros_like(base, dtype=np.float64)
        flat = fd.reshape(-1)
        base_flat = base.reshape(-1)
        for j in range(base_flat.size):
            orig = base_flat[j]
            base_flat[j] = orig + step
            up = build_loss([Tensor(a, dtype=np.float64) for a in arrays]).item()
            base_flat[j] = orig - step
            down = build_loss([Tensor(a, dtype=np.float64) for a in arrays]).item()
            base_flat[j] = orig
            flat[j] = (up - down) / (2.0 * step)
        denom = np.maximum(np.abs(fd), np.abs(grads[li]))
        denom[denom < 1e-6] = 1.0
        err = np.max(np.abs(grads[li] - fd) / denom)
        worst = max(worst, float(err))
    assert worst < tol, f"gradient mismatch: rel err {worst:.2e} >= {tol}"
    return worst


def random_unit_rows(rng, b, d):
    z = rng.normal(size=(b, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def supcon_loss_naive(z, labels, temperature=TEMPERATURE):
    """Independent double-sum oracle, double precision, no vectorization."""
    z = np.asarray(z, dtype=np.float64)
    labels = [frozenset(l) for l in labels]
    b = len(labels)
    total, n_active = 0.0, 0
    for i in range(b):
        positives = [p for p in range(b) if p != i and labels[i] & labels[p]]
        if not positives:
            continue
        n_active += 1
        denom = sum(np.exp(z[i] @ z[j] / temperature) for j in range(b) if j != i)
        inner = 0.0
        for p in positives:
            inner += np.log(np.exp(z[i] @ z[p] / temperature) / denom)
        total += -inner / len(positives)
    return total / n_active if n_active else 0.0


def mixed_rate_corpus(root, layout=((100.0, 10.0),) * 2 + ((500.0, 10.0),) * 2):
    """A PTB-XL-layout corpus with one record R<i> of patient P<i> in fold
    i % 10 + 1 per (fs, seconds) of `layout`, in that order; by default
    R0, R1 at 100 Hz and R2, R3 at 500 Hz, all of 10 s."""
    spec = builtin_class_specs()[0]
    name = spec.class_name
    rows = ["ecg_id,patient_id,scp_codes,strat_fold,filename_lr"]
    for i, (fs, seconds) in enumerate(layout):
        write_record(generate_record(spec, seconds, fs, seed=i, record_id=f"R{i}",
                                     patient_id=f"P{i}"), root / "records")
        rows.append(f'R{i},P{i},"{{\'{name}\': 100.0}}",{i % 10 + 1},records/R{i}')
    (root / "database.csv").write_text("\n".join(rows) + "\n")
    (root / "scp_statements.csv").write_text(f"code,diagnostic_class\n{name},{name}\n")
