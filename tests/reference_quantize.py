"""Initial-data quantization as it was before the merge of equal block
minima was vectorised, kept verbatim as a reference: one Python loop over
the blocks. ``displacement.approximate_initial_data`` must give the same
values, weights and assignment bit for bit.
"""

import numpy as np

from strainflow.state import SimpleState


def loop_initial_data(p0_samples, n_values: int) -> tuple[SimpleState, np.ndarray]:
    samples = np.asarray(p0_samples, dtype=float)
    mu = float(np.mean(samples))
    m = len(samples)
    n = int(min(n_values, m))

    order = np.argsort(samples, kind="stable")
    sorted_vals = samples[order]
    edges = np.round(np.linspace(0, m, n + 1)).astype(int)
    edges = np.unique(edges)
    q_levels = np.array([sorted_vals[a] for a in edges[:-1]])  # block minima
    counts = np.diff(edges)

    # merge duplicate levels (a constant field quantizes to one value)
    levels: list[float] = []
    weights: list[float] = []
    block_of = np.empty(len(q_levels), dtype=int)
    for i, (q, cnt) in enumerate(zip(q_levels, counts)):
        if levels and q == levels[-1]:
            weights[-1] += cnt / m
        else:
            levels.append(float(q))
            weights.append(cnt / m)
        block_of[i] = len(levels) - 1

    q = np.array(levels)
    wts = np.array(weights)
    qbar = float(np.dot(wts, q))
    nn = float(n)
    vals = mu * (q + 1.0 / nn) / (qbar + 1.0 / nn)
    vals = vals + (mu - float(np.dot(wts, vals)))  # exact mass

    # assignment of each original sample to its merged block
    raw_block = np.searchsorted(edges, np.arange(m), side="right") - 1
    assignment = np.empty(m, dtype=int)
    assignment[order] = block_of[raw_block]
    return SimpleState(values=vals, weights=wts), assignment
