"""Seeded inputs for the census-income (``adult_income``) schema.

Rows are drawn feature by feature from fixed marginals, so every row is
coherent under the schema: integers are integral and inside their bounds and
each one-hot group has exactly one active member.  Labels come from a fixed
logistic rule over those features.  Only the schema and numpy are used here,
never tapgen's search or training code, so the program under test receives
nothing but the generated matrix and labels.
"""
from __future__ import annotations

import numpy as np

# (mean, standard deviation) of each integer feature before rounding.
INTEGER_MARGINALS = {"age": (40.0, 12.0), "hours_per_week": (40.0, 10.0)}

# Category frequencies per one-hot group, in the schema's member order.
CATEGORY_FREQUENCIES = {
    "employer": (0.15, 0.60, 0.15, 0.10),
    "education": (0.05, 0.30, 0.03, 0.22, 0.08, 0.18, 0.10, 0.04),
    "profession": (0.20, 0.15, 0.20, 0.20, 0.15, 0.10),
}

# Ground-truth log-odds of the over-50k class: a slope per integer feature
# (centred on its marginal mean) plus one weight per category.
INTERCEPT = -1.0
SLOPES = {"age": 0.08, "hours_per_week": 0.2}
CATEGORY_WEIGHTS = {
    "employer": (0.4, 0.0, 1.0, -0.8),
    "education": (-4.0, -2.0, 2.0, -1.0, 0.0, 1.6, 2.8, 3.6),
    "profession": (-2.0, -1.0, -1.2, 0.8, 2.0, -0.6),
}


def logit_rule(x: np.ndarray, schema) -> np.ndarray:
    """Ground-truth log-odds of class 1 for each row of ``x``."""
    z = np.full(x.shape[0], INTERCEPT)
    for name, slope in SLOPES.items():
        mean = INTEGER_MARGINALS[name][0]
        z += slope * (x[:, schema.index(name)] - mean)
    for group, weights in CATEGORY_WEIGHTS.items():
        z += x[:, list(schema.onehot_groups[group])] @ np.asarray(weights)
    return z


def adult_rows(schema, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` coherent rows for ``schema`` and their seeded 0/1 labels."""
    rng = np.random.default_rng([seed, 0xADD1])
    x = np.zeros((n, len(schema.features)))
    for name, (mean, sd) in INTEGER_MARGINALS.items():
        i = schema.index(name)
        feat = schema.features[i]
        x[:, i] = np.clip(np.round(rng.normal(mean, sd, n)),
                          feat.lower, feat.upper)
    for group, freqs in CATEGORY_FREQUENCIES.items():
        members = np.asarray(schema.onehot_groups[group])
        if len(freqs) != members.size:
            raise ValueError(f"group {group!r} has {members.size} members, "
                             f"frequencies for {len(freqs)}")
        picks = rng.choice(members.size, size=n, p=np.asarray(freqs))
        x[np.arange(n), members[picks]] = 1.0
    p = 1.0 / (1.0 + np.exp(-logit_rule(x, schema)))
    y = (rng.random(n) < p).astype(np.int64)
    return x, y
