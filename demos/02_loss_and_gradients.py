"""Exact marginalization, its invariants, and gradient verification."""

import numpy as np

from graphtransducer import (
    CTC_LIKE,
    PosteriorTensor,
    TopologySpec,
    build_lattice,
    backward_vars,
    brute_force_marginal,
    finite_diff_grad,
    forward_vars,
    loss_and_grad,
    marginal,
)

rng = np.random.default_rng(0)

# Score a 4-frame utterance against the lattice of the sequence (1, 2).
# The posterior tensor has one distribution per (frame, decoder state).
lat = build_lattice(TopologySpec(CTC_LIKE, (1, 2), vocab_size=4))
post = PosteriorTensor(rng.normal(0.0, 1.0, (4, 3, 4)))

result = loss_and_grad(lat, post)
print("loss:", result.loss)
print("total alignment probability:", np.exp(result.log_marginal))

# The same number comes out of exhaustive path enumeration...
print("brute force:", -brute_force_marginal(lat, post))

# ...and out of joining the forward and backward tables at any frame.
alpha = forward_vars(lat, post)
beta = backward_vars(lat, post)
for t in range(1, 5):
    print(f"marginal joined at frame {t}: {marginal(lat, post, alpha, beta, t):.15f}")

# The gradient is analytic; central finite differences agree to ~1e-10.
fd = finite_diff_grad(lat, post, step=1e-5)
print("max |analytic - finite difference|:", np.abs(result.grad - fd).max())

# Softmax rows shift-invariantly, so every (frame, state) row sums to zero.
print("max |row sum|:", np.abs(result.grad.sum(axis=2)).max())
