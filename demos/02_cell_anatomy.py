#!/usr/bin/env python3
"""Look inside one LSTM cell step and the stacked window forward pass.

The cell combines the input value, the previous hidden state and the
previous cell state through three sigmoid gates and a tanh candidate:

    i = sigma(Wi x + Vi h + bi)        how much new candidate to admit
    f = sigma(Wf x + Vf h + bf)        how much old cell state to keep
    o = sigma(Wo x + Vo h + bo)        how much of tanh(c) to emit
    c = f * c_prev + i * tanh(Wc x + Vc h + bc)
    h = o * tanh(c)

The four gates of a layer are stacked into one W (4d x k), V (4d x d)
and b (4d), so one step computes all of them in one (batch, 4d) array:
columns [0, d) are i, [d, 2d) f, [2d, 3d) o and [3d, 4d) the candidate.
"""

import numpy as np

from prognost import TrainConfig, forward_window, init_params, lstm_cell_forward
from prognost.model import forward_windows, layer_zeros

np.set_printoptions(precision=4, suppress=True)

# ---- a zero-weight cell shows the pure gate arithmetic ----------------------
p = layer_zeros(input_size=1, hidden_size=3)
# out: arrays the step writes into, gates and recurrent product (4d), h, c, tanh(c) (d)
out = tuple(np.empty(n) for n in (12, 12, 3, 3, 3))
h, c = lstm_cell_forward(p, np.array([0.7]), np.zeros(3), np.zeros(3), out)
i, f, o, g = np.split(out[0], 4)
print("zero weights: gates are all sigma(0) = 0.5, candidate tanh(0) = 0,")
print(f"  i={i}  f={f}  o={o}  g={g}  ->  c={c}  h={h}")

# with a nonzero starting cell state, the forget gate halves it
c0 = np.array([0.8, -0.4, 0.0])
h, c = lstm_cell_forward(p, np.array([0.7]), np.zeros(3), c0)
print(f"carried state: c = 0.5*c0 = {c},  h = 0.5*tanh(c) = {h}")

# ---- the zero state: every window starts at h = c = 0 -----------------------
# None stands for that state: the step skips Vh and f * c_prev, which are
# exact zeros, and gives the values of the step on explicit zero arrays.
p8 = init_params(TrainConfig(hidden_dims=(8,)), seed=3).layers[0]
x0 = np.array([[0.2], [-0.6]])
h_none, c_none = lstm_cell_forward(p8, x0, None, None)
h_zero, c_zero = lstm_cell_forward(p8, x0, np.zeros((2, 8)), np.zeros((2, 8)))
same = np.array_equal(h_none, h_zero) and np.array_equal(c_none, c_zero)
print(f"\nfirst step from None equals the step from explicit zeros: {same}")
assert same

# ---- a trained-shape stack: one scalar in, one scalar out --------------------
params = init_params(TrainConfig(hidden_dims=(8, 4)), seed=7)
window = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
ys, cache = forward_windows(params, window[None, :])
print(f"\nstacked 8/4 model on window {window}: prediction {ys[0]:.5f}")

# for backpropagation through time the cache keeps each layer's step arrays:
# gates (W, batch, 4d), the recurrent product (batch, 4d), h, c and tanh(c)
# (W, batch, d); step t is slot t, and step 0's zero state is in no slot
step, layer = 4, 1
gates, _, h_steps, c_steps, _ = cache.layers[layer]
d = params.hidden_dims[layer]
print(f"layer {layer + 1} gate array {gates.shape}; step {step + 1} "
      f"forget gate {gates[step, 0, d : 2 * d]}")
print(f"layer {layer + 1} cell state over the steps:\n{c_steps[:, 0]}")
print(f"hidden state feeding the regression head: {cache.head_input[0]}")
assert np.array_equal(cache.head_input, h_steps[-1])

# gates live strictly inside (0,1), so |h| < 1 no matter the input
extreme = forward_window(params, np.array([1e6, -1e6, 1e6, -1e6, 1e6]))
print(f"\nprediction stays finite for absurd inputs: {extreme:.5f}")
