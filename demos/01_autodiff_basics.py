"""Tour of the tensor engine: forward ops, the gradient tape, and the
finite-difference checker that keeps every analytic gradient honest.

Run:  python demos/01_autodiff_basics.py
"""

import numpy as np

from maecodec import tensor as T

rng = np.random.default_rng(0)

# -- tensors and the tape ----------------------------------------------------

x = T.Tensor(rng.normal(size=(1, 3, 8, 8)), requires_grad=True)
k = T.Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.3, requires_grad=True)

with T.GradientTape() as tape:
    feats = T.relu(T.conv2d(x, k, stride=2, padding=1))
    loss = T.reduce_mean(T.square(feats))

grads = tape.backward(loss)
print(f"loss = {loss.item():.6f}")
print(f"d loss / d input   shape {grads[x].shape}, |g|_max = {np.abs(grads[x]).max():.4f}")
print(f"d loss / d kernel  shape {grads[k].shape}, |g|_max = {np.abs(grads[k]).max():.4f}")

# -- adjointness of conv and its transpose ------------------------------------

y = T.Tensor(rng.normal(size=feats.shape))
lhs = float((T.conv2d(x, k, 2, 1).data * y.data).sum())
with T.GradientTape() as tape:
    s = T.reduce_sum(T.mul(T.conv2d(x, k, 2, 1), y))
rhs = float((x.data * tape.backward(s)[x]).sum())
print(f"\nadjoint identity <conv(x),y> = <x, conv^T(y)>: "
      f"{lhs:.6f} vs {rhs:.6f} (diff {abs(lhs - rhs):.2e})")

# -- the gradient checker ------------------------------------------------------

err = T.grad_check(lambda a, b: T.reduce_sum(T.square(T.conv2d(a, b, 2, 1))), [x, k])
print(f"\ngrad_check on conv2d energy: max relative error {err:.2e} (tolerance 1e-4)")

err = T.grad_check(
    lambda a: T.reduce_mean(T.mul(T.sigmoid(a), T.exp(T.neg(T.softplus(a))))),
    [T.Tensor(rng.normal(size=(5, 5)), requires_grad=True)])
print(f"grad_check on a nonlinear chain: max relative error {err:.2e}")
