"""Finite-difference gradient checking on a recorded tape.

The program is recorded once; each central difference then replays only
the tape nodes downstream of the perturbed coordinate, by calling each
node's recorded ndarray kernel.  One pass over the tape marks which
checked inputs each node depends on; the wiring of a replay is resolved
once per checked input, not once per difference.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ContractViolation
from .tensor import GradientTape, Tensor


def grad_check(fn, inputs):
    """Max relative error between analytic and central-difference gradients.

    ``fn`` maps the given tensors to a scalar Tensor.  It must be
    deterministic, and its value must depend on its inputs only through
    the tensor primitives: the program is recorded once, and each
    difference reruns only the recorded kernels downstream of the
    perturbed input.  A program that breaks this contract, for example by
    reading an input's ``.data`` into a constant or by drawing fresh noise
    per call, raises ContractViolation.  Inputs must sit in the interior
    of every domain the program touches.  Everything is evaluated in
    double precision.  Returns max over coordinates of
    |analytic - numeric| / (|analytic| + 1e-8).
    """
    work = [Tensor(t.data.astype(np.float64), requires_grad=t.requires_grad) for t in inputs]
    with GradientTape() as tape:
        loss = fn(*work)
    if loss.size != 1:
        raise ContractViolation("grad_check needs a scalar-valued program")
    checked = [t for t in work if t.requires_grad]
    grads = tape.backward(loss, params=checked)

    eps = 1e-4  # central-difference step
    worst = 0.0
    for t, numeric in zip(checked, _numeric_gradients(fn, work, tape, loss, eps)):
        analytic = grads[t]
        worst = np.max(np.abs(analytic - numeric) / (np.abs(analytic) + 1e-8), initial=worst)
    return float(worst)


def _numeric_gradients(fn, work, tape, loss, eps):
    """(f(t + eps) - f(t - eps)) / (2 eps) per coordinate of each input of
    ``work`` that requires grad, one array per input.

    ``tape`` recorded ``loss = fn(*work)``.  Each f+- replays the nodes
    downstream of the perturbed input against the recorded outputs of all
    others: each node's kernel on the same arrays as a call of ``fn``, so
    the same bits.  First, one call of ``fn`` at a seeded +-eps
    perturbation of every input must match the replay bit for bit, or a
    value that bypasses the tape, or a kernel that differs from its
    primitive, would go unseen.
    """
    checked = [t for t in work if t.requires_grad]
    marked = _dependencies(tape._nodes, checked)
    saved = [t.data.copy() for t in checked]
    signs = np.random.default_rng(0x67726164)
    for t in checked:
        t.data += eps * signs.choice((-1.0, 1.0), size=t.shape)
    called = fn(*work).item()
    replayed = _compile([node for node, _ in marked], loss)().item()
    for t, data in zip(checked, saved):
        np.copyto(t.data, data)
    if called.hex() != replayed.hex():
        raise ContractViolation(
            f"grad_check: fn gives {called!r} where its recorded primitives give {replayed!r}; "
            "fn must be deterministic and see its inputs only through tensor primitives")

    numeric = []
    for j, t in enumerate(checked):
        replay = _compile([node for node, bits in marked if bits >> j & 1], loss)
        flat = t.data.reshape(-1)
        diffs = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = replay().item()
            flat[i] = orig - eps
            f_minus = replay().item()
            flat[i] = orig
            diffs[i] = (f_plus - f_minus) / (2.0 * eps)
        numeric.append(diffs.reshape(t.shape))
    return numeric


def _dependencies(nodes, sources):
    """(node, bits) for each node whose output depends on a tensor of
    ``sources``, in tape order: bit i of bits is set when it depends on
    sources[i]."""
    marks = {id(t): 1 << i for i, t in enumerate(sources)}
    marked = []
    for node in nodes:
        bits = 0
        for inp in node.inputs:
            bits |= marks.get(id(inp), 0)
        if bits:
            marks[id(node.out)] = bits
            marked.append((node, bits))
    return marked


def _compile(nodes, loss):
    """A function that returns ``loss.data`` recomputed by rerunning the
    kernels of ``nodes``, each on the fresh outputs of earlier ones and the
    recorded outputs of all other nodes.

    Each node keeps one argument list, filled once with the recorded
    arrays; a replayed node writes its output into the slots of the
    argument lists it feeds.  The perturbed inputs' arrays are changed in
    place, so the lists see them.
    """
    steps = []
    feeds = {}  # id of a node's output -> the (argument list, slot) pairs it fills
    for node in nodes:
        args = [inp.data for inp in node.inputs]
        for slot, inp in enumerate(node.inputs):
            if id(inp) in feeds:
                feeds[id(inp)].append((args, slot))
        feeds[id(node.out)] = []
        steps.append((node.forward, args, feeds[id(node.out)]))
    result = [loss.data]
    if id(loss) in feeds:
        feeds[id(loss)].append((result, 0))

    def replay():
        for forward, args, sinks in steps:
            out = forward(*args)
            for dest, slot in sinks:
                dest[slot] = out
        return result[0]

    return replay
