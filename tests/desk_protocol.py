"""Desk-scale training protocol shared by the acceptance suite.

Budget (fixed): 32 channels, batches of two 96x96 crops (the pixels of
eight 48x48 crops), tradeoffs {64, 512, 4096}, 5000 iterations that
train the transforms per model, 20 training images, 3 seeds.  The
bottleneck baseline spends them at the top tradeoff, then adds 1500
scaling-only iterations per non-top tradeoff.  The modulated autoencoder
spends 2000 at the top tradeoff (modulation networks held), then 1500
joint ones per non-top tradeoff, at the halved learning rate.

Four jobs per seed, 12 in all: the modulated autoencoder, the
independent models at the two lower tradeoffs, and the bottleneck
baseline.  The bottleneck run's first phase is the independent run at
the top tradeoff, and its scaling-only phases leave every parameter of
that phase unchanged, so the bottleneck job also writes the independent
top-tradeoff model (``independent_top``).

Training output is cached under tests/_artifacts keyed by a digest of the
code tokens (comments and blank lines dropped) of the source modules that
influence the numbers, so editing the codec code invalidates the cache
automatically and editing a comment does not.  Jobs run in
single-threaded worker processes (two in parallel; at these tensor sizes
BLAS threading is a slowdown, process parallelism is not).
"""

import dataclasses
import hashlib
import io
import os
import subprocess
import sys
import time
import tokenize
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
ARTIFACTS = TESTS_DIR / "_artifacts"

LAMBDAS = (64.0, 512.0, 4096.0)
CHANNELS = 32
CROP = 96
BATCH = 2
TOTAL_ITERS = 5000
HALVE_AT = 3500
PHASE2_ITERS = 1500
# the modulated autoencoder's joint phase comes out of the same budget
MAE_TOP_ITERS = TOTAL_ITERS - (len(LAMBDAS) - 1) * PHASE2_ITERS
# saved by the mae job alone: criterion 5+ reads them
SNAPSHOT_ITERS = (100,)
SEEDS = (0, 1, 2)
NUM_TRAIN_IMAGES = 20
TRAIN_IMAGE_SIDE = 256
NUM_TEST_IMAGES = 20
# training crops are as large as the test images: a latent's encoder
# receptive field spans 57 pixels, so on 48x48 (or 64x64) crops no (or one
# in 16) latent sees an image interior free of zero padding, while a 96x96
# image has 9 of 36; transforms trained on small crops extrapolate there,
# the top tradeoff's worst
TEST_IMAGE_SIDE = 96

TOP = len(LAMBDAS) - 1
JOBS = [("mae", None)] + [("independent", i) for i in range(TOP)] + [("bottleneck", None)]


def _code_tokens(source):
    """The tokens of Python ``source`` without its comments and blank lines."""
    return [(tok.type, tok.string) for tok in tokenize.tokenize(io.BytesIO(source).readline)
            if tok.type not in (tokenize.COMMENT, tokenize.NL)]


def _source_digest():
    import maecodec
    from maecodec.checkpoint import FORMAT_VERSION

    root = Path(maecodec.__file__).parent
    h = hashlib.sha256()
    for name in ("tensor.py", "gdn.py", "entropy.py", "network.py", "training.py",
                 "synthetic.py"):
        h.update(repr(_code_tokens((root / name).read_bytes())).encode())
    h.update(repr((LAMBDAS, CHANNELS, CROP, BATCH, TOTAL_ITERS, HALVE_AT,
                   PHASE2_ITERS, SNAPSHOT_ITERS, NUM_TRAIN_IMAGES,
                   TRAIN_IMAGE_SIDE, FORMAT_VERSION)).encode())
    return h.hexdigest()[:16]


def cache_dir():
    return ARTIFACTS / _source_digest()


def training_images():
    from maecodec.synthetic import make_corpus

    return make_corpus(NUM_TRAIN_IMAGES, TRAIN_IMAGE_SIDE, TRAIN_IMAGE_SIDE)


def test_images():
    from maecodec.synthetic import make_corpus

    return make_corpus(NUM_TEST_IMAGES, TEST_IMAGE_SIDE, TEST_IMAGE_SIDE,
                       seed_base=1000)


def job_config(method, lambda_index, seed):
    from maecodec.training import TrainingConfig

    total, halve_at = TOTAL_ITERS, HALVE_AT
    if method == "mae":
        # the halving point must fall in the top phase: the joint phase
        # runs at the halved rate
        total = halve_at = MAE_TOP_ITERS
    return TrainingConfig(
        mode=method, channels=CHANNELS, crop_size=CROP, batch_size=BATCH,
        lambdas=LAMBDAS, total_iters=total, halve_at=halve_at,
        phase2_iters=PHASE2_ITERS, seed=seed, lambda_index=lambda_index,
        snapshot_iters=SNAPSHOT_ITERS if method == "mae" else ())


def job_tag(method, lambda_index, seed):
    return f"{method}{'' if lambda_index is None else lambda_index}_seed{seed}"


def job_outputs(method, lambda_index, seed):
    """(method, lambda_index, seed) -> {iteration: path} for every model
    the job writes: its own, plus the independent top one for bottleneck."""
    iterations = job_config(method, lambda_index, seed).snapshot_iters + (TOTAL_ITERS,)
    models = [(method, lambda_index)]
    if method == "bottleneck":
        models.append(("independent", TOP))
    return {(m, i, seed): {it: cache_dir() / f"{job_tag(m, i, seed)}_it{it}.ckpt"
                           for it in iterations}
            for m, i in models}


def independent_top(ckpt):
    """The independent top-tradeoff model held in a bottleneck checkpoint:
    the blocks a plain model has (all but the scale vectors), labelled
    plain at the top index."""
    from maecodec.network import TradeoffSet, parameter_table

    table = parameter_table(ckpt.config, TradeoffSet(ckpt.lambdas), "plain")
    plain = {name for name, _, _ in table}
    return dataclasses.replace(
        ckpt, mode="plain", lambda_index=len(ckpt.lambdas) - 1,
        params={n: b for n, b in ckpt.params.items() if n in plain})


def run_job(method, lambda_index, seed):
    """Train one (method, seed) pair and write its checkpoints, printing a
    line when it starts and one per checkpoint saved.  Its per-iteration
    training log, started afresh, is ``<tag>.log.csv`` in the cache
    directory."""
    from maecodec.training import train

    outputs = job_outputs(method, lambda_index, seed)
    if all(p.exists() for paths in outputs.values() for p in paths.values()):
        return
    tag = job_tag(method, lambda_index, seed)
    start = time.perf_counter()
    print(f"[{tag}] training in {cache_dir().name}/", flush=True)
    cache_dir().mkdir(parents=True, exist_ok=True)
    log = cache_dir() / f"{tag}.log.csv"
    log.unlink(missing_ok=True)
    series = train(job_config(method, lambda_index, seed), training_images(), log_path=log)
    for iteration, ckpt in series:
        saves = [(outputs[(method, lambda_index, seed)][iteration], ckpt)]
        if method == "bottleneck":
            saves.append((outputs[("independent", TOP, seed)][iteration], independent_top(ckpt)))
        for path, model in saves:
            model.save(path)
            print(f"[{tag}] saved iteration {iteration} ({path.name}) "
                  f"at {time.perf_counter() - start:.1f} s", flush=True)


def pending_jobs():
    """(outputs, pending): (method, lambda_index, seed) -> {iteration: path}
    for every desk model, and the jobs with an output missing."""
    outputs, pending = {}, []
    for seed in SEEDS:
        for method, lam_idx in JOBS:
            job = job_outputs(method, lam_idx, seed)
            outputs.update(job)
            if not all(p.exists() for paths in job.values() for p in paths.values()):
                pending.append((method, lam_idx, seed))
    return outputs, pending


def ensure_trained(max_workers=2, log=print):
    """Train every missing (method, seed) job, two worker processes at a time.

    Returns a dict (method, lambda_index, seed) -> {iteration: path}.
    """
    result, pending = pending_jobs()
    if not pending:
        return result

    cache_dir().mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    running = {}

    def launch(job):
        method, lam_idx, seed = job
        tag = job_tag(method, lam_idx, seed)
        cmd = [sys.executable, str(TESTS_DIR / "desk_protocol.py"),
               method, "none" if lam_idx is None else str(lam_idx), str(seed)]
        log(f"[desk] training {tag} ...")
        out = open(cache_dir() / f"{tag}.joblog", "w")
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=subprocess.STDOUT)
        proc._joblog = out
        return proc

    queue = list(pending)
    while queue or running:
        while queue and len(running) < max_workers:
            job = queue.pop(0)
            running[launch(job)] = job
        done = [p for p in running if p.poll() is not None]
        if not done:
            time.sleep(2.0)
            continue
        for proc in done:
            job = running.pop(proc)
            proc._joblog.close()
            if proc.returncode != 0:
                logfile = Path(proc._joblog.name)
                raise RuntimeError(
                    f"desk training job {job} failed (exit {proc.returncode}):\n"
                    f"{logfile.read_text() if logfile.exists() else ''}")
            log(f"[desk] finished {job}")
    return result


def compare(old_digest, log=print):
    """Byte-compare every checkpoint of the current digest with those of
    ``old_digest``; log each mismatch or missing file, return their count."""
    old_dir, new_dir = ARTIFACTS / old_digest, cache_dir()
    names = sorted({p.name for d in (old_dir, new_dir) for p in d.glob("*.ckpt")})
    if not names:
        log(f"no checkpoints in {old_dir.name}/ or {new_dir.name}/")
        return 1
    faults = 0
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.exists() and new.exists()):
            log(f"missing: {name} not in {(new_dir if old.exists() else old_dir).name}/")
        elif old.read_bytes() != new.read_bytes():
            log(f"differs: {name}")
        else:
            continue
        faults += 1
    log(f"{len(names) - faults} of {len(names)} checkpoints in {new_dir.name}/ "
        f"byte-identical to {old_dir.name}/")
    return faults


if __name__ == "__main__":
    # python tests/desk_protocol.py compare OLD_DIGEST
    # python tests/desk_protocol.py METHOD LAMBDA_INDEX|none SEED  (one desk job)
    if sys.argv[1] == "compare":
        sys.exit(1 if compare(sys.argv[2]) else 0)
    method_arg, lam_arg, seed_arg = sys.argv[1], sys.argv[2], sys.argv[3]
    run_job(method_arg, None if lam_arg == "none" else int(lam_arg), int(seed_arg))
