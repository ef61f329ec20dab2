"""The desk job table, the cache digest, the job logs' times, and the
byte-identity gate for desk checkpoints: ``desk_protocol.py compare``."""

import subprocess
import sys
from pathlib import Path

import pytest

import desk_protocol


def test_compare_reports_every_mismatch_and_missing_file(tmp_path, monkeypatch):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    for name, old_bytes, new_bytes in (("same.ckpt", b"abc", b"abc"),
                                       ("changed.ckpt", b"abc", b"abd"),
                                       ("gone.ckpt", b"abc", None),
                                       ("extra.ckpt", None, b"abc")):
        if old_bytes is not None:
            (old / name).write_bytes(old_bytes)
        if new_bytes is not None:
            (new / name).write_bytes(new_bytes)
    monkeypatch.setattr(desk_protocol, "ARTIFACTS", tmp_path)
    monkeypatch.setattr(desk_protocol, "cache_dir", lambda: new)
    lines = []
    assert desk_protocol.compare("old", log=lines.append) == 3
    assert lines == ["differs: changed.ckpt",
                     "missing: extra.ckpt not in old/",
                     "missing: gone.ckpt not in new/",
                     "1 of 4 checkpoints in new/ byte-identical to old/"]
    (new / "changed.ckpt").write_bytes(b"abc")
    (new / "gone.ckpt").write_bytes(b"abc")
    (new / "extra.ckpt").unlink()
    assert desk_protocol.compare("old", log=lines.append) == 0


def test_compare_command_exits_nonzero_on_a_missing_digest():
    proc = subprocess.run(
        [sys.executable, str(desk_protocol.TESTS_DIR / "desk_protocol.py"), "compare",
         "0000000000000000"], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "not in 0000000000000000/" in proc.stdout or "no checkpoints" in proc.stdout


def test_compare_fails_when_there_is_nothing_to_compare(tmp_path, monkeypatch):
    (tmp_path / "old").mkdir()
    monkeypatch.setattr(desk_protocol, "ARTIFACTS", tmp_path)
    monkeypatch.setattr(desk_protocol, "cache_dir", lambda: tmp_path / "new")
    lines = []
    assert desk_protocol.compare("old", log=lines.append) == 1
    assert lines == ["no checkpoints in old/ or new/"]


def test_job_table_covers_what_the_acceptance_suite_reads(tmp_path, monkeypatch):
    monkeypatch.setattr(desk_protocol, "cache_dir", lambda: tmp_path)
    seeds, last = desk_protocol.SEEDS, desk_protocol.TOTAL_ITERS
    jobs = [(method, index, seed) for seed in seeds for method, index in desk_protocol.JOBS]
    assert len(jobs) == 12
    # (method, lambda_index, seed, iteration) of every checkpoint the
    # acceptance suite loads: criterion 5+ reads the mae run at iteration 100
    read = {("mae", None, s, it) for s in seeds for it in (100, last)}
    read |= {("bottleneck", None, s, last) for s in seeds}
    read |= {("independent", i, s, last) for s in seeds for i in range(len(desk_protocol.LAMBDAS))}
    outputs, pending = desk_protocol.pending_jobs()
    assert pending == jobs
    assert {model + (it,) for model, paths in outputs.items() for it in paths} == read
    written = [path for job in jobs for paths in desk_protocol.job_outputs(*job).values()
               for path in paths.values()]
    assert len(set(written)) == len(written), "a checkpoint written by two jobs"

    for path in written:
        path.write_bytes(b"")
    assert desk_protocol.pending_jobs()[1] == []
    (tmp_path / "independent2_seed1_it5000.ckpt").unlink()
    assert desk_protocol.pending_jobs()[1] == [("bottleneck", None, 1)]


def test_cache_digest_ignores_comments_and_blank_lines(tmp_path, monkeypatch):
    import maecodec

    digest = desk_protocol._source_digest()
    root = Path(maecodec.__file__).parent
    for name in ("tensor.py", "gdn.py", "entropy.py", "network.py", "training.py",
                 "synthetic.py"):
        (tmp_path / name).write_bytes((root / name).read_bytes())
    monkeypatch.setattr(maecodec, "__file__", str(tmp_path / "__init__.py"))
    assert desk_protocol._source_digest() == digest
    tensor = tmp_path / "tensor.py"
    source = tensor.read_text()
    line = '    return _unary("sqrt", x, _sqrt, lambda v, o: 0.5 / o)\n'
    assert source.count(line) == 1
    # a comment, a blank line, a whitespace-only line and a trailing space
    tensor.write_text(source.replace(
        line, "\n    \n" + line[:-1] + "  # d sqrt(v) = 1 / (2 sqrt(v)) \n"))
    assert desk_protocol._source_digest() == digest
    tensor.write_text(source.replace("0.5 / o", "0.25 / o"))
    assert desk_protocol._source_digest() != digest


def test_reached_seconds_sums_the_log_up_to_each_iteration(tmp_path):
    # a bottleneck-like log: the scale-only phases log iterations past the
    # final one, once per phase
    log = tmp_path / "job.log.csv"
    rows = [(1, 10.0), (2, 20.0), (3, 30.5), (4, 1.0), (5, 2.0), (4, 3.0), (5, 4.0)]
    log.write_text("iteration,lambda,rate_bpp,mse,loss,lr,ms\n" + "".join(
        f"{it},64,0.1,0.01,1.0,0.0001,{ms:.2f}\n" for it, ms in rows))
    reached = desk_protocol.reached_seconds(log, 3)
    assert reached == pytest.approx({1: 0.01, 2: 0.03, 3: 0.0705, 4: 0.0615, 5: 0.0635})


def test_ensure_trained_ends_with_job_count_and_wall_time(tmp_path, monkeypatch):
    class Finished:
        returncode = 0

        def __init__(self, cmd, **kwargs):
            pass

        def poll(self):
            return 0

    jobs = [("mae", None, 0), ("independent", 1, 2)]
    monkeypatch.setattr(desk_protocol, "pending_jobs", lambda: ({}, jobs))
    monkeypatch.setattr(desk_protocol, "cache_dir", lambda: tmp_path / "digest")
    monkeypatch.setattr(desk_protocol.subprocess, "Popen", Finished)
    lines = []
    assert desk_protocol.ensure_trained(log=lines.append) == {}
    assert lines[-1].startswith("[desk] trained 2 jobs in digest/ in ")
    assert lines[-1].endswith(" s wall")
    assert sorted(p.name for p in (tmp_path / "digest").iterdir()) == [
        "independent1_seed2.joblog", "mae_seed0.joblog"]
