"""A writer that fails or is killed part-way leaves the previous artifact.

Each writer below takes ``fail``, a callable it runs part-way: a streaming
writer in place of its third input item, a one-shot writer in place of a
patched call between two of its writes. Called in this process, ``fail``
raises; in a child process, it kills the child with SIGKILL. Either way the
path must then hold the previous bytes, which its reader accepts, beside at
most a ``<path>.tmp`` sibling, and the next write must leave no ``.tmp``.
"""

import contextlib
import csv
import hashlib
import itertools
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

import sopipeline
from sopipeline import bpe, corpus, mining, record_store, shards
from sopipeline.corpus import PretrainSample
from sopipeline.dump_ingest import CommentRecord, PostRecord
from sopipeline.errors import StoreError
from sopipeline.mlm import BatchPlan, EncoderConfig, build_encoder, load_checkpoint, save_checkpoint, train_mlm

TS = "2019-06-01T12:00:00.000"


class Boom(Exception):
    pass


def boom(*_args):
    raise Boom


def die(*_args):
    os.kill(os.getpid(), signal.SIGKILL)


def stream(items, fail, at=2):
    """``items``, calling ``fail`` (when given) in place of yielding item ``at``."""
    for i, item in enumerate(items):
        if i == at and fail:
            fail()
        yield item


def on_call(fn, fail, at):
    """``fn``, calling ``fail`` in place of its call ``at`` (from 0)."""
    calls = itertools.count()
    return lambda *args, **kwargs: fail() if next(calls) == at else fn(*args, **kwargs)


def patched(fail, owner, name, value):
    """``owner.name`` set to ``value`` while a failure is asked for."""
    return mock.patch.object(owner, name, value) if fail else contextlib.nullcontext()


def _samples(gen):
    return [PretrainSample(i, f"answer {gen} number {i} <RS> a comment", 1 + i % 2) for i in range(5)]


def _vocab(gen=0):
    return bpe.train_bpe(["answer number comment"] * 3, bpe.MIN_VOCAB_SIZE + 3 + gen, sample_fraction=1.0)


def _model(gen):
    return build_encoder(EncoderConfig(n_layers=1, hidden=8, n_heads=2, vocab_size=300, max_positions=8, seed=gen))


# -- writers: each writes generation ``gen`` of its artifact to ``path`` ------


def write_jsonl_corpus(path, gen, fail=None):
    corpus.write_corpus(stream(_samples(gen), fail), path)


def write_shard_corpus(path, gen, fail=None):
    corpus.write_corpus(stream(_samples(gen), fail), path, fmt="shards", tokenizer=_vocab())


def write_shard(path, gen, fail=None):
    shards.write_token_shard(path, stream([[gen, i, i + 1] for i in range(5)], fail), b"\x01" * 8)


def write_candidates(path, gen, fail=None):
    cands = [mining.ObsoleteCandidate(10 + i, 1, mining.Heuristic.LATE_ANSWER, f"evidence {gen}", "text", i)
             for i in range(5)]
    mining.export_candidates(stream(cands, fail), path)


def write_vocab(path, gen, fail=None):
    vocab = _vocab(gen)
    with patched(fail, bpe, "hashlib", SimpleNamespace(sha256=fail)):  # between the body and its trailer
        vocab.save(path)


def write_checkpoint(path, gen, fail=None):
    model = _model(gen)
    params = type("Params", (dict,), {"__getitem__": on_call(dict.__getitem__, fail, 1)})(model.params)
    with patched(fail, model, "params", params):  # between the first and the second tensor
        save_checkpoint(model, path)


def write_loss_csv(path, gen, fail=None):
    writer = csv.writer

    def failing(fh):
        return SimpleNamespace(writerow=on_call(writer(fh).writerow, fail, 1))

    with patched(fail, csv, "writer", failing):  # between the header and the first loss
        train_mlm(_model(gen), [[6, 7, 8, 9, 10, 11]] * 2, BatchPlan(2, 8, 1), steps=3, lr=0.01, loss_csv=path)


def write_store(path, gen, fail=None):
    posts = [PostRecord(1, 1, "question", TS, title="q"), PostRecord(2, 2, f"answer {gen}", TS, parent_id=1)]
    comments = [CommentRecord(10 + i, 2, f"comment {i}", TS) for i in range(5)]

    def dumps(obj, **kwargs):  # the seal is the one document dumped with an indent
        return fail() if "indent" in kwargs else json.dumps(obj, **kwargs)

    with patched(fail, record_store, "json", SimpleNamespace(dumps=dumps, loads=json.loads)):
        record_store.build_store(posts, comments, [], path).close()


# -- readers: each must accept what its writer left --------------------------


def check_corpus(path):
    manifest = json.loads(Path(f"{path}.manifest.json").read_text())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == manifest["sha256"]
    if manifest["format"] == "jsonl":
        samples = list(corpus.read_corpus_jsonl(path))
    else:
        samples = list(shards.ShardReader(path, expected_checksum=_vocab().checksum))
    assert len(samples) == manifest["n_samples"] == 5


def check_shard(path):
    index = json.loads(shards.index_path(path).read_text())
    assert len(list(shards.ShardReader(path))) == index["n_samples"] == 5


def check_candidates(path):
    assert len(mining.import_candidates(path)) == 5


def check_loss_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "loss"] and len(rows) == 4


WRITERS = {
    "corpus-jsonl": ("c.jsonl", write_jsonl_corpus, check_corpus),
    "corpus-shards": ("c.sotk", write_shard_corpus, check_corpus),
    "shard": ("s.sotk", write_shard, check_shard),
    "candidates": ("cands.jsonl", write_candidates, check_candidates),
    "vocab": ("v.sovoc", write_vocab, bpe.load_vocab),
    "checkpoint": ("m.sockpt", write_checkpoint, load_checkpoint),
    "loss-csv": ("loss.csv", write_loss_csv, check_loss_csv),
}

_CHILD = """
import sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import test_kill_writers as t
getattr(t, sys.argv[3])(Path(sys.argv[4]), 1, t.die)
"""


def run_killed(write, path):
    src = str(Path(sopipeline.__file__).parents[1])
    argv = [sys.executable, "-c", _CHILD, src, str(Path(__file__).parent), write.__name__, str(path)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == -signal.SIGKILL, proc.stderr


def files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_killed_writer_leaves_the_previous_artifact(tmp_path, name):
    filename, write, check = WRITERS[name]
    path = tmp_path / filename
    write(path, 0)
    before = files(tmp_path)
    run_killed(write, path)
    after = files(tmp_path)
    assert set(after) - set(before) <= {f"{filename}.tmp"}
    assert {n: after.get(n) for n in before} == before
    check(path)
    write(path, 2)
    assert not list(tmp_path.glob("*.tmp"))
    assert path.read_bytes() != before[filename]
    check(path)


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_writer_leaves_every_file_as_it_was(tmp_path, name):
    filename, write, check = WRITERS[name]
    path = tmp_path / filename
    write(path, 0)
    before = files(tmp_path)
    with pytest.raises(Boom):
        write(path, 1, boom)
    assert files(tmp_path) == before
    check(path)


def test_killed_store_seal_leaves_a_store_readers_refuse(tmp_path):
    path = tmp_path / "store"
    write_store(path, 0)
    run_killed(write_store, path)
    assert {p.name for p in path.iterdir()} - {"meta.json.tmp"} == {"records.db", "load_report.txt"}
    with pytest.raises(StoreError, match="missing meta.json"):
        record_store.RecordStore(path)
    write_store(path, 2)
    assert sorted(p.name for p in path.iterdir()) == ["load_report.txt", "meta.json", "records.db"]
    record_store.RecordStore(path).close()
