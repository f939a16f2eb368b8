"""The benchmark reads program names: each must exist.

Its tracer wraps program functions by name, and its job calls the public
API through module attributes. A name gone from the program would fail
every benchmark run without failing any other test.
"""

import ast
import importlib.util
import types
from pathlib import Path

import numpy as np
import pytest

PIPEBENCH = Path(__file__).resolve().parent.parent / "pipebench"


@pytest.fixture
def job(monkeypatch):
    monkeypatch.syspath_prepend(str(PIPEBENCH))  # job.py imports its sibling spans.py
    spec = importlib.util.spec_from_file_location("pipebench_job", PIPEBENCH / "job.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists(job):
    targets = job.trace_targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in targets
        if not hasattr(owner, attr)
    ]
    assert not missing, f"traced by pipebench/job.py but gone from the program: {missing}"


def module_attribute_chains(source: str, roots: set[str]) -> set[str]:
    """Every maximal ``name.attr[.attr...]`` chain in ``source`` rooted at one of ``roots``."""
    tree = ast.parse(source)
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    chains = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in roots:
            chains.add(".".join([node.id, *reversed(attrs)]))
    return chains


def test_every_module_attribute_job_reads_exists(job):
    roots = {
        name for name, value in vars(job).items()
        if isinstance(value, types.ModuleType) and value.__name__.split(".")[0] == "sopipeline"
    }
    chains = module_attribute_chains((PIPEBENCH / "job.py").read_text(), roots)
    assert {"mlm.build_encoder", "corpus.corpus_stats", "mlm.HeadKind.SEQUENCE"} <= chains

    def resolves(chain: str) -> bool:
        root, *attrs = chain.split(".")
        value = getattr(job, root)
        for attr in attrs:
            if not hasattr(value, attr):
                return False
            value = getattr(value, attr)
        return True

    missing = sorted(chain for chain in chains if not resolves(chain))
    assert not missing, f"read by pipebench/job.py but gone from the program: {missing}"


def test_generated_vocab_is_well_formed():
    # The generator builds train-v50k's vocab with the program's BpeVocab,
    # so a merge rule that refuses its merge lists fails here too.
    spec = importlib.util.spec_from_file_location("pipebench_gen", PIPEBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    vocab = gen.synthetic_vocab(np.random.default_rng(7), 2_000)
    assert vocab.vocab_size == 2_000
