"""The package keeps to its minimum Python (pyproject's requires-python)."""

import importlib
import pkgutil
import re

import pytest

import sopipeline

# regex syntax new in Python 3.11: possessive quantifiers and atomic groups
_NEWER_OPCODES = ("POSSESSIVE_REPEAT", "ATOMIC_GROUP")


def _opcodes(node, parser):
    """Every opcode in a parsed pattern, nested groups and branches included."""
    if isinstance(node, parser.SubPattern):
        for op, av in node.data:
            yield op
            yield from _opcodes(av, parser)
    elif isinstance(node, (tuple, list)):
        for item in node:
            yield from _opcodes(item, parser)


def test_module_patterns_compile_on_the_oldest_python():
    constants = getattr(re, "_constants", None)
    if constants is None or not all(hasattr(constants, name) for name in _NEWER_OPCODES):
        pytest.skip("this Python's regex parser has no 3.11-only opcodes")
    parser = re._parser
    newer = {getattr(constants, name) for name in _NEWER_OPCODES}
    modules = [sopipeline] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(sopipeline.__path__, "sopipeline.")
    ]
    offending = sorted(
        f"{module.__name__}.{name}"
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, re.Pattern)
        and newer & set(_opcodes(parser.parse(value.pattern, value.flags), parser))
    )
    assert offending == []
