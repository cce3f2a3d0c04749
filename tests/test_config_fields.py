"""Every platform setting is read by some code path.

A config field that no code reads is a setting that silently does
nothing.  This test walks every module of the ``repro`` package and
collects the attribute names it reads (``x.<name>`` in load context),
leaving out each config class's own ``__post_init__``: validating a value
is not using it.
"""

import ast
import dataclasses
import functools
from pathlib import Path

import pytest

import repro
from repro.controlplane.retry import RetryPolicy
from repro.core.config import PlatformConfig
from repro.core.mega import MegaConfig, MegaControlPlaneConfig, MegaSteeringConfig
from repro.hosts.server import ServerSpec
from repro.lbswitch.switch import SwitchLimits
from repro.workload.apps import AppSpec

CONFIGS = (
    PlatformConfig,
    MegaConfig,
    MegaControlPlaneConfig,
    MegaSteeringConfig,
    SwitchLimits,
    ServerSpec,
    RetryPolicy,
    AppSpec,
)


class _Reads(ast.NodeVisitor):
    """Attribute names read, each tagged with the class whose
    ``__post_init__`` encloses the read (None elsewhere)."""

    def __init__(self):
        self.reads: set[tuple[str, str | None]] = set()
        self._class: str | None = None
        self._validator: str | None = None

    def visit_ClassDef(self, node):
        outer, self._class = self._class, node.name
        self.generic_visit(node)
        self._class = outer

    def visit_FunctionDef(self, node):
        outer = self._validator
        if node.name == "__post_init__":
            self._validator = self._class
        self.generic_visit(node)
        self._validator = outer

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.reads.add((node.attr, self._validator))
        self.generic_visit(node)


@functools.cache
def _reads() -> set[tuple[str, str | None]]:
    visitor = _Reads()
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
    return visitor.reads


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
def test_every_config_field_is_read(cls):
    read = {name for name, validator in _reads() if validator != cls.__name__}
    unread = sorted(f.name for f in dataclasses.fields(cls) if f.name not in read)
    assert not unread, f"{cls.__name__} fields no code reads: {unread}"
