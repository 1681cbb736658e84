"""The kernel-registry contract, written once for both kernel families.

:class:`repro.kernels.KernelRegistry` holds the pathloss kernels
(``repro.radio.backends``) and the FLC kernel factories
(``repro.fuzzy.compiled``).  Each family's test module binds
:class:`RegistryContract` to its public registry functions through a
:class:`Family` (``class TestRegistry(RegistryContract)``), so the
contract runs once per family under that module's test ids.
"""

import sys
import time
from dataclasses import dataclass
from typing import Callable
from unittest import mock

import pytest

from repro import fanout
from repro.kernels import KernelRegistry


@dataclass(frozen=True)
class Family:
    """One kernel family's registry and public registry functions."""

    name: str  # as the family's errors name it
    registry: KernelRegistry
    register: Callable
    unregister: Callable
    available: Callable
    get: Callable
    resolve: Callable
    runs_own_threads: Callable
    env_var: str
    default: str
    builtins: dict  # built-in name -> kernel
    alt: str  # a built-in other than the default
    kernel: Callable  # registered under test names


class RegistryContract:
    """What every kernel family's registry does."""

    family: Family

    @pytest.fixture
    def isolated(self, monkeypatch):
        """The family's registry state, restored after the test."""
        registry = self.family.registry
        monkeypatch.setattr(registry, "entries", dict(registry.entries))
        monkeypatch.setattr(registry, "auto_choice", registry.auto_choice)
        return registry

    def test_builtin_backends_present(self):
        f = self.family
        assert set(f.builtins) <= set(f.available())

    def test_get_backend_resolves_builtins(self):
        f = self.family
        for name, kernel in f.builtins.items():
            assert f.get(name) is kernel

    def test_unknown_backend_lists_available(self):
        f = self.family
        with pytest.raises(
            ValueError,
            match=f"unknown {f.name} backend 'no-such-kernel'; available: ",
        ):
            f.get("no-such-kernel")

    def test_policy_explicit_beats_env(self, monkeypatch):
        f = self.family
        monkeypatch.setenv(f.env_var, f.alt)
        assert f.resolve(f.default) == f.default

    def test_policy_env_beats_default(self, monkeypatch):
        f = self.family
        monkeypatch.setenv(f.env_var, f.alt)
        assert f.resolve(None) == f.alt

    def test_policy_default(self, monkeypatch):
        f = self.family
        monkeypatch.delenv(f.env_var, raising=False)
        assert f.resolve(None) == f.registry.default == f.default

    def test_env_var_selects_kernel_end_to_end(self, monkeypatch):
        f = self.family
        monkeypatch.setenv(f.env_var, f.alt)
        assert f.get(None) is f.builtins[f.alt]

    def test_register_rejects_duplicates(self):
        f = self.family
        with pytest.raises(ValueError, match="already registered"):
            f.register(f.default, f.kernel)
        assert f.get(f.default) is f.builtins[f.default]

    def test_register_unregister_roundtrip(self):
        f = self.family
        f.register("tmp-kernel", f.kernel)
        try:
            assert f.get("tmp-kernel") is f.kernel
            assert f.registry.error_bound("tmp-kernel") == 0.0
            assert not f.runs_own_threads("tmp-kernel")
        finally:
            f.unregister("tmp-kernel")
        assert "tmp-kernel" not in f.available()
        with pytest.raises(KeyError):
            f.unregister("tmp-kernel")

    @pytest.mark.parametrize("bad", ["", None, 7])
    def test_register_rejects_bad_names(self, bad):
        f = self.family
        with pytest.raises(ValueError, match="name must be a non-empty"):
            f.register(bad, f.kernel)

    def test_register_rejects_noncallable(self):
        with pytest.raises(ValueError, match="callable"):
            self.family.register("tmp-kernel", object())

    def test_own_threads_marks_the_kernel(self, isolated):
        f = self.family
        f.register("tmp-pool", f.kernel, own_threads=True)
        assert f.runs_own_threads("tmp-pool")
        for name in f.builtins:
            assert not f.runs_own_threads(name)
        f.register("tmp-pool", f.kernel, overwrite=True)
        assert not f.runs_own_threads("tmp-pool")
        with pytest.raises(ValueError, match=f"unknown {f.name} backend"):
            f.runs_own_threads("no-such-kernel")

    def test_a_lookup_waits_for_a_probe_in_progress(
        self, isolated, monkeypatch
    ):
        """Eight threads miss the registry at once: one runs the
        optional registrations, and the others wait for them instead of
        finding the probe flagged done and the kernel missing."""
        f = self.family
        runs = []

        def slow_registration():
            runs.append(None)
            time.sleep(0.3)  # numba's import takes about 0.5 s
            f.register("tmp-optional", f.kernel)

        monkeypatch.setattr(isolated, "optional", [slow_registration])
        monkeypatch.setattr(isolated, "probed", False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(fanout, "usable_cpus", lambda: 8):
                got = fanout.fan_out(
                    lambda _: f.get("tmp-optional"), range(8)
                )
        finally:
            sys.setswitchinterval(interval)
        assert got == [f.kernel] * 8
        assert len(runs) == 1
