"""Kernel selection: which kernel runs for a name.

Two layers of the decision pipeline run on pluggable kernels, each
checked against an exact ``reference`` oracle: the pathloss chain
behind every measurement (:mod:`repro.radio.backends`) and fuzzy
inference (:mod:`repro.fuzzy.compiled`).  Each family is one
:class:`KernelRegistry`, which holds

* the registered kernels, each with its documented absolute error
  bound against ``reference`` (0.0 for exact kernels) and whether it
  runs a thread pool of its own (numba's ``prange``, XLA's), in which
  case a fleet range on it runs as one UE block;
* the name policy: an explicit name beats the family's environment
  variable beats its default; in a family with a chooser, the reserved
  name :data:`AUTO` resolves further to the fastest kernel on the
  executing host;
* the optional kernels (numba, jax), registered by the first lookup
  that misses, so the default path never imports an accelerator.

A lookup of a registered name is a plain dict read.  Only a miss takes
the registry's lock, to run the optional registrations, and a miss
while another thread runs them waits for them.

A kernel pin (``PropagationModel.backend``, the ``pathloss_backend`` and
``flc_backend`` fields of
:class:`~repro.sim.config.SimulationParameters`, the ``backend`` of
both controller classes, ``FuzzyHandoverSystem(flc_backend=)``) is
``None``, meaning the name policy, or a non-empty name
(:func:`validate_backend_pin`).  Whether the name is registered is
checked at first use on the executing host, which lets a pickled fleet
spec choose per-host kernels.
"""

from __future__ import annotations

import numbers
import os
import threading
from typing import Callable, Optional

__all__ = ["AUTO", "KernelRegistry", "validate_backend_pin"]

#: The reserved name of the fastest kernel, in a family with a chooser.
AUTO = "auto"


def validate_backend_pin(name: Optional[str], field: str = "backend") -> None:
    """Refuse a kernel pin that is neither ``None`` nor a non-empty
    string; ``field`` names the pin in the error."""
    if name is not None and (not isinstance(name, str) or not name):
        raise ValueError(
            f"{field} must be None or a non-empty string, got {name!r}"
        )


class KernelRegistry:
    """The named kernels of one family and its name policy.

    Parameters
    ----------
    family:
        Names the family in errors (``"pathloss"``, ``"FLC"``).
    env_var, default:
        The name policy below an explicit name.
    choose:
        Gives the family the reserved :data:`AUTO` name: called to
        resolve it, it returns the fastest registered kernel's name
        (caching it in :attr:`auto_choice` under :attr:`lock`).
    """

    def __init__(
        self,
        family: str,
        env_var: str,
        default: str,
        choose: Optional[Callable[[], str]] = None,
    ) -> None:
        self.family = family
        self.env_var = env_var
        self.default = default
        self.choose = choose
        #: name -> (kernel, error bound vs ``reference``, own threads)
        self.entries: dict[str, tuple[Callable, float, bool]] = {}
        #: the optional kernels' registrations, run once by the first miss
        self.optional: list[Callable[[], None]] = []
        self.probed = False
        #: the cached :data:`AUTO` resolution; a registration drops it
        self.auto_choice: Optional[str] = None
        # serialises the optional registrations and the AUTO probe: a
        # thread that finds one running waits for it instead of taking
        # a half-done registration for a finished one
        self.lock = threading.RLock()

    def register(
        self,
        name: str,
        kernel: Callable,
        error_bound: float = 0.0,
        overwrite: bool = False,
        own_threads: bool = False,
    ) -> None:
        """Register ``kernel`` under ``name``.

        ``error_bound`` is the kernel's documented absolute error
        against ``reference``, any real number >= 0; ``own_threads``
        marks a kernel that runs a thread pool of its own.
        Re-registering a name raises unless ``overwrite=True``:
        silently shadowing a built-in kernel is how conformance drifts
        in unnoticed.  The cached :data:`AUTO` choice is dropped, so
        the next resolution measures the new field.
        """
        if not name or not isinstance(name, str):
            raise ValueError(
                f"{self.family} backend name must be a non-empty string, "
                f"got {name!r}"
            )
        if name == AUTO and self.choose is not None:
            raise ValueError(
                f"{AUTO!r} is the reserved fastest-kernel selector "
                "and cannot name a concrete backend"
            )
        if not callable(kernel):
            raise ValueError(f"kernel for {name!r} must be callable")
        if (
            isinstance(error_bound, bool)
            or not isinstance(error_bound, numbers.Real)
            or not error_bound >= 0.0
        ):
            raise ValueError(
                f"error_bound for {name!r} must be a real number >= 0, "
                f"got {error_bound!r}"
            )
        if name in self.entries and not overwrite:
            raise ValueError(
                f"{self.family} backend {name!r} is already registered "
                "(pass overwrite=True to replace it)"
            )
        self.entries[name] = (kernel, float(error_bound), bool(own_threads))
        self.auto_choice = None

    def unregister(self, name: str) -> None:
        """Remove a registered kernel (``KeyError`` if absent); removing
        the cached :data:`AUTO` choice drops the cache."""
        del self.entries[name]
        if self.auto_choice == name:
            self.auto_choice = None

    def available(self) -> tuple[str, ...]:
        """Registered names, sorted (the first call registers the
        optional kernels)."""
        self.probe()
        return tuple(sorted(self.entries))

    def resolve(self, name: Optional[str] = None, probe: bool = True) -> str:
        """The name policy: ``name``, else the environment variable,
        else the default.

        In a family with a chooser, :data:`AUTO` resolves further to
        the fastest registered kernel, so the result is a concrete
        name; ``probe=False`` keeps it symbolic (display paths that
        must not pay the timing probe).
        """
        if name is None:
            name = os.environ.get(self.env_var) or self.default
        if name == AUTO and probe and self.choose is not None:
            return self.choose()
        return name

    def entry(
        self, name: Optional[str] = None
    ) -> tuple[Callable, float, bool]:
        """``(kernel, error bound, own threads)`` of the resolved name;
        an unknown name fails, listing the available ones."""
        name = self.resolve(name)
        entry = self.entries.get(name)
        if entry is None:
            self.probe()
            entry = self.entries.get(name)
            if entry is None:
                raise ValueError(
                    f"unknown {self.family} backend {name!r}; "
                    f"available: {', '.join(self.available())}"
                )
        return entry

    def get(self, name: Optional[str] = None) -> Callable:
        """The kernel the name policy selects for ``name``."""
        return self.entry(name)[0]

    def error_bound(self, name: Optional[str] = None) -> float:
        """The documented absolute error of the selected kernel against
        ``reference`` (0.0 for exact kernels)."""
        return self.entry(name)[1]

    def runs_own_threads(self, name: Optional[str] = None) -> bool:
        """Whether the selected kernel runs a thread pool of its own.

        Such a kernel already spreads over the CPUs and is not entered
        from several threads at once, so a fleet range on it runs as
        one UE block.  :data:`AUTO` is resolved (and, once per process,
        probed) on the calling thread.
        """
        return self.entry(name)[2]

    def probe(self) -> None:
        """Run the optional kernels' registrations, once per process."""
        with self.lock:
            if not self.probed:
                for register in self.optional:
                    register()
                self.probed = True
