"""The typed run context threaded through the experiment stack.

Every :class:`~repro.core.registry.Experiment` builder receives a
frozen :class:`RunContext` describing *what to run against*: the device
sweep and the RNG seed.  The default context
reproduces the paper's testbed exactly (the three GPUs of Table III,
seed 0), so ``run_experiment(name)`` with no context is byte-identical
to the pre-context harness — but the same builder can now be
re-parameterized over any registered device model
(``RunContext(devices=("A100",))``, an H100 registered via
:func:`repro.arch.register_device`, …) without editing source.

Conventions builders follow:

* **sweep experiments** call :meth:`RunContext.device_order` with their
  paper column order — they receive every context device, preferred
  names first, and must emit per-device rows/checks for whatever they
  get;
* **probe experiments** that only make sense on specific devices call
  :meth:`RunContext.select` — the intersection, in requested order;
* **pinned experiments** (paper artefacts measured on one GPU, e.g.
  the H800 wgmma tables) declare ``devices=("H800",)`` at registration
  and call :meth:`RunContext.pin` — a clear error rather than a wrong
  table when the context excludes the pinned device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "RunContext",
    "DEFAULT_CONTEXT",
    "DeviceNotInContext",
]


class DeviceNotInContext(KeyError):
    """An experiment needs a device the :class:`RunContext` excludes."""


@dataclass(frozen=True)
class RunContext:
    """Frozen parameters of one experiment run.

    ``devices`` is the device sweep (canonical registry names); the
    default is the paper's testbed.  ``seed`` (non-negative) feeds
    every RNG-using workload.  Both are plain data, so a context
    pickles as is and crosses the process pool unchanged.
    """

    devices: Tuple[str, ...] = ("RTX4090", "A100", "H800")
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("RunContext needs at least one device")
        if self.seed < 0:
            # numpy seeds only from non-negative integers
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        canonical = []
        for name in self.devices:
            key = str(name).upper()
            if key not in canonical:
                canonical.append(key)
        object.__setattr__(self, "devices", tuple(canonical))
        from repro.arch import get_device

        for name in self.devices:
            get_device(name)   # fail fast on unregistered devices

    # -- device selection ----------------------------------------------------

    def device_order(self, *preferred: str) -> Tuple[str, ...]:
        """Every context device, ``preferred`` names first.

        Sweep experiments pass their paper column order; under the
        default context that reproduces the legacy layout exactly,
        while extra context devices (an H100, a single-device sweep)
        are appended in context order.
        """
        pref = [p.upper() for p in preferred]
        present = set(self.devices)
        ordered = [p for p in pref if p in present]
        ordered += [d for d in self.devices if d not in ordered]
        return tuple(ordered)

    def select(self, *names: str) -> Tuple[str, ...]:
        """The subset of ``names`` present in the context, in the
        requested order — for probes that only target specific
        devices."""
        present = set(self.devices)
        return tuple(n.upper() for n in names if n.upper() in present)

    def pin(self, name: str) -> str:
        """``name`` if the context includes it, else a clear error.

        Used by experiments the paper measures on exactly one GPU.
        """
        key = name.upper()
        if key not in self.devices:
            raise DeviceNotInContext(
                f"experiment is pinned to {key} but the context only "
                f"provides {list(self.devices)}"
            )
        return key

    def has(self, *names: str) -> bool:
        """True when every named device is in the sweep — the guard
        for cross-device checks."""
        return {n.upper() for n in names} <= set(self.devices)

    # -- reproducibility knobs -----------------------------------------------

    def rng(self):
        """A fresh ``numpy`` generator seeded from the context."""
        import numpy as np

        return np.random.default_rng(self.seed)

    # -- identity ------------------------------------------------------------

    @property
    def is_default(self) -> bool:
        return self == DEFAULT_CONTEXT

    def token(self) -> str:
        """Canonical identity string (cache keys, reports): covers
        everything that can change a result."""
        return f"devices={','.join(self.devices)};seed={self.seed}"

    def derive(self, *, devices: Optional[Tuple[str, ...]] = None,
               seed: Optional[int] = None) -> "RunContext":
        """A context with just the named fields replaced.

        This is the query→context bridge used by :mod:`repro.serve`:
        a family-level query overrides only the sweep or seed it names
        and inherits the rest from the service's base context.
        """
        return RunContext(
            devices=self.devices if devices is None else tuple(devices),
            seed=self.seed if seed is None else int(seed),
        )


#: the paper's testbed — what every zero-argument entry point runs
DEFAULT_CONTEXT = RunContext()
