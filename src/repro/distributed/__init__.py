"""Distributed worker-fleet execution of experiment plans.

The ``process`` executor of :mod:`repro.experiments.scheduler` stops at
one machine; this package serializes the same pure, picklable
:class:`~repro.core.evaluation.EvalCell` protocol over TCP to a fleet of
workers on any number of hosts:

* :mod:`repro.distributed.protocol` — the versioned, length-prefixed,
  schema'd wire protocol (HELLO handshake with optional keyed
  challenge–response, HMAC-signed frames, plan assignments carrying the
  plan's state by value, cell batches, results, heartbeats — no pickle
  anywhere);
* :mod:`repro.distributed.coordinator` — the :class:`Coordinator` that
  leases a plan's cells to workers with bounded-retry requeue on worker
  death and merges results in plan order;
* :mod:`repro.distributed.worker` — the :class:`FleetWorker` client,
  runnable as ``python -m repro.distributed.worker --connect HOST:PORT``.

Because cell seeds are derived at planning time and the merge is
plan-ordered, results are **bit-identical** to the serial executor
regardless of worker count, disconnect order or requeue history.
"""

from repro.distributed.protocol import PROTOCOL_VERSION, parse_address

__all__ = ["Coordinator", "FleetWorker", "PROTOCOL_VERSION", "parse_address"]


def __getattr__(name: str):
    # Lazy so `python -m repro.distributed.worker` does not import the
    # worker module twice (runpy warns when the package already did).
    if name == "Coordinator":
        from repro.distributed.coordinator import Coordinator

        return Coordinator
    if name == "FleetWorker":
        from repro.distributed.worker import FleetWorker

        return FleetWorker
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
