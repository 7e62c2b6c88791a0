"""Thread-safe metrics instruments with mergeable snapshots.

The design is a deliberately small subset of the Prometheus client
model, built on two primitives:

* an *instrument* (:class:`Counter`, :class:`Gauge`) owned by a
  :class:`MetricsRegistry`, holding one sample per label-value
  combination under the registry lock; and
* a :class:`MetricsSnapshot` — a picklable, point-in-time copy of a
  registry that **merges**: counters sum, and gauges sum across disjoint
  processes.  Merge is associative and commutative (property-tested),
  which is what lets fleet workers ship their registries to the
  coordinator inside ``Results`` / ``Heartbeat`` frames and lets the
  coordinator fold any number of worker snapshots into one fleet-wide
  view in any order.  A snapshot checks its own shape when it is built,
  so one decoded from a frame renders as Prometheus text or fails
  decoding; it cannot break a later scrape.

Registries compose the same way: a component creates its own private
registry *attached* (by weak reference) to the process-wide
:data:`REGISTRY`, so ``REGISTRY.snapshot()`` is the union of every live
component in the process — the single payload behind every ``/metrics``
endpoint — while each component's ``.stats`` compatibility view reads
only its own instruments.

Naming follows Prometheus conventions (see ``docs/observability.md``):
``repro_<component>_<what>[_total|_seconds]``, label values drawn from
small closed sets only.
"""

from __future__ import annotations

import math
import re
import threading
import weakref
from dataclasses import dataclass, field

__all__ = [
    "REGISTRY",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "MetricsSnapshot",
    "get_registry",
    "parse_prometheus",
    "render_prometheus",
]


class _Instrument:
    """Shared machinery of one named metric family (samples per label set).

    Not constructed directly — ask a :class:`MetricsRegistry` for a
    :meth:`~MetricsRegistry.counter` or :meth:`~MetricsRegistry.gauge`.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...],
                 lock: threading.RLock) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._samples: dict[tuple, object] = {}
        # Prometheus convention: an unlabeled counter/gauge exposes 0
        # from creation, so scrapers see the series before its first
        # increment.  Labeled children still materialize on first use.
        if not self.labelnames:
            self._samples[()] = 0.0

    def labels(self, **labels):
        """The child sample for one combination of label values."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, got "
                f"{tuple(sorted(labels))}")
        key = tuple(str(labels[n]) for n in self.labelnames)
        return self._child(key)

    def _child(self, key: tuple):
        raise NotImplementedError

    def _default_key(self) -> tuple:
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labeled {self.labelnames}; use .labels(...)")
        return ()


class Counter(_Instrument):
    """A monotonically increasing sum (``*_total`` by convention)."""

    kind = "counter"

    def _child(self, key: tuple) -> _CounterChild:
        # Materialize the sample at zero so a created-but-never-fired
        # counter is scrapeable: "0 auth failures" must be a visible
        # fact on /metrics, not indistinguishable from "no counter".
        with self._lock:
            self._samples.setdefault(key, 0.0)
        return _CounterChild(self, key)

    def inc(self, amount: float = 1.0) -> None:
        """Increment the (unlabeled) counter by *amount* (must be >= 0)."""
        self._child(self._default_key()).inc(amount)

    @property
    def value(self) -> float:
        """Current value of the (unlabeled) counter."""
        with self._lock:
            return self._samples.get(self._default_key(), 0.0)


@dataclass(frozen=True)
class _CounterChild:
    """One labeled sample of a :class:`Counter`."""

    parent: Counter
    key: tuple

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (>= 0) to this sample under the registry lock."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self.parent._lock:
            samples = self.parent._samples
            samples[self.key] = samples.get(self.key, 0.0) + amount

    @property
    def value(self) -> float:
        """Current value of this sample."""
        with self.parent._lock:
            return self.parent._samples.get(self.key, 0.0)


class Gauge(_Instrument):
    """A value that can go up and down (queue depths, worker counts)."""

    kind = "gauge"

    def _child(self, key: tuple) -> _GaugeChild:
        return _GaugeChild(self, key)

    def set(self, value: float) -> None:
        """Set the (unlabeled) gauge to *value*."""
        self._child(self._default_key()).set(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* to the (unlabeled) gauge."""
        self._child(self._default_key()).inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Subtract *amount* from the (unlabeled) gauge."""
        self._child(self._default_key()).inc(-amount)

    @property
    def value(self) -> float:
        """Current value of the (unlabeled) gauge."""
        with self._lock:
            return self._samples.get(self._default_key(), 0.0)


@dataclass(frozen=True)
class _GaugeChild:
    """One labeled sample of a :class:`Gauge`."""

    parent: Gauge
    key: tuple

    def set(self, value: float) -> None:
        """Set this sample to *value* under the registry lock."""
        with self.parent._lock:
            self.parent._samples[self.key] = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* to this sample under the registry lock."""
        with self.parent._lock:
            samples = self.parent._samples
            samples[self.key] = samples.get(self.key, 0.0) + amount

    @property
    def value(self) -> float:
        """Current value of this sample."""
        with self.parent._lock:
            return self.parent._samples.get(self.key, 0.0)


# --------------------------------------------------------------------------- #
# Snapshots
# --------------------------------------------------------------------------- #
#: Prometheus metric and label name syntax.
_METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_NAME = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")


def _check_family(name, meta) -> None:
    """Raise :class:`ValueError` unless ``name: meta`` is one well-formed family."""
    if not (isinstance(name, str) and _METRIC_NAME.fullmatch(name)):
        raise ValueError(f"invalid metric name {name!r}")
    if not (isinstance(meta, dict)
            and meta.keys() == {"kind", "help", "labelnames", "samples"}):
        raise ValueError(f"metric {name!r} is not a kind/help/labelnames/"
                         "samples mapping")
    kind, labelnames, samples = meta["kind"], meta["labelnames"], meta["samples"]
    if kind not in ("counter", "gauge") or not isinstance(meta["help"], str):
        raise ValueError(f"metric {name!r} has kind {kind!r} or a non-str help")
    if not (isinstance(labelnames, tuple) and all(
            isinstance(label, str) and _LABEL_NAME.fullmatch(label)
            for label in labelnames)
            and len(set(labelnames)) == len(labelnames)):
        raise ValueError(f"metric {name!r} has invalid labelnames {labelnames!r}")
    if not isinstance(samples, dict):
        raise ValueError(f"metric {name!r} samples are not a mapping")
    for key, value in samples.items():
        if not (isinstance(key, tuple) and len(key) == len(labelnames)
                and all(isinstance(v, str) for v in key)):
            raise ValueError(f"metric {name!r} has a sample key {key!r} that "
                             f"does not match labelnames {labelnames!r}")
        if isinstance(value, bool) or not isinstance(value, int | float):
            raise ValueError(f"metric {name!r} has a non-numeric sample {value!r}")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond float range
            finite = False
        if not finite:
            raise ValueError(f"metric {name!r} has a non-finite sample")


@dataclass(frozen=True)
class MetricsSnapshot:
    """A picklable point-in-time copy of one or more registries.

    ``data`` maps metric name to ``{"kind", "help", "labelnames",
    "samples"}`` where ``samples`` maps label-value tuples to plain
    numbers.  Snapshots are plain data — safe to ship inside protocol
    frames — and **merge** associatively, so any tree of per-worker
    snapshots folds to the same fleet-wide view.

    The constructor checks the shape (names are Prometheus identifiers,
    kind is ``counter`` or ``gauge``, help is a ``str``, each sample key
    is a tuple of ``str`` as long as ``labelnames``, each value a finite
    ``int`` or ``float``), so a malformed snapshot in a wire frame fails
    decoding instead of failing every later ``/metrics`` render.
    """

    data: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.data, dict):
            raise ValueError("snapshot data must be a mapping")
        for name, meta in self.data.items():
            _check_family(name, meta)

    def merge(self, other: MetricsSnapshot) -> MetricsSnapshot:
        """The element-wise sum of two snapshots (associative, commutative)."""
        merged = {name: {"kind": meta["kind"], "help": meta["help"],
                         "labelnames": tuple(meta["labelnames"]),
                         "samples": dict(meta["samples"])}
                  for name, meta in self.data.items()}
        for name, meta in other.data.items():
            mine = merged.get(name)
            if mine is None:
                merged[name] = {"kind": meta["kind"], "help": meta["help"],
                                "labelnames": tuple(meta["labelnames"]),
                                "samples": dict(meta["samples"])}
                continue
            if mine["kind"] != meta["kind"]:
                raise ValueError(
                    f"metric {name!r} has conflicting kinds: "
                    f"{mine['kind']} vs {meta['kind']}")
            if tuple(mine["labelnames"]) != tuple(meta["labelnames"]):
                raise ValueError(
                    f"metric {name!r} has conflicting labelnames: "
                    f"{mine['labelnames']} vs {meta['labelnames']}")
            # Counters and gauges both sum: the snapshots being merged
            # come from disjoint processes/components, so a summed gauge
            # reads as the fleet-wide total of a point-in-time quantity.
            for key, value in meta["samples"].items():
                mine["samples"][key] = mine["samples"].get(key, 0) + value
        return MetricsSnapshot(merged)

    def with_labels(self, **extra: str) -> MetricsSnapshot:
        """A copy with *extra* labels stamped onto every sample.

        The coordinator uses this to expose per-worker series
        (``worker="<id>"``) next to the fleet aggregate
        (``worker="fleet"``) from the same shipped snapshots.
        """
        out: dict = {}
        names = tuple(sorted(extra))
        values = tuple(str(extra[n]) for n in names)
        for name, meta in self.data.items():
            clash = set(names) & set(meta["labelnames"])
            if clash:
                raise ValueError(f"metric {name!r} already has labels {clash}")
            out[name] = {
                "kind": meta["kind"], "help": meta["help"],
                "labelnames": tuple(meta["labelnames"]) + names,
                "samples": {key + values: value
                            for key, value in meta["samples"].items()},
            }
        return MetricsSnapshot(out)

    def value(self, name: str, **labels) -> float:
        """The sample value of *name* at *labels* (0 when absent)."""
        meta = self.data.get(name)
        if meta is None:
            return 0.0
        key = tuple(str(labels[n]) for n in meta["labelnames"])
        return meta["samples"].get(key, 0.0)


class MetricsRegistry:
    """A thread-safe set of instruments plus weakly-attached sub-registries.

    Parameters
    ----------
    attach_to:
        Optional parent registry (normally the process-wide
        :data:`REGISTRY`): the parent's :meth:`snapshot` then includes
        this registry's instruments for as long as the component owning
        it is alive.  Attachment is by weak reference, so garbage
        collection detaches automatically.
    """

    def __init__(self, *, attach_to: MetricsRegistry | None = None) -> None:
        self._lock = threading.RLock()
        self._instruments: dict[str, _Instrument] = {}
        self._attached: list = []
        if attach_to is not None:
            attach_to.attach(self)

    # ------------------------------------------------------------------ #
    def _instrument(self, cls, name, help, labelnames, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or \
                        existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{existing.labelnames}")
                return existing
            instrument = cls(name, help, tuple(labelnames), self._lock, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "",
                labelnames: tuple[str, ...] = ()) -> Counter:
        """Get or create the :class:`Counter` called *name*."""
        return self._instrument(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: tuple[str, ...] = ()) -> Gauge:
        """Get or create the :class:`Gauge` called *name*."""
        return self._instrument(Gauge, name, help, labelnames)

    # ------------------------------------------------------------------ #
    def attach(self, registry: MetricsRegistry) -> None:
        """Include *registry* (weakly) in this registry's snapshots."""
        with self._lock:
            self._attached.append(weakref.ref(registry))

    def snapshot(self) -> MetricsSnapshot:
        """A mergeable point-in-time copy of this registry and attachments."""
        with self._lock:
            data: dict = {}
            for name, inst in self._instruments.items():
                data[name] = {"kind": inst.kind, "help": inst.help,
                              "labelnames": inst.labelnames,
                              "samples": dict(inst._samples)}
            attached = [ref() for ref in self._attached]
            self._attached[:] = [ref for ref, live in
                                 zip(self._attached, attached, strict=True)
                                 if live is not None]
        snap = MetricsSnapshot(data)
        for child in attached:
            if child is not None:
                snap = snap.merge(child.snapshot())
        return snap


#: The process-wide registry behind every ``/metrics`` endpoint.
#: Components attach their private registries to it at construction.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (:data:`REGISTRY`)."""
    return REGISTRY


# --------------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------------- #
def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label(text: str) -> str:
    return (text.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r"\""))


def _format_number(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _label_str(labelnames: tuple, key: tuple) -> str:
    parts = [f'{n}="{_escape_label(v)}"'
             for n, v in zip(labelnames, key, strict=True)]
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(snapshot: MetricsSnapshot) -> str:
    """Render *snapshot* in the Prometheus text exposition format (0.0.4)."""
    lines: list[str] = []
    for name in sorted(snapshot.data):
        meta = snapshot.data[name]
        kind, labelnames = meta["kind"], tuple(meta["labelnames"])
        if meta["help"]:
            lines.append(f"# HELP {name} {_escape_help(meta['help'])}")
        lines.append(f"# TYPE {name} {kind}")
        for key in sorted(meta["samples"]):
            lines.append(f"{name}{_label_str(labelnames, key)} "
                         f"{_format_number(meta['samples'][key])}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[tuple[str, tuple], float]:
    """Parse Prometheus text exposition into ``{(name, labels): value}``.

    *labels* is a sorted tuple of ``(label, value)`` pairs.  The parser
    accepts exactly what :func:`render_prometheus` emits (plus blank
    lines) and raises :class:`ValueError` on anything else — which is
    what lets tests and the CI ``metrics-smoke`` job assert that a
    scraped payload *is* Prometheus text, not just non-empty.
    """
    samples: dict[tuple[str, tuple], float] = {}
    # Lines end at "\n" only: a label value or help text may hold any
    # other line-breaking character (str.splitlines would split on it).
    for raw in text.split("\n"):
        line = raw.strip()
        if not line or line.startswith("#"):
            if line.startswith("#") and not line.startswith(("# HELP", "# TYPE")):
                raise ValueError(f"malformed comment line: {raw!r}")
            continue
        try:
            series, value_str = line.rsplit(" ", 1)
            value = float(value_str)
        except ValueError as exc:
            raise ValueError(f"malformed sample line: {raw!r}") from exc
        if "{" in series:
            name, _, rest = series.partition("{")
            body = rest.rstrip("}")
            labels = []
            for part in _split_labels(body):
                label, _, quoted = part.partition("=")
                if not (quoted.startswith('"') and quoted.endswith('"')):
                    raise ValueError(f"malformed label in line: {raw!r}")
                labels.append((label, _UNESCAPE.sub(
                    lambda m: _UNESCAPED[m.group(1)], quoted[1:-1])))
            key = (name, tuple(sorted(labels)))
        else:
            key = (series, ())
        samples[key] = value
    return samples


#: The escapes :func:`_escape_label` writes, undone in one left-to-right
#: pass (sequential replaces would read ``\\n`` as a newline).
_UNESCAPE = re.compile(r'\\(["n\\])')
_UNESCAPED = {'"': '"', "n": "\n", "\\": "\\"}


def _split_labels(body: str) -> list[str]:
    """Split a label body on commas outside quoted values."""
    parts, current, quoted, escaped = [], [], False, False
    for ch in body:
        if escaped:
            current.append(ch)
            escaped = False
        elif ch == "\\":
            current.append(ch)
            escaped = True
        elif ch == '"':
            current.append(ch)
            quoted = not quoted
        elif ch == "," and not quoted:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current))
    return [p for p in parts if p]
