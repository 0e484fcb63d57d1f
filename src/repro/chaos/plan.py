"""Fault plans: declarative, seeded, replayable failure scenarios.

A :class:`FaultPlan` is a list of :class:`Fault` entries, each firing at
a *protocol event* — the N-th command sent to worker W, the K-th
deployment publish to replica R — never at a wall-clock instant. That is
what makes chaos runs replayable: the same plan against the same
workload seed injects the same faults at the same logical points every
time, in CI, on any machine, at any machine speed.

The plan's ``seed`` feeds only the injector's *payload* randomness (e.g.
which byte a ``corrupt`` fault flips). Scheduling is pure counting, so a
plan with no faults draws zero random numbers and perturbs nothing — the
determinism contract ``docs/chaos.md`` spells out.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

__all__ = ["Fault", "FaultPlan", "parse_fault_spec", "PLAN_VERSION"]

#: format version of the serialised plan document
PLAN_VERSION = 1

#: everything a fault can do to a matched event
ACTIONS = ("kill", "stall", "drop", "duplicate", "delay", "corrupt")
#: where faults can attach
SCOPES = ("worker", "replica", "registry")

#: the commands a clan worker pool sends through its chaos hook
WORKER_KINDS = (
    "clan_init", "clan_restore", "clan_run", "clan_halt", "clan_best",
    "clan_checkpoint", "ping", "inject_stall",
)

#: which actions are meaningful per (scope, message-kind) attachment
#: point; a kind missing here is sent by nothing, so a fault on it could
#: never fire. ``None`` kind = the fault matches any message kind, which
#: restricts it to actions that are kind-agnostic (kill/stall/drop).
_SUPPORTED: dict[tuple[str, str | None], tuple[str, ...]] = {
    ("worker", None): ("kill", "stall", "drop"),
    **{("worker", kind): ("kill", "stall", "drop") for kind in WORKER_KINDS},
    ("replica", None): ("kill",),
    ("replica", "publish"): ("kill", "drop", "duplicate", "delay", "corrupt"),
    ("replica", "infer"): ("kill", "drop", "duplicate"),
    ("registry", None): ("delay",),
    ("registry", "publish"): ("delay",),
}


@dataclasses.dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    ``at`` counts *matching* events (1-based): a fault with
    ``scope="replica", target=0, kind="publish", at=2`` fires on the
    second deployment message bound for replica 0 and never again —
    faults are one-shot. ``target=None`` matches any worker/replica.
    ``value`` carries seconds for ``stall``/``delay``.
    """

    action: str
    scope: str
    at: int = 1
    target: int | None = None
    kind: str | None = None
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.scope not in SCOPES:
            raise ValueError(f"unknown fault scope {self.scope!r}")
        if self.at < 1:
            raise ValueError(f"fault 'at' is 1-based, got {self.at}")
        supported = _SUPPORTED.get((self.scope, self.kind))
        if supported is None:
            known = sorted(k for s, k in _SUPPORTED if s == self.scope and k)
            raise ValueError(
                f"unknown {self.scope} event kind {self.kind!r} (known: "
                f"{', '.join(known)})"
            )
        if self.action not in supported:
            raise ValueError(
                f"action {self.action!r} is not supported for scope "
                f"{self.scope!r} kind {self.kind!r} (supported: "
                f"{', '.join(supported)})"
            )
        if self.action in ("stall", "delay") and self.value <= 0.0:
            raise ValueError(
                f"{self.action!r} faults need a positive duration "
                f"(value=...), got {self.value}"
            )

    def matches(self, scope: str, target: int | None, kind: str) -> bool:
        """Whether an event at (scope, target, kind) is counted."""
        if scope != self.scope:
            return False
        if self.target is not None and target != self.target:
            return False
        if self.kind is not None and kind != self.kind:
            return False
        return True

    def describe(self) -> str:
        """Compact human-readable form for CLI/benchmark reports."""
        where = (
            f"{self.scope} {self.target}"
            if self.target is not None
            else f"any {self.scope}"
        )
        text = f"{self.action} {where} ({self.kind or 'any'} event #{self.at})"
        if self.value:
            text += f", {self.value}s"
        return text

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Fault":
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown fault fields: {', '.join(sorted(unknown))}"
            )
        return cls(**data)


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered collection of faults."""

    seed: int = 0
    faults: tuple[Fault, ...] = ()

    def to_dict(self) -> dict:
        return {
            "version": PLAN_VERSION,
            "seed": self.seed,
            "faults": [fault.to_dict() for fault in self.faults],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        version = data.get("version", PLAN_VERSION)
        if version != PLAN_VERSION:
            raise ValueError(f"unsupported fault plan version {version!r}")
        faults = tuple(
            Fault.from_dict(entry) for entry in data.get("faults", ())
        )
        return cls(seed=data.get("seed", 0), faults=faults)

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        """Load a plan from a JSON file (see ``docs/chaos.md``)."""
        try:
            data = json.loads(pathlib.Path(path).read_text())
        except json.JSONDecodeError as error:
            raise ValueError(f"fault plan {path} is not valid JSON: {error}")
        if not isinstance(data, dict):
            raise ValueError(f"fault plan {path} must be a JSON object")
        return cls.from_dict(data)

    def save(self, path) -> None:
        pathlib.Path(path).write_text(json.dumps(self.to_dict(), indent=2))


def parse_fault_spec(spec: str) -> Fault:
    """Parse the CLI's compact fault syntax into a :class:`Fault`.

    Grammar: ``ACTION[,key=value...]`` with keys ``scope``, ``target``,
    ``kind``, ``at``, ``value`` — e.g.::

        kill,scope=worker,target=1,kind=clan_run,at=3
        drop,scope=replica,target=0,kind=publish
        delay,scope=registry,value=0.05
    """
    parts = [part.strip() for part in spec.split(",") if part.strip()]
    if not parts:
        raise ValueError("empty fault spec")
    action = parts[0]
    kwargs: dict = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError(
                f"malformed fault field {part!r} (expected key=value)"
            )
        key, raw = part.split("=", 1)
        key = key.strip()
        raw = raw.strip()
        if key in ("target", "at"):
            kwargs[key] = int(raw)
        elif key == "value":
            kwargs[key] = float(raw)
        elif key in ("scope", "kind"):
            kwargs[key] = raw
        else:
            raise ValueError(f"unknown fault field {key!r}")
    if "scope" not in kwargs:
        raise ValueError(f"fault spec {spec!r} needs a scope=... field")
    return Fault(action=action, **kwargs)
