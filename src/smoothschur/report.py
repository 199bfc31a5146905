"""Labelled residual bookkeeping shared by every validator in the package."""
from __future__ import annotations

from dataclasses import dataclass, field


class _Verdict:
    """to_dict for a frozen dataclass with a passed property: its fields in
    order, as the instance holds them, then "pass"."""

    def to_dict(self) -> dict:
        return {**vars(self), "pass": self.passed}


@dataclass(frozen=True)
class ResidualEntry(_Verdict):
    label: str
    residual: float
    threshold: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold


@dataclass
class ResidualReport:
    """Ordered collection of named residuals with per-entry thresholds."""

    entries: list[ResidualEntry] = field(default_factory=list)

    def add(self, label: str, residual: float, threshold: float, note: str = "") -> ResidualEntry:
        entry = ResidualEntry(label, float(residual), float(threshold), note)
        self.entries.append(entry)
        return entry

    def extend(self, other: "ResidualReport") -> None:
        self.entries.extend(other.entries)

    def __getitem__(self, label: str) -> ResidualEntry:
        for entry in self.entries:
            if entry.label == label:
                return entry
        raise KeyError(label)

    def __contains__(self, label: str) -> bool:
        return any(e.label == label for e in self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def max_residual(self) -> float:
        return max((e.residual for e in self.entries), default=0.0)

    def to_dict(self) -> list[dict]:
        return [e.to_dict() for e in self.entries]

    def pretty(self) -> str:
        lines = []
        for e in self.entries:
            mark = "ok " if e.passed else "FAIL"
            note = f"  ({e.note})" if e.note else ""
            lines.append(f"  [{mark}] {e.label}: {e.residual:.3e} <= {e.threshold:.3e}{note}")
        return "\n".join(lines)
