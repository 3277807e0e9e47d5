"""Result containers and table rendering for figure reproductions."""

from __future__ import annotations

from dataclasses import dataclass, field


def fmt_value(v) -> str:
    """Render one table cell."""
    if v is None:
        return "n/a"
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)


@dataclass
class Check:
    """One paper-shape acceptance check.

    ``description`` states the paper's claim; ``passed`` whether the
    measured series reproduces it; ``detail`` the measured numbers.
    """

    description: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        suffix = f" [{self.detail}]" if self.detail else ""
        return f"  [{mark}] {self.description}{suffix}"


@dataclass
class FigureResult:
    """Measured reproduction of one paper figure."""

    fig_id: str
    title: str
    columns: list[str]
    rows: list[tuple[str, dict]] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Columns holding host wall-clock times, not simulated results.
    host_columns: list[str] = field(default_factory=list)

    def add_row(self, label: str, **values) -> None:
        """Append one sweep point."""
        self.rows.append((label, values))

    def check(self, description: str, passed: bool, detail: str = "") -> None:
        """Record one shape check."""
        self.checks.append(Check(description, bool(passed), detail))

    def value(self, label: str, column: str):
        """Look up one cell (None when missing)."""
        for lab, vals in self.rows:
            if lab == label:
                return vals.get(column)
        raise KeyError(f"no row {label!r} in {self.fig_id}")

    def series(self, column: str) -> list:
        """One column across all rows (missing cells -> None)."""
        return [vals.get(column) for _, vals in self.rows]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def table_str(self) -> str:
        """Fixed-width table of the measured series."""
        headers = ["point"] + self.columns
        cells = [[label] + [fmt_value(vals.get(c)) for c in self.columns]
                 for label, vals in self.rows]
        widths = [max(len(h), *(len(row[i]) for row in cells)) if cells else len(h)
                  for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def render(self) -> str:
        """Full report block: title, table, checks, notes."""
        out = [f"== {self.fig_id}: {self.title} ==", self.table_str(), ""]
        out += [str(c) for c in self.checks]
        for n in self.notes:
            out.append(f"  note: {n}")
        return "\n".join(out)

    def to_dict(self) -> dict:
        """JSON-ready representation (used by the CLI's --json)."""
        out = {
            "fig_id": self.fig_id,
            "title": self.title,
            "columns": self.columns,
            "rows": [{"point": label, **values} for label, values in self.rows],
            "checks": [
                {"description": c.description, "passed": c.passed,
                 "detail": c.detail}
                for c in self.checks
            ],
            "notes": list(self.notes),
        }
        if self.host_columns:
            out["host_columns"] = list(self.host_columns)
        return out

    def deterministic(self) -> dict:
        """:meth:`to_dict` minus the ``host_columns`` cells: what two
        runs with the same arguments and seed must reproduce exactly."""
        out = self.to_dict()
        out["rows"] = [{k: v for k, v in r.items() if k not in
                        self.host_columns} for r in out["rows"]]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FigureResult":
        """Inverse of :meth:`to_dict` (rebuilds a persisted ``<id>.json``)."""
        rows = []
        for row in data["rows"]:
            values = dict(row)
            rows.append((values.pop("point"), values))
        return cls(data["fig_id"], data["title"], list(data["columns"]),
                   rows=rows,
                   checks=[Check(**c) for c in data["checks"]],
                   notes=list(data["notes"]),
                   host_columns=list(data.get("host_columns", [])))

