"""Paper-style table formatting for experiment results.

The benches print their regenerated tables through these helpers so the
output visually matches the paper's layout (component columns, tree/oracle
rows) and records paper-vs-measured deltas.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
    align_left_columns: int = 1,
) -> str:
    """Render an ASCII table with padded columns.

    The first ``align_left_columns`` columns are left-aligned (labels); the
    rest are right-aligned (numbers).
    """
    rendered: List[List[str]] = [[_cell(value) for value in headers]]
    for row in rows:
        rendered.append([_cell(value) for value in row])
    widths = [
        max(len(row[i]) for row in rendered) for i in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    for index, row in enumerate(rendered):
        cells = []
        for column, value in enumerate(row):
            if column < align_left_columns:
                cells.append(value.ljust(widths[column]))
            else:
                cells.append(value.rjust(widths[column]))
        lines.append(" | ".join(cells))
        if index == 0:
            lines.append(separator)
    return "\n".join(lines)


def _cell(value: object) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_phase_breakdown(
    phases: Mapping[str, Mapping[str, Mapping[str, object]]],
    title: str = "Per-phase recovery breakdown",
    components: Optional[Sequence[str]] = None,
) -> str:
    """Render a per-component recovery-phase table from a phase snapshot.

    ``phases`` is the ``{component: {phase: SummaryStat.to_dict()}}`` shape
    produced by :func:`repro.obs.spans.phase_snapshot` and
    carried on recovery/availability results.  One row per component:
    mean detection, decision, and restart latency plus the mean total and
    episode count.
    """
    from repro.obs.sinks import SummaryStat
    from repro.obs.spans import PHASES

    names = list(components) if components is not None else sorted(phases)
    rows: List[List[object]] = []
    for name in names:
        slot = phases.get(name, {})
        stats = {
            phase: SummaryStat.from_dict(payload)
            for phase, payload in slot.items()
        }
        row: List[object] = [name]
        for phase in PHASES:
            stat = stats.get(phase)
            row.append(stat.mean if stat is not None and stat.n else None)
        total = stats.get("total") or stats.get("restart")
        row.append(total.n if total is not None else 0)
        rows.append(row)
    headers = ["component"] + [f"{p} (s)" for p in PHASES] + ["episodes"]
    return format_table(headers, rows, title=title)


def relative_errors(
    paper: Mapping[str, Optional[float]],
    measured: Mapping[str, Optional[float]],
) -> Dict[str, float]:
    """Per-column |measured − paper| / paper, for columns present in both."""
    out: Dict[str, float] = {}
    for key, expected in paper.items():
        observed = measured.get(key)
        if expected is None or observed is None or expected == 0:
            continue
        out[key] = abs(observed - expected) / expected
    return out
