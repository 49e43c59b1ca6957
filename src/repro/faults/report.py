"""Plain-text reports for fault-injection campaigns (paper-style tables)."""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from . import categories
from .campaign import CampaignResult


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render a simple fixed-width text table."""
    columns = [list(map(str, column)) for column in
               zip(*([headers] + [list(map(str, row)) for row in rows]))] \
        if rows else [[str(h)] for h in headers]
    widths = [max(len(value) for value in column) for column in columns]
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(str(value).ljust(width)
                                for value, width in zip(row, widths)))
    return "\n".join(lines)


def table3_report(results: Mapping[str, CampaignResult],
                  order: Optional[Sequence[str]] = None,
                  paper_reference: Optional[Mapping[str, float]] = None
                  ) -> str:
    """Render the Table 3 analogue: wrong answers per design."""
    names = list(order) if order is not None else list(results)
    rows: List[List[object]] = []
    headers = ["Design", "Injected Faults", "Wrong Answer [#]",
               "Wrong Answer [%]"]
    if paper_reference:
        headers.append("Paper [%]")
    for name in names:
        result = results[name]
        row: List[object] = [name, result.injected, result.wrong_answers,
                             f"{result.wrong_answer_percent:.2f}"]
        if paper_reference:
            reference = paper_reference.get(name)
            row.append(f"{reference:.2f}" if reference is not None else "-")
        rows.append(row)
    return format_table(headers, rows,
                        "Table 3 — Fault injection campaign results")


def table4_report(results: Mapping[str, CampaignResult],
                  order: Optional[Sequence[str]] = None) -> str:
    """Render the Table 4 analogue: error-causing effects per category."""
    names = list(order) if order is not None else list(results)
    headers = ["Effect"] + [f"{name} [#]" for name in names]
    rows: List[List[object]] = []
    for category in categories.TABLE4_ORDER:
        row: List[object] = [category]
        for name in names:
            counts = results[name].by_category.get(category)
            row.append(counts.wrong if counts is not None else 0)
        rows.append(row)
    totals: List[object] = ["Total"]
    for name in names:
        totals.append(sum(count.wrong
                          for count in results[name].by_category.values()))
    rows.append(totals)
    return format_table(headers, rows,
                        "Table 4 — Effects induced by the injected upsets "
                        "(error-causing upsets only)")
