"""README's "Engine performance" table agrees with ``BENCH_engine.json``.

The table is typed by hand, so every row is checked against the record
it cites: ranks and events exactly, wall time and events/sec to the
precision the row prints.
"""

import json
import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_ROW = re.compile(
    r"^\|\s*`(?P<name>\w+)`\s*\|\s*(?P<ranks>[\d^]+)\s*\|\s*(?P<events>[\d,]+)\s*"
    r"\|\s*(?P<wall>[\d.]+)\s*\|\s*(?P<rate>[\d,]+)\s*\|$"
)


def _table_rows():
    text = (_ROOT / "README.md").read_text()
    section = text.split("### Engine performance", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("| `")]
    rows = [_ROW.match(line) for line in lines]
    assert all(rows), [line for line, m in zip(lines, rows) if not m]
    return [m.groupdict() for m in rows]


def _ranks(cell):
    base, _, exp = cell.partition("^")
    return int(base) ** int(exp) if exp else int(base)


def test_readme_engine_table_matches_bench_record():
    records = json.loads((_ROOT / "BENCH_engine.json").read_text())
    rows = _table_rows()
    assert "lu2d_64_macro" in [row["name"] for row in rows]
    for row in rows:
        record = records[row["name"]]
        decimals = len(row["wall"].partition(".")[2])
        assert _ranks(row["ranks"]) == record["ranks"], row
        assert int(row["events"].replace(",", "")) == record["events"], row
        assert float(row["wall"]) == round(record["wall_s"], decimals), row
        assert int(row["rate"].replace(",", "")) == round(record["events_per_sec"]), row
