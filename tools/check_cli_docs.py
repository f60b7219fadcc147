#!/usr/bin/env python3
"""Drift check between the goat flag table and docs/CLI.md.

Reads kFlags in tools/cli_options.hh: each flag's name, metavar ("" =
a bool flag, documented as `-flag`; else `-flag=VALUE`; `-progress`
takes both) and the modes that read it. docs/CLI.md gives each flag a
row `| -flag=VALUE | default | mode, ... | meaning |`. Fails when a
flag has no row, a row lists other modes, or the doc names (in
backticks, anywhere) a flag the table lacks.

Usage: check_cli_docs.py [repo_root] (the `check_cli_docs` ctest).
"""

import re
import sys
from pathlib import Path

MODES = {"kList": "list", "kLint": "lint", "kMhpOut": "mhp-out",
         "kReplay": "replay", "kCampaign": "campaign", "kSweep": "sweep"}
ENTRY = re.compile(r'\{"(-[a-z-]+)", "([A-Z]*)", (OptionalInt\{)?'
                   r'&Options::\w+\}?, ([\w |]+),')
FLAG = r"`(-[a-z-]+)(=[A-Za-z0-9_]*)?`"
ROW = re.compile(r"^\| " + FLAG + r" \|[^|]*\|([^|]*)\|", re.M)


def fail(msg):
    sys.exit(f"check_cli_docs: FAIL: {msg}")


def table_flags(source):
    """{'-list': {'list'}, '-kernel=': {'lint', ...}, ...} from kFlags."""
    aliases = dict(re.findall(r"constexpr unsigned (k\w+) = ([\w |]+);",
                              source))

    def modes(expr):
        names = [n.strip() for n in expr.split("|")]
        if any(n not in MODES and n not in aliases for n in names):
            fail(f"unknown mode in '{expr}' in tools/cli_options.hh")
        return set().union(*(modes(aliases[n]) if n in aliases
                             else {MODES[n]} for n in names))

    entries = ENTRY.findall(source)
    if not entries or len(entries) != source.count('{"-'):
        fail("a kFlags entry does not match the entry pattern")
    return {form: modes(expr) for name, metavar, optional, expr in entries
            for form in ([name, name + "="] if optional else
                         [name + ("=" if metavar else "")])}


def main():
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(__file__).resolve().parent.parent
    table = table_flags((root / "tools" / "cli_options.hh").read_text())
    text = (root / "docs" / "CLI.md").read_text()
    rows = {name + ("=" if value else ""):
            {m.strip() for m in cell.split(",") if m.strip()}
            for name, value, cell in ROW.findall(text)}
    named = {name + ("=" if value else "")
             for name, value in re.findall(FLAG, text)}

    if undocumented := sorted(set(table) - set(rows)):
        fail(f"flags without a row in docs/CLI.md: {', '.join(undocumented)}")
    if stale := sorted(named - set(table)):
        fail(f"docs/CLI.md documents unknown flags: {', '.join(stale)}")
    if moved := sorted(f for f in table if table[f] != rows[f]):
        fail("docs/CLI.md lists other modes for: " + "; ".join(
            f"{f} (table: {', '.join(sorted(table[f]))})" for f in moved))
    print(f"check_cli_docs: OK — {len(table)} flags documented with "
          f"their modes")


if __name__ == "__main__":
    main()
