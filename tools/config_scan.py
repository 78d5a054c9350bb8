#!/usr/bin/env python3
"""Count the settable values of the config structs and list those nothing sets.

A config struct is a struct in a src/ header whose name ends in Config,
Params, Plan, Curve or Spec, or LinkBudget. Its settable values are its
members, except a member config struct (its own members count) and a
std::vector (filled, not set). A value counts as set when some file under
src/, bench/, examples/, tools/, perfbench/ or tests/ assigns it by name:
`.name =`, `->name =`, a compound assignment, or a designated initializer.

Excluded: FaultWindow and WeatherFront, which callers fill positionally
(`.add({...})`, `push_back({...})`), and BandwidthConfig and FlightPlan,
which their factory functions compute.

A field that nothing sets is a constant in disguise: it belongs next to the
code that reads it. Exits 1 when the scan finds one.

Usage:
    python3 tools/config_scan.py
"""
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DIRS = ("src", "bench", "examples", "tools", "perfbench", "tests")
CONFIG = re.compile(r"\w+(Config|Params|Plan|Curve|Spec)|LinkBudget")
EXCLUDED = {"FaultWindow", "WeatherFront", "BandwidthConfig", "FlightPlan"}
MEMBER = re.compile(r"^\s+([\w:<>, ]+?)\s+(\w+)\s*(=[^=;].*|\{.*\})?;\s*(//.*)?$")


def members(text):
    """Yield (struct, type, name) for the data members of each config struct."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        m = re.match(r"^struct (\w+) \{", lines[i])
        i += 1
        if not m:
            continue
        struct = m.group(1)
        wanted = CONFIG.fullmatch(struct) and struct not in EXCLUDED
        depth = 1
        while i < len(lines) and depth > 0:
            code = lines[i].split("//")[0]
            plain = "(" not in code and not code.lstrip().startswith(("static", "using"))
            f = MEMBER.match(lines[i]) if wanted and depth == 1 and plain else None
            if f:
                yield struct, f.group(1), f.group(2)
            depth += code.count("{") - code.count("}")
            i += 1


def main():
    sources = [p for d in DIRS for p in sorted((REPO / d).rglob("*"))
               if p.suffix in (".cpp", ".hpp")]
    text = "\n".join(p.read_text(errors="replace") for p in sources)
    values = []
    for p in sources:
        if p.suffix != ".hpp" or p.relative_to(REPO).parts[0] != "src":
            continue
        for struct, type_, name in members(p.read_text(errors="replace")):
            nested = CONFIG.fullmatch(type_.split("::")[-1])
            if not nested and not type_.startswith("std::vector"):
                values.append((p.relative_to(REPO), struct, name))
    unset = [v for v in values
             if not re.search(r"(\.|->)" + v[2] + r"\s*[-+*/]?=(?!=)", text)]
    print(f"{len(values)} settable config values, {len(unset)} set by no file")
    for path, struct, name in unset:
        print(f"  {path}: {struct}::{name}")
    return 1 if unset else 0


if __name__ == "__main__":
    sys.exit(main())
