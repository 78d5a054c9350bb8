#!/usr/bin/env python3
"""Reachability map of the SkyRAN library: who keeps each function.

Builds the tree once at -O0 -fno-inline with one section per function and
links every executable with --gc-sections, so each executable keeps exactly
the library functions its static call graph reaches. The perfbench driver is
built the same way from perfbench/CMakeLists.txt, unchanged, in a second
build directory.

Every strong (nm type `T`) symbol of the libskyran_*.a archives whose
demangled name starts with `skyran::` gets the first class of executable
that keeps it:

  system      the examples, skyran_cli and the perfbench driver;
  evaluation  the bench/ binaries;
  tests       the tests/ binaries;
  none        no executable.

Weak symbols are skipped: templates, header-inline functions and implicit
special members are emitted into whichever object uses them.

Every evaluation-only, tests-only and unreached function is listed by name.
With --check, exit 1 when a tests-only or unreached function has no entry in
tools/reach_allow.txt, or when an entry matches no such function (so the
list cannot go stale). An entry is a qualified name without its parameter
list, whitespace, then the reason it is kept. One entry covers every overload
of its name: a new tests-only overload of an allowlisted name passes --check.

Caveats: linked is not called (a virtual in a kept vtable, a branch never
taken), and code inlined from headers is invisible to the scan.

Usage:
    python3 tools/reach.py [--check]

The two build trees are build-reach/ and build-reach-perfbench/ at the repo
root; a second run rebuilds only what changed.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ALLOW = REPO / "tools" / "reach_allow.txt"
TREE = REPO / "build-reach"
PERFBENCH_TREE = REPO / "build-reach-perfbench"

CXX_FLAGS = "-O0 -fno-inline -ffunction-sections -fdata-sections"
LINK_FLAGS = "-Wl,--gc-sections"
# Debug with its -g cleared: the scan flags alone, and no -O from a build type.
CMAKE_ARGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=",
    f"-DCMAKE_CXX_FLAGS={CXX_FLAGS}",
    f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}",
]

CLASSES = ("system", "evaluation", "tests", "none")
# The directories of the main tree whose executables make up each class;
# the system class also has the perfbench driver.
EXE_DIRS = {"system": ("examples", "tools"), "evaluation": ("bench",), "tests": ("tests",)}
PERFBENCH = PERFBENCH_TREE / "perfbench"


def run(cmd, **kw):
    r = subprocess.run(cmd, **kw)
    if r.returncode != 0:
        sys.exit(f"reach: command failed ({r.returncode}): {' '.join(map(str, cmd))}")
    return r


def build(src, out, *target):
    print(f"reach: building {src} into {out}", flush=True)
    run(["cmake", "-S", src, "-B", out, *CMAKE_ARGS], stdout=subprocess.DEVNULL)
    run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1), *target],
        stdout=subprocess.DEVNULL)


def is_elf_executable(p):
    if not p.is_file() or not os.access(p, os.X_OK):
        return False
    with open(p, "rb") as f:
        return f.read(4) == b"\x7fELF"


def executables(cls):
    out = [p for sub in EXE_DIRS[cls] for p in sorted((TREE / sub).iterdir())
           if is_elf_executable(p)]
    return out + [PERFBENCH] if cls == "system" else out


def nm(path):
    """(name, type) of every defined symbol; names stay mangled."""
    r = run(["nm", "--defined-only", "--format=posix", str(path)],
            stdout=subprocess.PIPE, text=True)
    syms = []
    for line in r.stdout.splitlines():
        parts = line.split()
        # Archive member headers read "lib.a[obj.o]:"; symbol lines
        # read "name type value [size]".
        if len(parts) >= 2 and len(parts[1]) == 1:
            syms.append((parts[0], parts[1]))
    return syms


def demangle(names):
    r = run(["c++filt"], input="\n".join(names) + "\n", stdout=subprocess.PIPE, text=True)
    out = r.stdout.splitlines()
    assert len(out) == len(names), "c++filt returned a different line count"
    return dict(zip(names, out))


def qualified_name(demangled):
    """`skyran::ns::f[abi:cxx11](int) const` -> `skyran::ns::f`."""
    depth = 0
    i = 0
    while i < len(demangled):
        # An operator's own symbol (`operator()`, `operator<<=`, ...) is part
        # of the name, not a parameter list or template bracket.
        if demangled.startswith("operator", i):
            i += len("operator")
            if demangled.startswith("()", i):
                i += 2
            while i < len(demangled) and demangled[i] in "<>=!+-*/%&|^~[],":
                i += 1
            continue
        c = demangled[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "(" and depth <= 0:
            break
        i += 1
    name = demangled[:i]
    while "[abi:" in name:
        a = name.index("[abi:")
        name = name[:a] + name[name.index("]", a) + 1:]
    return name


def library_symbols(tree):
    archives = sorted(tree.glob("src/**/libskyran_*.a"))
    if not archives:
        sys.exit(f"reach: no libskyran_*.a archives under {tree}/src")
    mangled = sorted({name for a in archives for name, t in nm(a) if t == "T"})
    dem = demangle(mangled)
    return {m: d for m, d in dem.items() if d.startswith("skyran::")}


def read_allowlist():
    entries = {}
    for n, line in enumerate(ALLOW.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) < 2:
            sys.exit(f"reach: {ALLOW.name}:{n}: entry '{parts[0]}' gives no reason")
        if parts[0] in entries:
            sys.exit(f"reach: {ALLOW.name}:{n}: duplicate entry '{parts[0]}'")
        entries[parts[0]] = parts[1]
    return entries


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="fail on unlisted tests-only/unreached functions and stale entries")
    args = ap.parse_args()

    build(REPO, TREE)
    build(REPO / "perfbench", PERFBENCH_TREE, "--target", "perfbench")

    lib = library_symbols(TREE)
    kept = {}
    for cls in CLASSES[:-1]:
        exes = executables(cls)
        if not exes:
            sys.exit(f"reach: no {cls} executables found")
        names = set()
        for exe in exes:
            names.update(name for name, _ in nm(exe))
        kept[cls] = names
        print(f"{cls}: {len(exes)} executables")

    # One row per demangled name: a constructor's complete and base-object
    # variants (C1/C2) are one function in the source.
    best = {}
    for m, d in lib.items():
        cls = next((c for c in CLASSES[:-1] if m in kept[c]), "none")
        prev = best.get(d)
        if prev is None or CLASSES.index(cls) < CLASSES.index(prev):
            best[d] = cls

    counts = {c: sum(1 for v in best.values() if v == c) for c in CLASSES}
    print(f"library functions: {len(best)} = " +
          ", ".join(f"{counts[c]} {c}" for c in CLASSES))

    allow = read_allowlist()
    listed = []
    unlisted = []
    for d in sorted(best):
        cls = best[d]
        if cls == "evaluation":
            print(f"  evaluation  {d}")
        if cls not in ("tests", "none"):
            continue
        q = qualified_name(d)
        (listed if q in allow else unlisted).append((cls, d, q))
    for cls, d, q in listed:
        print(f"  {cls:<10}  {d}  [allowed: {allow[q]}]")
    for cls, d, _ in unlisted:
        print(f"  {cls:<10}  {d}  [NOT ALLOWED]")

    matched = {q for _, _, q in listed}
    stale = sorted(set(allow) - matched)
    for q in stale:
        print(f"  stale allowlist entry (matches no tests-only or unreached function): {q}")

    if args.check and (unlisted or stale):
        print(f"reach: FAIL: {len(unlisted)} unlisted, {len(stale)} stale", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
