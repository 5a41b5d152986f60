#!/usr/bin/env python3
"""Dead-code audit: fail when a function defined in src/ is linked by no
binary the repository builds, or only by tests without being listed as a
test hook.

The audit builds every program at -O0 with -ffunction-sections and
-Wl,--gc-sections, so each function sits in its own section and the
linker drops every section no binary reaches.  -fdata-sections matters
too: without it a switch's jump table lands in the shared .rodata, whose
relocations keep every function with a jump table alive.  At -O0 nothing
is inlined, so a function some program calls keeps its symbol.  The
binaries are the top-level project's (tests, benches, examples) plus
perfbench's two programs, built from the same checkout without touching
it.

A function counts as defined in src/ when the libraries built from src/
carry a text symbol for it whose mangled name is nested in namespace
`prorp` (`_ZN5prorp...`); std:: templates instantiated on prorp types and
lambdas local to a prorp function do not count.  It is dead when no
binary keeps that symbol.  Constructor and destructor variants share one
demangled name, so they are counted once.

A function that only binaries under tests/ link must be listed in
tools/test_hooks.txt with the reason it stays in src/: an oracle, a
crash, bit-flip or fault-injection hook, or a capability the design names.
Each entry there is a demangled name as this audit prints it, on a line of
its own, followed by its one-line reason on the next line, indented; blank
lines and lines starting with '#' are skipped.

Usage:
  python3 tools/dead_code_audit.py [--build-dir DIR]

Exits 0 when every function is linked by some binary, every function only
tests link is listed, and every listed function is still defined in src/
and linked only by tests; 1 otherwise.  DIR defaults to build-deadcode/ at
the repository root; it holds two CMake trees, repo/ and perfbench/.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOOKS = os.path.join(ROOT, "tools", "test_hooks.txt")
TEXT_TYPES = {"T", "t", "W"}
# Functions (member or free, const/volatile/ref-qualified) in namespace prorp.
PRORP_FUNCTION = re.compile(r"_ZN[KVRO]*5prorp")


def configure_and_build(source, build, targets=()):
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    subprocess.run(
        ["cmake", "-S", source, "-B", build, *gen,
         "-DCMAKE_BUILD_TYPE=Debug",
         "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
         "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"],
        check=True, stdout=subprocess.DEVNULL)
    cmd = ["cmake", "--build", build, "-j", str(os.cpu_count() or 1)]
    for t in targets:
        cmd += ["--target", t]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def text_symbols(path):
    """Demangled names of the prorp:: functions `path` defines."""
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    mangled = []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in TEXT_TYPES and \
                PRORP_FUNCTION.match(parts[2]):
            mangled.append(parts[2])
    demangled = subprocess.run(["c++filt"], input="\n".join(mangled),
                               check=True, capture_output=True,
                               text=True).stdout
    return set(demangled.splitlines())


def read_hooks(path):
    """Maps each function listed in `path` to its reason."""
    hooks, name = {}, None
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            where = f"{os.path.relpath(path, ROOT)}:{number}"
            if line[0].isspace():
                if name is None or hooks[name]:
                    sys.exit(f"{where}: reason without a function above it")
                hooks[name] = line.strip()
                continue
            if name is not None and not hooks[name]:
                sys.exit(f"{where}: {name} has no reason")
            if line in hooks:
                sys.exit(f"{where}: {line} is listed twice")
            name = line
            hooks[name] = ""
    if name is not None and not hooks[name]:
        sys.exit(f"{os.path.relpath(path, ROOT)}: {name} has no reason")
    return hooks


def is_elf_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def walk(top, keep):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames if d != "CMakeFiles"]
        for name in filenames:
            path = os.path.join(dirpath, name)
            if keep(path):
                yield path


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--build-dir",
                    default=os.path.join(ROOT, "build-deadcode"))
    args = ap.parse_args()
    hooks = read_hooks(HOOKS)

    repo_build = os.path.join(args.build_dir, "repo")
    perf_build = os.path.join(args.build_dir, "perfbench")
    configure_and_build(ROOT, repo_build)
    configure_and_build(os.path.join(ROOT, "perfbench"), perf_build,
                        targets=("fleet_bench", "fleet_trace"))

    defined = set()
    for lib in walk(os.path.join(repo_build, "src"),
                    lambda p: p.endswith(".a")):
        defined |= text_symbols(lib)

    binaries = sorted(
        list(walk(repo_build, is_elf_executable)) +
        [os.path.join(perf_build, b) for b in ("fleet_bench", "fleet_trace")])
    tests_dir = os.path.join(repo_build, "tests") + os.sep
    by_tests, by_programs = set(), set()
    for binary in binaries:
        if binary.startswith(tests_dir):
            by_tests |= text_symbols(binary)
        else:
            by_programs |= text_symbols(binary)

    dead = sorted(defined - by_tests - by_programs)
    print(f"dead-code audit: {len(defined)} prorp:: functions defined in "
          f"src/, {len(binaries)} binaries, {len(dead)} linked by none")
    for name in dead:
        print(f"  {name}")
    test_only = (defined & by_tests) - by_programs
    unlisted = sorted(test_only - hooks.keys())
    stale = sorted(hooks.keys() - test_only)
    print(f"{len(test_only)} linked only by tests, {len(hooks)} listed in "
          f"{os.path.relpath(HOOKS, ROOT)}")
    for name in sorted(test_only & hooks.keys()):
        print(f"  {name}\n      {hooks[name]}")
    print(f"{len(unlisted)} linked only by tests but not listed:")
    for name in unlisted:
        print(f"  {name}")
    print(f"{len(stale)} listed but no longer defined in src/ and linked "
          f"only by tests:")
    for name in stale:
        print(f"  {name}")
    return 1 if dead or unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
