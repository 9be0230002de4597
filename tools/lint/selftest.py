#!/usr/bin/env python3
"""mflush-lint self-test: run the linter over intentional-violation fixtures
and assert that each check fires exactly where it should (and nowhere on the
clean fixture). Registered in ctest as lint.selftest.

Usage: python3 tools/lint/selftest.py
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
LINT = os.path.join(ROOT, "tools", "lint", "mflush_lint.py")
GATE = os.path.join(ROOT, "tools", "lint", "check_format_version.py")
FIXDIR = os.path.join("tools", "lint", "fixtures")

# fixture file -> (expected exit code, substrings every run must print,
#                  substrings that must NOT appear)
CASES = {
    "good_clean.h": (0, [], ["finding"]),
    "bad_missing_field.h": (
        1,
        ["member `dropped_` is missing from fields()", "1 finding(s)"],
        ["kept_"],
    ),
    "bad_reordered.h": (
        1,
        ["class Reordered: save()/load() write the field list twice"],
        [],
    ),
    "bad_getenv.cpp": (
        1,
        ["getenv", "common/env.h"],
        [],
    ),
    "bad_envelope.cpp": (
        1,
        [
            "bad_envelope.cpp:20: hand-rolled checksum framing",
            "bad_envelope.cpp:26: hand-rolled checksum framing",
            "bad_envelope.cpp:34: hand-rolled checksum framing",
            "bad_envelope.cpp:38: hand-rolled checksum framing",
            "4 finding(s)",
        ],
        [],
    ),
}


def run_case(fixture: str) -> list[str]:
    expect_rc, must, must_not = CASES[fixture]
    proc = subprocess.run(
        [
            sys.executable,
            LINT,
            "--root",
            ROOT,
            "--src",
            os.path.join(FIXDIR, fixture),
        ],
        capture_output=True,
        text=True,
    )
    out = proc.stdout + proc.stderr
    errors = []
    if proc.returncode != expect_rc:
        errors.append(
            f"{fixture}: exit {proc.returncode}, expected {expect_rc}\n{out}"
        )
    for s in must:
        if s not in out:
            errors.append(f"{fixture}: expected output to contain {s!r}\n{out}")
    for s in must_not:
        # The trailing summary line always contains "finding(s)"; the clean
        # fixture asserts on the zero count instead.
        if fixture == "good_clean.h" and s == "finding":
            if "0 finding(s)" not in out:
                errors.append(f"{fixture}: expected 0 findings\n{out}")
            continue
        if s in out:
            errors.append(f"{fixture}: output must not contain {s!r}\n{out}")
    return errors


# Format-version gate cases: edits applied to gate_walk_v1.h -> (expected
# exit code, substrings the gate must print). The base revision is
# gate_walk_v1.h itself, committed as src/sim/wire.h in a scratch repository.
GATE_BASE = "gate_walk_v1.h"
REORDER = ("ar.io(a, b, c, t)", "ar.io(b, a, c, t)")
GATE_CASES = {
    (): (0, ["all serialized-layout domains clean"]),
    (REORDER,): (1, ["domain 'daemon'", "changed roots: Message",
                     "kProtocolVersion"]),
    # The same change with the version bumped is accepted.
    (REORDER, ("kProtocolVersion = 1", "kProtocolVersion = 2")): (
        0, ["domain 'daemon'", "1 -> 2"]),
    (("std::uint32_t a = 0", "std::uint64_t a = 0"),): (
        1, ["domain 'daemon'", "changed roots: Message"]),
    (("uint32_t, 2> c", "uint32_t, 4> c"),): (
        1, ["domain 'daemon'", "changed roots: Message"]),
    # A resized pad moves every later byte of the memcpy'd record.
    (("_pad[3]", "_pad[7]"),): (
        1, ["domain 'daemon'", "changed roots: Message"]),
    # An explicit pad filling an implicit hole leaves every byte in place.
    (("std::uint8_t _pad[3] = {};", ""),): (
        0, ["all serialized-layout domains clean"]),
    # An argument the gate cannot resolve is fingerprinted by its text.
    (("ar.io(a, b, c, t)", "ar.io(a, b, c, t, extra())"),): (
        1, ["domain 'daemon'", "changed roots: Message"]),
}


def run_gate_cases() -> list[str]:
    """Exercise check_format_version.py end to end in a scratch git repo."""
    if shutil.which("git") is None:
        print("lint-selftest: gate: skipped (no git)")
        return []
    errors: list[str] = []
    fixdir = os.path.join(ROOT, FIXDIR)
    with tempfile.TemporaryDirectory(prefix="mflush-gate-") as tmp:
        wire = os.path.join(tmp, "src", "sim", "wire.h")
        os.makedirs(os.path.dirname(wire))

        def git(*args: str) -> None:
            subprocess.run(
                ["git", "-C", tmp, *args],
                check=True,
                capture_output=True,
                env={
                    **os.environ,
                    "GIT_AUTHOR_NAME": "selftest",
                    "GIT_AUTHOR_EMAIL": "selftest@localhost",
                    "GIT_COMMITTER_NAME": "selftest",
                    "GIT_COMMITTER_EMAIL": "selftest@localhost",
                },
            )

        git("init", "-q")
        with open(os.path.join(fixdir, GATE_BASE)) as f:
            base = f.read()
        with open(wire, "w") as f:
            f.write(base)
        git("add", "src/sim/wire.h")
        git("commit", "-q", "-m", "base")

        for edits, (expect_rc, must) in GATE_CASES.items():
            text = base
            for old, new in edits:
                assert old in text, old
                text = text.replace(old, new)
            fixture = GATE_BASE
            if edits:
                fixture += " [" + "; ".join(f"{o} -> {n}" for o, n in edits) + "]"
            with open(wire, "w") as f:
                f.write(text)
            proc = subprocess.run(
                [sys.executable, GATE, "--base", "HEAD", "--root", tmp],
                capture_output=True,
                text=True,
            )
            out = proc.stdout + proc.stderr
            if proc.returncode != expect_rc:
                errors.append(
                    f"gate/{fixture}: exit {proc.returncode}, expected "
                    f"{expect_rc}\n{out}"
                )
            for s in must:
                if s not in out:
                    errors.append(
                        f"gate/{fixture}: expected output to contain "
                        f"{s!r}\n{out}"
                    )
            status = "ok" if proc.returncode == expect_rc else "FAIL"
            print(f"lint-selftest: gate/{fixture}: {status}")
    return errors


def main(argv: list[str]) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)

    failures: list[str] = []
    for fixture in sorted(CASES):
        errs = run_case(fixture)
        status = "ok" if not errs else "FAIL"
        print(f"lint-selftest: {fixture}: {status}")
        failures.extend(errs)
    failures.extend(run_gate_cases())
    for f in failures:
        print(f"lint-selftest: {f}", file=sys.stderr)
    print(
        f"lint-selftest: {len(CASES) + len(GATE_CASES)} fixtures, "
        f"{len(failures)} failure(s)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
