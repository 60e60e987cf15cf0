#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. The OCaml build's
output goes to stderr, so the last line of stdout is the result JSON
printed by perfbench.exe. Exits non-zero without a result when the
checkout cannot be built.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def source_rev():
    """The git revision, or a hash of the sources when there is no git."""
    # Only this checkout's own .git: git would otherwise walk up into
    # whatever repository happens to contain the checkout.
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, check=True, timeout=10,
            )
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if "__pycache__" in p:
                continue
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def main():
    os.chdir(ROOT)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no dune-project and lib/ here; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    # The shared dune cache lives outside the checkout; keep every write
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/perfbench.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    sys.stdout.flush()
    return subprocess.run([EXE, *sys.argv[1:], "--rev", source_rev()]).returncode


if __name__ == "__main__":
    sys.exit(main())
