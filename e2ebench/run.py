#!/usr/bin/env python3
"""Build the e2ebench program from the sources in this checkout and run it.

Usage, from the root of the repository:

    python3 e2ebench/run.py --workload serve-http --seed 1 --seconds 10 --trace 0

Every argument is passed on to the program (see README.md). The build
goes to $CARGO_TARGET_DIR (default .bench_build) under the current
directory, together with the Go build cache, so nothing outside the
checkout is written. The build is skipped while the Go sources are
unchanged. A failed build exits non-zero without printing a result.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_hash():
    """Hash every Go source and module file of the repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read() + b"\0")
    return h.hexdigest()[:16]


def commit():
    """The checked-out commit, when the checkout is a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(out_dir, src):
    """Build the program into out_dir unless the sources are unchanged."""
    binary = os.path.join(out_dir, "e2ebench")
    stamp = os.path.join(out_dir, "e2ebench.src")
    if os.path.exists(binary) and os.path.exists(stamp):
        with open(stamp) as f:
            if f.read() == src:
                return binary
    go = shutil.which("go")
    if go is None:
        sys.exit("e2ebench: the go toolchain is not on PATH")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out_dir, "gocache"),
        "GOPATH": os.path.join(out_dir, "gopath"),
        "GOMODCACHE": os.path.join(out_dir, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(out_dir, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(out_dir, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    res = subprocess.run([go, "build", "-trimpath", "-o", binary, "."],
                         cwd=HERE, env=env, stdout=sys.stderr)
    if res.returncode != 0:
        sys.exit("e2ebench: build failed")
    with open(stamp, "w") as f:
        f.write(src)
    return binary


def main():
    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(out_dir, exist_ok=True)
    src = source_hash()
    binary = build(out_dir, src)
    sys.stdout.flush()
    args = [binary] + sys.argv[1:] + ["--commit", commit(), "--source", src]
    os.execv(binary, args)


if __name__ == "__main__":
    main()
