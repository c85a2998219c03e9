#!/usr/bin/env python3
"""Run the committed mutation suite (tests/mutations/mutants.json).

Each entry names a source file, an exact text that occurs in it once,
the text that replaces it, and a `ctest -R` regex. An entry whose bug
takes more than one edit lists them under "edits" instead, each with
its own file, old and new text; they are applied together. The script copies
the committed tree (`git archive HEAD | tar -x`) into a work directory,
builds `pva_tests` once and requires every entry's regex to pass on the
untouched tree. It then applies each entry in turn, rebuilds
incrementally and requires that entry's regex to fail: the tests it
names kill the mutant. The file is restored before the next entry.

    python3 tests/mutations/run_mutations.py            # every entry
    python3 tests/mutations/run_mutations.py NAME ...   # these entries
    python3 tests/mutations/run_mutations.py --work DIR # keep the copy

Exits 0 when the untouched tree passes and every mutant is killed.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
MUTANTS = os.path.join(REPO, "tests", "mutations", "mutants.json")


def run(cmd, **kwargs):
    return subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, **kwargs)


def build(build_dir, jobs):
    r = run(["cmake", "--build", build_dir, "--target", "pva_tests",
             "-j", str(jobs)])
    if r.returncode != 0:
        sys.stdout.write(r.stdout[-4000:])
    return r.returncode == 0


def edits(m):
    """The (file, old, new) edits of entry @p m."""
    return [(e["file"], e["old"], e["new"]) for e in m.get("edits", [m])]


def ctest(build_dir, regex):
    """True iff every test matching @p regex passes (and one matches)."""
    r = run(["ctest", "--test-dir", build_dir, "-R", regex,
             "--no-tests=error", "--timeout", "300"])
    return r.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("names", nargs="*", help="entries to run (default all)")
    ap.add_argument("--work", help="work directory (default: a fresh "
                    "temporary directory)")
    ap.add_argument("-j", "--jobs", type=int, default=os.cpu_count() or 1,
                    help="build jobs")
    args = ap.parse_args()

    with open(MUTANTS) as f:
        mutants = json.load(f)
    if args.names:
        unknown = set(args.names) - {m["name"] for m in mutants}
        if unknown:
            sys.exit("unknown entries: " + ", ".join(sorted(unknown)))
        mutants = [m for m in mutants if m["name"] in args.names]

    work = args.work or tempfile.mkdtemp(prefix="pva-mutations-")
    tree = os.path.join(work, "tree")
    build_dir = os.path.join(tree, "build")
    os.makedirs(tree, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", REPO, "archive", "HEAD"],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        sys.exit("git archive HEAD failed")

    # Every entry must apply to the committed source exactly once.
    originals = {}
    for m in mutants:
        for name, old, _ in edits(m):
            if name not in originals:
                with open(os.path.join(tree, name)) as f:
                    originals[name] = f.read()
            count = originals[name].count(old)
            if count != 1:
                sys.exit("%s: its old text occurs %d times in %s"
                         % (m["name"], count, name))

    print("building pva_tests in", build_dir, flush=True)
    r = run(["cmake", "-S", tree, "-B", build_dir])
    if r.returncode != 0 or not build(build_dir, args.jobs):
        sys.stdout.write(r.stdout[-4000:])
        sys.exit("the untouched tree does not build")
    for regex in sorted({m["kills"] for m in mutants}):
        if not ctest(build_dir, regex):
            sys.exit("the untouched tree fails ctest -R '%s'" % regex)
    print("untouched tree passes every regex", flush=True)

    survivors = []
    for m in mutants:
        start = time.time()
        mutated = {}
        for name, old, new in edits(m):
            mutated[name] = mutated.get(name, originals[name]).replace(
                old, new, 1)
        for name, text in mutated.items():
            with open(os.path.join(tree, name), "w") as f:
                f.write(text)
        try:
            if not build(build_dir, args.jobs):
                verdict = "BUILD FAILED"
            elif ctest(build_dir, m["kills"]):
                verdict = "SURVIVED"
            else:
                verdict = "killed"
        finally:
            for name in mutated:
                with open(os.path.join(tree, name), "w") as f:
                    f.write(originals[name])
        if verdict != "killed":
            survivors.append(m["name"])
        print("%-40s %-13s by %s (%.0f s)" % (m["name"], verdict,
                                              m["kills"],
                                              time.time() - start),
              flush=True)

    if survivors:
        sys.exit("not killed: " + ", ".join(survivors))
    print("all %d mutants killed" % len(mutants))


if __name__ == "__main__":
    main()
