"""Seeded one-line edits of the bundled fixtures, each run through `run_all`.

    PYTHONPATH=src python tests/fixture_edits.py --seed 1 --edits 300

The fixture tree is copied once.  Each edit picks one line of one file
and deletes or duplicates it, changes a digit, swaps two of its words, or
inserts or drops one character; every section (or those named by
`--only`) then runs on the tree, and the file is put back.  A run must
end in `InputError` (exit 2 from the CLI) or in a report whose ids are
all ids of the recorded report.  Any other exception, or an id the
recorded report lacks, is printed with the edit, and the script exits 1.
The last line of output counts the edits by how their run ended.  This
is not a pytest module: CI runs it as its own step, with its seed and
edit count fixed there.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

from srcy import fixtures
from srcy.fileio import InputError
from srcy.verify import run_all

GOLDEN = Path(__file__).parent / "data" / "run_all.json"
CHARS = "0123456789 -,/.x#"


def edit(rng, lines):
    """`lines` with one line changed, and what was done to it."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    line = lines[i]
    how = rng.choice(["delete", "duplicate", "digit", "swap", "insert", "drop"])
    if how == "delete":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, line)
    elif how == "digit":
        digits = [k for k, ch in enumerate(line) if ch.isdigit()]
        if digits:
            k = rng.choice(digits)
            lines[i] = line[:k] + rng.choice("0123456789") + line[k + 1:]
    elif how == "swap":
        words = line.split()
        if len(words) > 1:
            a, b = rng.sample(range(len(words)), 2)
            words[a], words[b] = words[b], words[a]
            lines[i] = " ".join(words)
    elif how == "insert":
        k = rng.randrange(len(line) + 1)
        lines[i] = line[:k] + rng.choice(CHARS) + line[k:]
    elif line:
        k = rng.randrange(len(line))
        lines[i] = line[:k] + line[k + 1:]
    return lines, "%s line %d" % (how, i + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--edits", type=int, required=True)
    parser.add_argument("--only", default=None, help="comma-separated run-all sections")
    args = parser.parse_args(argv)
    only = args.only.split(",") if args.only else None
    golden = {c["id"] for c in json.loads(GOLDEN.read_text())["checks"]}
    rng = random.Random(args.seed)
    counts = {"unchanged": 0, "exit 2": 0, "failed checks": 0, "passed": 0, "faults": 0}
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "data"
        shutil.copytree(fixtures.fixture_dir(), base)
        files = sorted(p.relative_to(base) for p in base.rglob("*") if p.is_file())
        for _ in range(args.edits):
            rel = rng.choice(files)
            text = (base / rel).read_text()
            lines, what = edit(rng, text.splitlines())
            new = "\n".join(lines) + "\n"
            if new == text:
                counts["unchanged"] += 1
                continue
            (base / rel).write_text(new)
            try:
                report = run_all(base=base, only=only)
            except InputError:
                counts["exit 2"] += 1
                continue
            except Exception:  # the fault this script looks for
                counts["faults"] += 1
                print("%s, %s:\n%s" % (rel, what, traceback.format_exc()))
                continue
            finally:
                (base / rel).write_text(text)
            unknown = [r.id for r in report.checks if r.id not in golden]
            if unknown:
                counts["faults"] += 1
                print("%s, %s: ids not in the recorded report: %s" % (rel, what, unknown))
            else:
                counts["passed" if report.ok else "failed checks"] += 1
    print(json.dumps(counts))
    return 1 if counts["faults"] else 0


if __name__ == "__main__":
    sys.exit(main())
