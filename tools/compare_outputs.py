"""Compare the outputs of the stripdamp command line on two checkouts.

    python3 tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are roots of two checkouts of this repository, for
example a `git archive` of the parent commit and the working tree. In each,
one after the other and at OPENBLAS_NUM_THREADS=1, the tool runs the
checkout's own `src` on:

* `verify-all`;
* `eigen-sweep`, `quasimode-sweep --dump-profiles`, `resolvent-scan
  --dump-operator`, `evolve` and `cap-solve`, each at `--beta 0`, `1`
  and `2`.

Every file the runs write, and each run's standard output and exit code,
is then compared between the two sides. A file is "identical" or gets the
largest relative change |a - b| / max(|a|, |b|) of each column that
changed: the named columns of a CSV, the whitespace-separated fields of any
other file (so the row, column and value fields of a `.mtx` dump). A field
that is not a number and differs is reported as "differs". The eight timing
lines of `summary.txt` (the Airy comparison's "in ...s", `cap oracle
runtime`, `eigen sweep runtime` and `resolvent scan runtime` at each beta)
have their seconds masked, in the file and in the printed output;
`manifest.json` holds wall times and is skipped. The outputs stay in a
temporary directory whose path is printed. Exit status: 0 if every output
is identical, 1 otherwise.

The tool uses only the standard library.
"""

import csv
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

JOBS = [("verify-all", ["verify-all"])] + [
    (f"{cmd}-beta{beta}", [cmd, "--beta", beta] + extra)
    for cmd, extra in (("eigen-sweep", []), ("quasimode-sweep", ["--dump-profiles"]),
                       ("resolvent-scan", ["--dump-operator"]), ("evolve", []),
                       ("cap-solve", []))
    for beta in ("0", "1", "2")
]
TIMING = re.compile(r"(cap boundary value vs Airy closed form|runtime \(beta=|cap oracle runtime)")
SECONDS = re.compile(r"\d+(\.\d+)?s\b")


def run(root: Path, out: Path):
    """Run every job on the checkout at root, writing under out."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(root / "src"))
    out.mkdir(parents=True)
    for name, argv in JOBS:
        # a relative --out-dir makes the printed paths the same on both sides
        proc = subprocess.run([sys.executable, "-m", "stripdamp.cli", "--out-dir", name] + argv,
                              cwd=out, env=env, capture_output=True, text=True)
        (out / f"{name}.stdout").write_text(
            proc.stdout + proc.stderr + f"exit code {proc.returncode}\n", encoding="utf-8")
        print(f"  {root.name}: {name} exit {proc.returncode}", file=sys.stderr)


def masked(text: str) -> str:
    return "\n".join(SECONDS.sub("<t>s", line) if TIMING.search(line) else line
                     for line in text.split("\n"))


def number(field: str):
    for kind in (float, complex):
        try:
            return kind(field)
        except ValueError:
            pass
    return None


def columns(path: Path, text: str):
    """(names, rows): a CSV's header and rows, or whitespace fields of any file."""
    lines = text.splitlines()
    if path.suffix == ".csv" and lines:
        rows = list(csv.reader(lines))
        return rows[0], rows[1:]
    rows = [line.split() for line in lines]
    width = max((len(r) for r in rows), default=0)
    return [f"field{i + 1}" for i in range(width)], rows


def change(path: Path, a: str, b: str) -> str:
    """'identical', or the largest relative change of each changed column."""
    if a == b:
        return "identical"
    names_a, rows_a = columns(path, a)
    names_b, rows_b = columns(path, b)
    if names_a != names_b or len(rows_a) != len(rows_b):
        return f"differs in shape ({len(rows_a)} -> {len(rows_b)} rows)"
    worst = {}
    for ra, rb in zip(rows_a, rows_b):
        if len(ra) != len(rb):
            return "differs in shape (a row changed its field count)"
        for name, fa, fb in zip(names_a, ra, rb):
            if fa == fb:
                continue
            x, y = number(fa), number(fb)
            if x is None or y is None:
                worst[name] = float("inf")
                continue
            scale = max(abs(x), abs(y))
            worst[name] = max(worst.get(name, 0.0), abs(x - y) / scale if scale else 0.0)
    return ", ".join(f"{name} {'differs' if rel == float('inf') else f'{rel:.3g}'}"
                     for name, rel in worst.items())


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    roots = [Path(p).resolve() for p in argv]
    work = Path(tempfile.mkdtemp(prefix="compare_outputs-"))
    sides = [work / "parent", work / "change"]
    for root, out in zip(roots, sides):
        run(root, out)
    files = sorted({p.relative_to(side) for side in sides for p in side.rglob("*")
                    if p.is_file()})
    all_same = True
    for rel in files:
        if rel.name == "manifest.json":
            print(f"{rel}: skipped (wall times)")
            continue
        a, b = (side / rel for side in sides)
        if not (a.is_file() and b.is_file()):
            print(f"{rel}: only in {'PARENT' if a.is_file() else 'CHANGE'}")
            all_same = False
            continue
        ta, tb = (p.read_text(encoding="utf-8") for p in (a, b))
        note = ""
        if rel.name == "summary.txt" or rel.suffix == ".stdout":
            ma, mb = masked(ta), masked(tb)
            if (ma, mb) != (ta, tb):
                note = " (timing lines masked)"
            ta, tb = ma, mb
        result = change(rel, ta, tb)
        all_same &= result == "identical"
        print(f"{rel}: {result}{note}")
    print(f"outputs in {work}")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
