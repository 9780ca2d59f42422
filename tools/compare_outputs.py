"""Compare the outputs of the stripdamp command line on two checkouts.

    python3 tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are roots of two checkouts of this repository, for
example a `git archive` of the parent commit and the working tree. At
OPENBLAS_NUM_THREADS=1 the tool runs each checkout's own `src` on:

* `verify-all`, three times per side in rounds that alternate which side
  goes first;
* `eigen-sweep`, `quasimode-sweep --dump-profiles`, `resolvent-scan
  --dump-operator`, `evolve` and `cap-solve`, each at `--beta 0`, `1`
  and `2`, once per side.

Every file the runs write, and each run's standard output and exit code,
is then compared between the two sides; for `verify-all` that is each
side's first run. A file is "identical" or gets the largest relative change
|a - b| / max(|a|, |b|) of each column that changed: the named columns of a
CSV, the whitespace-separated fields of a `.mtx` dump. A field that is not
a number and differs is reported as "differs". A changed text file
(`summary.txt`, a run's `.stdout`) lists its changed lines, by number and
with both sides' text, up to ten per side. `manifest.json` holds wall
times and stays out of the comparison: in its place the tool prints each
side's `verify-all` stage times (`stage_wall_s`), per stage and in total,
as the median and the runs of its repeats. The outputs stay in a temporary
directory whose path is printed. Exit status: 0 if every output is
identical, 1 otherwise.

The tool uses only the standard library.
"""

import csv
import difflib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

JOBS = [(f"{cmd}-beta{beta}", [cmd, "--beta", beta] + extra)
        for cmd, extra in (("eigen-sweep", []), ("quasimode-sweep", ["--dump-profiles"]),
                           ("resolvent-scan", ["--dump-operator"]), ("evolve", []),
                           ("cap-solve", []))
        for beta in ("0", "1", "2")]
VERIFY = ("verify-all", ["verify-all"])
REPEATS = 3     # verify-all runs per side, for its stage times
TEXT = {".txt", ".stdout"}
MAX_LINES = 10  # changed lines listed per side of a text file


def run(root: Path, out: Path, jobs):
    """Run the jobs on the checkout at root, writing under out."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(root / "src"))
    out.mkdir(parents=True, exist_ok=True)
    for name, argv in jobs:
        # a relative --out-dir makes the printed paths the same on both sides
        proc = subprocess.run([sys.executable, "-m", "stripdamp.cli", "--out-dir", name] + argv,
                              cwd=out, env=env, capture_output=True, text=True)
        (out / f"{name}.stdout").write_text(
            proc.stdout + proc.stderr + f"exit code {proc.returncode}\n", encoding="utf-8")
        print(f"  {root.name}: {name} exit {proc.returncode}", file=sys.stderr)


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


def changed_lines(a: str, b: str) -> str:
    """The changed lines of two texts, by number, with both sides' text."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    gone, added = [], []
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(
            None, lines_a, lines_b, autojunk=False).get_opcodes():
        if tag != "equal":
            gone += [f"  - line {i + 1}: {lines_a[i]}" for i in range(i1, i2)]
            added += [f"  + line {j + 1}: {lines_b[j]}" for j in range(j1, j2)]
    report = [f"{len(gone)} -> {len(added)} lines differ"]
    for side in (gone, added):
        report += side[:MAX_LINES]
        if len(side) > MAX_LINES:
            report.append(f"  ... and {len(side) - MAX_LINES} more")
    return "\n".join(report)


def change(path: Path, a: str, b: str) -> str:
    """'identical', the changed lines of a text file, or the largest
    relative change of each changed column."""
    if a == b:
        return "identical"
    if path.suffix in TEXT:
        return changed_lines(a, b)
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


def stage_times(manifests):
    """Print the verify-all stage_wall_s of both sides: the median and the
    runs of each stage and of the total."""
    walls = [[json.loads(path.read_text(encoding="utf-8"))["stage_wall_s"]
              for path in side if path.is_file()] for side in manifests]
    stages = list(dict.fromkeys(stage for side in walls for w in side for stage in w))
    rows = [(stage, [[w[stage] for w in side if stage in w] for side in walls])
            for stage in stages]
    rows.append(("total", [[sum(w.values()) for w in side] for side in walls]))
    print(f"verify-all manifest.json: not compared; stage wall s over {REPEATS} "
          "alternating runs, median [runs] (parent -> change)")
    for stage, sides in rows:
        print(f"  {stage}: " + " -> ".join(
            f"{statistics.median(v):.2f} [{', '.join(f'{x:.2f}' for x in v)}]" if v else "-"
            for v in sides))


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    roots = [Path(p).resolve() for p in argv]
    work = Path(tempfile.mkdtemp(prefix="compare_outputs-"))
    sides = [work / "parent", work / "change"]
    # verify-all's first round writes into the compared trees, the later
    # rounds beside them, for their stage times only
    outs = [[side] + [work / f"{side.name}-repeat{i}" for i in range(1, REPEATS)]
            for side in sides]
    for i in range(REPEATS):
        for k in ((0, 1) if i % 2 == 0 else (1, 0)):
            run(roots[k], outs[k][i], [VERIFY])
    for root, out in zip(roots, sides):
        run(root, out, JOBS)
    stage_times([[out / "verify-all" / "manifest.json" for out in side] for side in outs])
    files = sorted({p.relative_to(side) for side in sides for p in side.rglob("*")
                    if p.is_file()})
    all_same = True
    for rel in files:
        if rel.name == "manifest.json":
            continue
        a, b = (side / rel for side in sides)
        if not (a.is_file() and b.is_file()):
            print(f"{rel}: only in {'PARENT' if a.is_file() else 'CHANGE'}")
            all_same = False
            continue
        result = change(rel, *(p.read_text(encoding="utf-8") for p in (a, b)))
        all_same &= result == "identical"
        print(f"{rel}: {result}")
    print(f"outputs in {work}")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
