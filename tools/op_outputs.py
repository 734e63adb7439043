"""Record the outputs of every benchmark operation, and compare two records.

Usage, from the root of a checkout:

    python3 tools/op_outputs.py record before.json --seeds 1 2 [--src OTHER/src]
    python3 tools/op_outputs.py compare before.json after.json

``record`` generates each workload's warm-up operation and one pass of its
operations from ``perfbench/workloads.py`` for every seed given, runs them in
order through ``laplaceqm.cli.main`` in this process, and writes each one's
exit code, stdout and stderr to a JSON file.  The package is imported from
``--src`` (default: this checkout's ``src/``), so one checkout can record
another's outputs.  Every warning is shown at every call (the "always"
filter), so what stderr holds does not depend on the order of operations.

``compare`` reports every operation whose exit code or stdout differs, and
every one whose stderr differs in more than the location of a warning (the
``file:line:`` prefix of a warning line and the source line printed under
it).  It exits 0 when nothing else differs, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WARNING_LINE = re.compile(r"^\S.*:\d+: (\w+): ")


def record(path: Path, seeds, src: Path) -> int:
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    from laplaceqm import cli
    from workloads import WORKLOADS, generate

    ops = []
    for workload in WORKLOADS:
        for seed in seeds:
            warm, rest = generate(workload, seed)
            for op in [warm, *rest]:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                        warnings.catch_warnings():
                    warnings.simplefilter("always")
                    try:
                        code = cli.main(list(op.argv))
                    except Exception:  # a crash is recorded, not raised
                        traceback.print_exc()
                        code = 1
                ops.append({"workload": workload, "seed": seed, "argv": list(op.argv),
                            "code": code, "stdout": out.getvalue(),
                            "stderr": err.getvalue()})
    path.write_text(json.dumps({"src": str(src), "ops": ops}, indent=1) + "\n")
    print(f"{len(ops)} operations recorded to {path}")
    return 0


def _without_locations(stderr: str):
    """stderr's lines with each warning's location prefix and source line dropped."""
    lines, after_warning = [], False
    for line in stderr.splitlines():
        if after_warning and line.startswith("  "):
            after_warning = False
            continue
        match = WARNING_LINE.match(line)
        after_warning = match is not None
        lines.append(line[match.start(1):] if match else line)
    return lines


def compare(before: Path, after: Path) -> int:
    a, b = (json.loads(p.read_text())["ops"] for p in (before, after))
    if [op["argv"] for op in a] != [op["argv"] for op in b]:
        print("the two records hold different operations")
        return 1
    differ = stderr_moved = 0
    for x, y in zip(a, b):
        what = [field for field in ("code", "stdout") if x[field] != y[field]]
        if _without_locations(x["stderr"]) != _without_locations(y["stderr"]):
            what.append("stderr")
        elif x["stderr"] != y["stderr"]:
            stderr_moved += 1
        if what:
            differ += 1
            print(f"{x['workload']} seed {x['seed']}: {' '.join(x['argv'])}: "
                  f"{', '.join(what)} differ")
    print(f"{len(a)} operations: {differ} differ; {stderr_moved} more differ only "
          "in the locations of their warnings")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run every operation and write its outputs")
    rec.add_argument("out", type=Path)
    rec.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    rec.add_argument("--src", type=Path, default=ROOT / "src")
    cmp_ = sub.add_parser("compare", help="compare two records")
    cmp_.add_argument("before", type=Path)
    cmp_.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    if args.command == "record":
        return record(args.out, args.seeds, args.src.resolve())
    return compare(args.before, args.after)


if __name__ == "__main__":
    sys.exit(main())
