"""Mutation score of one module: a fixed-seed sample of one-operator mutants against named tests.

    python3 tools/mutate.py tools/mutation/handoff.json            # run and print
    python3 tools/mutate.py tools/mutation/handoff.json --check    # exit 1 on an unmarked survivor
    python3 tools/mutate.py tools/mutation/handoff.json --write    # store the run as the record
    python3 tools/mutate.py tools/mutation/handoff_all.json        # every site (share 1)

The record names the module, the test files, the sample seed and the share
of each function's sites to sample, and keeps the last recorded score with
its survivors, each marked "equivalent" (no input can tell it apart) or
"gap" (a test could, and none does). A survivor is matched to the record by
its function and its source text before and after, not by line. `--check`
fails iff a mutant survives that the record does not mark equivalent, so a
change to the module's sites, which draws a different sample, fails it only
when a kill is lost. A mutant makes one change: a comparison
flipped (< and <=, > and >=, == and !=, is and is not, in and not in), + and
-, * and //, `and` and `or`, or an int constant + 1. Sites are sampled per
enclosing top-level function, so every function that has one is covered.

Each mutant is the module's syntax tree unparsed with that one change, in a
copy of src/ and tests/, and runs the tests with pytest -x, a fixed
hypothesis seed, no hypothesis database and the `mutation` hypothesis
profile of tests/conftest.py, which does not shrink a failing example (a
failure is a kill either way, and a shrink can take a minute). It is killed
when a test fails, or when the run outlives three times the unmutated run (a
mutant that never stops) or its memory cap.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
         ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn,
         ast.NotIn: ast.In, ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
         ast.FloorDiv: ast.Mult, ast.And: ast.Or, ast.Or: ast.And}
MEMORY_CAP = 1 << 30  # bytes of address space a mutant's test run may map
JOBS = min(4, len(os.sched_getaffinity(0)))  # mutants tested at once, each in its own copy


def sites(tree):
    """(top-level name, node, op index or None) of every mutable spot, in walk order."""
    found = []
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Compare):
                found += [(name, node, k) for k, op in enumerate(node.ops) if type(op) in SWAPS]
            elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
                if type(node.op) in SWAPS:
                    found.append((name, node, None))
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                found.append((name, node, None))
    return found


def mutate(node, k):
    """Apply the site's one change in place."""
    if isinstance(node, ast.Compare):
        node.ops[k] = SWAPS[type(node.ops[k])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAPS[type(node.op)]()


def sample(source, seed, share):
    """Indices into `sites` of the sample: ceil(share × n) of each function's n sites."""
    by_name = {}
    for i, (name, _, _) in enumerate(sites(ast.parse(source))):
        by_name.setdefault(name, []).append(i)
    rng = random.Random(seed)
    return sorted(i for idx in by_name.values()
                  for i in rng.sample(idx, math.ceil(share * len(idx))))


def mutant(source, i):
    """(source of mutant i, its description: function, line, expression before and after)."""
    tree = ast.parse(source)
    name, node, k = sites(tree)[i]
    shown = node
    if isinstance(node, ast.Constant):  # a number alone says too little: show its expression
        shown = next((p for p in ast.walk(tree)
                      if node in ast.iter_child_nodes(p) and hasattr(p, "lineno")), node)
    before = ast.get_source_segment(source, shown)
    mutate(node, k)
    return ast.unparse(tree), {"function": name, "line": shown.lineno, "before": before,
                               "after": ast.unparse(shown)}


def marked(record, passed):
    """Each surviving mutant's description in `passed`, with the record's verdict and reason.

    A survivor the record does not list is "NEW".
    """
    known = {(s["function"], s["before"], s["after"]): s for s in record.get("survivors", [])}
    out = []
    for what in passed:
        old = known.get((what["function"], what["before"], what["after"]), {})
        out.append({**what, "verdict": old.get("verdict", "NEW"), "why": old.get("why", "")})
    return out


def cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_tests(copy, tests, timeout):
    """'passed', 'failed' or 'timeout' for the tests in `copy`."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # the copy's src/ only
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", "--hypothesis-profile=mutation", *tests],
            cwd=copy, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout,
            preexec_fn=cap_memory, env=env)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def copy_tree(dest, module, text):
    """src/, tests/ and pyproject.toml copied under `dest`, with `module` holding `text`."""
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", dest)
    (dest / module).write_text(text)
    return dest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("record", type=Path)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--check", action="store_true",
                       help="exit 1 if a survivor is not marked equivalent in the record")
    group.add_argument("--write", action="store_true", help="store this run as the record")
    args = parser.parse_args(argv)
    record = json.loads(args.record.read_text())
    module, tests = record["module"], record["tests"]
    source = (ROOT / module).read_text()
    picked = sample(source, record["seed"], record["share"])
    outcomes = {}  # sample index -> (description, outcome)

    def work(copy, chunk, timeout):
        for i in chunk:
            text, what = mutant(source, i)
            (copy / module).write_text(text)
            start = time.perf_counter()
            outcomes[i] = what, run_tests(copy, tests, timeout)
            print(f"{outcomes[i][1]:7} {time.perf_counter() - start:5.1f}s {what['function']}:"
                  f"{what['line']} {what['before']!r} -> {what['after']!r}\n", end="", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        copies = [copy_tree(Path(tmp) / str(j), module, ast.unparse(ast.parse(source)))
                  for j in range(JOBS)]
        start = time.perf_counter()
        if run_tests(copies[0], tests, None) != "passed":
            sys.exit("the unmutated module fails its tests")
        timeout = 3 * (time.perf_counter() - start) + 5
        with ThreadPoolExecutor(JOBS) as pool:  # each thread waits on its own copy's pytest
            for done in [pool.submit(work, copy, picked[j::JOBS], timeout)
                         for j, copy in enumerate(copies)]:
                done.result()
    survivors = marked(record, [outcomes[i][0] for i in picked if outcomes[i][1] == "passed"])
    killed = len(picked) - len(survivors)
    print(f"{module}: {killed} of {len(picked)} mutants killed")
    for s in survivors:
        print(f"  survivor ({s['verdict']}) {s['function']}:{s['line']} "
              f"{s['before']!r} -> {s['after']!r}")
    if args.write:
        record.update(killed=killed, sampled=len(picked), survivors=survivors)
        args.record.write_text(json.dumps(record, indent=2, ensure_ascii=False) + "\n")
    unmarked = [s for s in survivors if s["verdict"] != "equivalent"]
    if args.check and unmarked:
        sys.exit(f"{len(unmarked)} survivor(s) not marked equivalent in {args.record}")


if __name__ == "__main__":
    main()
