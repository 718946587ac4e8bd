"""Alternating A/B measurement of a base revision against this checkout.

    python3 tools/ab.py --base HEAD~1 --workload presets mesh --pairs 10
    python3 tools/ab.py --base HEAD~1 --pairs 5 \\
        --cmd "python -m dsm run --preset exp1 --n-points 100000 --delta-rel 0.01 --seeds 1"

The base side is ``--base`` REV, exported with a local ``git worktree add
--detach`` into a temporary directory and removed again (with a ``git
worktree prune``) on every exit.  The change side is the checkout this file
runs from, uncommitted edits included.

Each run is a fresh process started in its side's tree.  The side that runs
first alternates from pair to pair, starting with the base, and several
workloads interleave pair by pair.  ``--workload`` runs the tree's own
``benchmarks/run.py --seed 0 --trace 0 --seconds S`` (S defaults to
``BENCHMARK.json``'s ``run_seconds``) and reads the metrics of its last
stdout line; ``--cmd`` times the command's wall clock as ``wall_s``, with
``PYTHONPATH=<tree>/src``.

Every pair is printed, then, for each workload and metric, each side's median
and quartiles, the base's interquartile range over its median and the pairs
the change won (ties count for neither side).  ``--out DIR`` writes one
``BENCH_<workload>.json`` per workload (``BENCH_cmd.json`` for ``--cmd``) in
the layout of the committed files.  The tool decides no verdict.
"""

import argparse
import contextlib
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
CMD = "cmd"


def _git(*args):
    return subprocess.run(
        ["git", "-C", ROOT, *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def _run(argv, **kwargs):
    # a run and whatever it starts share one process group, killed with it
    # on any exit of the tool; its stderr passes through
    with subprocess.Popen(argv, start_new_session=True, **kwargs) as process:
        try:
            out, _ = process.communicate()
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(process.pid, signal.SIGKILL)
            raise
    return process.returncode, out


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _workload_run(tree, workload, seconds):
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload,
            "--seed", "0", "--trace", "0", "--seconds", str(seconds)]
    code, out = _run(argv, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    run = {
        "machine": next((line for line in lines if line.startswith("# machine:")), None),
        "notes": [line for line in lines
                  if line.startswith("#") and not line.startswith("# machine:")],
        "exit": code,
        "final": None,
    }
    try:
        run["final"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        pass
    return run


def _cmd_run(tree, argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    start = time.perf_counter()
    code, _ = _run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    return {"exit": code,
            "final": {"metrics": {"wall_s": {"value": wall, "unit": "s"}}}}


def _value(run, metric):
    try:
        return run["final"]["metrics"][metric]["value"]
    except (KeyError, TypeError):
        return None


def _summary(pairs, metrics):
    """Per metric: each side's median, quartiles and range, the base IQR over
    its median, and the pairs the change won and lost, over the pairs where
    both sides report the metric."""
    out = {}
    for spec in metrics:
        name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0
        both = [tuple(_value(p[side], name) for side in SIDES) for p in pairs]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        if not both:
            continue
        entry = {"unit": spec["unit"], "bound": spec.get("bound")}
        for side, values in zip(SIDES, map(list, zip(*both))):
            q1, q3 = _quartiles(values)
            entry[side] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                           "min": min(values), "max": max(values)}
        base, change = entry["parent"]["median"], entry["change"]["median"]
        entry["change_over_parent_median"] = change / base - 1.0 if base else None
        entry["pairs"] = len(both)
        entry["pairs_change_better"] = sum(sign * (b - a) < 0 for a, b in both)
        entry["pairs_change_worse"] = sum(sign * (b - a) > 0 for a, b in both)
        iqr = entry["parent"]["q3"] - entry["parent"]["q1"]
        entry["parent_iqr_over_median"] = iqr / base if base else None
        out[name] = entry
    return {"all": out}


def _print_pair(label, pair, metrics):
    cells = []
    for spec in metrics:
        base, change = (_value(pair[side], spec["name"]) for side in SIDES)
        cells.append(f"{spec['name']} {base:.6g} / {change:.6g}"
                     if base is not None and change is not None else f"{spec['name']} -")
    exits = "" if pair["parent"]["exit"] == pair["change"]["exit"] == 0 else (
        f"  exit {pair['parent']['exit']} / {pair['change']['exit']}")
    first = "base" if pair["first"] == "parent" else "change"
    print(f"pair {pair['pair']} {label}, {first} first: "
          f"base / change: {', '.join(cells)}{exits}", flush=True)


def _print_summary(label, summary):
    for name, entry in summary["all"].items():
        base, change = entry["parent"], entry["change"]
        ratio = entry["parent_iqr_over_median"]
        print(f"{label} {name} [{entry['unit']}]: "
              f"base median {base['median']:.6g} (q1 {base['q1']:.6g}, q3 {base['q3']:.6g}); "
              f"change median {change['median']:.6g} "
              f"(q1 {change['q1']:.6g}, q3 {change['q3']:.6g}); "
              f"base IQR/median {'-' if ratio is None else f'{ratio:.3g}'}; "
              f"change won {entry['pairs_change_better']} of {entry['pairs']} pairs, "
              f"lost {entry['pairs_change_worse']}")


def _measure(args, base_tree, spec):
    trees = {"parent": base_tree, "change": ROOT}
    if args.cmd is not None:
        argv = shlex.split(args.cmd)
        labels = [CMD]
        metrics = [{"name": "wall_s", "unit": "s", "better": "lower"}]
    else:
        labels = args.workload
        metrics = spec["end_to_end"]
    pairs = {label: [] for label in labels}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for label in labels:
            pair = {"series": 1, "pair": i, "first": order[0]}
            for side in order:
                pair[side] = (_cmd_run(trees[side], argv) if label == CMD
                              else _workload_run(trees[side], label, args.seconds))
            pairs[label].append(pair)
            _print_pair(label, pair, metrics)
    return {label: (pairs[label], _summary(pairs[label], metrics)) for label in labels}


def _layout(args, label, pairs, summary, parent_rev, change):
    workload = label != CMD
    return {
        "workload": label,
        "command": args.cmd if not workload else (
            f"python3 benchmarks/run.py --workload {label} --seed 0 --trace 0 "
            f"--seconds {args.seconds:g}"),
        "seconds": args.seconds if workload else None,
        "parent_rev": parent_rev,
        "change": change,
        "protocol": (
            "alternating pairs made by tools/ab.py, each run a fresh process in its own "
            "tree of its side (the parent in a git worktree); 'first' names the side that "
            "ran first in a pair, the parent first in pair 0"
            + ("; 'final' is the run's last stdout line and 'notes' its other '#' lines"
               if workload else "; 'final' holds the command's wall clock")
            + f"; the pairs of {', '.join(args.workload or [CMD])} were run interleaved, "
            "pair by pair"
        ),
        "pairs": pairs,
        "summary": summary,
    }


def _raise_exit(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the revision to compare against")
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", nargs="+",
                      choices=[w["name"] for w in spec["workloads"]])
    what.add_argument("--cmd", help="a command to time in each tree, PYTHONPATH=<tree>/src")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="benchmarks/run.py --seconds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--out", help="a directory to write BENCH_<workload>.json files into")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.workload and len(set(args.workload)) < len(args.workload):
        parser.error("--workload names a workload twice")

    try:
        parent_rev = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError as err:
        parser.error(f"--base {args.base!r} is not a commit: {err.stderr.strip()}")
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    change = f"the working tree at {_git('rev-parse', 'HEAD')}" + (
        " with uncommitted edits" if dirty else "")

    signal.signal(signal.SIGTERM, _raise_exit)
    base_tree = tempfile.mkdtemp(prefix="ab-base-")
    try:
        _git("worktree", "add", "--detach", base_tree, parent_rev)
        results = _measure(args, base_tree, spec)
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", base_tree],
                       capture_output=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"], capture_output=True)
        shutil.rmtree(base_tree, ignore_errors=True)

    for label, (pairs, summary) in results.items():
        _print_summary(label, summary)
        if args.out is not None:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"BENCH_{label}.json")
            with open(path, "w") as fh:
                json.dump(_layout(args, label, pairs, summary, parent_rev, change),
                          fh, indent=1)
                fh.write("\n")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
