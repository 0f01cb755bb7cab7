#!/usr/bin/env python3
"""Summary of a tools/ab.sh comparison:

    tools/ab_summary.py BENCHMARK.json RESULTS.jsonl BASE_REV HEAD_REV PAIRS SECONDS

RESULTS.jsonl holds one line per run, as tools/ab.sh writes them:
{"side": "base"|"head", "workload", "seed", "record", "result"}.

For each workload and side it prints the median and quartiles of every
end-to-end metric, failed/attempted ops, whether the answer digests agree
seed by seed, and the host facts of the runs. Each (metric, workload) gets
a verdict, with the bound BENCHMARK.json fixes:
  regressed   HEAD's median is worse than BASE's by more than the bound;
  ok          HEAD reads better in every run than BASE in every run;
  unresolved  either side's quartile spread, relative to its median, is
              wider than the bound, so the medians cannot tell;
  ok          otherwise.
The "head wins" column counts the pairs (same seed on both sides) in which
HEAD reads better, k of n (ties count for neither side), and marks "gain"
when HEAD wins at least 9 in 10 pairs and its median is better than
BASE's by more than BASE's interquartile distance: what a claimed gain
must show.

Exit status: 0 when nothing regressed, 1 when a metric regressed, 3 on a
failed op, a missing result or differing digests.
"""
import json
import statistics
import sys


def quartiles(xs):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def pair_wins(by_seed, lower):
    """HEAD's wins and the number of pairs, over seeds both sides ran."""
    seeds = sorted(set(by_seed["base"]) & set(by_seed["head"]))
    wins = sum(1 for s in seeds
               if (by_seed["head"][s] < by_seed["base"][s] if lower
                   else by_seed["head"][s] > by_seed["base"][s]))
    return wins, len(seeds)


def main(argv):
    bench_path, results_path, base_rev, head_rev, pairs, seconds = argv[1:]
    bench = json.load(open(bench_path))
    runs = [json.loads(l) for l in open(results_path) if l.strip()]

    print(f"A/B on {pairs} pair(s) of {seconds} s runs per workload")
    print(f"  base {base_rev}")
    print(f"  head {head_rev}")
    broken = False
    regressed = False
    for w in bench["workloads"]:
        name = w["name"]
        print(f"\n== {name}")
        by_side = {s: [r for r in runs
                       if r["workload"] == name and r["side"] == s]
                   for s in ("base", "head")}
        for side, rs in by_side.items():
            done = [r for r in rs if r["result"] is not None]
            if len(done) < len(rs):
                print(f"  {side}: {len(rs) - len(done)} run(s) printed no result")
                broken = True
            failed = sum(r["result"]["failed"] for r in done)
            attempted = sum(r["result"]["attempted"] for r in done)
            if failed or any(not r["result"]["correct"] for r in done):
                broken = True
            hosts = {json.dumps({k: r["record"]["host"][k] for k in
                                 ("nproc", "cpu_model", "build_type",
                                  "merch_obs", "compiler", "git_sha")},
                                sort_keys=True)
                     for r in done}
            loads = [r["record"]["host"]["loadavg_before"][0] for r in done]
            print(f"  {side}: failed/attempted ops {failed}/{attempted}")
            for h in sorted(hosts):
                print(f"  {side}: host {h}")
            if loads:
                print(f"  {side}: 1-min load before runs "
                      f"{min(loads):.2f}..{max(loads):.2f}")
        digests = {s: {r["seed"]: r["record"]["digest"] for r in rs
                       if r["record"] is not None}
                   for s, rs in by_side.items()}
        seeds = sorted(set(digests["base"]) | set(digests["head"]))
        differ = [s for s in seeds
                  if digests["base"].get(s) != digests["head"].get(s)]
        if differ:
            broken = True
            print(f"  answer digests DIFFER on seeds {differ}")
        else:
            print(f"  answer digests identical on seeds {seeds}")
        print(f"  {'metric':<12} {'base median [q1, q3]':<30} "
              f"{'head median [q1, q3]':<30} {'change':>8}  "
              f"{'head wins':<11} verdict")
        for m in bench["end_to_end"]:
            metric, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            by_seed = {s: {r["seed"]: r["result"]["metrics"][metric]["value"]
                           for r in rs if r["result"] is not None
                           and metric in r["result"]["metrics"]}
                       for s, rs in by_side.items()}
            vals = {s: list(v.values()) for s, v in by_seed.items()}
            if not vals["base"] or not vals["head"]:
                print(f"  {metric:<12} no values")
                broken = True
                continue
            qb, qh = quartiles(vals["base"]), quartiles(vals["head"])
            pb, ph = qb[1], qh[1]
            worse = ((ph - pb) if lower else (pb - ph)) / pb if pb else 0.0
            spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0
                         for q in (qb, qh))
            dominates = (max(vals["head"]) < min(vals["base"]) if lower
                         else min(vals["head"]) > max(vals["base"]))
            if worse > bound:
                verdict = f"regressed (bound {bound:g})"
                regressed = True
            elif dominates:
                verdict = "ok (head better in every run)"
            elif spread > bound:
                verdict = f"unresolved (spread {spread:.3f} > bound {bound:g})"
            else:
                verdict = f"ok (bound {bound:g}, spread {spread:.3f})"
            wins, n = pair_wins(by_seed, lower)
            better_by = (pb - ph) if lower else (ph - pb)
            gain = n > 0 and 10 * wins >= 9 * n and better_by > qb[2] - qb[0]
            wins_col = f"{wins}/{n}" + (" gain" if gain else "")
            fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
            print(f"  {metric:<12} {fmt(qb):<30} {fmt(qh):<30} "
                  f"{(ph - pb) / pb * 100 if pb else 0:+7.1f}%  "
                  f"{wins_col:<11} {verdict}")
    if broken:
        print("\nverdict: FAILED (a failed op, a missing result or differing "
              "digests)")
    elif regressed:
        print("\nverdict: REGRESSED")
    else:
        print("\nverdict: no regression")
    return 3 if broken else 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
