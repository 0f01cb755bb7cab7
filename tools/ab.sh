#!/usr/bin/env bash
# Same-host A/B comparison of two revisions on the end-to-end benchmark:
#
#   tools/ab.sh BASE HEAD [PAIRS [SECONDS]]
#
# Writes each revision (anything `git rev-parse` resolves) into a fresh
# directory under ${TMPDIR:-/tmp} with `git archive`, builds each with
# e2ebench/run.sh into its own CARGO_TARGET_DIR, then runs every workload
# BENCHMARK.json lists PAIRS times (default 10) for SECONDS each (default
# its run_seconds). Pair i runs both sides on seed i, BASE first on odd
# pairs and HEAD first on even ones, so drift over the session lands on
# both sides alike.
#
# For each workload and side it prints the median and quartiles of every
# end-to-end metric, failed/attempted ops, whether the answer digests
# agree seed by seed, and the host facts of the runs. Each (metric,
# workload) gets a verdict, with the bound BENCHMARK.json fixes:
#   regressed   HEAD's median is worse than BASE's by more than the bound;
#   ok          HEAD reads better in every run than BASE in every run;
#   unresolved  either side's quartile spread, relative to its median, is
#               wider than the bound, so the medians cannot tell;
#   ok          otherwise.
#
# Exit status: 0 when nothing regressed, 1 when a metric regressed, 2 on
# a usage error, 3 on a failed op, differing digests, or a build or run
# that did not complete. Raw result lines stay in the work directory,
# whose path is printed first.
set -Eeuo pipefail
trap 'echo "ab.sh: failed at line $LINENO" >&2; exit 3' ERR

if [[ $# -lt 2 || $# -gt 4 ]]; then
  echo "usage: tools/ab.sh BASE HEAD [PAIRS [SECONDS]]" >&2
  exit 2
fi
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
for rev in "$1" "$2"; do
  git -C "$repo" rev-parse --verify --quiet "$rev^{commit}" > /dev/null || {
    echo "ab.sh: unknown revision '$rev'" >&2
    exit 2
  }
done
base_rev="$(git -C "$repo" rev-parse --verify "$1^{commit}")"
head_rev="$(git -C "$repo" rev-parse --verify "$2^{commit}")"
pairs="${3:-10}"
seconds="${4:-$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$repo/BENCHMARK.json")}"
if ! [[ "$pairs" =~ ^[1-9][0-9]*$ ]]; then
  echo "ab.sh: PAIRS must be a positive integer (got '$pairs')" >&2
  exit 2
fi

work="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
echo "ab.sh: work directory $work"
results="$work/results.jsonl"
: > "$results"

# Archive and build one side; e2ebench without arguments only prints its
# usage, so the call builds and nothing more.
prepare() {
  local side="$1" rev="$2"
  mkdir -p "$work/$side/src"
  git -C "$repo" archive "$rev" | tar -x -C "$work/$side/src"
  echo "ab.sh: building $side ($rev)" >&2
  (cd "$work/$side/src" &&
    CARGO_TARGET_DIR="$work/$side/build" bash e2ebench/run.sh \
      > "$work/$side/build.log" 2>&1) || true
  if [[ ! -x "$work/$side/build/e2ebench" ]]; then
    echo "ab.sh: $side did not build; see $work/$side/build.log" >&2
    exit 3
  fi
}
prepare base "$base_rev"
prepare head "$head_rev"

# One run: appends {"side", "workload", "seed", "record", "result"}.
run_one() {
  local side="$1" workload="$2" seed="$3" out
  out="$work/$side/run-$workload-$seed.txt"
  if ! (cd "$work/$side/src" &&
        CARGO_TARGET_DIR="$work/$side/build" bash e2ebench/run.sh \
          --workload "$workload" --seed "$seed" --seconds "$seconds" \
          --trace 0 > "$out" 2> "$out.err"); then
    echo "ab.sh: $side $workload seed $seed exited non-zero; see $out.err" >&2
  fi
  python3 - "$side" "$workload" "$seed" "$out" >> "$results" <<'EOF'
import json, sys
side, workload, seed, path = sys.argv[1:]
lines = [l for l in open(path).read().splitlines() if l.strip()]
try:
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
except (IndexError, KeyError, ValueError):
    record, result = None, None
print(json.dumps({"side": side, "workload": workload, "seed": int(seed),
                  "record": record, "result": result}))
EOF
}

workloads="$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
  "$repo/BENCHMARK.json")"
for workload in $workloads; do
  for ((i = 1; i <= pairs; i++)); do
    echo "ab.sh: $workload pair $i/$pairs" >&2
    if ((i % 2 == 1)); then
      run_one base "$workload" "$i"
      run_one head "$workload" "$i"
    else
      run_one head "$workload" "$i"
      run_one base "$workload" "$i"
    fi
  done
done

# The summary's exit status is the script's.
exec python3 - "$repo/BENCHMARK.json" "$results" "$base_rev" "$head_rev" \
  "$pairs" "$seconds" <<'EOF'
import json, statistics, sys

bench_path, results_path, base_rev, head_rev, pairs, seconds = sys.argv[1:]
bench = json.load(open(bench_path))
runs = [json.loads(l) for l in open(results_path) if l.strip()]

def quartiles(xs):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"A/B on {pairs} pair(s) of {seconds} s runs per workload")
print(f"  base {base_rev}")
print(f"  head {head_rev}")
broken = False
regressed = False
for w in bench["workloads"]:
    name = w["name"]
    print(f"\n== {name}")
    by_side = {s: [r for r in runs if r["workload"] == name and r["side"] == s]
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
                             ("nproc", "cpu_model", "build_type", "merch_obs",
                              "compiler", "git_sha")}, sort_keys=True)
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
          f"{'head median [q1, q3]':<30} {'change':>8}  verdict")
    for m in bench["end_to_end"]:
        metric, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        vals = {s: [r["result"]["metrics"][metric]["value"]
                    for r in rs if r["result"] is not None
                    and metric in r["result"]["metrics"]]
                for s, rs in by_side.items()}
        if not vals["base"] or not vals["head"]:
            print(f"  {metric:<12} no values")
            broken = True
            continue
        qb, qh = quartiles(vals["base"]), quartiles(vals["head"])
        pb, ph = qb[1], qh[1]
        worse = ((ph - pb) if lower else (pb - ph)) / pb if pb else 0.0
        spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qb, qh))
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
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        print(f"  {metric:<12} {fmt(qb):<30} {fmt(qh):<30} "
              f"{(ph - pb) / pb * 100 if pb else 0:+7.1f}%  {verdict}")
if broken:
    print("\nverdict: FAILED (a failed op, a missing result or differing digests)")
elif regressed:
    print("\nverdict: REGRESSED")
else:
    print("\nverdict: no regression")
sys.exit(3 if broken else 1 if regressed else 0)
EOF
