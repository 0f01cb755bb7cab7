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
# A "head wins" column counts the pairs HEAD reads better in, k of n, and
# marks "gain" when HEAD wins at least 9 in 10 pairs and its median beats
# BASE's by more than BASE's interquartile distance. tools/ab_summary.py
# prints all of this from the raw result lines.
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
exec python3 "$repo/tools/ab_summary.py" "$repo/BENCHMARK.json" "$results" \
  "$base_rev" "$head_rev" "$pairs" "$seconds"
