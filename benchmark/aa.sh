#!/usr/bin/env bash
# A/A check: runs two interleaved sets (A,B,A,B...) of untraced invocations
# of the same code on every workload, each with another seed, and reports per
# workload x end-to-end metric both medians, both quartile ranges, the worst
# single-run deviation from its set median, the bound and PASS/FAIL.
#
#   benchmark/aa.sh [runs-per-set, default 10] > benchmark/baseline/aa.json
#
# The JSON goes to standard output, a readable table to standard error.
# PASS needs, per workload x metric: the two medians within HALF the bound,
# no run further than the bound from its set median, and (setup_s excepted,
# as in the driver) each set's quartile range within the bound.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
runs="${1:-10}"
manifest="$root/BENCHMARK.json"
seconds="$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['run_seconds'])" "$manifest")"
workloads="$(python3 -c "import json,sys; print(' '.join(w['name'] for w in json.load(open(sys.argv[1]))['workloads']))" "$manifest")"
mkdir -p "$here/out"
tmp="$(mktemp -d "$here/out/aa.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

seed=1000
for ((i = 0; i < runs; i++)); do
  for set in A B; do
    for w in $workloads; do
      seed=$((seed + 1))
      echo "aa: set $set run $i workload $w seed $seed" >&2
      "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        2>"$tmp/stderr" | tail -n 1 >"$tmp/$w.$set.$i.json" ||
        { cat "$tmp/stderr" >&2; echo "aa: $w failed" >&2; exit 1; }
    done
  done
done

python3 - "$manifest" "$tmp" "$runs" <<'PY'
import json, statistics, sys
manifest = json.load(open(sys.argv[1]))
tmp, runs = sys.argv[2], int(sys.argv[3])
out = {"runs_per_set": runs, "run_seconds": manifest["run_seconds"], "workloads": {}}
all_pass = True
for w in [w["name"] for w in manifest["workloads"]]:
    out["workloads"][w] = {}
    for m in manifest["end_to_end"]:
        name, bound = m["name"], m["bound"]
        row = {"unit": m["unit"], "bound": bound}
        worst = 0.0
        for s in "AB":
            values = []
            for i in range(runs):
                r = json.load(open(f"{tmp}/{w}.{s}.{i}.json"))
                assert r["correct"] and r["failed"] == 0, (w, s, i)
                values.append(r["metrics"][name]["value"])
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            row[s] = {"median": med, "iqr_share": (q[2] - q[0]) / med, "values": values}
            worst = max(worst, max(abs(v - med) / med for v in values))
        shift = abs(row["A"]["median"] - row["B"]["median"]) / row["A"]["median"]
        spread = max(row["A"]["iqr_share"], row["B"]["iqr_share"])
        row["median_shift"] = shift
        row["worst_run_deviation"] = worst
        row["pass"] = shift <= bound / 2 and worst <= bound and (name == "setup_s" or spread <= bound)
        all_pass &= row["pass"]
        out["workloads"][w][name] = row
        print(f"{w:12} {name:14} A {row['A']['median']:<14.6g} B {row['B']['median']:<14.6g} "
              f"shift {shift:8.5f} iqr {row['A']['iqr_share']:8.5f} {row['B']['iqr_share']:8.5f} "
              f"worst {worst:8.5f} bound {bound:<6} {'PASS' if row['pass'] else 'FAIL'}",
              file=sys.stderr)
out["pass"] = all_pass
json.dump(out, sys.stdout, indent=1)
print()
sys.exit(0 if all_pass else 1)
PY
