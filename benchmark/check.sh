#!/usr/bin/env bash
# Smoke check: builds the benchmark offline, runs every workload untraced and
# traced for 1 round x 1 s (sample-count guard relaxed), and validates that
# the printed metric names, units and counts match BENCHMARK.json exactly.
#
#   benchmark/check.sh --smoke
set -euo pipefail
[[ "${1:-}" == "--smoke" ]] || { echo "usage: benchmark/check.sh --smoke" >&2; exit 2; }
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
manifest="$root/BENCHMARK.json"
workloads="$(python3 -c "import json,sys; print(' '.join(w['name'] for w in json.load(open(sys.argv[1]))['workloads']))" "$manifest")"
mkdir -p "$here/out"
tmp="$(mktemp -d "$here/out/check.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

for w in $workloads; do
  for trace in 0 1; do
    echo "check: $w trace=$trace" >&2
    # --seconds is split over the 5 standard rounds: 5 s = 1 s per round.
    "$here/run.sh" --workload "$w" --seed 7 --seconds 5 --trace "$trace" \
      --rounds 1 --min-samples 1 2>"$tmp/stderr" | tail -n 1 >"$tmp/$w.$trace.json" ||
      { cat "$tmp/stderr" >&2; echo "check: $w trace=$trace failed" >&2; exit 1; }
  done
done

python3 - "$manifest" "$tmp" <<'PY'
import json, sys
manifest, tmp = json.load(open(sys.argv[1])), sys.argv[2]
for w in [w["name"] for w in manifest["workloads"]]:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        r = json.load(open(f"{tmp}/{w}.{trace}.json"))
        assert sorted(r) == ["attempted", "correct", "failed", "metrics"], (w, trace, sorted(r))
        assert r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1, (w, trace, r["failed"])
        want = {m["name"]: m["unit"] for m in manifest[key]}
        got = {n: v["unit"] for n, v in r["metrics"].items()}
        assert got == want, (w, trace, set(got) ^ set(want), [n for n in got if want.get(n) != got[n]])
        for n, v in r["metrics"].items():
            assert isinstance(v["value"], (int, float)), (w, n)
            assert trace == 1 or v["value"] > 0, (w, n, v["value"])
print(f"check: {len(manifest['workloads'])} workloads x 2 runs match BENCHMARK.json "
      f"({len(manifest['end_to_end'])} end-to-end, {len(manifest['per_layer'])} per-layer metrics)")
PY
