#!/usr/bin/env bash
# The driver's acceptance check, run locally: two interleaved sets (A B A B ...)
# of RUNS runs per workload, a different --seed on every run, --trace 0.
#
#   bash benchmark/noisecheck.sh [RUNS=10] [SECONDS=run_seconds of BENCHMARK.json]
#   bash benchmark/noisecheck.sh --report      # re-print the report of the last run
#
# For every workload x end-to-end metric it prints both medians, both
# interquartile spreads / median (statistics.quantiles(values, n=4), as the
# driver takes them) and the drift of the second median, and exits 1 when a
# spread exceeds the metric's bound (setup_s excepted) or the second median is
# worse than the first by more than the bound. It also prints, per metric, the
# floor rule 3 of README.md puts under the bound (3 x the worst spread seen,
# capped at the contract's 0.25)
# and the wall time a 92-run driver schedule would take at this pace.
# Result lines are kept in benchmark/out/noise/.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="$here/out/noise"

if [ "${1:-}" != "--report" ]; then
	runs="${1:-10}"
	seconds="${2:-$(python3 -c "import json; print(json.load(open('$root/BENCHMARK.json'))['run_seconds'])")}"
	workloads="$(python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('$root/BENCHMARK.json'))['workloads']))")"
	rm -rf "$out"
	mkdir -p "$out"
	started=$(date +%s)
	n=0
	for i in $(seq 1 "$runs"); do
		for set in A B; do
			seed=$i
			[ "$set" = B ] && seed=$((100 + i))
			for w in $workloads; do
				(cd "$root" && bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0) |
					tail -n 1 >"$out/$set-$w-$i.json"
				n=$((n + 1))
				echo "run $n: set $set $w seed $seed done at +$(($(date +%s) - started)) s" >&2
			done
		done
	done
	echo "$n $(($(date +%s) - started)) $seconds" >"$out/wall.txt"
fi

python3 - "$root/BENCHMARK.json" "$out" <<'EOF'
import glob, json, os, statistics, sys

bench = json.load(open(sys.argv[1]))
out = sys.argv[2]
runs, wall, seconds = open(os.path.join(out, "wall.txt")).read().split()

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

bad = 0
worst = {}
print(f"{'workload':15} {'metric':24} {'median A':>12} {'median B':>12} {'iqr/med A':>10} {'iqr/med B':>10} {'drift B':>8} {'bound':>6}")
for w in bench["workloads"]:
    for m in bench["end_to_end"]:
        sets = {}
        for s in "AB":
            vals = []
            for path in sorted(glob.glob(os.path.join(out, f"{s}-{w['name']}-*.json"))):
                line = json.load(open(path))
                if not line["correct"]:
                    print(f"FAILED OPERATIONS in {path}: {line['failed']} of {line['attempted']}")
                    bad += 1
                vals.append(line["metrics"][m["name"]]["value"])
            sets[s] = vals
        ma, mb = statistics.median(sets["A"]), statistics.median(sets["B"])
        sa, sb = spread(sets["A"]), spread(sets["B"])
        drift = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma  # > 0: B is worse
        verdict = ""
        if m["name"] != "setup_s" and max(sa, sb) > m["bound"]:
            verdict += " SPREAD"
        if drift > m["bound"]:
            verdict += " DRIFT"
        if verdict:
            bad += 1
        worst[m["name"]] = max(worst.get(m["name"], 0), sa, sb)
        print(f"{w['name']:15} {m['name']:24} {ma:12.5g} {mb:12.5g} {sa:10.4f} {sb:10.4f} {drift:+8.4f} {m['bound']:6.3f}{verdict}")
print()
print("rule 3: a bound is min(0.25, at least 3 x the worst spread seen for the metric); setup_s takes the largest bound")
for m in bench["end_to_end"]:
    floor = min(0.25, 3 * worst[m["name"]])
    note = "ok"
    if m["bound"] < floor and m["name"] != "setup_s":
        note = "BOUND BELOW FLOOR"
        bad += 1
    elif worst[m["name"]] > 0.15 and m["name"] != "setup_s":
        note = "ok at the contract's cap; spread past 0.15: see the remedies of rule 3"
    print(f"  {m['name']:24} worst spread {worst[m['name']]:.4f}  floor {floor:.4f}  bound {m['bound']:.3f}  {note}")
per_run = int(wall) / int(runs)
n_sched = 4 + 22 * len(bench["workloads"])
print()
print(f"{runs} runs of {seconds} s windows took {wall} s ({per_run:.1f} s per run); a {n_sched}-run driver schedule takes about {per_run * n_sched:.0f} s plus two builds")
sys.exit(1 if bad else 0)
EOF
