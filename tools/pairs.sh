#!/usr/bin/env bash
# Alternating pairs: the benchmark (bench/) built at a base revision
# against the benchmark built from the working tree, run one after the
# other on the same workload, seed and run length.
#
#   bash tools/pairs.sh <base-rev> [workload] [pairs] [seconds] [seed]
#
# (`make pairs BASE=<rev>` with WORKLOAD, PAIRS, RUN_SECONDS and SEED.) The
# seed is a number, used by every run, or `vary`: pair i runs seed i on
# both sides. Odd pairs run the base first, even pairs the working tree
# first. Every run must end failed=0.
#
# It prints, per end-to-end metric, both medians, both interquartile
# ranges (Python statistics.quantiles(n=4) rule, as bench/ -selfcheck
# takes them), the working tree's wins out of the pairs (a tie is no win)
# and the relative move of the median; `beyond` marks a move larger than
# the base's own interquartile range. It also prints nproc, GOMAXPROCS
# and the Go version.
#
# Everything it writes stays under .bench_build/ at the repository root:
# the base's source, both binaries, each run's output and the table under
# .bench_build/pairs/, the build cache and the compiler's temporary files
# under .bench_build/gocache/ and .bench_build/tmp/. It changes nothing
# under bench/ and no git state.
set -euo pipefail

if [ $# -lt 1 ] || [ -z "$1" ]; then
  echo "usage: $0 <base-rev> [workload] [pairs] [seconds] [seed|vary]" >&2
  exit 2
fi
base_rev=$1
workload=${2:-loop-matrix}
pairs=${3:-10}
seconds=${4:-8}
seed=${5:-1}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
out="$build/pairs"
mkdir -p "$build/gocache" "$build/tmp" "$out"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOTOOLCHAIN=local GOWORK=off

sha=$(git -C "$root" rev-parse --verify "$base_rev^{commit}")
src="$out/src-$sha"
if [ ! -d "$src" ]; then
  rm -rf "$src.partial"
  mkdir -p "$src.partial"
  git -C "$root" archive "$sha" | tar -x -C "$src.partial"
  mv "$src.partial" "$src"
fi
(cd "$src/bench" && go build -o "$out/fibbench-base" .)
(cd "$root/bench" && go build -o "$out/fibbench-work" .)

runs="$out/runs"
rm -rf "$runs"
mkdir -p "$runs"
results="$out/results.tsv" # pair, side, metric, value
: >"$results"
for i in $(seq 1 "$pairs"); do
  s=$seed
  [ "$seed" = vary ] && s=$i
  order="base work"
  [ $((i % 2)) -eq 0 ] && order="work base"
  for side in $order; do
    tree=$root
    [ "$side" = base ] && tree=$src
    log="$runs/$i-$side.log"
    if ! (cd "$tree" && "$out/fibbench-$side" --workload "$workload" --seed "$s" --seconds "$seconds" --trace 0) >"$log" 2>&1; then
      echo "pairs: pair $i, $side run failed; see $log" >&2
      exit 1
    fi
    last=$(tail -n 1 "$log")
    case $last in
    *'"failed":0,'*) ;;
    *)
      echo "pairs: pair $i, $side run did not end failed=0; see $log" >&2
      exit 1
      ;;
    esac
    printf '%s\n' "$last" | grep -o '"[a-z0-9_]*":{"value":[-0-9.eE+]*' |
      sed 's/^"\([^"]*\)":{"value":/\1 /' |
      while read -r metric value; do
        printf '%s\t%s\t%s\t%s\n' "$i" "$side" "$metric" "$value"
      done >>"$results"
    echo "pairs: pair $i/$pairs $side done" >&2
  done
done

# Directions come from the runs' own metric lines ("lower is better").
awk '$5 == "is" && $6 == "better" { print $1, $4 }' "$runs/1-base.log" >"$out/better.txt"

{
  echo "pairs: base $base_rev ($sha) vs working tree; workload $workload, $pairs pairs of $seconds s, seed $seed"
  echo "host: $(grep -o 'nproc=[0-9]* gomaxprocs=[0-9]* go[0-9.]*' "$runs/1-work.log" | head -n 1)"
  awk -F '\t' -v n="$pairs" '
    FNR == NR { split($0, f, " "); better[f[1]] = f[2]; next }
    {
      v[$3, $2, $1] = $4 + 0
      if (!($3 in seen)) { seen[$3] = 1; order[++m] = $3 }
    }
    function sorted(metric, side,    i, j, t) {
      for (i = 1; i <= n; i++) s[i] = v[metric, side, i]
      for (i = 2; i <= n; i++)
        for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
    }
    # at returns the value at zero-based position pos of s, interpolated.
    function at(pos,    lo) {
      if (pos <= 0) return s[1]
      if (pos >= n - 1) return s[n]
      lo = int(pos)
      return s[lo + 1] + (pos - lo) * (s[lo + 2] - s[lo + 1])
    }
    function quartile(k) { return at(k * (n + 1) / 4 - 1) }
    function abs(x) { return x < 0 ? -x : x }
    END {
      printf "%-16s %-6s %12s %10s %12s %10s %6s %8s %s\n", "metric", "better", "base p50", "base iqr", "work p50", "work iqr", "wins", "move", ""
      for (k = 1; k <= m; k++) {
        metric = order[k]
        sorted(metric, "base"); bmed = at((n - 1) / 2); biqr = quartile(3) - quartile(1)
        sorted(metric, "work"); wmed = at((n - 1) / 2); wiqr = quartile(3) - quartile(1)
        wins = 0
        for (i = 1; i <= n; i++) {
          b = v[metric, "base", i]; w = v[metric, "work", i]
          if ((better[metric] == "higher" && w > b) || (better[metric] == "lower" && w < b)) wins++
        }
        move = bmed != 0 ? 100 * (wmed - bmed) / abs(bmed) : 0
        flag = abs(wmed - bmed) > biqr ? "beyond" : ""
        printf "%-16s %-6s %12.6g %10.4g %12.6g %10.4g %3d/%-2d %+7.2f%% %s\n", metric, better[metric], bmed, biqr, wmed, wiqr, wins, n, move, flag
      }
    }
  ' "$out/better.txt" "$results"
} | tee "$out/table.txt"
