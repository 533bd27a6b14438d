#!/bin/sh
# Fails unless each bench below rejects a malformed environment knob before
# its first simulation: exit status exactly 1, the variable's name on
# stderr, and nothing on stdout beyond the four-line banner that every
# bench prints before it reads its knobs. The other knobs are set small,
# so a wrongly accepted value still ends quickly.
#
#   tools/bench_env_reject_check.sh build/bench_fig_overload \
#       build/bench_fig_reuse build/bench_fig_handoff_loss \
#       build/bench_world build/speed_ablation build/energy_efficiency \
#       build/ablation_csi_refresh build/ablation_priority \
#       build/fig12_13_data
#
# ctest runs it as the bench_env_reject_check test in every configuration.
set -u

usage="usage: bench_env_reject_check.sh <bench_fig_overload> <bench_fig_reuse>"
usage="$usage <bench_fig_handoff_loss> <bench_world> <speed_ablation>"
usage="$usage <energy_efficiency> <ablation_csi_refresh> <ablation_priority>"
usage="$usage <fig12_13_data>"
overload=${1:?$usage}
reuse=${2:?$usage}
handoff=${3:?$usage}
world=${4:?$usage}
ablation=${5:?$usage}
energy=${6:?$usage}
csi_refresh=${7:?$usage}
priority=${8:?$usage}
fig12_13=${9:?$usage}
failures=0
json_dir=$(mktemp -d)
trap 'rm -rf "$json_dir"' EXIT

# expect_reject VAR BENCH NAME=VALUE...: BENCH run with the given
# environment must exit 1, name VAR on stderr and print only its banner.
expect_reject() {
  var=$1
  bench=$2
  shift 2
  out=$(env CHARISMA_BENCH_JSON_DIR="$json_dir" "$@" "$bench" \
        2>"$json_dir/stderr")
  status=$?
  lines=$(printf '%s\n' "$out" | wc -l)
  if [ "$status" -ne 1 ] || ! grep -q "$var" "$json_dir/stderr" ||
     [ "$lines" -gt 4 ]; then
    echo "bench_env_reject_check: FAIL: $* $bench" >&2
    echo "  exit $status and $lines stdout lines, expected exit 1," \
         "at most the 4 banner lines and '$var' on stderr" >&2
    sed 's/^/  stderr: /' "$json_dir/stderr" >&2
    failures=$((failures + 1))
  fi
}

overload_quick="CHARISMA_BENCH_OVERLOAD_VOICE=4 CHARISMA_BENCH_OVERLOAD_DATA=1
  CHARISMA_BENCH_OVERLOAD_MEASURE=0.1 CHARISMA_BENCH_OVERLOAD_FACTORS=1
  CHARISMA_BENCH_OVERLOAD_PROTOCOLS=prma"
# shellcheck disable=SC2086  # word splitting of the knob lists is intended
expect_reject CHARISMA_BENCH_OVERLOAD_WARMUP "$overload" $overload_quick \
  CHARISMA_BENCH_OVERLOAD_WARMUP=abc
# shellcheck disable=SC2086
expect_reject CHARISMA_BENCH_OVERLOAD_FACTORS "$overload" $overload_quick \
  CHARISMA_BENCH_OVERLOAD_WARMUP=0.1 CHARISMA_BENCH_OVERLOAD_FACTORS=1,2x

expect_reject CHARISMA_BENCH_REUSE_ACTIVITY "$reuse" \
  CHARISMA_BENCH_REUSE_CELLS=1 CHARISMA_BENCH_REUSE_FACTORS=1 \
  CHARISMA_BENCH_REUSE_VOICE=2 CHARISMA_BENCH_WARMUP=0.1 \
  CHARISMA_BENCH_MEASURE=0.1 CHARISMA_BENCH_REUSE_ACTIVITY=0.4x

expect_reject CHARISMA_BENCH_CELLS "$handoff" \
  CHARISMA_BENCH_VOICE=2 CHARISMA_BENCH_WARMUP=0.1 \
  CHARISMA_BENCH_MEASURE=0.1 CHARISMA_BENCH_CELLS=3x
# A measure window must be > 0 (warmups may be 0): every standard_spec
# bench, the overload bench and the world bench.
expect_reject CHARISMA_BENCH_MEASURE "$handoff" \
  CHARISMA_BENCH_VOICE=2 CHARISMA_BENCH_WARMUP=0.1 CHARISMA_BENCH_CELLS=2 \
  CHARISMA_BENCH_MEASURE=0
# shellcheck disable=SC2086
expect_reject CHARISMA_BENCH_OVERLOAD_MEASURE "$overload" $overload_quick \
  CHARISMA_BENCH_OVERLOAD_WARMUP=0 CHARISMA_BENCH_OVERLOAD_MEASURE=0

world_quick="CHARISMA_BENCH_WORLD_VOICE=4 CHARISMA_BENCH_WORLD_DATA=1
  CHARISMA_BENCH_WORLD_MEASURE=0.1 CHARISMA_BENCH_WORLD_REPS=1
  CHARISMA_BENCH_WORLD_CELLS=2 CHARISMA_BENCH_WORLD_SHARDS=1
  CHARISMA_BENCH_WORLD_USERS=0"
# shellcheck disable=SC2086
expect_reject CHARISMA_BENCH_WORLD_BAND "$world" $world_quick \
  CHARISMA_BENCH_WORLD_THREADS=1 CHARISMA_BENCH_WORLD_BAND=1.2km
# shellcheck disable=SC2086
expect_reject CHARISMA_BENCH_WORLD_THREADS "$world" $world_quick \
  CHARISMA_BENCH_WORLD_THREADS=1,-2
# shellcheck disable=SC2086
expect_reject CHARISMA_BENCH_WORLD_MEASURE "$world" $world_quick \
  CHARISMA_BENCH_WORLD_THREADS=1 CHARISMA_BENCH_WORLD_MEASURE=0

expect_reject CHARISMA_BENCH_MEASURE "$ablation" \
  CHARISMA_BENCH_BANK_USERS=10 CHARISMA_BENCH_BANK_FRAMES=2 \
  CHARISMA_BENCH_WARMUP=0.1 CHARISMA_BENCH_REPS=1 CHARISMA_BENCH_MEASURE=10x
# The benches whose replications run through experiment::run_replications
# reject a zero window by name too.
for binary in "$ablation" "$energy" "$csi_refresh" "$priority" "$fig12_13"; do
  expect_reject CHARISMA_BENCH_MEASURE "$binary" \
    CHARISMA_BENCH_BANK_USERS=10 CHARISMA_BENCH_BANK_FRAMES=2 \
    CHARISMA_BENCH_WARMUP=0.1 CHARISMA_BENCH_REPS=1 CHARISMA_BENCH_MEASURE=0
done

if [ "$failures" -ne 0 ]; then
  echo "bench_env_reject_check: $failures bench run(s) not rejected by name" >&2
  exit 1
fi
echo "bench_env_reject_check: OK (every malformed knob rejected by name)"
