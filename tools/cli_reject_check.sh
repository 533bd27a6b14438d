#!/bin/sh
# Fails unless charisma_sim rejects each malformed invocation below at parse
# time: exit status exactly 1 and an "error: <knob>=" line on stderr naming
# the offending knob. Every case stops before a simulation starts, so the
# whole check takes milliseconds, under the sanitizers too.
#
#   tools/cli_reject_check.sh build/charisma_sim
#
# ctest runs it as the cli_reject_check test in every configuration.
set -u

sim=${1:?usage: cli_reject_check.sh <charisma_sim>}
failures=0
# Small run knobs, so an invocation that is wrongly accepted ends quickly.
quick="voice_users=4 data_users=1 warmup=0.1 measure=0.1"

# expect_reject PATTERN ARGS...: charisma_sim ARGS must exit 1 with a
# stderr line matching the grep pattern PATTERN.
expect_reject() {
  pattern=$1
  shift
  err=$("$sim" "$@" 2>&1 >/dev/null)
  status=$?
  if [ "$status" -ne 1 ] || ! printf '%s\n' "$err" | grep -q "$pattern"; then
    echo "cli_reject_check: FAIL: charisma_sim $*" >&2
    echo "  exit $status, expected 1 and a line matching '$pattern'" >&2
    printf '%s\n' "$err" | sed 's/^/  stderr: /' >&2
    failures=$((failures + 1))
  fi
}

# expect_knob KNOB ARGS...: rejected with "error: KNOB=..." on stderr.
expect_knob() {
  knob=$1
  shift
  expect_reject "^error: $knob=" "$@"
}

# Zero or negative replications: no world would run, so nothing would be
# measured or verified.
expect_knob replications cells=2 verify=1 replications=0 voice_users=6 \
  data_users=2 warmup=0.2 measure=0.3
expect_knob replications replications=-1 $quick
expect_knob replications replications=0 sweep=voice x=4 $quick
# The sweep axis is voice or data, spelled exactly.
expect_knob sweep sweep=foo x=4 $quick
expect_knob sweep sweep=Voice x=4 $quick
# The mobility model is waypoint or vector.
expect_knob mobility cells=2 mobility=foo $quick
# A world needs at least one cell.
expect_knob cells cells=0 $quick
expect_knob cells cells=-2 $quick
# Every x= entry is a whole integer.
expect_knob x sweep=data x=1,2,3x $quick
expect_knob x sweep=data x=a,b $quick

# Rejections that already named their knob.
expect_knob band band=-5 cells=3 $quick
expect_knob shards shards=-1 cells=2 $quick
expect_knob threads threads=-1 cells=2 $quick
expect_knob channel channel=foo $quick
expect_knob traffic_rng traffic_rng=foo $quick
expect_knob layout layout=foo cells=2 $quick
expect_knob overload overload=0 $quick
expect_knob outage outage=1:2 cells=3 $quick
expect_knob flash flash=1:2 cells=3 $quick
expect_knob diurnal diurnal=1:0 cells=2 $quick
expect_reject "unknown key 'foo'" foo=1 $quick
# The channel environment's knobs, named before the channel layer sees
# them.
expect_knob diversity diversity=0 $quick
expect_knob shadow_sigma_db shadow_sigma_db=-1 $quick
expect_knob kmh kmh=-5 $quick
expect_knob kmh kmh=-5 doppler_hz=5 cells=2 $quick
expect_knob kmh kmh=0 $quick
expect_knob kmh cells=2 kmh=0 $quick
expect_knob doppler_hz doppler_hz=0 $quick
expect_knob doppler_hz doppler_hz=-3 cells=2 $quick
expect_knob doppler_hz kmh=0 doppler_hz=0 $quick
# No knob takes NaN or an infinity.
expect_reject "value for 'mean_snr_db'" mean_snr_db=nan $quick
expect_reject "value for 'fixed_ref_db'" protocol=rama fixed_ref_db=inf $quick
expect_reject "value for 'band'" band=-inf cells=3 $quick

if [ "$failures" -ne 0 ]; then
  echo "cli_reject_check: $failures invocation(s) not rejected by name" >&2
  exit 1
fi
echo "cli_reject_check: OK (every malformed invocation rejected by name)"
