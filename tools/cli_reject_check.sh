#!/bin/sh
# Fails unless charisma_sim, each example and each bench rejects each
# malformed invocation below before any simulation starts: exit status
# exactly 1, a stderr line naming the offending knob, and nothing on
# stdout (a bench reads its knobs before it prints its banner). No case
# runs a simulation, so the whole check takes well under a second, under
# the sanitizers too.
#
#   tools/cli_reject_check.sh build
#
# The argument is the directory that holds the binaries. ctest runs it as
# the cli_reject_check test in every configuration.
set -u

dir=${1:?usage: cli_reject_check.sh <directory of the built binaries>}
failures=0
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# A bench that wrongly accepts a case writes its JSON here.
export CHARISMA_BENCH_JSON_DIR="$tmp"
# Small run knobs, so an invocation that is wrongly accepted ends quickly.
quick="voice_users=4 data_users=1 warmup=0.1 measure=0.1"

# expect_reject PATTERN ARGS...: the binary $bin run with ARGS must exit 1,
# print nothing on stdout and a stderr line matching the grep pattern
# PATTERN.
expect_reject() {
  pattern=$1
  shift
  "$bin" "$@" >"$tmp/stdout" 2>"$tmp/stderr"
  status=$?
  if [ "$status" -ne 1 ] || [ -s "$tmp/stdout" ] ||
     ! grep -q "$pattern" "$tmp/stderr"; then
    echo "cli_reject_check: FAIL: $bin $*" >&2
    echo "  exit $status, expected 1, no stdout and a stderr line" \
         "matching '$pattern'" >&2
    sed 's/^/  stdout: /' "$tmp/stdout" >&2
    sed 's/^/  stderr: /' "$tmp/stderr" >&2
    failures=$((failures + 1))
  fi
}

# expect_knob KNOB ARGS...: rejected with "error: KNOB=..." on stderr.
expect_knob() {
  knob=$1
  shift
  expect_reject "^error: $knob=" "$@"
}

bin=$dir/charisma_sim
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
# No knob takes NaN or an infinity, colon-list fields included.
expect_reject "value for 'mean_snr_db'" mean_snr_db=nan $quick
expect_reject "value for 'fixed_ref_db'" protocol=rama fixed_ref_db=inf $quick
expect_reject "value for 'band'" band=-inf cells=3 $quick
expect_knob flash voice_users=4 data_users=1 warmup=0.1 measure=0.3 cells=3 \
  flash=nan:0:500:5:0:1
expect_knob flash cells=2 flash=0:inf:500:5:0:1 $quick
expect_knob outage cells=3 outage=1:-inf:2 $quick
expect_knob outage cells=3 outage=1e300:0:1 $quick
# Every numeric knob is range-checked where it is read, before any
# library constructor could reject it without naming it.
expect_knob ack_loss ack_loss=2 $quick
expect_knob pv pv=-1 $quick
expect_knob pd pd=0 $quick
expect_knob talkspurt_s talkspurt_s=0 $quick
expect_knob silence_s silence_s=0 $quick
expect_knob burst_packets burst_packets=0 $quick
expect_knob interarrival_s interarrival_s=0 $quick
expect_knob tx_power_w tx_power_w=-1 $quick
expect_knob mmpp_ratio mmpp_ratio=-1 $quick
expect_knob mmpp_sojourn_s mmpp_sojourn_s=-1 $quick
expect_knob request_slots request_slots=0 $quick
expect_knob info_slots info_slots=0 $quick
expect_knob pilot_slots pilot_slots=-1 $quick
expect_knob target_ber target_ber=0.7 $quick
expect_knob csi_noise_db csi_noise_db=-1 $quick
expect_knob csi_validity_frames csi_validity_frames=0 $quick
expect_knob x sweep=voice x=4,-2 $quick
expect_knob warmup warmup=-1 voice_users=4 data_users=1 measure=0.1
expect_knob measure measure=0 voice_users=4 data_users=1 warmup=0.1
expect_knob voice_users voice_users=-3 data_users=1 warmup=0.1 measure=0.1
expect_knob overload overload=1e9 $quick
expect_knob interference cells=3 interference=-5 $quick
expect_knob handoff_hysteresis_db cells=2 handoff_hysteresis_db=-50 $quick
expect_knob cell_radius_m cells=2 cell_radius_m=-100 $quick
expect_knob reuse cells=3 reuse=0 $quick
expect_knob reuse cells=7 layout=hex reuse=2 $quick
# A single cell rejects every world-only knob by name, valid or not, instead
# of ignoring it.
expect_knob threads interference=-5 threads=-1 cell_radius_m=-3 $quick
expect_knob interference interference=-5 $quick
for knob in threads=2 shards=2 band=700 interference=0.4 layout=hex reuse=3 \
    wrap=1 mobility=vector handoff_hysteresis_db=4 cell_radius_m=300 \
    verify=1; do
  expect_knob "${knob%%=*}" "$knob" $quick
done
# Wrap-around needs a full-ring hex cluster and a wrap-consistent reuse.
expect_knob wrap cells=3 wrap=1 $quick
expect_knob wrap cells=3 layout=hex wrap=1 $quick
expect_knob wrap cells=7 layout=hex reuse=3 wrap=1 $quick
# CHARISMA's poll budget and Eq. (2) weights are >= 0.
expect_knob poll_budget poll_budget=-5 $quick
expect_knob alpha_voice alpha_voice=-3 $quick
expect_knob alpha_data alpha_data=-1 $quick
expect_knob gamma_voice gamma_voice=-1 $quick
expect_knob gamma_data gamma_data=-0.5 $quick
expect_knob voice_offset voice_offset=-8 $quick
# Knobs that used to abort, be ignored, or fail only after the run: help=
# is a boolean, x= needs sweep= and at least one value, protocol= names a
# protocol, and csv= is a path that can be opened for writing.
expect_reject "value for 'help'" help=2
expect_knob x x=5 $quick
expect_knob x x=5 cells=2 $quick
expect_knob x sweep=voice x= $quick
expect_knob protocol protocol=foo $quick
expect_knob csv csv= $quick
expect_knob csv "csv=$bin/out.csv" $quick

# The examples read charisma_sim's knobs through the same parser, and each
# rejects by name any key it does not use.
bin=$dir/integrated_services
expect_knob voice_users voice_users=-5
expect_reject "unknown key 'voice_user'" voice_user=80
bin=$dir/fading_explorer
expect_knob kmh kmh=-3
expect_knob measure measure=0.001

# The benches read their knobs through the same readers, and each rejects
# by name any key it does not take: a misspelled one (mesure=) in each
# bench with knobs, any key in the three without.
for name in fig11_voice_loss fig12_13_data energy_efficiency \
    ablation_csi_refresh ablation_priority; do
  bin=$dir/$name
  # A measure window must be > 0 (a warmup may be 0).
  expect_knob measure warmup=0.1 replications=1 measure=0
  expect_reject "unknown key 'mesure'" warmup=0.1 measure=0.1 \
    replications=1 mesure=0.2
done
for name in fig5_fading_trace fig7_abicm table1_parameters; do
  bin=$dir/$name
  expect_reject "unknown key 'measure'" measure=0.2
done

bin=$dir/speed_ablation
ablation_quick="bank_users=10 bank_frames=2 warmup=0.1 replications=1"
expect_reject "value for 'measure'" $ablation_quick measure=10x
expect_knob measure $ablation_quick measure=0
expect_reject "unknown key 'mesure'" $ablation_quick measure=0.1 mesure=0.2

bin=$dir/bench_fig_handoff_loss
expect_reject "value for 'cells'" voice_users=2 warmup=0.1 measure=0.1 \
  cells=3x
expect_knob measure voice_users=2 warmup=0.1 cells=2 measure=0
expect_reject "unknown key 'mesure'" voice_users=2 warmup=0.1 measure=0.1 \
  mesure=0.2

bin=$dir/bench_fig_reuse
reuse_quick="voice_users=2 warmup=0.1 measure=0.1"
expect_reject "value for 'interference'" $reuse_quick cells=2 reuse=1 \
  interference=0.4x
# A grid a hex world cannot run fails before any world runs: a reuse
# factor that is not rhombic (charisma_sim's layout=hex reuse=2 check), an
# empty list, a single cell. So does a grid the penalty check cannot
# compare: one reuse factor.
expect_knob reuse $reuse_quick cells=7 reuse=1,2
expect_knob reuse $reuse_quick cells=7 reuse=
expect_knob cells $reuse_quick cells=1 reuse=1
expect_knob reuse $reuse_quick cells=7 reuse=3
expect_reject "unknown key 'mesure'" $reuse_quick cells=2 reuse=1 mesure=0.2

bin=$dir/bench_fig_overload
overload_quick="voice_users=4 data_users=1 measure=0.1 overload=1
  protocol=prma"
expect_reject "value for 'warmup'" $overload_quick warmup=abc
expect_knob overload $overload_quick warmup=0.1 overload=1,2x
expect_knob measure $overload_quick warmup=0 measure=0
expect_reject "unknown key 'mesure'" $overload_quick warmup=0.1 mesure=0.2
# The exit code asserts the barring win at >= 5x load, so a grid without
# such a factor is rejected instead of passing having tested nothing.
expect_knob overload $overload_quick warmup=0.1 overload=1,2

bin=$dir/bench_world
world_quick="voice_users=4 data_users=1 measure=0.1 repeats=1 cells=2
  shards=1 memory_users=0"
expect_reject "value for 'band'" $world_quick threads=1 band=1.2km
expect_knob threads $world_quick threads=1,-2
expect_knob measure $world_quick threads=1 measure=0
expect_reject "unknown key 'mesure'" $world_quick threads=1 mesure=0.2

# A bench knob of older revisions, left in the environment, fails by name
# instead of being ignored.
export CHARISMA_BENCH_MEASURE=0.2
bin=$dir/energy_efficiency
expect_reject CHARISMA_BENCH_MEASURE warmup=0.1 measure=0.1 replications=1
bin=$dir/fig7_abicm
expect_reject CHARISMA_BENCH_MEASURE
unset CHARISMA_BENCH_MEASURE

if [ "$failures" -ne 0 ]; then
  echo "cli_reject_check: $failures invocation(s) not rejected by name" >&2
  exit 1
fi
echo "cli_reject_check: OK (every malformed invocation rejected by name)"
