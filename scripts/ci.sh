#!/usr/bin/env bash
# Tier-1 CI gate: build and test the matrix in CMakePresets.json. Everything
# must pass; there is no "allowed failures" list.
#
#   default  RelWithDebInfo, no instrumentation — the baseline suite
#   asan     AddressSanitizer across every target, full suite
#   tsan     ThreadSanitizer, `ctest -L concurrency` (the preset filters)
#   ubsan    UndefinedBehaviorSanitizer across every target, full suite
#   noobs    HS_OBS_ENABLED=OFF — metrics/recorder/tracer compiled out,
#            proving the unconditional call sites build and the suite
#            passes without the observability layer
#
#   scripts/ci.sh                             # full matrix
#   HS_CI_PRESETS="default" scripts/ci.sh     # subset, e.g. a quick local gate
set -euo pipefail
cd "$(dirname "$0")/.."

PRESETS=${HS_CI_PRESETS:-"default asan tsan ubsan noobs"}

for preset in $PRESETS; do
  echo "=== [$preset] configure ==="
  cmake --preset "$preset"
  echo "=== [$preset] build ==="
  cmake --build --preset "$preset" -j
  echo "=== [$preset] test ==="
  ctest --preset "$preset"
done

# Fleet campaign smoke on the default build: an 8-habitat campaign must
# run and produce a byte-identical aggregate dump for threads=1 vs
# threads=hw (fleet_scale exits non-zero otherwise). The dump must also
# match the checked-in golden file byte for byte, so a change that claims
# to leave the simulation's output alone is checked against history, not
# only against itself. Regenerate the golden file only on purpose, when a
# change is meant to move the simulation's output.
case " $PRESETS " in
  *" default "*)
    echo "=== [default] fleet_scale smoke (8 habitats) + golden dump ==="
    ./build/bench/fleet_scale 8 1 42 build/fleet_scale_8_1_42.csv
    cmp build/fleet_scale_8_1_42.csv tests/golden/fleet_scale_8_1_42.csv
    ;;
esac

# Cascade scenario smoke on the default build: a 4-habitat storm campaign
# (power-storm / generated cascades over 2-day missions) must produce a
# byte-identical aggregate dump for threads=1 vs threads=hw
# (cascade_storm exits non-zero on any dump divergence; the storm
# habitat's record->raise latency is gated by latency_paths below). The
# scenario unit suite runs again under its own label so a cascade
# regression is named in the CI log even when the full ctest pass above
# is skipped.
case " $PRESETS " in
  *" default "*)
    echo "=== [default] cascade_storm smoke (4 habitats) ==="
    ./build/bench/cascade_storm 4 2 42
    echo "=== [default] ctest -L scenario ==="
    ctest --test-dir build -L scenario --output-on-failure
    ;;
esac

# Latency SLO smoke on the default build: latency_paths replays the two
# instrumented scenarios, byte-checks serial-vs-hw trace dumps at full
# and 50% sampling, verifies sampled latencies match the full dump, and
# gates p50/p99 offload->ack and record->raise against the checked-in
# BENCH_latency.json (exit 1 on divergence, 2 on >10% p99 regression).
# The noobs preset proves graceful degradation: no tracer, prints n/a,
# exits 0.
case " $PRESETS " in
  *" default "*)
    echo "=== [default] latency_paths SLO gate (seed 42, 2 days) ==="
    ./build/bench/latency_paths 42 2
    ;;
esac
case " $PRESETS " in
  *" noobs "*)
    echo "=== [noobs] latency_paths degrades gracefully ==="
    ./build-noobs/bench/latency_paths 42 2
    ;;
esac

# Perf gate on the default build, both perf_pipeline modes. Each exits 1
# when the serial and threads=4 runs disagree (--large: tracks, speech
# intervals, Fig. 4; mission mode: every artifact incl. the Fig. 3 grids,
# plus byte-identical metrics/trace dumps) and 2 when the serial time
# exceeds the matching section of the checked-in BENCH_pipeline.json by
# more than its bound. The baseline gates only on the host it was
# recorded on (docs/PERFORMANCE.md, "perf_pipeline's gate").
case " $PRESETS " in
  *" default "*)
    echo "=== [default] perf_pipeline gate (1M synthetic records, construction) ==="
    ./build/bench/perf_pipeline --large 1000000 3
    echo "=== [default] perf_pipeline gate (seed 42 mission, full analysis) ==="
    ./build/bench/perf_pipeline 42 4 2
    ;;
esac

echo "=== CI gate passed: $PRESETS ==="
