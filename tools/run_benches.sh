#!/usr/bin/env sh
# Run the paper's figure/table bench harnesses in sequence. Performance
# claims are measured with atm_bench instead (atm_bench/README.md).
#
#   tools/run_benches.sh [build-dir] [preset]
#
#   preset: full (default)  every harness at its native scale
#           quick           non-timing smoke: ATM_SCALE=test, ATM_REPS=1,
#                           and only the fast inspection/correctness set —
#                           validates that the harnesses run, not timings
#
# Benches run argument-less; scale comes from the environment:
#   ATM_SCALE    problem-size preset multiplier   (default: harness-defined;
#                preset quick forces "test" unless already set)
#   ATM_THREADS  worker threads                   (default: 2)
#   ATM_REPS     repetitions for median timing    (default: 3; quick: 1)
#
# Build the binaries first: cmake --build <build-dir> --target bench
set -eu

BUILD_DIR="${1:-build}"
PRESET="${2:-full}"

if [ ! -d "$BUILD_DIR" ]; then
  echo "error: build dir '$BUILD_DIR' not found (run cmake -B $BUILD_DIR -S . first)" >&2
  exit 1
fi

case "$PRESET" in
  full)
    BENCHES="table1_workloads table2_params table3_memory table4_tiered_store \
             fig3_speedup fig4_correctness fig5_p_sensitivity fig6_scalability \
             fig7_trace_gs fig8_trace_blackscholes fig9_reuse_cdf \
             ablation_sizing micro_atm"
    ;;
  quick)
    # The timing-heavy sweeps (fig5/fig6/ablation run 16+ full configs) are
    # skipped; the rest exercise every subsystem once at test scale.
    BENCHES="table1_workloads table2_params table3_memory table4_tiered_store \
             fig3_speedup fig4_correctness fig9_reuse_cdf"
    ATM_SCALE="${ATM_SCALE:-test}"
    ATM_REPS="${ATM_REPS:-1}"
    export ATM_SCALE ATM_REPS
    ;;
  *)
    echo "error: unknown preset '$PRESET' (full | quick)" >&2
    exit 2
    ;;
esac

failed=0
for b in $BENCHES; do
  bin="$BUILD_DIR/$b"
  if [ ! -x "$bin" ]; then
    echo "--- skipping $b (not built)"
    continue
  fi
  echo ""
  echo "=== $b ==="
  "$bin" || { echo "--- $b FAILED"; failed=1; }
done

exit $failed
