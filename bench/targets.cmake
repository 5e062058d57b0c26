# One binary per reproduced table/figure (DESIGN.md §4). Every binary runs
# in seconds with its defaults; --scale/--inputs grow the workload.
#
# Included from the top-level CMakeLists (not add_subdirectory) so that
# ${CMAKE_BINARY_DIR}/bench holds *only* the bench executables and
# `for b in build/bench/*; do $b; done` works unmodified.

set(FAE_BENCHES
  fig02_hot_sizes
  fig04_minibatch_probability
  fig06_threshold_sweep
  fig07_sampling_profile
  fig08_sampling_latency
  fig09_randem_accuracy
  fig10_randem_latency
  fig11_input_processor_latency
  fig12_accuracy
  fig13_training_time
  fig14_latency_breakdown
  fig15_batch_size_sweep
  tab06_power
  nvopt_comparison
  abl_scheduler_policy
  abl_sample_rate
  abl_sync_strategy
  abl_placements
  ext_multinode
  ext_serving
  abl_popularity_drift
  abl_pipelined
  abl_lookahead_cache
  abl_stale_skip
  abl_mixed_precision
  abl_randem_params
  pipeline_throughput
)

foreach(bench ${FAE_BENCHES})
  add_executable(${bench} ${CMAKE_SOURCE_DIR}/bench/${bench}.cc)
  target_link_libraries(${bench} PRIVATE fae)
  target_include_directories(${bench} PRIVATE ${CMAKE_SOURCE_DIR})
  set_target_properties(${bench} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endforeach()

add_executable(micro_kernels ${CMAKE_SOURCE_DIR}/bench/micro_kernels.cc)
target_link_libraries(micro_kernels PRIVATE fae)
target_include_directories(micro_kernels PRIVATE ${CMAKE_SOURCE_DIR})
# Its default --out, so that a run from any directory writes into the
# build tree rather than over the committed bench/BENCH_kernels.json.
target_compile_definitions(micro_kernels
  PRIVATE FAE_BENCH_OUT_DIR="${CMAKE_BINARY_DIR}/bench")
set_target_properties(micro_kernels PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Smoke-test the kernel bench under ctest (and under -DFAE_SANITIZE=ON
# builds): tiny sizes, one rep, and the built-in old-vs-new bit-exactness
# checks. Fails if any new kernel disagrees with the seed scalar path.
add_test(NAME bench_smoke
  COMMAND micro_kernels --smoke --out=${CMAKE_BINARY_DIR}/bench/BENCH_kernels_smoke.json)

# Same deal for the data-pipeline bench (seed AoS layout vs flat SoA
# layout): --smoke shrinks the workload and keeps the built-in seed-vs-flat
# bit-exactness checks, which fail the test on any disagreement.
add_test(NAME bench_pipeline_smoke
  COMMAND pipeline_throughput --smoke --out=${CMAKE_BINARY_DIR}/bench/BENCH_pipeline_smoke.json)

# Pipelined-trainer gate: runs the real engine in every --pipeline mode,
# asserts the phase charges are bit-identical across modes, and fails
# unless FAE's overlap mode beats serial FAE by >= 1.3x on the modeled
# wall. Deterministic (simulated time, cost-only), so smoke == full run.
add_test(NAME bench_pipelined_smoke
  COMMAND abl_pipelined --smoke --out=${CMAKE_BINARY_DIR}/bench/BENCH_pipelined_smoke.json)

# Lookahead-oracle-cache gate: pipelined FAE with the cache on vs the PR-4
# overlap baseline. Fails unless the cache cuts the cold steps' effective
# CPU<->GPU bytes >= 2x, beats the overlap baseline >= 1.15x end to end,
# leaves the phase-charge totals bit-identical cache on/off, and misses at
# a budget below the lookahead working set on both drivers.
add_test(NAME bench_cache_smoke
  COMMAND abl_lookahead_cache --smoke --out=${CMAKE_BINARY_DIR}/bench/BENCH_cache_smoke.json)

# Stale-update-skipping gate: the real engine (math ON) sweeping freeze
# thresholds. Fails unless --stale-threshold=0 is bit-identical to
# --stale-skip=off, and the best threshold whose final test loss stays
# within 0.5% of the exact run cuts the modeled wall >= 1.15x (modeled
# time-to-accuracy at comparable accuracy).
add_test(NAME bench_stale_skip_smoke
  COMMAND abl_stale_skip --smoke
    --out=${CMAKE_BINARY_DIR}/bench/BENCH_stale_skip_smoke.json)

# Quantized cold-store gate: the dim-64 Terabyte workload through the real
# engine in every --cold-precision mode. Fails unless the int8 cold store
# is >= 3x (fp16 >= 1.9x) smaller than the same rows at fp32, the int8
# error stays under the per-row scale/2 bound, master tables are
# bit-identical across modes when everything is hot, and the reclaimed
# budget fed back to the calibrator buys >= 1.1x on the modeled wall.
add_test(NAME bench_quant_smoke
  COMMAND abl_mixed_precision --smoke --out=${CMAKE_BINARY_DIR}/bench/BENCH_quant_smoke.json)

# Multi-node sharding gate: the FAE engine in both --sharding modes over
# {1,4} nodes (full run sweeps {1,2,4,8}), then where whole-table LPT
# wins (kaggle-small, zipf 1.05, one 4-GPU node). Fails unless LPT's
# modeled wall is below replication's there, and losses plus the
# per-phase charge totals are bit-identical across modes.
add_test(NAME bench_multinode_smoke
  COMMAND ext_multinode --smoke
    --out=${CMAKE_BINARY_DIR}/bench/BENCH_multinode_smoke.json)

# Serving gate: drift-free vs drifting traffic, with and without the
# SLO-triggered recalibration + hot-swap, plus an injected-fault run.
# Fails unless recalibration recovers the hit rate to within 5 points of
# drift-free, p99 stays bounded, and every injected fault degrades to
# stale/fallback service (never an outage) with recoveries counted.
add_test(NAME bench_serving_smoke
  COMMAND ext_serving --smoke
    --out=${CMAKE_BINARY_DIR}/bench/BENCH_serving_smoke.json
    --swap=${CMAKE_BINARY_DIR}/bench/BENCH_serving_swap.faef)

# Pinned outputs: the five deterministic gate benches rerun with their
# default arguments into the build tree, and each output must equal the
# committed bench/BENCH_<name>.json byte for byte. Their numbers are modeled
# seconds and seeded counters, so a change that moves any of them shows up
# here; regenerate the committed file only with a change that means to.
function(fae_pin_bench name bench)
  add_test(NAME bench_${name}_pinned
    COMMAND sh -c [[out=$1 ref=$2; shift 2
"$0" --out="$out" "$@" >/dev/null && cmp "$out" "$ref"]]
      $<TARGET_FILE:${bench}> ${CMAKE_BINARY_DIR}/bench/BENCH_${name}.json
      ${CMAKE_SOURCE_DIR}/bench/BENCH_${name}.json ${ARGN})
endfunction()

fae_pin_bench(pipelined abl_pipelined)
fae_pin_bench(cache abl_lookahead_cache)
fae_pin_bench(multinode ext_multinode)
fae_pin_bench(stale_skip abl_stale_skip)
# Its own swap artifact, so it never races bench_serving_smoke's.
fae_pin_bench(serving ext_serving
  --swap=${CMAKE_BINARY_DIR}/bench/BENCH_serving_pinned_swap.faef)
