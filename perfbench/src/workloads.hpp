// The benchmark's workloads.  Each builds its inputs from the seed,
// measures for the requested time, checks its outputs and returns every
// end-to-end metric; a traced run also returns every per-layer metric.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "harness.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

/// Read-only closed loop plus two open-loop rates over sharded-cpu-simd
/// (1M x 1024 Gamma rows, 4 shards, R=1).
[[nodiscard]] RunResult run_scan_simd(const RunSettings& settings);

/// The full mutable stack: mutable-sharded-cpu-simd (200k base rows, 4
/// shards, R=2) under a paced append/delete/upsert stream with
/// threshold compactions.
[[nodiscard]] RunResult run_churn_mutable(const RunSettings& settings);

/// fpga-sim (20-bit, 32 cores) under the U280 hbmsim timing model,
/// one host thread.
[[nodiscard]] RunResult run_fpga_u280(const RunSettings& settings);

// ---- helpers shared by the workloads ----

/// Table III-shaped collection: Gamma(3, 4/3) row densities rescaled to
/// 20 non-zeros per row on average, 1024 columns, L2-normalised rows.
[[nodiscard]] std::shared_ptr<const topk::sparse::Csr> make_collection(
    std::uint32_t rows, std::uint64_t seed);

/// `count` dense, L2-normalised query vectors.
[[nodiscard]] std::vector<std::vector<float>> make_queries(
    std::size_t count, std::uint32_t cols, std::uint64_t seed);

}  // namespace perfbench
