// Timing decorators for the traced run.
//
// The benchmark records its spans from its own code, around calls into
// each layer's public interface: a CellProbe wraps one shard replica or
// device index (the kernel call a shard cell makes), a QueryProbe wraps
// the index the serving engine receives.  Both forward every call to
// the wrapped index unchanged and only record while the Recorder is
// enabled, so the traced run can switch recording off and on over the
// same index to measure what recording costs.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "index/similarity_index.hpp"

namespace perfbench {

/// Process-wide span sink of the traced run.
class Recorder {
 public:
  /// One kernel call made by a shard cell (or the whole device query
  /// when there is no shard tier).
  struct Cell {
    std::uint64_t trace = 0;  ///< telemetry trace id of the query
    double start = 0.0;       ///< steady-clock seconds
    double end = 0.0;
    int top_k = 0;                ///< k this cell was asked for
    std::uint64_t rescored = 0;   ///< simd rows rescored
    std::uint64_t bytes = 0;      ///< index bytes the kernel streamed
    bool device = false;          ///< true for an fpga-sim call
    topk::core::ExecutionStats device_stats;
  };
  /// One query as the serving engine saw the index.
  struct Query {
    std::uint64_t trace = 0;
    double start = 0.0;
    double end = 0.0;
    topk::index::QueryStats stats;
  };

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void record(Cell cell);
  void record(Query query);
  /// Hands over everything recorded so far and starts empty.
  void take(std::vector<Cell>& cells, std::vector<Query>& queries);

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mutex_;
  std::vector<Cell> cells_;      // guarded by mutex_
  std::vector<Query> queries_;   // guarded by mutex_
};

[[nodiscard]] Recorder& recorder();

/// Records a Cell around every query() of the wrapped index.
/// `screen_bytes` is what one call streams regardless of the query and
/// `row_bytes` what each rescored row adds (0 for non-simd indexes).
class CellProbe final : public topk::index::SimilarityIndex {
 public:
  CellProbe(std::shared_ptr<const topk::index::SimilarityIndex> inner,
            std::string label, std::uint64_t screen_bytes,
            double row_bytes);

  [[nodiscard]] topk::index::QueryResult query(
      std::span<const float> x, int top_k,
      const topk::index::QueryOptions& options = {}) const override;
  [[nodiscard]] std::uint32_t rows() const noexcept override;
  [[nodiscard]] std::uint32_t cols() const noexcept override;
  [[nodiscard]] topk::index::IndexDescription describe() const override;
  [[nodiscard]] int max_top_k() const noexcept override;
  [[nodiscard]] const topk::sparse::Csr* host_csr() const noexcept override;

 private:
  std::shared_ptr<const topk::index::SimilarityIndex> inner_;
  std::string label_;
  std::uint64_t screen_bytes_;
  double row_bytes_;
};

/// Records a Query around every query() of the wrapped (served) index.
class QueryProbe final : public topk::index::SimilarityIndex {
 public:
  explicit QueryProbe(std::shared_ptr<const topk::index::SimilarityIndex> inner);

  [[nodiscard]] topk::index::QueryResult query(
      std::span<const float> x, int top_k,
      const topk::index::QueryOptions& options = {}) const override;
  [[nodiscard]] std::uint32_t rows() const noexcept override;
  [[nodiscard]] std::uint32_t cols() const noexcept override;
  [[nodiscard]] topk::index::IndexDescription describe() const override;
  [[nodiscard]] int max_top_k() const noexcept override;
  [[nodiscard]] const topk::sparse::Csr* host_csr() const noexcept override;

 private:
  std::shared_ptr<const topk::index::SimilarityIndex> inner_;
};

/// Registry name of a cpu-simd backend whose every instance sits behind
/// a CellProbe.  Registered on first call.  Shard builds, compaction
/// rebuilds and deployment reloads construct shard replicas through the
/// registry by this name, so every generation stays probed.
[[nodiscard]] std::string traced_cpu_simd_backend();

}  // namespace perfbench
