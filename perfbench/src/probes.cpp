#include "probes.hpp"

#include <utility>

#include "harness.hpp"
#include "index/backends.hpp"
#include "index/registry.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

void Recorder::record(Cell cell) {
  std::lock_guard lock(mutex_);
  cells_.push_back(std::move(cell));
}

void Recorder::record(Query query) {
  std::lock_guard lock(mutex_);
  queries_.push_back(std::move(query));
}

void Recorder::take(std::vector<Cell>& cells, std::vector<Query>& queries) {
  std::lock_guard lock(mutex_);
  cells = std::exchange(cells_, {});
  queries = std::exchange(queries_, {});
}

Recorder& recorder() {
  static Recorder instance;
  return instance;
}

CellProbe::CellProbe(std::shared_ptr<const topk::index::SimilarityIndex> inner,
                     std::string label, std::uint64_t screen_bytes,
                     double row_bytes)
    : inner_(std::move(inner)),
      label_(std::move(label)),
      screen_bytes_(screen_bytes),
      row_bytes_(row_bytes) {}

topk::index::QueryResult CellProbe::query(
    std::span<const float> x, int top_k,
    const topk::index::QueryOptions& options) const {
  if (!recorder().enabled()) {
    return inner_->query(x, top_k, options);
  }
  Recorder::Cell cell;
  cell.trace = topk::telemetry::current_trace_id();
  cell.top_k = top_k;
  cell.start = now_seconds();
  topk::index::QueryResult result = inner_->query(x, top_k, options);
  cell.end = now_seconds();
  if (const auto* simd = topk::index::simd_stats(result)) {
    cell.rescored = simd->rows_rescored;
  }
  cell.bytes = screen_bytes_ +
               static_cast<std::uint64_t>(row_bytes_ *
                                          static_cast<double>(cell.rescored));
  if (const auto* device = topk::index::fpga_stats(result)) {
    cell.device = true;
    cell.device_stats = *device;
  }
  recorder().record(std::move(cell));
  return result;
}

std::uint32_t CellProbe::rows() const noexcept { return inner_->rows(); }
std::uint32_t CellProbe::cols() const noexcept { return inner_->cols(); }

topk::index::IndexDescription CellProbe::describe() const {
  topk::index::IndexDescription description = inner_->describe();
  description.backend = label_;
  return description;
}

int CellProbe::max_top_k() const noexcept { return inner_->max_top_k(); }

const topk::sparse::Csr* CellProbe::host_csr() const noexcept {
  return inner_->host_csr();
}

QueryProbe::QueryProbe(
    std::shared_ptr<const topk::index::SimilarityIndex> inner)
    : inner_(std::move(inner)) {}

topk::index::QueryResult QueryProbe::query(
    std::span<const float> x, int top_k,
    const topk::index::QueryOptions& options) const {
  if (!recorder().enabled()) {
    return inner_->query(x, top_k, options);
  }
  Recorder::Query span;
  span.trace = topk::telemetry::current_trace_id();
  span.start = now_seconds();
  topk::index::QueryResult result = inner_->query(x, top_k, options);
  span.end = now_seconds();
  span.stats = result.stats;
  recorder().record(std::move(span));
  return result;
}

std::uint32_t QueryProbe::rows() const noexcept { return inner_->rows(); }
std::uint32_t QueryProbe::cols() const noexcept { return inner_->cols(); }

topk::index::IndexDescription QueryProbe::describe() const {
  return inner_->describe();
}

int QueryProbe::max_top_k() const noexcept { return inner_->max_top_k(); }

const topk::sparse::Csr* QueryProbe::host_csr() const noexcept {
  return inner_->host_csr();
}

std::string traced_cpu_simd_backend() {
  static const std::string name = [] {
    const std::string label = "perfbench-traced-cpu-simd";
    topk::index::register_backend(
        label,
        [label](std::shared_ptr<const topk::sparse::Csr> matrix,
                const topk::index::IndexOptions&)
            -> std::shared_ptr<topk::index::SimilarityIndex> {
          auto inner = std::make_shared<topk::index::CpuSimdIndex>(matrix);
          const double row_bytes =
              matrix->rows() == 0
                  ? 0.0
                  : static_cast<double>(matrix->csr_bytes()) /
                        static_cast<double>(matrix->rows());
          return std::make_shared<CellProbe>(inner, label,
                                             inner->layout().extra_bytes(),
                                             row_bytes);
        });
    return label;
  }();
  return name;
}

}  // namespace perfbench
