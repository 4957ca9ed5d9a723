// churn-mutable: the full stack.  mutable-sharded-cpu-simd (200k base
// rows, 4 shards, R=2) serves queries while a paced stream of appends,
// deletes and upserts runs alongside and persist::Compactor folds the
// delta into a new generation every kCompactThreshold mutations.  Each
// phase (closed loop, then the two open-loop rates) starts from a fresh
// cold build and replays the same mutation stream, so the three phases
// see the same index states.  Deletes and upserts are in the mix because
// every masked id raises the k each shard is asked for.
#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "index/backends.hpp"
#include "layers.hpp"
#include "persist/compactor.hpp"
#include "probes.hpp"
#include "shard/mutable_sharded_index.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kBaseRows = 200'000;
constexpr int kShards = 4;
constexpr int kReplicas = 2;
constexpr int kTopK = 10;
constexpr int kWorkers = 2;
constexpr std::size_t kBatch = 16;
constexpr std::size_t kQueryPool = 256;
constexpr std::size_t kProbeQueries = 16;
constexpr int kSetupBuilds = 15;
constexpr double kMutationRate = 100.0;  // mutations per second
// Not a divisor of a phase's mutation count: the last compaction of a
// phase lands well before the phase ends instead of racing its end.
constexpr std::uint64_t kCompactThreshold = 250;
constexpr double kLowRate = 150.0;
constexpr double kHighRate = 300.0;

struct Row {
  std::vector<std::uint32_t> columns;
  std::vector<float> values;
};

/// One planned mutation.  Appends carry the id the index must assign.
struct Mutation {
  enum class Kind { kAppend, kDelete, kUpsert } kind = Kind::kAppend;
  std::uint32_t id = 0;
  Row row;
};

Row random_row(std::uint32_t cols, topk::util::Xoshiro256& rng) {
  const auto nnz = static_cast<std::uint32_t>(10 + rng.bounded(21));
  std::map<std::uint32_t, float> entries;
  while (entries.size() < nnz) {
    entries[static_cast<std::uint32_t>(rng.bounded(cols))] =
        static_cast<float>(rng.uniform(0.01, 1.0));
  }
  double norm = 0.0;
  for (const auto& [column, value] : entries) {
    norm += static_cast<double>(value) * value;
  }
  Row row;
  for (const auto& [column, value] : entries) {
    row.columns.push_back(column);
    row.values.push_back(static_cast<float>(value / std::sqrt(norm)));
  }
  return row;
}

/// The mutation stream: half appends, a quarter deletes and a quarter
/// upserts, targets drawn from the ids live at that point.
std::vector<Mutation> plan_mutations(std::size_t count, std::uint32_t cols,
                                     std::uint64_t seed) {
  topk::util::Xoshiro256 rng(seed);
  std::vector<std::uint32_t> live(kBaseRows);
  for (std::uint32_t id = 0; id < kBaseRows; ++id) {
    live[id] = id;
  }
  std::uint32_t next_id = kBaseRows;
  std::vector<Mutation> plan(count);
  for (Mutation& m : plan) {
    const std::uint64_t pick = rng.bounded(4);
    if (pick < 2) {
      m.kind = Mutation::Kind::kAppend;
      m.id = next_id++;
      m.row = random_row(cols, rng);
      live.push_back(m.id);
    } else {
      const std::size_t slot = rng.bounded(live.size());
      m.id = live[slot];
      if (pick == 2) {
        m.kind = Mutation::Kind::kDelete;
        live[slot] = live.back();
        live.pop_back();
      } else {
        m.kind = Mutation::Kind::kUpsert;
        m.row = random_row(cols, rng);
      }
    }
  }
  return plan;
}

/// The logical matrix after the mutations: its live rows in ascending id
/// order plus each oracle row's id.
struct Logical {
  std::shared_ptr<const topk::sparse::Csr> matrix;
  std::vector<std::uint32_t> live_ids;
};

Logical logical_matrix(const topk::sparse::Csr& base,
                       const std::vector<Mutation>& applied) {
  std::map<std::uint32_t, const Row*> overrides;  // null = deleted
  std::uint32_t next_id = base.rows();
  for (const Mutation& m : applied) {
    overrides[m.id] = m.kind == Mutation::Kind::kDelete ? nullptr : &m.row;
    next_id = std::max(next_id, m.id + 1);
  }
  Logical out;
  std::vector<std::uint64_t> row_ptr{0};
  std::vector<std::uint32_t> col_idx;
  std::vector<float> values;
  for (std::uint32_t id = 0; id < next_id; ++id) {
    const auto it = overrides.find(id);
    if (it != overrides.end()) {
      if (it->second == nullptr) {
        continue;
      }
      col_idx.insert(col_idx.end(), it->second->columns.begin(),
                     it->second->columns.end());
      values.insert(values.end(), it->second->values.begin(),
                    it->second->values.end());
    } else {
      for (std::uint64_t k = base.row_ptr()[id]; k < base.row_ptr()[id + 1];
           ++k) {
        col_idx.push_back(base.col_idx()[k]);
        values.push_back(base.values()[k]);
      }
    }
    out.live_ids.push_back(id);
    row_ptr.push_back(col_idx.size());
  }
  out.matrix = std::make_shared<const topk::sparse::Csr>(
      topk::sparse::Csr::from_parts(
          static_cast<std::uint32_t>(out.live_ids.size()), base.cols(),
          std::move(row_ptr), std::move(col_idx), std::move(values)));
  return out;
}

std::shared_ptr<topk::shard::MutableShardedIndex> build_mutable(
    const std::shared_ptr<const topk::sparse::Csr>& matrix,
    const std::string& inner) {
  topk::shard::RebuildRecipe recipe;
  recipe.shards = kShards;
  recipe.replicas = kReplicas;
  recipe.inner_backend = inner;
  recipe.label = "sharded-cpu-simd";
  topk::shard::MutableConfig config;
  config.compact_threshold = kCompactThreshold;
  config.label = "mutable-sharded-cpu-simd";
  auto base = topk::shard::ShardedIndexBuilder()
                  .matrix(matrix)
                  .shards(recipe.shards)
                  .policy(recipe.policy)
                  .replicas(recipe.replicas)
                  .routing(recipe.routing)
                  .inner_backend(inner)
                  .label(recipe.label)
                  .build();
  return std::make_shared<topk::shard::MutableShardedIndex>(
      std::move(base), matrix, std::move(recipe), std::move(config));
}

/// Applies the mutation plan at kMutationRate on its own thread, paced
/// by deadline sleeps, while a second thread runs threshold compactions.
/// finish() (or the destructor) waits for the plan, then stops and joins
/// the compactor.
class Churn {
 public:
  Churn(topk::shard::MutableShardedIndex& index,
        topk::persist::Compactor& compactor, const std::vector<Mutation>& plan)
      : index_(index), compactor_(compactor), plan_(plan) {
    mutator_thread_ = std::thread([this] { mutate(); });
    compactor_thread_ = std::thread([this] { compact(); });
  }
  ~Churn() { finish(); }
  Churn(const Churn&) = delete;
  Churn& operator=(const Churn&) = delete;

  void finish() {
    if (mutator_thread_.joinable()) {
      mutator_thread_.join();
    }
    stop_.store(true);
    if (compactor_thread_.joinable()) {
      compactor_thread_.join();
    }
  }

  // Read after finish().
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<double> mutation_us;

 private:
  void record_error(const std::string& what) {
    std::lock_guard lock(error_mutex_);
    ++failed;
    if (errors.size() < 4) {
      errors.push_back(what);
    }
  }

  void mutate() {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < plan_.size(); ++i) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(i) / kMutationRate)));
      const Mutation& m = plan_[i];
      const double begin = now_seconds();
      try {
        if (m.kind == Mutation::Kind::kAppend) {
          const std::uint32_t id = index_.insert_row(m.row.columns, m.row.values);
          if (id != m.id) {
            record_error("append got id " + std::to_string(id) + ", planned " +
                         std::to_string(m.id));
          }
        } else if (m.kind == Mutation::Kind::kDelete) {
          if (!index_.delete_row(m.id)) {
            record_error("delete of a row already deleted");
          }
        } else {
          index_.insert_row(m.id, m.row.columns, m.row.values);
        }
      } catch (const std::exception& error) {
        record_error(std::string("mutation threw: ") + error.what());
      }
      mutation_us.push_back((now_seconds() - begin) * 1e6);
    }
  }

  void compact() {
    while (!stop_.load()) {
      try {
        (void)compactor_.maybe_compact();
      } catch (const std::exception& error) {
        record_error(std::string("compaction threw: ") + error.what());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  topk::shard::MutableShardedIndex& index_;
  topk::persist::Compactor& compactor_;
  const std::vector<Mutation>& plan_;
  std::atomic<bool> stop_{false};
  std::mutex error_mutex_;
  std::thread mutator_thread_;
  std::thread compactor_thread_;
};

}  // namespace

RunResult run_churn_mutable(const RunSettings& settings) {
  RunResult out;
  topk::util::shared_pool().ensure_workers(kWorkers);
  const auto matrix = make_collection(kBaseRows, derive_seed(settings.seed, 1));
  const auto queries =
      make_queries(kQueryPool, matrix->cols(), derive_seed(settings.seed, 2));
  const auto probes =
      make_queries(kProbeQueries, matrix->cols(), derive_seed(settings.seed, 3));
  const double closed_seconds = settings.seconds * kClosedShare;
  const double open_seconds = settings.seconds * (1.0 - kClosedShare) / 2.0;
  const std::string inner =
      settings.trace ? traced_cpu_simd_backend() : "cpu-simd";

  auto [setup_s, first_index] = build_timed(
      kSetupBuilds, [&] { return build_mutable(matrix, inner); });
  const double bytes_per_nnz =
      static_cast<double>(first_index->describe().memory_bytes) /
      static_cast<double>(matrix->nnz());

  LayerInputs layers;
  if (settings.trace) {
    layers.triad_bytes_per_second = stream_triad_bytes_per_second();
  }
  std::vector<std::vector<std::vector<float>>> batches;
  for (std::size_t b = 0; b + kBatch <= queries.size(); b += kBatch) {
    batches.emplace_back(queries.begin() + static_cast<long>(b),
                         queries.begin() + static_cast<long>(b + kBatch));
  }

  std::vector<double> recalls;
  std::vector<double> compaction_s;
  ClosedLoopResult closed;
  std::vector<OpenLoopResult> open(2);
  std::vector<PhaseTrace> traces(3);
  const char* names[3] = {"closed", "low", "high"};
  std::optional<RssSampler> rss_sampler(std::in_place);
  for (int phase = 0; phase < 3; ++phase) {
    const double seconds = phase == 0 ? closed_seconds : open_seconds;
    const auto plan = plan_mutations(
        static_cast<std::size_t>(kMutationRate * seconds), matrix->cols(),
        derive_seed(settings.seed, 4));
    // Memory the previous phase freed goes back to the system, so each
    // phase's footprint starts from the same state.
    malloc_trim(0);
    auto index = phase == 0 ? std::move(first_index)
                            : build_mutable(matrix, inner);
    const std::filesystem::path root =
        std::filesystem::path(settings.work_dir) / ("churn-" + std::string(names[phase]));
    std::filesystem::remove_all(root);
    topk::persist::Compactor compactor(index, root);
    std::shared_ptr<const topk::index::SimilarityIndex> served = index;
    if (settings.trace) {
      served = std::make_shared<QueryProbe>(index);
    }
    topk::serve::EngineConfig config;
    config.workers = phase == 0 ? kWorkers : 1;
    config.max_pending = 1024;
    topk::serve::QueryEngine engine(served, config);

    std::size_t cursor = 0;
    const auto step = [&]() -> std::size_t {
      out.attempted += kBatch;
      try {
        (void)engine.query_batch(batches[cursor++ % batches.size()], kTopK);
      } catch (const std::exception& error) {
        out.failed += kBatch;
        out.fail(std::string("query_batch threw: ") + error.what());
      }
      return kBatch;
    };
    if (settings.trace && phase == 0) {
      layers.overhead_pct = tracing_overhead_pct(step, 0.5, 3);
    }

    Churn churn(*index, compactor, plan);
    if (phase == 0) {
      closed = run_closed_loop(seconds, step);
    } else {
      open[phase - 1] = run_open_loop(
          engine, queries,
          poisson_schedule(phase == 1 ? kLowRate : kHighRate, seconds,
                           derive_seed(settings.seed, 100 + phase)),
          kTopK, [](std::size_t, const topk::index::QueryResult&) {});
      report_open_loop(open[phase - 1], names[phase], out);
    }
    churn.finish();
    engine.drain();
    if (settings.trace) {
      traces[phase] = take_phase_trace();
      layers.mutation_us.insert(layers.mutation_us.end(),
                                churn.mutation_us.begin(),
                                churn.mutation_us.end());
      set_tracing(false);
    }
    out.attempted += plan.size();
    out.failed += churn.failed;
    for (const auto& error : churn.errors) {
      out.fail(std::string(names[phase]) + ": " + error);
    }
    const auto base = index->base();
    for (std::size_t s = 0; s < base->shard_count(); ++s) {
      for (const auto& replica : base->replica_stats(s)) {
        layers.replica_failures += replica.failures;
      }
    }
    for (const auto& report : compactor.history()) {
      compaction_s.push_back(report.total_seconds);
      layers.compactions.push_back(report);
    }

    // Settled: every result must equal an exact-sort rebuild of the
    // logical matrix, ids mapped back through the live-id order.
    const Logical logical = logical_matrix(*matrix, plan);
    topk::index::ExactSortIndex oracle(logical.matrix);
    if (index->live_rows() != logical.live_ids.size()) {
      out.fail(std::string(names[phase]) + ": live_rows " +
               std::to_string(index->live_rows()) + ", expected " +
               std::to_string(logical.live_ids.size()));
    }
    std::size_t differing = 0;
    for (const auto& probe : probes) {
      auto truth = oracle.query(probe, kTopK).entries;
      for (auto& entry : truth) {
        entry.index = logical.live_ids[entry.index];
      }
      const auto got = index->query(probe, kTopK).entries;
      recalls.push_back(recall(got, truth));
      differing += got == truth ? 0 : 1;
    }
    if (differing != 0) {
      out.fail(std::string(names[phase]) + ": " + std::to_string(differing) +
               " probe queries differ from the exact-sort rebuild");
    }
    out.note(std::string("compactions.") + names[phase],
             static_cast<double>(compactor.history().size()), "count");
    out.note(std::string("masked_at_end.") + names[phase],
             static_cast<double>(index->delta_stats().tombstones +
                                 index->delta_stats().superseded),
             "count");
    if (settings.trace && phase < 2) {
      set_tracing(true);
    }
    std::filesystem::remove_all(root);
  }
  const double rss = rss_sampler->peak_mb();
  rss_sampler.reset();

  out.add("query_qps", closed.qps(), "1/s");
  out.add("setup_s", setup_s, "s");
  out.add("peak_rss_mb", rss, "MB");
  out.add("index_bytes_per_nnz", bytes_per_nnz, "B/nnz");
  out.add("recall_at_k", mean(recalls), "ratio");
  out.note("compaction_s", median(compaction_s), "s");
  out.note("rows", matrix->rows(), "count");
  out.note("cols", matrix->cols(), "count");
  out.note("nnz", static_cast<double>(matrix->nnz()), "count");
  out.note("shards", kShards, "count");
  out.note("replicas", kReplicas, "count");
  out.note("top_k", kTopK, "count");
  out.note("query_workers", kWorkers, "count");
  out.note("batch", kBatch, "count");
  out.note("rate.low", kLowRate, "1/s");
  out.note("rate.high", kHighRate, "1/s");
  out.note("mutation_rate", kMutationRate, "1/s");
  out.note("compact_threshold", static_cast<double>(kCompactThreshold), "count");
  out.note("closed_loop_queries", static_cast<double>(closed.queries), "count");

  if (settings.trace) {
    layers.phases = traces;
    layers.open_loop = {{&traces[1], &open[0]}, {&traces[2], &open[1]}};
    report_layers(layers, out);
  }
  return out;
}

}  // namespace perfbench
