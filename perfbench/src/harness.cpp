#include "harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>

#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double now_seconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double weight = position - static_cast<double>(lower);
  return values[lower] + weight * (values[upper] - values[lower]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (stream * 0x9E3779B97F4A7C15ULL);
  return topk::util::splitmix64(state);
}

ClosedLoopResult run_closed_loop(double seconds,
                                 const std::function<std::size_t()>& step) {
  ClosedLoopResult out;
  const double start = now_seconds();
  double window_start = start;
  std::size_t window_queries = 0;
  double now = start;
  while (now - start < seconds) {
    const std::size_t done = step();
    out.queries += done;
    window_queries += done;
    now = now_seconds();
    if (now - window_start >= ClosedLoopResult::kWindowSeconds) {
      out.window_qps.push_back(static_cast<double>(window_queries) /
                               (now - window_start));
      window_start = now;
      window_queries = 0;
    }
  }
  out.seconds = now - start;
  if (out.window_qps.empty()) {
    out.window_qps.push_back(static_cast<double>(out.queries) / out.seconds);
  }
  return out;
}

RssSampler::RssSampler() {
  sample();
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kPeriodMs));
      sample();
    }
  });
}

RssSampler::~RssSampler() {
  stop_.store(true);
  thread_.join();
}

void RssSampler::sample() {
  std::ifstream statm("/proc/self/statm");
  long size = 0;
  long resident = 0;
  if (statm >> size >> resident && resident > peak_pages_.load()) {
    peak_pages_.store(resident);
  }
}

double RssSampler::peak_mb() const {
  return static_cast<double>(peak_pages_.load()) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double stream_triad_bytes_per_second() {
  constexpr std::size_t kElements = std::size_t{1} << 23;  // 64 MiB per array
  std::vector<double> a(kElements, 0.0);
  std::vector<double> b(kElements, 1.0);
  std::vector<double> c(kElements, 2.0);
  const double scalar = 3.0;
  double best = 0.0;
  for (int pass = 0; pass < 6; ++pass) {
    const double start = now_seconds();
    for (std::size_t i = 0; i < kElements; ++i) {
      a[i] = b[i] + scalar * c[i];
    }
    const double elapsed = now_seconds() - start;
    best = std::max(best, 24.0 * static_cast<double>(kElements) / elapsed);
  }
  // Keep the stores observable.
  if (a[kElements / 2] != 7.0) {
    return 0.0;
  }
  return best;
}

double recall(const std::vector<topk::core::TopKEntry>& got,
              const std::vector<topk::core::TopKEntry>& truth) {
  if (truth.empty()) {
    return 1.0;
  }
  std::unordered_set<std::uint32_t> wanted;
  for (const auto& entry : truth) {
    wanted.insert(entry.index);
  }
  std::size_t hits = 0;
  for (const auto& entry : got) {
    hits += wanted.count(entry.index);
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

Schedule poisson_schedule(double rate, double seconds, std::uint64_t seed) {
  Schedule schedule;
  schedule.rate = rate;
  const auto count = static_cast<std::size_t>(std::llround(rate * seconds));
  topk::util::Xoshiro256 rng(seed);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    schedule.due.push_back(t);
    t += -std::log1p(-rng.uniform()) / rate;
  }
  return schedule;
}

OpenLoopResult run_open_loop(
    topk::serve::QueryEngine& engine,
    const std::vector<std::vector<float>>& queries, const Schedule& schedule,
    int top_k,
    const std::function<void(std::size_t, const topk::index::QueryResult&)>&
        check) {
  const std::size_t n = schedule.due.size();
  OpenLoopResult out;
  out.latency_ms.assign(n, OpenLoopResult::kMissedMs);
  out.late_ms.assign(n, 0.0);
  out.mean_gap_ms = 1e3 / schedule.rate;

  struct InFlight {
    std::size_t i = 0;
    std::future<topk::index::QueryResult> future;
  };
  std::mutex inbox_mutex;
  std::condition_variable inbox_cv;
  std::deque<InFlight> inbox;  // guarded by inbox_mutex
  bool sending_done = false;   // guarded by inbox_mutex

  std::vector<double> due_abs(n, 0.0);
  std::vector<double> done_abs(n, -1.0);
  std::vector<std::optional<topk::index::QueryResult>> results(n);
  std::atomic<std::uint64_t> query_failures{0};

  // Each waiter blocks on one request's future and stamps it the moment
  // it is ready: exact while no more than kWaiters requests are in
  // flight, and no thread spins.
  const auto wait_loop = [&] {
    for (;;) {
      InFlight next;
      {
        std::unique_lock lock(inbox_mutex);
        inbox_cv.wait(lock, [&] { return !inbox.empty() || sending_done; });
        if (inbox.empty()) {
          return;
        }
        next = std::move(inbox.front());
        inbox.pop_front();
      }
      next.future.wait();
      done_abs[next.i] = now_seconds();
      try {
        results[next.i] = next.future.get();
      } catch (const std::exception&) {
        query_failures.fetch_add(1);
      }
    }
  };
  const Clock::time_point base = Clock::now() + std::chrono::milliseconds(5);
  const double base_seconds =
      std::chrono::duration<double>(base.time_since_epoch()).count();
  std::uint64_t rejections = 0;
  {
    std::vector<std::thread> waiters;
    // Stops and joins the waiters on every way out of this block.
    struct WaiterGuard {
      std::function<void()> finish;
      ~WaiterGuard() { finish(); }
    } guard{[&] {
      {
        std::lock_guard lock(inbox_mutex);
        sending_done = true;
      }
      inbox_cv.notify_all();
      for (auto& waiter : waiters) {
        waiter.join();
      }
    }};
    for (std::size_t w = 0; w < kWaiters; ++w) {
      waiters.emplace_back(wait_loop);
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<float> x = queries[i % queries.size()];
      const auto due =
          base + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(schedule.due[i]));
      std::this_thread::sleep_until(due);
      due_abs[i] = base_seconds + schedule.due[i];
      out.late_ms[i] = (now_seconds() - due_abs[i]) * 1e3;
      auto future = engine.try_submit(std::move(x), top_k);
      if (!future) {
        ++rejections;
        continue;
      }
      {
        std::lock_guard lock(inbox_mutex);
        inbox.push_back({i, std::move(*future)});
      }
      inbox_cv.notify_one();
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (results[i]) {
      out.latency_ms[i] = (done_abs[i] - due_abs[i]) * 1e3;
      check(i, *results[i]);
    }
  }
  out.peak_pending = engine.stats().peak_pending;
  out.attempted = n;
  out.failed = query_failures.load() + rejections;
  return out;
}

double sliced_quantile(const std::vector<double>& latency_ms, double q) {
  const std::size_t slices = std::max<std::size_t>(1, latency_ms.size() / kSliceQueries);
  std::vector<double> per_slice;
  for (std::size_t s = 0; s < slices; ++s) {
    const auto begin = latency_ms.begin() +
                       static_cast<long>(s * latency_ms.size() / slices);
    const auto end = latency_ms.begin() +
                     static_cast<long>((s + 1) * latency_ms.size() / slices);
    per_slice.push_back(quantile(std::vector<double>(begin, end), q));
  }
  return median(std::move(per_slice));
}

void report_open_loop(const OpenLoopResult& phase, const std::string& suffix,
                      RunResult& out) {
  out.add("query_p50_ms." + suffix, sliced_quantile(phase.latency_ms, 0.5),
          "ms");
  out.add("query_p90_ms." + suffix, sliced_quantile(phase.latency_ms, 0.9),
          "ms");
  out.attempted += phase.attempted;
  out.failed += phase.failed;
  const double late_p90 = quantile(phase.late_ms, 0.9);
  out.note("loadgen.samples." + suffix,
           static_cast<double>(phase.latency_ms.size()), "count");
  out.note("loadgen.late_ms_p50." + suffix, quantile(phase.late_ms, 0.5), "ms");
  out.note("loadgen.late_ms_p90." + suffix, late_p90, "ms");
  out.note("loadgen.late_ms_p99." + suffix, quantile(phase.late_ms, 0.99),
           "ms");
  out.note("loadgen.late_ms_max." + suffix,
           *std::max_element(phase.late_ms.begin(), phase.late_ms.end()), "ms");
  out.note("loadgen.mean_gap_ms." + suffix, phase.mean_gap_ms, "ms");
  out.note("serve.peak_pending." + suffix,
           static_cast<double>(phase.peak_pending), "count");
  if (late_p90 > kMaxLateShareOfGap * phase.mean_gap_ms) {
    out.invalid("open loop '" + suffix + "': generator ran " +
                std::to_string(late_p90) + " ms late at p90, over " +
                std::to_string(kMaxLateShareOfGap) + " of the " +
                std::to_string(phase.mean_gap_ms) + " ms mean gap");
  }
  if (phase.failed != 0) {
    out.fail("open loop '" + suffix + "': " + std::to_string(phase.failed) +
             " queries failed or were rejected");
  }
}

}  // namespace perfbench
