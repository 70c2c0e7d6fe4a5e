// Shared machinery of the benchmark: options, the span recorder, the
// metric sink, sample statistics and the result line.
//
// Spans are recorded only from the benchmark's own code, around the calls
// it makes into each module's public functions; nothing inside the
// library is instrumented. A span always measures (the end-to-end
// timings come from the same clock reads) but is kept only when the run
// was started with tracing on.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "vcgra/softfloat/fpformat.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Corrupt one reference (or one output) on purpose: the run must then
  /// report the affected operations as failed. Proves the checks can fail.
  bool inject_fault = false;
  std::string git_sha = "unknown";
  /// Directory (inside the checkout) for traces and store directories.
  std::string out_dir = ".bench_build/perfbench_out";
  /// Threads the run may use in total: the machine's CPU count.
  int cpus = 1;
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process-wide span store. Spans are appended under a mutex when they
/// close; the parent is the innermost open span of the same thread.
class Tracer {
 public:
  struct Record {
    const char* name = nullptr;  // string literal
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t id = -1;
    std::int64_t parent = -1;
    std::uint64_t op = 0;
    std::uint32_t thread = 0;
  };

  static Tracer& get();
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  std::int64_t open(std::int64_t* parent_out);
  void close(const Record& record);
  std::vector<Record> snapshot() const;
  std::size_t size() const;

  /// Chrome trace_event JSON (one "X" event per span, args carry op id,
  /// span id and parent).
  void write_chrome(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Record> records_;
  std::int64_t next_id_ = 0;
};

/// RAII span. stop() ends it early and returns its duration in seconds.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t op = 0);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  double stop();

 private:
  Tracer::Record record_;
  bool open_ = true;
  bool traced_ = false;
};

/// Self time per span name: duration minus the part covered by child
/// spans. Returns name -> (count, total seconds, total self seconds).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
};
std::map<std::string, SpanTotals> span_totals(
    const std::vector<Tracer::Record>& records);

double median(std::vector<double> values);
double quantile(std::vector<double> values, double q);

/// Median wall time, in seconds, of `reps` calls of `fn`.
template <typename Fn>
double time_median(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t start = now_ns();
    fn();
    t.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  return median(t);
}

/// A uniform random sample of at most `capacity` values out of however
/// many are added (reservoir sampling with a fixed seed). Its memory is
/// allocated and touched up front, so the benchmark's own bookkeeping
/// does not grow with the program's throughput and leak into the
/// peak-RSS metric.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity = 1 << 16);
  void add(double value);
  /// The sampled values (all of them while fewer than capacity were added).
  std::vector<double> values() const {
    return {buffer_.begin(), buffer_.begin() + static_cast<long>(std::min(seen_, buffer_.size()))};
  }
  std::uint64_t seen() const { return seen_; }

 private:
  std::vector<double> buffer_;
  std::uint64_t seen_ = 0;
  std::uint64_t state_ = 0x853c49e6748fea9bULL;
};

/// Per-round figures of a closed-loop client. Every round is the same
/// fixed set of operations, so each round's figures are samples of one
/// quantity; their medians shrug off the rounds that outside interference
/// (other tenants of the machine) happened to hit.
///
/// Interference only ever slows a round down, so the run's figure is
/// taken from its quieter rounds: the first quartile over rounds for
/// times, the third for rates.
struct RoundStats {
  Reservoir p50{4096}, ops_per_s{4096}, mcycles_per_s{4096};
  /// `op_walls`: client wall time of each operation of the round (may be
  /// empty when only throughput is wanted); `busy_s`: their sum.
  void add_round(const std::vector<double>& op_walls, double busy_s, std::uint64_t ops,
                 std::uint64_t cycles);
  static double time(const Reservoir& r) { return quantile(r.values(), 0.25); }
  static double rate(const Reservoir& r) { return quantile(r.values(), 0.75); }
};

/// Named metrics of one run with their units, printed in the result line.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, std::pair<double, std::string>>& all() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// What a workload hands back to main().
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
  /// Lines printed before the result: notes, attribution tables.
  std::vector<std::string> report;
};

/// Short metric tag of a format, e.g. e6m26.
std::string fmt_tag(const vcgra::softfloat::FpFormat& format);

/// Peak resident set of the process so far, in MiB.
double peak_rss_mib();
/// CPU seconds (user + system, all threads) of the process so far.
double process_cpu_seconds();

/// 64-bit digest of a word stream, fed one word at a time: bit-exact
/// comparison of long outputs against precomputed references without
/// keeping the references in memory.
class Digest {
 public:
  void add(std::uint64_t word) {
    std::uint64_t x = word + 0x9e3779b97f4a7c15ULL * ++count_;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    h_ = (h_ ^ (x ^ (x >> 31))) * 0x100000001b3ULL;
  }
  std::uint64_t value() const { return h_ ^ count_; }

 private:
  std::uint64_t h_ = 0x9e3779b97f4a7c15ULL;
  std::uint64_t count_ = 0;
};

/// Seconds since the process started (steady clock).
double seconds_since_start();

/// One formatted line (printf-style).
std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
