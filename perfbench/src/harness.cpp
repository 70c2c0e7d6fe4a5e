#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

// Taken during static initialization, before main(): the closest the
// process can get to its own start without asking the kernel.
const std::uint64_t kProcessStartNs = now_ns();

thread_local std::int64_t t_open_span = -1;

std::uint32_t thread_tag() {
  static std::mutex mutex;
  static std::uint32_t next = 0;
  thread_local std::uint32_t tag = [] {
    std::lock_guard<std::mutex> lock(mutex);
    return next++;
  }();
  return tag;
}

}  // namespace

double seconds_since_start() {
  return static_cast<double>(now_ns() - kProcessStartNs) * 1e-9;
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::open(std::int64_t* parent_out) {
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
  }
  *parent_out = t_open_span;
  t_open_span = id;
  return id;
}

void Tracer::close(const Record& record) {
  t_open_span = record.parent;
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(record);
}

std::vector<Tracer::Record> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::vector<Record> records = snapshot();
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    out << fmt("{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
               "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
               "\"parent\":%lld,\"op\":%llu}}%s\n",
               r.name, r.thread, static_cast<double>(r.start_ns) * 1e-3,
               static_cast<double>(r.end_ns - r.start_ns) * 1e-3,
               static_cast<long long>(r.id), static_cast<long long>(r.parent),
               static_cast<unsigned long long>(r.op),
               i + 1 < records.size() ? "," : "");
  }
  out << "]}\n";
}

Span::Span(const char* name, std::uint64_t op) {
  record_.name = name;
  record_.op = op;
  Tracer& tracer = Tracer::get();
  traced_ = tracer.enabled();
  if (traced_) {
    record_.id = tracer.open(&record_.parent);
    record_.thread = thread_tag();
  }
  record_.start_ns = now_ns();
}

double Span::stop() {
  if (!open_) {
    return static_cast<double>(record_.end_ns - record_.start_ns) * 1e-9;
  }
  record_.end_ns = now_ns();
  open_ = false;
  if (traced_) Tracer::get().close(record_);
  return static_cast<double>(record_.end_ns - record_.start_ns) * 1e-9;
}

std::map<std::string, SpanTotals> span_totals(
    const std::vector<Tracer::Record>& records) {
  // Children of one parent run on the parent's thread and never overlap
  // each other, so the covered part is the sum of their durations.
  std::map<std::int64_t, double> child_seconds;
  for (const Tracer::Record& r : records) {
    if (r.parent >= 0) {
      child_seconds[r.parent] +=
          static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (const Tracer::Record& r : records) {
    const double duration = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    SpanTotals& t = totals[r.name];
    ++t.count;
    t.total_s += duration;
    const auto it = child_seconds.find(r.id);
    t.self_s += duration - (it == child_seconds.end() ? 0.0 : it->second);
  }
  return totals;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Linear interpolation between closest ranks.
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

Reservoir::Reservoir(std::size_t capacity) : buffer_(capacity, 0.0) {}

void Reservoir::add(double value) {
  if (seen_ < buffer_.size()) {
    buffer_[seen_++] = value;
    return;
  }
  ++seen_;
  // SplitMix64 step; the slot is uniform in [0, seen_).
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const std::uint64_t slot =
      static_cast<std::uint64_t>((static_cast<unsigned __int128>(z) * seen_) >> 64);
  if (slot < buffer_.size()) buffer_[slot] = value;
}

void RoundStats::add_round(const std::vector<double>& op_walls, double busy_s,
                           std::uint64_t ops, std::uint64_t cycles) {
  if (!op_walls.empty()) {
    p50.add(median(op_walls));
  }
  ops_per_s.add(static_cast<double>(ops) / busy_s);
  mcycles_per_s.add(static_cast<double>(cycles) / busy_s * 1e-6);
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  values_[name] = {value, unit};
}

std::string fmt_tag(const vcgra::softfloat::FpFormat& format) {
  return fmt("e%dm%d", format.we, format.wf);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

std::string fmt(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list copy;
  va_copy(copy, args);
  const int size = std::vsnprintf(nullptr, 0, format, copy);
  va_end(copy);
  std::string out(static_cast<std::size_t>(std::max(size, 0)), '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

}  // namespace perfbench
