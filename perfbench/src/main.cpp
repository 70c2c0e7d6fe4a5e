// vcgra_perfbench — the repository benchmark.
//
//   vcgra_perfbench --workload <hpc_stream|small_jobs|toolflow|vessel>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--inject-fault] [--git-sha <sha>] [--out-dir <dir>]
//
// Prints report lines (provenance, notes, attribution tables), then as
// its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer metrics and writes the spans as a Chrome trace.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#define PERFBENCH_BUILD_TYPE "unknown"
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {

namespace {

const std::vector<std::string> kWorkloads = {"hpc_stream", "small_jobs", "toolflow",
                                             "vessel"};
const std::vector<std::string> kFormatTags = {"e6m26", "e5m10", "e11m40"};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0 || line.rfind("Model", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return std::max(1, CPU_COUNT(&set));
  return 1;
}

/// The batch-kernel lane each format dispatches to, by the same rule the
/// library applies: the vector lanes need wf <= 31 (x86: AVX-512F/CD/DQ
/// present; AArch64: NEON always), everything else runs scalar.
std::string simd_lane(int wf) {
#if defined(__x86_64__)
  const bool avx512 = __builtin_cpu_supports("avx512f") &&
                      __builtin_cpu_supports("avx512cd") &&
                      __builtin_cpu_supports("avx512dq");
  return avx512 && wf <= 31 ? "avx512" : "scalar";
#elif defined(__aarch64__)
  return wf <= 31 ? "neon" : "scalar";
#else
  (void)wf;
  return "scalar";
#endif
}

std::string provenance(const Options& o) {
  std::string lanes;
  for (const auto& [tag, wf] : std::vector<std::pair<std::string, int>>{
           {"e6m26", 26}, {"e5m10", 10}, {"e11m40", 40}}) {
    lanes += fmt("%s\"%s\": \"%s\"", lanes.empty() ? "" : ", ", tag.c_str(),
                 simd_lane(wf).c_str());
  }
  return fmt(
      "provenance {\"cpu_model\": \"%s\", \"nproc\": %d, \"simd_lane\": {%s}, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"cxx_flags\": \"%s\", "
      "\"git_sha\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"max_threads\": %d}",
      json_escape(cpu_model()).c_str(), o.cpus, lanes.c_str(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, json_escape(PERFBENCH_CXX_FLAGS).c_str(),
      json_escape(o.git_sha).c_str(), o.workload.c_str(),
      static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0, o.cpus);
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "vcgra_perfbench: %s\nusage: vcgra_perfbench --workload "
               "<hpc_stream|small_jobs|toolflow|vessel> --seed <n> --seconds <s> "
               "--trace <0|1> [--inject-fault] [--git-sha <sha>] [--out-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const auto catalog = [] {
    std::vector<std::pair<std::string, std::string>> c;
    for (const char* op : {"mul", "mul_coeff", "add", "axpy", "mac", "encode", "decode"}) {
      for (const auto& tag : kFormatTags) {
        c.emplace_back(fmt("softfloat.%s.%s.ns_per_elem", op, tag.c_str()), "ns");
      }
    }
    for (const auto& tag : kFormatTags) {
      c.emplace_back("exec_plan.sweep." + tag + ".ns_per_elem_op", "ns");
      c.emplace_back("exec_plan.sweep_residual." + tag + ".pct", "%");
    }
    c.emplace_back("exec_plan.small_run_us", "us");
    c.emplace_back("exec_plan.batch_run_us_per_job", "us");
    c.emplace_back("exec_plan.lower_us", "us");
    for (const char* stage :
         {"parse", "synth", "map", "place", "route", "structure", "specialize"}) {
      c.emplace_back(fmt("compiler.%s_us", stage), "us");
    }
    c.emplace_back("compiler.pes_used_mean", "count");
    c.emplace_back("compiler.route_hops_mean", "count");
    c.emplace_back("store.serialize_us", "us");
    c.emplace_back("store.deserialize_us", "us");
    c.emplace_back("store.load_us", "us");
    c.emplace_back("store.record_bytes", "B");
    for (const char* wl : {"hpc_stream", "small_jobs"}) {
      c.emplace_back(fmt("service.overhead_us.%s", wl), "us");
      c.emplace_back(fmt("service.handback_us.%s", wl), "us");
    }
    for (const char* stage : {"queue_wait", "cache_lookup", "sched_acquire", "plan_fetch",
                              "exec_run", "unattributed"}) {
      c.emplace_back(fmt("stage.%s_us", stage), "us");
    }
    c.emplace_back("cache.lookup_us", "us");
    c.emplace_back("pool.roundtrip_us", "us");
    c.emplace_back("fusion.jobs_per_batch", "count");
    c.emplace_back("fusion.batched_share", "ratio");
    c.emplace_back("cache.structure_hit_ratio", "ratio");
    c.emplace_back("cache.plan_hit_ratio", "ratio");
    c.emplace_back("sched.reconfigs_per_kjob", "count");
    c.emplace_back("sched.modeled_reconfig_us_per_job", "us");
    c.emplace_back("graph.admit_ms", "ms");
    c.emplace_back("graph.feed_ms_per_frame", "ms");
    c.emplace_back("graph.overhead_pct", "%");
    c.emplace_back("graph.fused_groups_per_frame", "count");
    c.emplace_back("vision.preprocess_ms", "ms");
    c.emplace_back("vision.threshold_ms", "ms");
    c.emplace_back("vision.host_engine_ms", "ms");
    c.emplace_back("toolflow.respec_p50_us", "us");
    c.emplace_back("toolflow.store_load_p50_us", "us");
    c.emplace_back("toolflow.fill_cycles_mean", "cycle");
    c.emplace_back("vessel.frame_mcycles", "Mcycle");
    c.emplace_back("op_tail.p90_us", "us");
    c.emplace_back("op_tail.p99_us", "us");
    for (const auto& wl : kWorkloads) {
      c.emplace_back("trace.overhead_pct." + wl, "%");
      c.emplace_back("proc.cpu_util." + wl, "ratio");
    }
    return c;
  }();
  return catalog;
}

void set_op_tails(Outcome& outcome, const std::vector<double>& op_walls) {
  outcome.per_layer.set("op_tail.p90_us", quantile(op_walls, 0.9) * 1e6, "us");
  outcome.per_layer.set("op_tail.p99_us", quantile(op_walls, 0.99) * 1e6, "us");
}

void set_process_layer(Outcome& outcome, const std::string& workload,
                       double untraced_op_s, double traced_op_s, double cpu_util) {
  outcome.per_layer.set("trace.overhead_pct." + workload,
                        (traced_op_s - untraced_op_s) / untraced_op_s * 100, "%");
  outcome.per_layer.set("proc.cpu_util." + workload, cpu_util, "ratio");
}

int run_main(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        o.trace = t == "1";
        have_trace = true;
      } else if (arg == "--inject-fault") {
        o.inject_fault = true;
      } else if (arg == "--git-sha") {
        o.git_sha = value();
      } else if (arg == "--out-dir") {
        o.out_dir = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(o.seconds > 0 && o.seconds <= 600)) usage("--seconds must be in (0, 600]");
  o.cpus = cpu_count();
  std::filesystem::create_directories(o.out_dir);

  Outcome outcome;
  if (o.workload == "hpc_stream") {
    outcome = run_hpc_stream(o);
  } else if (o.workload == "small_jobs") {
    outcome = run_small_jobs(o);
  } else if (o.workload == "toolflow") {
    outcome = run_toolflow(o);
  } else if (o.workload == "vessel") {
    outcome = run_vessel(o);
  } else {
    usage("unknown workload " + o.workload);
  }

  if (o.trace) {
    const std::string path =
        fmt("%s/trace_%s_seed%llu.json", o.out_dir.c_str(), o.workload.c_str(),
            static_cast<unsigned long long>(o.seed));
    Tracer::get().write_chrome(path);
    const auto totals = span_totals(Tracer::get().snapshot());
    std::string table = fmt("spans (%zu recorded, written to %s):\n"
                            "  %-34s %8s %12s %12s", Tracer::get().size(), path.c_str(),
                            "span", "count", "mean_us", "self_us");
    for (const auto& [name, t] : totals) {
      table += fmt("\n  %-34s %8llu %12.2f %12.2f", name.c_str(),
                   static_cast<unsigned long long>(t.count),
                   t.total_s / static_cast<double>(t.count) * 1e6,
                   t.self_s / static_cast<double>(t.count) * 1e6);
    }
    outcome.report.push_back(table);
  }

  // Metrics of this kind of run, in catalog order for the traced run.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (o.trace) {
    for (const auto& [name, unit] : per_layer_catalog()) {
      const auto it = outcome.per_layer.all().find(name);
      const double v = it == outcome.per_layer.all().end() ? 0.0 : it->second.first;
      metrics.push_back({name, {v, unit}});
    }
    for (const auto& [name, value] : outcome.per_layer.all()) {
      bool known = false;
      for (const auto& [cname, unit] : per_layer_catalog()) known |= cname == name;
      if (!known) throw std::logic_error("metric missing from the catalog: " + name);
    }
  } else {
    for (const auto& [name, value] : outcome.end_to_end.all()) {
      metrics.push_back({name, value});
    }
  }

  std::printf("%s\n", provenance(o).c_str());
  for (const std::string& line : outcome.report) std::printf("%s\n", line.c_str());
  std::string body;
  for (const auto& [name, value] : metrics) {
    double v = value.first;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "metric %s is not finite\n", name.c_str());
      v = 0;
      outcome.correct = false;
    }
    body += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", body.empty() ? "" : ", ",
                name.c_str(), v, value.second.c_str());
  }
  const std::string json =
      fmt("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}",
          outcome.correct ? "true" : "false",
          static_cast<unsigned long long>(outcome.attempted),
          static_cast<unsigned long long>(outcome.failed), body.c_str());
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vcgra_perfbench: %s\n", e.what());
    return 1;
  }
}
