// hpc_stream: one closed-loop client sends synchronous
// OverlayService::run jobs, each streaming ~2^20 samples through one HPC
// suite kernel in one of three FP formats. The datapath (softfloat batch
// kernels + the ExecPlan sweep) does nearly all the work; the service
// boundary nearly none.
#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "refeval.hpp"
#include "vcgra/hpc/kernels.hpp"
#include "vcgra/runtime/service.hpp"
#include "vcgra/softfloat/batch.hpp"
#include "vcgra/vcgra/exec_plan.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using vcgra::overlay::ExecPlan;
using vcgra::overlay::PlanExecutor;
using vcgra::softfloat::FpFormat;

constexpr std::size_t kSamples = std::size_t{1} << 20;
constexpr int kGemvTaps = 8;
constexpr std::size_t kBlock = 1024;  // the executor's block sweep width

/// The paper's format, a narrow one, and a wide one past the SIMD lanes'
/// wf <= 31 limit (it runs the scalar path).
const std::vector<FpFormat>& formats() {
  static const std::vector<FpFormat> f = {FpFormat{6, 26}, FpFormat{5, 10},
                                          FpFormat{11, 40}};
  return f;
}

struct JobKind {
  std::string kernel;
  std::string text;
  vcgra::overlay::ParamBinding params;
  FpFormat format;
  std::map<std::string, const std::vector<double>*> inputs;
  std::size_t length = 0;
  std::uint64_t placer_seed = 1;
  // Reference: per output name, sample count and digest of its bits.
  std::map<std::string, std::pair<std::size_t, std::uint64_t>> expect;
  std::uint64_t fp_ops_per_sample = 0;
  bool reference_ok = false;
  double worst_bound_ratio = 0;
};

struct Pool {
  std::vector<std::vector<double>> streams;  // kSamples each
  std::vector<std::vector<double>> gemv;     // kSamples / kGemvTaps each
};

vcgra::runtime::JobRequest make_request(const JobKind& kind) {
  vcgra::runtime::JobRequest request;
  request.kernel_text = kind.text;
  request.arch.format = kind.format;
  for (const auto& [name, stream] : kind.inputs) request.inputs[name] = *stream;
  request.params = kind.params;
  request.seed = kind.placer_seed;
  return request;
}

/// Compare one job's result with its reference. Returns false on any
/// mismatch; `flip_bit` corrupts the first output word first (the
/// negative self-test).
bool check_job(const JobKind& kind, const vcgra::runtime::JobResult& result,
               bool flip_bit) {
  const auto& run = result.run;
  if (run.outputs.size() != kind.expect.size()) return false;
  for (const auto& [name, expect] : kind.expect) {
    const auto it = run.outputs.find(name);
    if (it == run.outputs.end() || it->second.size() != expect.first) return false;
    Digest digest;
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      std::uint64_t bits = it->second[i].bits();
      if (flip_bit && i == 0) bits ^= 1;
      digest.add(bits);
    }
    if (digest.value() != expect.second) return false;
  }
  if (run.cycles != static_cast<std::uint64_t>(run.pipeline_depth) + kind.length - 1) {
    return false;
  }
  return run.fp_ops == kind.fp_ops_per_sample * kind.length;
}

}  // namespace

Outcome run_hpc_stream(const Options& options) {
  Outcome outcome;
  double excluded_s = 0;  // the benchmark's own input/reference generation

  // ---- Inputs and references (excluded from setup_s) -------------------
  Pool pool;
  std::vector<JobKind> kinds;
  {
    Span gen("bench.reference");
    vcgra::common::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 11);
    pool.streams.assign(3, std::vector<double>(kSamples));
    for (auto& s : pool.streams) {
      for (double& v : s) v = uniform(rng, -2.0, 2.0);
    }
    pool.gemv.assign(kGemvTaps, std::vector<double>(kSamples / kGemvTaps));
    for (auto& s : pool.gemv) {
      for (double& v : s) v = uniform(rng, -2.0, 2.0);
    }
    const auto suite = vcgra::hpc::standard_suite(64, options.seed);
    for (const FpFormat& format : formats()) {
      for (const auto& k : suite) {
        JobKind kind;
        kind.kernel = k.name;
        kind.text = k.kernel_text;
        kind.format = format;
        kind.placer_seed = 1 + options.seed % 1000;
        const bool gemv = k.name.rfind("gemv", 0) == 0;
        // Seed-drawn coefficients bound over every param of the text.
        const auto parsed = vcgra::overlay::parse_kernel_symbolic(k.kernel_text);
        vcgra::common::Rng crng(options.seed ^ std::hash<std::string>{}(k.name));
        for (const auto& [name, value] : parsed.params) {
          kind.params[name] = k.name.rfind("dot", 0) == 0 ? value : uniform(crng, -2.0, 2.0);
        }
        std::size_t slot = 0;
        for (const auto& [name, stream] : k.inputs) {
          kind.inputs[name] = gemv ? &pool.gemv.at(slot) : &pool.streams.at(slot);
          ++slot;
        }
        kind.length = gemv ? kSamples / kGemvTaps : kSamples;
        kinds.push_back(std::move(kind));
      }
    }
    // References in parallel, one kind per task.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    std::exception_ptr error;
    std::mutex error_mutex;
    for (int t = 0; t < options.cpus; ++t) {
      workers.emplace_back([&] {
        for (std::size_t i = next++; i < kinds.size(); i = next++) {
          try {
            JobKind& kind = kinds[i];
            const RefKernel ref(kind.text, kind.params, kind.format);
            const RefKernel::Result r = ref.run(kind.inputs);
            for (const auto& [name, bits] : r.bits) {
              Digest digest;
              for (const std::uint64_t b : bits) digest.add(b);
              kind.expect[name] = {bits.size(), digest.value()};
            }
            kind.fp_ops_per_sample = ref.fp_ops_per_sample();
            kind.reference_ok = r.bound_violations == 0;
            kind.worst_bound_ratio = r.worst_bound_ratio;
          } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            error = std::current_exception();
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    if (error) std::rethrow_exception(error);
    excluded_s += gen.stop();
  }
  double worst_ratio = 0;
  for (const JobKind& kind : kinds) {
    if (!kind.reference_ok) outcome.correct = false;
    worst_ratio = std::max(worst_ratio, kind.worst_bound_ratio);
  }
  outcome.report.push_back(fmt(
      "hpc_stream: %zu job kinds (8 kernels x 3 formats), 2^20 samples "
      "(gemv 2^17 rows x 8 taps); softfloat reference within the rounding "
      "bound of the double evaluation (worst |err|/bound %.3g)",
      kinds.size(), worst_ratio));

  // ---- Service start + warm-up (setup_s) --------------------------------
  vcgra::runtime::ServiceOptions service_options;
  service_options.threads = std::max(1, options.cpus - 1);
  auto service = std::make_unique<vcgra::runtime::OverlayService>(service_options);
  outcome.report.push_back(fmt("threads: 1 client + %d service workers",
                               service_options.threads));
  std::uint64_t op_id = 0;
  for (JobKind& kind : kinds) {
    auto request = make_request(kind);
    Span op("hpc.warmup", ++op_id);
    const auto result = service->run(std::move(request));
    op.stop();
    ++outcome.attempted;
    if (!check_job(kind, result, false)) ++outcome.failed;
  }
  const double setup_s = seconds_since_start() - excluded_s;

  // ---- Timed phase(s) ----------------------------------------------------
  struct PhaseStats {
    std::vector<double> walls;
    std::vector<double> handback;
    std::map<std::size_t, std::vector<double>> walls_by_kind;
    double wall_s = 0;
    double cpu_s = 0;
    RoundStats rounds;
  };
  const auto run_phase = [&](double seconds, bool flip) {
    PhaseStats stats;
    const double cpu0 = process_cpu_seconds();
    const std::uint64_t t0 = now_ns();
    do {  // whole rounds: every job kind once per round
      std::vector<double> round_walls;
      double round_busy = 0;
      std::uint64_t round_cycles = 0;
      for (std::size_t k = 0; k < kinds.size(); ++k) {
        const JobKind& kind = kinds[k];
        auto request = make_request(kind);
        Span op("hpc.run", ++op_id);
        const auto result = service->run(std::move(request));
        const double wall = op.stop();
        ++outcome.attempted;
        {
          Span check("bench.check", op_id);
          // The self-test corrupts one output bit of one kind's jobs.
          if (!check_job(kind, result, flip && k == 3)) ++outcome.failed;
        }
        stats.walls.push_back(wall);
        stats.walls_by_kind[k].push_back(wall);
        stats.handback.push_back(wall - result.latency_seconds);
        round_walls.push_back(wall);
        round_busy += wall;
        round_cycles += result.run.cycles;
      }
      stats.rounds.add_round(round_walls, round_busy, round_walls.size(), round_cycles);
    } while (static_cast<double>(now_ns() - t0) * 1e-9 < seconds);
    stats.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    stats.cpu_s = process_cpu_seconds() - cpu0;
    return stats;
  };

  const auto before = service->stats();
  const std::uint64_t attempted_before = outcome.attempted;
  const PhaseStats main_phase = run_phase(phase_seconds(options), options.inject_fault);
  double total_wall = 0;
  for (const double w : main_phase.walls) total_wall += w;

  if (!options.trace) {
    Metrics& m = outcome.end_to_end;
    m.set("setup_s", setup_s, "s");
    m.set("peak_rss_mib", peak_rss_mib(), "MiB");
    const RoundStats& r = main_phase.rounds;
    m.set("sim_mcycles_per_s", RoundStats::rate(r.mcycles_per_s), "Mcycle/s");
    // The rounds mix 24 job kinds whose times differ up to 10x, so a
    // median over the mix jumps between kinds from run to run. Take each
    // kind's own median and their geometric mean instead.
    double log_p50 = 0;
    for (const auto& [k, walls] : main_phase.walls_by_kind) log_p50 += std::log(median(walls));
    const double kinds_n = static_cast<double>(main_phase.walls_by_kind.size());
    m.set("op_p50_us", std::exp(log_p50 / kinds_n) * 1e6, "us");
    m.set("ops_per_s", RoundStats::rate(r.ops_per_s), "1/s");
  } else {
    Tracer::get().enable(true);
    const PhaseStats traced = run_phase(phase_seconds(options), false);
    double traced_wall = 0;
    for (const double w : traced.walls) traced_wall += w;
    set_process_layer(outcome, "hpc_stream",
                      total_wall / static_cast<double>(main_phase.walls.size()),
                      traced_wall / static_cast<double>(traced.walls.size()),
                      main_phase.cpu_s / main_phase.wall_s);
    set_op_tails(outcome, main_phase.walls);
    Metrics& m = outcome.per_layer;
    m.set("service.handback_us.hpc_stream", median(main_phase.handback) * 1e6, "us");

    // softfloat batch kernels on this workload's streams, block by block
    // like the plan sweep.
    std::map<std::string, std::map<std::string, double>> ns_per_elem;  // fmt -> op
    for (const FpFormat& f : formats()) {
      const std::string tag = fmt_tag(f);
      std::vector<std::uint64_t> a(kSamples), b(kSamples), out(kSamples);
      std::vector<double> back(kSamples);
      const std::uint64_t coeff = vcgra::softfloat::fp_encode_double(f, 1.375);
      auto& ns = ns_per_elem[tag];
      const auto blocks = [&](auto&& body) {
        for (std::size_t pos = 0; pos < kSamples; pos += kBlock) body(pos, kBlock);
      };
      const double per = 1e9 / static_cast<double>(kSamples);
      ns["encode"] = per * time_median(5, [&] {
        Span s("softfloat.encode");
        blocks([&](std::size_t p, std::size_t n) {
          vcgra::softfloat::fp_from_double_n(f, pool.streams[0].data() + p, a.data() + p, n);
          vcgra::softfloat::fp_from_double_n(f, pool.streams[1].data() + p, b.data() + p, n);
        });
      }) / 2;
      ns["decode"] = per * time_median(5, [&] {
        Span s("softfloat.decode");
        blocks([&](std::size_t p, std::size_t n) {
          vcgra::softfloat::fp_to_double_n(f, a.data() + p, back.data() + p, n);
        });
      });
      ns["mul"] = per * time_median(5, [&] {
        Span s("softfloat.mul");
        blocks([&](std::size_t p, std::size_t n) {
          vcgra::softfloat::fp_mul_n(f, a.data() + p, b.data() + p, out.data() + p, n);
        });
      });
      ns["mul_coeff"] = per * time_median(5, [&] {
        Span s("softfloat.mul_coeff");
        blocks([&](std::size_t p, std::size_t n) {
          vcgra::softfloat::fp_mul_coeff_n(f, a.data() + p, coeff, out.data() + p, n);
        });
      });
      ns["add"] = per * time_median(5, [&] {
        Span s("softfloat.add");
        blocks([&](std::size_t p, std::size_t n) {
          vcgra::softfloat::fp_add_n(f, a.data() + p, b.data() + p, out.data() + p, n);
        });
      });
      ns["axpy"] = per * time_median(5, [&] {
        Span s("softfloat.axpy");
        blocks([&](std::size_t p, std::size_t n) {
          vcgra::softfloat::fp_axpy_n(f, a.data() + p, b.data() + p, coeff, 0,
                                      out.data() + p, n);
        });
      });
      ns["mac"] = per * time_median(5, [&] {
        Span s("softfloat.mac");
        std::uint64_t acc = 0;
        std::uint32_t filled = 0;
        blocks([&](std::size_t p, std::size_t n) {
          vcgra::softfloat::fp_mac_n(f, a.data() + p, coeff, 16, out.data() + p / 16, n,
                                     &acc, &filled);
        });
      });
      for (const auto& [op, v] : ns) {
        m.set("softfloat." + op + "." + tag + ".ns_per_elem", v, "ns");
      }
    }

    // ExecPlan sweep on pre-encoded inputs (no boundary conversion), the
    // direct executor on the job's doubles, and the service overhead.
    struct FormatSums {
      double sweep_s = 0, explained_s = 0, elem_ops = 0;
      double wall_us = 0, direct_us = 0, encode_us = 0, sweep_us = 0,
             kernels_us = 0;
      int kinds = 0;
    };
    std::map<std::string, FormatSums> sums;
    std::vector<double> overheads;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const JobKind& kind = kinds[k];
      vcgra::overlay::OverlayArch arch;
      arch.format = kind.format;
      const auto compiled =
          service->cache().peek(kind.text, arch, kind.placer_seed, kind.params);
      if (!compiled) continue;
      const auto plan = std::make_shared<const ExecPlan>(ExecPlan::lower(*compiled));
      const PlanExecutor executor(plan);
      // Cached artifacts carry the kernel's canonical (alpha-renamed)
      // stream names.
      const auto parsed = vcgra::overlay::parse_kernel_symbolic(kind.text);
      const std::string tag = fmt_tag(kind.format);
      const auto& ns = ns_per_elem[tag];
      std::map<std::string, std::vector<std::uint64_t>> encoded;
      vcgra::overlay::BatchInputs bits_in;
      for (const auto& [name, stream] : kind.inputs) {
        auto& e = encoded[name];
        e.resize(stream->size());
        vcgra::softfloat::fp_from_double_n(kind.format, stream->data(), e.data(), e.size());
        bits_in[parsed.canonical_name(name)] = vcgra::overlay::BatchStream{e.data(), nullptr, e.size()};
      }
      const double sweep = time_median(5, [&] {
        Span s("exec_plan.sweep");
        executor.run_views(bits_in);
      });
      double explained = 0;
      for (const auto& op : plan->tape) {
        using Code = ExecPlan::OpCode;
        const char* name = "add";
        switch (op.code) {
          case Code::kMulCoeff: name = "mul_coeff"; break;
          case Code::kMulStream: name = "mul"; break;
          case Code::kAdd:
          case Code::kSub: name = "add"; break;
          case Code::kMac: name = "mac"; break;
          case Code::kAxpy:
          case Code::kXpay: name = "axpy"; break;
        }
        explained += ns.at(name) * 1e-9 * static_cast<double>(kind.length);
      }
      std::map<std::string, std::vector<double>> doubles;
      for (const auto& [name, stream] : kind.inputs) {
        doubles[parsed.canonical_name(name)] = *stream;
      }
      const double direct = time_median(3, [&] {
        Span s("exec_plan.run_doubles");
        executor.run_doubles(doubles);
      });
      const double wall = median(main_phase.walls_by_kind.at(k));
      overheads.push_back(wall - direct);
      FormatSums& fs = sums[tag];
      if (!plan->tape.empty()) {
        fs.sweep_s += sweep;
        fs.explained_s += explained;
        fs.elem_ops += static_cast<double>(plan->tape.size()) *
                       static_cast<double>(kind.length);
      }
      fs.wall_us += wall * 1e6;
      fs.direct_us += direct * 1e6;
      fs.encode_us += ns.at("encode") * 1e-3 * static_cast<double>(kind.inputs.size()) *
                      static_cast<double>(kind.length);
      fs.sweep_us += sweep * 1e6;
      fs.kernels_us += explained * 1e6;
      ++fs.kinds;
    }
    m.set("service.overhead_us.hpc_stream", median(overheads) * 1e6, "us");
    for (const auto& [tag, fs] : sums) {
      m.set("exec_plan.sweep." + tag + ".ns_per_elem_op",
            fs.elem_ops > 0 ? fs.sweep_s / fs.elem_ops * 1e9 : 0, "ns");
      m.set("exec_plan.sweep_residual." + tag + ".pct",
            fs.sweep_s > 0 ? (fs.sweep_s - fs.explained_s) / fs.sweep_s * 100 : 0, "%");
      const double n = fs.kinds;
      const double wall = fs.wall_us / n, direct = fs.direct_us / n;
      const double encode = fs.encode_us / n, sweep = fs.sweep_us / n,
                   kernels = fs.kernels_us / n;
      outcome.report.push_back(fmt(
          "attribution hpc_stream %s (us per job, mean over the 8 kernels):\n"
          "  client run() wall                         %10.1f\n"
          "    service boundary (wall - direct exec)   %10.1f\n"
          "    boundary encode (softfloat.encode)      %10.1f\n"
          "    tape sweep: softfloat kernels           %10.1f\n"
          "    tape sweep: residual                    %10.1f\n"
          "    residual (decode, output materialize)   %10.1f",
          tag.c_str(), wall, wall - direct, encode, kernels, sweep - kernels,
          direct - encode - sweep));
    }
  }

  const auto after = service->stats();
  service.reset();
  const std::uint64_t jobs = after.jobs_completed - before.jobs_completed;
  if (jobs != outcome.attempted - attempted_before || after.jobs_failed != 0) {
    outcome.correct = false;
    outcome.report.push_back(fmt("ServiceStats completions %llu != benchmark jobs %llu",
                                 static_cast<unsigned long long>(jobs),
                                 static_cast<unsigned long long>(outcome.attempted -
                                                                 attempted_before)));
  }
  return outcome;
}

}  // namespace perfbench
