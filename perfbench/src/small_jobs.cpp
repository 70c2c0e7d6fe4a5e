// small_jobs: a warm working set of 12 configurations (6 suite shapes x
// 2 formats) with 16-240-sample streams, shared by two closed-loop
// clients. The sync client calls run() one job at a time; the burst
// client submit()s windows of same-config raw-output jobs and waits for
// each whole window. The service boundary (queue, wake-ups, cache lookup,
// scheduler, plan fetch, hand-back, fused batches) does the work. The
// clients take turns on one thread, one round each.
#include <algorithm>
#include <future>
#include <memory>
#include <thread>

#include "refeval.hpp"
#include "vcgra/hpc/kernels.hpp"
#include "vcgra/runtime/service.hpp"
#include "vcgra/vcgra/exec_plan.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using vcgra::overlay::ExecPlan;
using vcgra::overlay::PlanExecutor;
using vcgra::softfloat::FpFormat;

constexpr int kInputSets = 8;   // input sets per configuration
constexpr int kWindow = 16;     // burst window: same-config jobs in flight
constexpr int kWorkers = 2;     // service workers (plus the client thread)
constexpr int kWarmupRounds = 100;  // per client, before timing

struct InputSet {
  std::map<std::string, std::vector<double>> inputs;  // real stream names
  std::size_t length = 0;
  std::map<std::string, std::vector<std::uint64_t>> expect;  // output bits
};

struct Config {
  std::string kernel;
  std::string text;
  vcgra::overlay::ParamBinding params;
  FpFormat format;
  std::uint64_t placer_seed = 1;
  std::vector<InputSet> sets;
  std::uint64_t fp_ops_per_sample = 0;
};

vcgra::runtime::JobRequest make_request(const Config& c, const InputSet& s, bool raw) {
  vcgra::runtime::JobRequest request;
  request.kernel_text = c.text;
  request.arch.format = c.format;
  request.inputs = s.inputs;
  request.params = c.params;
  request.seed = c.placer_seed;
  request.raw_output = raw;
  return request;
}

bool check_job(const Config& c, const InputSet& s, const vcgra::runtime::JobResult& r,
               bool raw, bool corrupt) {
  const auto& run = r.run;
  if ((raw ? run.bit_outputs.size() : run.outputs.size()) != s.expect.size()) return false;
  for (const auto& [name, expect] : s.expect) {
    std::vector<std::uint64_t> got;
    if (raw) {
      const auto it = run.bit_outputs.find(name);
      if (it == run.bit_outputs.end()) return false;
      got = it->second;
    } else {
      const auto it = run.outputs.find(name);
      if (it == run.outputs.end()) return false;
      for (const auto& v : it->second) got.push_back(v.bits());
    }
    if (corrupt && !got.empty()) got[0] ^= 1;
    if (got != expect) return false;
  }
  if (run.cycles != static_cast<std::uint64_t>(run.pipeline_depth) + s.length - 1) {
    return false;
  }
  return run.fp_ops == c.fp_ops_per_sample * s.length;
}

struct ClientStats {
  Reservoir walls;  // per sync job
  RoundStats rounds;
  // Traced runs only: the per-layer breakdown of the sync jobs.
  std::vector<double> handback;  // wall - latency_seconds
  std::map<std::string, std::vector<double>> stages;
  std::vector<double> unattributed;
  std::map<std::size_t, std::vector<double>> walls_by_config;
  double batch_size_sum = 0;  // over burst jobs
  std::uint64_t jobs = 0;
  std::uint64_t failed = 0;
  double busy_s = 0;
};

}  // namespace

Outcome run_small_jobs(const Options& options) {
  Outcome outcome;
  double excluded_s = 0;

  // ---- Working set, inputs and references --------------------------------
  std::vector<Config> configs;
  {
    Span gen("bench.reference");
    vcgra::common::Rng rng(options.seed * 0xd1b54a32d192ed03ULL + 7);
    const auto suite = vcgra::hpc::standard_suite(64, options.seed);
    for (const FpFormat format : {FpFormat{6, 26}, FpFormat{5, 10}}) {
      for (const auto& k : suite) {
        if (k.name == "stream_copy" || k.name.rfind("gemv", 0) == 0) continue;
        Config c;
        c.kernel = k.name;
        c.text = k.kernel_text;
        c.format = format;
        c.placer_seed = 1 + options.seed % 1000;
        const auto parsed = vcgra::overlay::parse_kernel_symbolic(k.kernel_text);
        for (const auto& [name, value] : parsed.params) {
          c.params[name] = k.name.rfind("dot", 0) == 0 ? value : uniform(rng, -2.0, 2.0);
        }
        const RefKernel ref(c.text, c.params, c.format);
        c.fp_ops_per_sample = ref.fp_ops_per_sample();
        // The same eight stream lengths (16..240) for every configuration
        // and seed, in a seeded order: the work per round does not depend
        // on the seed.
        std::vector<std::size_t> lengths;
        for (int s = 0; s < kInputSets; ++s) lengths.push_back(16 + 32 * static_cast<std::size_t>(s));
        for (std::size_t s = lengths.size(); s > 1; --s) {
          std::swap(lengths[s - 1], lengths[rng.next_below(s)]);
        }
        for (int s = 0; s < kInputSets; ++s) {
          InputSet set;
          set.length = lengths[static_cast<std::size_t>(s)];
          std::map<std::string, const std::vector<double>*> view;
          for (const std::string& name : ref.input_names()) {
            auto& stream = set.inputs[name];
            stream.resize(set.length);
            for (double& v : stream) v = uniform(rng, -2.0, 2.0);
            view[name] = &stream;
          }
          RefKernel::Result r = ref.run(view);
          if (r.bound_violations != 0) outcome.correct = false;
          set.expect = std::move(r.bits);
          c.sets.push_back(std::move(set));
        }
        configs.push_back(std::move(c));
      }
    }
    excluded_s += gen.stop();
  }
  // The self-test corrupts the reference of one configuration's first set.
  const std::size_t corrupt_config = options.inject_fault ? 2 : configs.size();

  // ---- Service start, cold compiles and warm-up ---------------------------
  vcgra::runtime::ServiceOptions service_options;
  service_options.threads = kWorkers;
  auto service = std::make_unique<vcgra::runtime::OverlayService>(service_options);
  outcome.report.push_back(fmt(
      "small_jobs: %zu configs (6 shapes x 2 formats), %d input sets each "
      "(16-240 samples); threads: 1 client thread (sync and burst rounds in turn) + %d "
      "service workers; burst window %d",
      configs.size(), kInputSets, kWorkers, kWindow));

  std::uint64_t op_ids = 0;
  // One sync round: every (config, set) once. One burst round: one window
  // per config.
  const auto sync_round = [&](ClientStats& st, bool record) {
    const bool breakdown = record && options.trace;
    std::vector<double> round_walls;
    double round_busy = 0;
    std::uint64_t round_cycles = 0;
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      const Config& c = configs[ci];
      for (const InputSet& s : c.sets) {
        auto request = make_request(c, s, false);
        Span op("small.sync_run", ++op_ids);
        const auto result = service->run(std::move(request));
        const double wall = op.stop();
        ++st.jobs;
        const bool corrupt = ci == corrupt_config && &s == &c.sets[0];
        if (!check_job(c, s, result, false, corrupt)) ++st.failed;
        st.busy_s += wall;
        round_walls.push_back(wall);
        round_busy += wall;
        round_cycles += result.run.cycles;
        if (record) st.walls.add(wall);
        if (!breakdown) continue;
        st.walls_by_config[ci].push_back(wall);
        st.handback.push_back(wall - result.latency_seconds);
        double staged = 0;
        for (const auto& stage : result.stages) {
          st.stages[stage.name].push_back(stage.seconds);
          staged += stage.seconds;
        }
        st.unattributed.push_back(result.latency_seconds - staged);
      }
    }
    if (record) st.rounds.add_round(round_walls, round_busy, round_walls.size(), round_cycles);
  };
  const auto burst_round = [&](ClientStats& st, bool record) {
    double round_busy = 0;
    std::uint64_t round_cycles = 0;
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      const Config& c = configs[ci];
      std::vector<std::future<vcgra::runtime::JobResult>> futures;
      std::vector<vcgra::runtime::JobRequest> requests;
      for (int j = 0; j < kWindow; ++j) {
        requests.push_back(make_request(c, c.sets[static_cast<std::size_t>(j % kInputSets)], true));
      }
      Span window("small.burst_window", ++op_ids);
      for (auto& request : requests) futures.push_back(service->submit(std::move(request)));
      std::vector<vcgra::runtime::JobResult> results;
      for (auto& f : futures) results.push_back(f.get());
      const double wall = window.stop();
      st.busy_s += wall;
      round_busy += wall;
      for (int j = 0; j < kWindow; ++j) {
        const InputSet& s = c.sets[static_cast<std::size_t>(j % kInputSets)];
        ++st.jobs;
        const bool corrupt = ci == corrupt_config && j == 0;
        if (!check_job(c, s, results[static_cast<std::size_t>(j)], true, corrupt)) ++st.failed;
        round_cycles += results[static_cast<std::size_t>(j)].run.cycles;
        if (record) st.batch_size_sum += results[static_cast<std::size_t>(j)].batch_size;
      }
    }
    if (record) {
      st.rounds.add_round({}, round_busy, configs.size() * kWindow, round_cycles);
    }
  };
  {
    ClientStats warm;
    for (int r = 0; r < kWarmupRounds; ++r) {
      sync_round(warm, false);
      burst_round(warm, false);
    }
    outcome.attempted += warm.jobs;
    outcome.failed += warm.failed;
  }
  const double setup_s = seconds_since_start() - excluded_s;

  // ---- Timed phase: the clients take turns, one whole round each ----------
  // Run concurrently, the two clients' interleaving on the service's two
  // workers changed from run to run and moved every figure by 10-20%;
  // taking turns round by round keeps both access patterns on one warm
  // service with a run-to-run spread of a few percent.
  struct Phase {
    ClientStats sync, burst;
    double wall_s = 0, cpu_s = 0;
    vcgra::runtime::ServiceStats before, after;
  };
  const auto run_phase = [&](double seconds) {
    Phase p;
    p.before = service->stats();
    const double cpu0 = process_cpu_seconds();
    const std::uint64_t t0 = now_ns();
    const auto elapsed = [&] { return static_cast<double>(now_ns() - t0) * 1e-9; };
    do {
      sync_round(p.sync, true);
      burst_round(p.burst, true);
    } while (elapsed() < seconds);
    p.wall_s = elapsed();
    p.cpu_s = process_cpu_seconds() - cpu0;
    p.after = service->stats();
    outcome.attempted += p.sync.jobs + p.burst.jobs;
    outcome.failed += p.sync.failed + p.burst.failed;
    const std::uint64_t completed = p.after.jobs_completed - p.before.jobs_completed;
    if (completed != p.sync.jobs + p.burst.jobs || p.after.jobs_failed != 0) {
      outcome.correct = false;
      outcome.report.push_back(fmt("ServiceStats completions %llu != benchmark jobs %llu",
                                   static_cast<unsigned long long>(completed),
                                   static_cast<unsigned long long>(p.sync.jobs + p.burst.jobs)));
    }
    return p;
  };

  const Phase main_phase = run_phase(phase_seconds(options));
  const ClientStats& sync = main_phase.sync;
  const ClientStats& burst = main_phase.burst;
  const std::vector<double> sync_walls = sync.walls.values();
  outcome.report.push_back(fmt(
      "sync client: %llu jobs, p50 %.2f us, p90 %.2f us, p99 %.2f us; burst client: "
      "%llu jobs in %zu windows, %.0f jobs/s",
      static_cast<unsigned long long>(sync.jobs), median(sync_walls) * 1e6,
      quantile(sync_walls, 0.9) * 1e6, quantile(sync_walls, 0.99) * 1e6,
      static_cast<unsigned long long>(burst.jobs),
      static_cast<std::size_t>(burst.jobs / kWindow),
      static_cast<double>(burst.jobs) / burst.busy_s));

  if (!options.trace) {
    Metrics& m = outcome.end_to_end;
    m.set("setup_s", setup_s, "s");
    m.set("peak_rss_mib", peak_rss_mib(), "MiB");
    m.set("sim_mcycles_per_s",
          RoundStats::rate(sync.rounds.mcycles_per_s) +
              RoundStats::rate(burst.rounds.mcycles_per_s),
          "Mcycle/s");
    m.set("op_p50_us", RoundStats::time(sync.rounds.p50) * 1e6, "us");
    m.set("ops_per_s", RoundStats::rate(burst.rounds.ops_per_s), "1/s");
  } else {
    Tracer::get().enable(true);
    const Phase traced = run_phase(phase_seconds(options));
    set_process_layer(outcome, "small_jobs", sync.busy_s / static_cast<double>(sync.jobs),
                      traced.sync.busy_s / static_cast<double>(traced.sync.jobs),
                      main_phase.cpu_s / main_phase.wall_s);
    set_op_tails(outcome, sync_walls);
    Metrics& m = outcome.per_layer;

    // JobResult::stages of the sync jobs (the service's own breakdown).
    const std::map<std::string, std::string> stage_names = {
        {"queue.wait", "queue_wait"}, {"cache.lookup", "cache_lookup"},
        {"sched.acquire", "sched_acquire"}, {"plan.fetch", "plan_fetch"},
        {"exec.run", "exec_run"}};
    std::map<std::string, double> stage_mean_us;
    for (const auto& [name, tag] : stage_names) {
      const auto it = sync.stages.find(name);
      if (it == sync.stages.end()) continue;
      m.set("stage." + tag + "_us", median(it->second) * 1e6, "us");
      double sum = 0;
      for (const double v : it->second) sum += v;
      stage_mean_us[tag] = sum / static_cast<double>(sync.handback.size()) * 1e6;
    }
    m.set("stage.unattributed_us", median(sync.unattributed) * 1e6, "us");
    m.set("service.handback_us.small_jobs", median(sync.handback) * 1e6, "us");

    // Direct calls into the layers below the service on the same inputs.
    std::vector<double> direct_all, overheads, batch_per_job, lookups;
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      const Config& c = configs[ci];
      vcgra::overlay::OverlayArch arch;
      arch.format = c.format;
      const auto parsed = std::make_shared<const vcgra::overlay::ParsedKernel>(
          vcgra::overlay::parse_kernel_symbolic(c.text));
      const auto binding = vcgra::overlay::merge_params(parsed->params, c.params);
      const auto keys = vcgra::runtime::cache_keys(*parsed, arch, c.placer_seed, binding);
      for (int r = 0; r < 64; ++r) {
        Span s("cache.get_or_specialize");
        service->cache().get_or_specialize(keys, *parsed, arch, c.placer_seed, binding);
        lookups.push_back(s.stop());
      }
      const auto compiled = service->cache().peek(c.text, arch, c.placer_seed, c.params);
      if (!compiled) continue;
      const PlanExecutor executor(std::make_shared<const ExecPlan>(ExecPlan::lower(*compiled)));
      std::vector<double> direct;
      std::vector<std::map<std::string, std::vector<double>>> canon(c.sets.size());
      for (std::size_t si = 0; si < c.sets.size(); ++si) {
        for (const auto& [name, stream] : c.sets[si].inputs) {
          canon[si][parsed->canonical_name(name)] = stream;
        }
      }
      for (int r = 0; r < 16; ++r) {
        for (const auto& in : canon) {
          Span s("exec_plan.run_doubles");
          executor.run_doubles(in);
          direct.push_back(s.stop());
        }
      }
      direct_all.insert(direct_all.end(), direct.begin(), direct.end());
      overheads.push_back(median(sync.walls_by_config.at(ci)) - median(direct));
      std::vector<vcgra::overlay::BatchInputs> batch;
      for (int j = 0; j < kWindow; ++j) {
        vcgra::overlay::BatchInputs in;
        for (const auto& [name, stream] : canon[static_cast<std::size_t>(j % kInputSets)]) {
          in[name] = vcgra::overlay::BatchStream{nullptr, stream.data(), stream.size()};
        }
        batch.push_back(std::move(in));
      }
      const std::vector<bool> raw(kWindow, true);
      for (int r = 0; r < 16; ++r) {
        Span s("exec_plan.run_batch");
        executor.run_batch(batch, raw);
        batch_per_job.push_back(s.stop() / kWindow);
      }
    }
    m.set("exec_plan.small_run_us", median(direct_all) * 1e6, "us");
    m.set("exec_plan.batch_run_us_per_job", median(batch_per_job) * 1e6, "us");
    m.set("service.overhead_us.small_jobs", median(overheads) * 1e6, "us");
    m.set("cache.lookup_us", median(lookups) * 1e6, "us");
    std::vector<double> roundtrips;
    for (int r = 0; r < 2000; ++r) {
      Span s("pool.roundtrip");
      service->executor().submit([] {}).get();
      roundtrips.push_back(s.stop());
    }
    m.set("pool.roundtrip_us", median(roundtrips) * 1e6, "us");

    m.set("fusion.jobs_per_batch", burst.batch_size_sum / static_cast<double>(burst.jobs),
          "count");
    const auto& b = main_phase.before;
    const auto& a = main_phase.after;
    const double jobs = static_cast<double>(a.jobs_completed - b.jobs_completed);
    m.set("fusion.batched_share", static_cast<double>(a.batched_jobs - b.batched_jobs) / jobs,
          "ratio");
    const double lookups_n = static_cast<double>((a.cache.hits + a.cache.misses) -
                                                 (b.cache.hits + b.cache.misses));
    m.set("cache.structure_hit_ratio",
          static_cast<double>((a.cache.hits + a.cache.structure_hits + a.cache.disk_hits) -
                              (b.cache.hits + b.cache.structure_hits + b.cache.disk_hits)) /
              lookups_n,
          "ratio");
    const double plan_hits = static_cast<double>(a.cache.plan_hits - b.cache.plan_hits);
    const double plans_built = static_cast<double>(a.cache.plans_built - b.cache.plans_built);
    m.set("cache.plan_hit_ratio", plan_hits / (plan_hits + plans_built), "ratio");
    m.set("sched.reconfigs_per_kjob",
          static_cast<double>(a.scheduler.reconfigurations - b.scheduler.reconfigurations) /
              jobs * 1000,
          "count");
    m.set("sched.modeled_reconfig_us_per_job",
          (a.scheduler.modeled_reconfig_seconds - b.scheduler.modeled_reconfig_seconds) / jobs *
              1e6,
          "us");

    // Sync job attribution: means are additive by construction.
    double handback_sum = 0, unattr_sum = 0;
    for (const double v : sync.handback) handback_sum += v;
    for (const double v : sync.unattributed) unattr_sum += v;
    const double n = static_cast<double>(sync.handback.size());
    std::string table = fmt(
        "attribution small_jobs sync run() (us per job, mean over %zu jobs):\n"
        "  client run() wall                         %10.2f\n"
        "    hand-back (wall - latency_seconds)      %10.2f",
        sync.handback.size(), sync.busy_s / n * 1e6, handback_sum / n * 1e6);
    for (const auto& [name, tag] : stage_names) {
      table += fmt("\n    stage %-34s%10.2f", tag.c_str(), stage_mean_us[tag]);
    }
    table += fmt("\n    residual (latency not in any stage)     %10.2f", unattr_sum / n * 1e6);
    table += fmt(
        "\n  cross-checks from outside: direct PlanExecutor::run_doubles %.2f us "
        "(stage exec_run); OverlayCache::get_or_specialize %.2f us (stage cache_lookup); "
        "empty ExecutorPool task %.2f us (queue wait + wake-up)",
        median(direct_all) * 1e6, median(lookups) * 1e6, median(roundtrips) * 1e6);
    outcome.report.push_back(table);
  }
  service.reset();
  return outcome;
}

}  // namespace perfbench
