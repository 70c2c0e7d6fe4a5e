// toolflow: a seeded corpus of kernels (random DFGs of 3-12 ops plus HPC
// shapes) on 4x4-8x8 grids, each compiled cold through the service with
// a fresh placer seed (a new structure key), run on a short stream, run
// again with fresh coefficients (respecialization), and finally served
// from the persistent store by a restarted service. Compile work (parse,
// synth/map/place/route, specialize, lowering, store serdes) does nearly
// all the work; the datapath nearly none.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <unistd.h>

#include "refeval.hpp"
#include "vcgra/hpc/kernels.hpp"
#include "vcgra/runtime/service.hpp"
#include "vcgra/store/overlay_store.hpp"
#include "vcgra/store/serdes.hpp"
#include "vcgra/vcgra/compiler.hpp"
#include "vcgra/vcgra/exec_plan.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using vcgra::overlay::ParamBinding;

constexpr int kCorpus = 32;          // kernels per round (the mix below)
constexpr std::size_t kStream = 64;  // samples per job (a multiple of every MAC count)
constexpr int kFillSubset = 16;      // kernels of the first timed round in fill_cycles_mean
// One worker per service: the client is synchronous. During store rounds
// the compile service's worker, the store service's worker, its
// write-behind thread and the client make 4 threads.
constexpr int kWorkers = 1;
constexpr int kWarmupRounds = 25;
constexpr int kStoreRounds = 2;

struct Kernel {
  std::string name;
  std::string text;
  vcgra::overlay::OverlayArch arch;
  ParamBinding params_a, params_b;  // cold-compile and respecialization coefficients
  std::map<std::string, std::vector<double>> inputs;
  std::map<std::string, std::vector<std::uint64_t>> expect_a, expect_b;
  std::uint64_t fp_ops_per_sample = 0;
  int critical_path = 0;
};

/// A random DFG of `ops` compute nodes over 2-4 inputs. Operands prefer
/// values nobody consumes yet, so the graph stays connected; every value
/// left unconsumed becomes an output.
std::string random_dfg(vcgra::common::Rng& rng, int ops) {
  const int inputs = 2 + static_cast<int>(rng.next_below(3));
  std::string text;
  std::vector<std::string> values;
  std::vector<bool> consumed;
  for (int i = 0; i < inputs; ++i) {
    text += fmt("input x%d;\n", i);
    values.push_back(fmt("x%d", i));
    consumed.push_back(false);
  }
  const auto pick = [&]() {
    std::vector<std::size_t> fresh;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (!consumed[i]) fresh.push_back(i);
    }
    const std::size_t v = !fresh.empty() && rng.next_bool(0.75)
                              ? fresh[rng.next_below(fresh.size())]
                              : rng.next_below(values.size());
    consumed[v] = true;
    return values[v];
  };
  std::string body;
  int params = 0;
  for (int i = 0; i < ops; ++i) {
    const double r = rng.next_double();
    std::string expr;
    if (r < 0.4) {
      text += fmt("param c%d = 0;\n", params);
      expr = fmt("mul(%s, c%d)", pick().c_str(), params++);
    } else {
      const std::string a = pick(), b = pick();
      expr = fmt("%s(%s, %s)", r < 0.55 ? "mul" : r < 0.8 ? "add" : "sub", a.c_str(),
                 b.c_str());
    }
    body += fmt("t%d = %s;\n", i, expr.c_str());
    values.push_back(fmt("t%d", i));
    consumed.push_back(false);
  }
  text += body;
  for (std::size_t i = static_cast<std::size_t>(inputs); i < values.size(); ++i) {
    if (!consumed[i]) text += "output " + values[i] + ";\n";
  }
  return text;
}

struct JobOutcome {
  vcgra::runtime::JobResult result;
  double wall = 0;
};

JobOutcome run_job(vcgra::runtime::OverlayService& service, const Kernel& k,
                   const ParamBinding& params, std::uint64_t seed, const char* span,
                   std::uint64_t op) {
  vcgra::runtime::JobRequest request;
  request.kernel_text = k.text;
  request.arch = k.arch;
  request.inputs = k.inputs;
  request.params = params;
  request.seed = seed;
  request.raw_output = true;
  Span s(span, op);
  JobOutcome out;
  out.result = service.run(std::move(request));
  out.wall = s.stop();
  return out;
}

bool outputs_match(const vcgra::overlay::RunResult& run,
                   const std::map<std::string, std::vector<std::uint64_t>>& expect) {
  return run.bit_outputs == expect;
}

bool modeled_ok(const Kernel& k, const vcgra::overlay::RunResult& run) {
  return run.cycles == static_cast<std::uint64_t>(run.pipeline_depth) + kStream - 1 &&
         run.fp_ops == k.fp_ops_per_sample * kStream &&
         run.pipeline_depth >= k.critical_path;
}

}  // namespace

Outcome run_toolflow(const Options& options) {
  Outcome outcome;
  double excluded_s = 0;

  // ---- Corpus, inputs and references --------------------------------------
  std::vector<Kernel> corpus;
  {
    Span gen("bench.reference");
    vcgra::common::Rng rng(options.seed * 0x2545f4914f6cdd1dULL + 3);
    // The corpus mix is fixed (every random-DFG size 3..12 twice, dot
    // trees of 2..7 taps, three stencil3, three MAC dots, grids cycling
    // 4x4..8x8) so the compile work per round does not depend on the
    // seed; the seed draws the wiring, coefficients and inputs.
    for (int i = 0; i < kCorpus; ++i) {
      Kernel k;
      int pes_needed = 0;
      if (i < 20) {
        const int ops = 3 + i % 10;
        k.name = fmt("dfg%d", ops);
        k.text = random_dfg(rng, ops);
        pes_needed = ops;
      } else if (i < 26) {  // adder-tree dot product (GEMV/GEMM tile)
        const int taps = 2 + (i - 20);
        k.name = fmt("dot_tree%d", taps);
        k.text = vcgra::hpc::dot_tree_kernel_shape(static_cast<std::size_t>(taps));
        pes_needed = 2 * taps - 1;
      } else {
        const bool stencil = i < 29;
        k.name = stencil ? "stencil3" : "dot_mac";
        k.text = stencil ? vcgra::hpc::make_stencil3(16).kernel_text
                         : vcgra::hpc::make_dot(16, 16).kernel_text;
        pes_needed = 5;
      }
      int grid = 4 + i % 5;  // 4..8
      while (grid * grid < pes_needed) ++grid;
      k.arch.rows = k.arch.cols = grid;
      const auto parsed = vcgra::overlay::parse_kernel_symbolic(k.text);
      for (const auto& [name, value] : parsed.params) {
        const bool mac_coeff = k.name == "dot_mac";  // keep the MAC's 1.0
        k.params_a[name] = mac_coeff ? value : uniform(rng, -2.0, 2.0);
        k.params_b[name] = mac_coeff ? value : uniform(rng, -2.0, 2.0);
      }
      const RefKernel ref_a(k.text, k.params_a, k.arch.format);
      const RefKernel ref_b(k.text, k.params_b, k.arch.format);
      std::map<std::string, const std::vector<double>*> view;
      for (const std::string& name : ref_a.input_names()) {
        auto& stream = k.inputs[name];
        stream.resize(kStream);
        for (double& v : stream) v = uniform(rng, -2.0, 2.0);
        view[name] = &stream;
      }
      auto ra = ref_a.run(view);
      auto rb = ref_b.run(view);
      if (ra.bound_violations != 0 || rb.bound_violations != 0) outcome.correct = false;
      k.expect_a = std::move(ra.bits);
      k.expect_b = std::move(rb.bits);
      k.fp_ops_per_sample = ref_a.fp_ops_per_sample();
      k.critical_path = ref_a.critical_path();
      corpus.push_back(std::move(k));
    }
    if (options.inject_fault) {
      // Self-test: perturb one coefficient of one kernel's respecialization
      // reference; that kernel's respec jobs must fail.
      const auto it = std::find_if(corpus.begin(), corpus.end(),
                                   [](const Kernel& c) { return !c.params_b.empty(); });
      if (it == corpus.end()) throw std::logic_error("no corpus kernel has a coefficient");
      Kernel& k = *it;
      auto binding = k.params_b;
      binding.begin()->second += 0.25;
      const RefKernel bad(k.text, binding, k.arch.format);
      std::map<std::string, const std::vector<double>*> view;
      for (const auto& [name, stream] : k.inputs) view[name] = &stream;
      k.expect_b = bad.run(view).bits;
    }
    excluded_s += gen.stop();
  }

  const std::string store_root =
      fmt("%s/toolflow_store_%d", options.out_dir.c_str(), static_cast<int>(getpid()));
  std::filesystem::remove_all(store_root);
  vcgra::runtime::ServiceOptions service_options;
  service_options.threads = kWorkers;
  outcome.report.push_back(fmt(
      "toolflow: %d kernels per round (random DFGs of 3-12 ops, dot trees, stencil3, "
      "MAC dot) on 4x4-8x8 grids, %zu-sample streams; threads: 1 client + %d service "
      "worker (+ %d worker and 1 store write-behind in the store rounds)",
      kCorpus, kStream, kWorkers, kWorkers));

  struct Phase {
    std::vector<double> compile, respec, store_load;
    std::uint64_t jobs = 0, failed = 0;
    double busy_s = 0, wall_s = 0, cpu_s = 0;
    std::vector<double> fill;  // pipeline depth of the fill subset (first timed round)
    bool counts_ok = true;
    RoundStats rounds;  // p50 over each round's cold compiles
  };
  std::uint64_t round = 0;  // never reused: every round's placer seeds are new
  std::uint64_t fill_round = 0;
  std::uint64_t op_id = 0;
  // The timed rounds run on one long-lived service without a store:
  // every kernel arrives with a fresh placer seed, so each is a new
  // structure, compiled cold, then respecialized with new coefficients.
  auto compile_service = std::make_unique<vcgra::runtime::OverlayService>(service_options);
  // A store round instead attaches a fresh store directory, then serves
  // every kernel from it through a restarted service. Store rounds are
  // a fixed number, outside the timed rounds: unlinking each round's
  // directory on this filesystem stalls for ~60 ms, and those idle gaps
  // between timed jobs made the compile figures drift by 20%.
  const auto run_round = [&](Phase& p, bool with_store) {
    const std::uint64_t seed_base = options.seed * 1000003 + round * kCorpus;
    std::vector<std::map<std::string, std::vector<std::uint64_t>>> cold_outputs(corpus.size());
    std::vector<double> round_cold;
    double round_busy = 0;
    std::uint64_t round_cycles = 0;
    const auto note = [&](bool ok, const JobOutcome& j) {
      ++p.jobs;
      if (!ok) ++p.failed;
      p.busy_s += j.wall;
      round_busy += j.wall;
      round_cycles += j.result.run.cycles;
    };
    const auto compile_and_respecialize = [&](vcgra::runtime::OverlayService& service) {
      const auto before = service.stats();
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        const Kernel& k = corpus[i];
        const std::uint64_t seed = seed_base + i + 1;
        const JobOutcome cold = run_job(service, k, k.params_a, seed, "toolflow.cold", ++op_id);
        note(outputs_match(cold.result.run, k.expect_a) && modeled_ok(k, cold.result.run) &&
                 !cold.result.structure_hit,
             cold);
        p.compile.push_back(cold.wall);
        round_cold.push_back(cold.wall);
        cold_outputs[i] = cold.result.run.bit_outputs;
        if (round == fill_round && i < kFillSubset) {
          p.fill.push_back(cold.result.run.pipeline_depth);
        }
        const JobOutcome re = run_job(service, k, k.params_b, seed, "toolflow.respec", ++op_id);
        note(outputs_match(re.result.run, k.expect_b) && modeled_ok(k, re.result.run) &&
                 re.result.structure_hit && re.result.compile_seconds == 0,
             re);
        p.respec.push_back(re.wall);
      }
      const auto after = service.stats();
      if (after.jobs_completed - before.jobs_completed != 2 * corpus.size() ||
          after.cache.structure_misses - before.cache.structure_misses != corpus.size()) {
        p.counts_ok = false;
      }
    };
    if (!with_store) {
      compile_and_respecialize(*compile_service);
      p.rounds.add_round(round_cold, round_busy, 2 * corpus.size(), round_cycles);
      ++round;
      return;
    }
    vcgra::runtime::ServiceOptions so = service_options;
    so.store_dir = fmt("%s/round%llu", store_root.c_str(), static_cast<unsigned long long>(round));
    {
      vcgra::runtime::OverlayService service(so);
      compile_and_respecialize(service);
    }  // destruction drains the store write-behind
    {
      vcgra::runtime::OverlayService service(so);
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        const Kernel& k = corpus[i];
        const std::uint64_t seed = seed_base + i + 1;
        const JobOutcome load = run_job(service, k, k.params_a, seed, "toolflow.store_load", ++op_id);
        note(load.result.run.bit_outputs == cold_outputs[i] &&
                 outputs_match(load.result.run, k.expect_a) && modeled_ok(k, load.result.run) &&
                 load.result.disk_hit && load.result.compile_seconds == 0,
             load);
        p.store_load.push_back(load.wall);
      }
      const auto stats = service.stats();
      if (stats.jobs_completed != corpus.size() || stats.cache.structure_misses != 0 ||
          stats.cache.disk_hits != corpus.size()) {
        p.counts_ok = false;
      }
    }
    std::filesystem::remove_all(so.store_dir);
    ++round;
  };
  const auto account = [&](Phase& p) {
    outcome.attempted += p.jobs;
    outcome.failed += p.failed;
    if (!p.counts_ok) {
      outcome.correct = false;
      outcome.report.push_back("ServiceStats disagree with the benchmark's own job counts");
    }
  };
  const auto run_phase = [&](double seconds) {
    Phase p;
    const double cpu0 = process_cpu_seconds();
    const std::uint64_t t0 = now_ns();
    do run_round(p, false);
    while (static_cast<double>(now_ns() - t0) * 1e-9 < seconds);
    p.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    p.cpu_s = process_cpu_seconds() - cpu0;
    account(p);
    return p;
  };

  // ---- Set-up: warm-up rounds (the first compiles of the process) ---------
  for (int r = 0; r < kWarmupRounds; ++r) run_phase(0);
  const double setup_s = seconds_since_start() - excluded_s;
  fill_round = round;  // the fill subset is read from the first timed round

  const Phase main_phase = run_phase(phase_seconds(options));
  Phase store_phase;
  for (int r = 0; r < kStoreRounds; ++r) run_round(store_phase, true);
  account(store_phase);
  double fill_sum = 0;
  for (const double f : main_phase.fill) fill_sum += f;
  const double fill_mean = fill_sum / static_cast<double>(main_phase.fill.size());
  outcome.report.push_back(fmt(
      "%llu rounds: cold compile p50 %.1f us, respecialize p50 %.1f us; %d store rounds: "
      "store-served job p50 %.1f us; fill cycles mean %.3f over %d kernels",
      static_cast<unsigned long long>(round), median(main_phase.compile) * 1e6,
      median(main_phase.respec) * 1e6, kStoreRounds, median(store_phase.store_load) * 1e6,
      fill_mean, kFillSubset));

  if (!options.trace) {
    Metrics& m = outcome.end_to_end;
    m.set("setup_s", setup_s, "s");
    m.set("peak_rss_mib", peak_rss_mib(), "MiB");
    const RoundStats& r = main_phase.rounds;
    m.set("sim_mcycles_per_s", RoundStats::rate(r.mcycles_per_s), "Mcycle/s");
    m.set("op_p50_us", RoundStats::time(r.p50) * 1e6, "us");
    m.set("ops_per_s", RoundStats::rate(r.ops_per_s), "1/s");
  } else {
    Tracer::get().enable(true);
    const Phase traced = run_phase(phase_seconds(options));
    set_process_layer(outcome, "toolflow",
                      main_phase.busy_s / static_cast<double>(main_phase.jobs),
                      traced.busy_s / static_cast<double>(traced.jobs),
                      main_phase.cpu_s / main_phase.wall_s);
    set_op_tails(outcome, main_phase.compile);
    Metrics& m = outcome.per_layer;
    m.set("toolflow.respec_p50_us", median(main_phase.respec) * 1e6, "us");
    m.set("toolflow.store_load_p50_us", median(store_phase.store_load) * 1e6, "us");
    m.set("toolflow.fill_cycles_mean", fill_mean, "cycle");

    // The compile layers, called directly on the corpus with fresh seeds.
    std::vector<double> parse, synth, map, place, route, structure, specialize, lower;
    std::vector<double> serialize, deserialize, load, bytes, pes, hops;
    const std::string dir = store_root + "/layers";
    {
      vcgra::store::OverlayStore store(dir);
      std::vector<std::string> keys;
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        const Kernel& k = corpus[i];
        const std::uint64_t seed = 0x5eed0000 + i;
        Span op("toolflow.layers", ++op_id);
        std::uint64_t t = now_ns();
        const auto lap = [&] {
          const std::uint64_t now = now_ns();
          const double s = static_cast<double>(now - t) * 1e-9;
          t = now;
          return s;
        };
        vcgra::overlay::ParsedKernel parsed;
        {
          Span s("compiler.parse_kernel_symbolic");
          parsed = vcgra::overlay::parse_kernel_symbolic(k.text);
        }
        parse.push_back(lap());
        vcgra::overlay::CompiledStructure cs;
        {
          Span s("compiler.compile_structure_canonical");
          cs = vcgra::overlay::compile_structure_canonical(parsed, k.arch, seed);
        }
        structure.push_back(lap());
        synth.push_back(cs.report.synth_seconds);
        map.push_back(cs.report.map_seconds);
        place.push_back(cs.report.place_seconds);
        route.push_back(cs.report.route_seconds);
        pes.push_back(cs.report.pes_used);
        hops.push_back(cs.report.total_hops);
        vcgra::overlay::Compiled compiled;
        {
          Span s("compiler.specialize");
          compiled = vcgra::overlay::specialize(cs, parsed.to_canonical(k.params_b));
        }
        specialize.push_back(lap());
        {
          Span s("exec_plan.lower");
          (void)vcgra::overlay::ExecPlan::lower(compiled);
        }
        lower.push_back(lap());
        std::vector<std::uint8_t> record;
        {
          Span s("store.serialize");
          record = vcgra::store::serialize(cs);
        }
        serialize.push_back(lap());
        bytes.push_back(static_cast<double>(record.size()));
        {
          Span s("store.deserialize_structure");
          (void)vcgra::store::deserialize_structure(record);
        }
        deserialize.push_back(lap());
        const auto binding = vcgra::overlay::merge_params(parsed.params, k.params_a);
        keys.push_back(vcgra::runtime::cache_keys(parsed, k.arch, seed, binding).structure);
        store.save(keys.back(), cs);
        lap();
      }
      for (const std::string& key : keys) {
        Span s("store.load");
        if (!store.load(key)) outcome.correct = false;
        load.push_back(s.stop());
      }
    }
    std::filesystem::remove_all(dir);
    const auto us = [](const std::vector<double>& v) { return median(v) * 1e6; };
    const auto mean = [](const std::vector<double>& v) {
      double s = 0;
      for (const double x : v) s += x;
      return s / static_cast<double>(v.size());
    };
    m.set("compiler.parse_us", us(parse), "us");
    m.set("compiler.synth_us", us(synth), "us");
    m.set("compiler.map_us", us(map), "us");
    m.set("compiler.place_us", us(place), "us");
    m.set("compiler.route_us", us(route), "us");
    m.set("compiler.structure_us", us(structure), "us");
    m.set("compiler.specialize_us", us(specialize), "us");
    m.set("compiler.pes_used_mean", mean(pes), "count");
    m.set("compiler.route_hops_mean", mean(hops), "count");
    m.set("exec_plan.lower_us", us(lower), "us");
    m.set("store.serialize_us", us(serialize), "us");
    m.set("store.deserialize_us", us(deserialize), "us");
    m.set("store.load_us", us(load), "us");
    m.set("store.record_bytes", median(bytes), "B");

    const double cold = mean(main_phase.compile) * 1e6;
    const double st = mean(structure) * 1e6, pa = mean(parse) * 1e6,
                 sp = mean(specialize) * 1e6, lo = mean(lower) * 1e6;
    const double stages = (mean(synth) + mean(map) + mean(place) + mean(route)) * 1e6;
    outcome.report.push_back(fmt(
        "attribution toolflow cold-structure job (us, mean over the corpus):\n"
        "  client run() wall                         %10.1f\n"
        "    parse (parse_kernel_symbolic)           %10.1f\n"
        "    structure compile                       %10.1f\n"
        "      synth+map+place+route (CompileReport) %10.1f\n"
        "      structure residual                    %10.1f\n"
        "    specialize                              %10.1f\n"
        "    plan lowering                           %10.1f\n"
        "    residual (service boundary, run)        %10.1f\n"
        "  respecialize job %.1f us = specialize %.1f + lowering %.1f + residual %.1f\n"
        "  store-served job %.1f us: store.load %.1f + specialize %.1f + lowering %.1f + "
        "residual %.1f",
        cold, pa, st, stages, st - stages, sp, lo, cold - pa - st - sp - lo,
        mean(main_phase.respec) * 1e6, sp, lo, mean(main_phase.respec) * 1e6 - sp - lo,
        mean(store_phase.store_load) * 1e6, mean(load) * 1e6, sp, lo,
        mean(store_phase.store_load) * 1e6 - mean(load) * 1e6 - sp - lo));
  }
  compile_service.reset();
  std::filesystem::remove_all(store_root);
  return outcome;
}

}  // namespace perfbench
