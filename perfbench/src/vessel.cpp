// vessel: the paper's Fig. 5 retinal vessel segmentation. A seeded pool
// of small synthetic fundus frames streams through PipelineGraphRunner,
// which admits its three filter-bank graphs once and then feeds
// GraphSessions per frame, with the paper's filter sizes. Work splits
// between host preprocessing, graph/session overhead and the paper-format
// datapath.
#include <algorithm>
#include <cmath>
#include <memory>

#include "vcgra/runtime/service.hpp"
#include "vcgra/vcgra/exec_plan.hpp"
#include "vcgra/vision/filters.hpp"
#include "vcgra/vision/metrics.hpp"
#include "vcgra/vision/pipeline.hpp"
#include "vcgra/vision/pipeline_service.hpp"
#include "vcgra/vision/synthetic.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace vi = vcgra::vision;

constexpr int kFrames = 6;   // frame pool size
constexpr int kSize = 64;    // frame width and height
// Floors on segmentation quality. Mask agreement with the double host
// engine is absolute. The Dice floor against the synthetic ground truth
// is the host engine's own Dice on the same frame minus kDiceSlack: on
// 64x64 frames the algorithm itself reaches only ~0.1-0.3, varying with
// the frame, so no fixed floor holds for every seed.
constexpr double kMaskAgreementFloor = 0.99;
constexpr double kDiceSlack = 0.01;

struct Frame {
  vi::FundusImage fundus;
  vi::PipelineResult host;  // double-precision host engine
  // First overlay result: later runs of the frame must match it bit for bit.
  vi::PipelineResult golden;
  bool have_golden = false;
};

std::vector<vi::Kernel> ridge_bank(const vi::PipelineParams& p) {
  std::vector<vi::Kernel> ridges;
  for (const double angle : {0.0, 45.0, 90.0, 135.0}) {
    vi::Kernel k = vi::matched_filter_kernel(p.texture_size, p.texture_sigma,
                                             p.texture_length, angle);
    for (double& w : k.weights) w = -w;
    ridges.push_back(std::move(k));
  }
  return ridges;
}

std::vector<std::vector<vi::Kernel>> banks(const vi::PipelineParams& p) {
  return {{vi::gaussian_kernel(p.denoise_size, p.denoise_sigma)},
          vi::matched_filter_bank(p.matched_size, p.matched_sigma, p.matched_length,
                                  p.orientations),
          ridge_bank(p)};
}

double sum_abs(const vi::Kernel& k) {
  double s = 0;
  for (const double w : k.weights) s += std::fabs(w);
  return s;
}

double max_abs(const vi::Image& img) {
  return std::max(std::fabs(img.min_value()), std::fabs(img.max_value()));
}

double max_diff(const vi::Image& a, const vi::Image& b) {
  double d = 0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    d = std::max(d, static_cast<double>(std::fabs(a.data()[i] - b.data()[i])));
  }
  return d;
}

/// Outcome of checking one overlay frame.
struct FrameCheck {
  bool ok = true;
  double worst_stage_ratio = 0;  // max |overlay - host| / bound over the stages
  double mask_agreement = 0;
  double dice = 0;
  double dice_floor = 0;
};

/// Stage images against the double host engine, within a bound derived
/// from the format: each convolution with T taps and weight sum W adds
/// at most (T + 2) * u * W * max|input| (u = format plus float-storage
/// roundoff) and scales the incoming difference by W.
FrameCheck check_frame(const Frame& f, const vi::PipelineResult& got,
                       const vi::PipelineParams& params,
                       const vcgra::softfloat::FpFormat& format) {
  FrameCheck c;
  const double u = std::ldexp(1.0, -(format.wf + 1)) + std::ldexp(1.0, -24);
  const auto bank_list = banks(params);
  const vi::Image* in = &f.host.stages.masked;
  const vi::Image* stages_got[] = {&got.stages.denoised, &got.stages.matched,
                                   &got.stages.textured};
  const vi::Image* stages_host[] = {&f.host.stages.denoised, &f.host.stages.matched,
                                    &f.host.stages.textured};
  if (max_diff(got.stages.masked, f.host.stages.masked) != 0) c.ok = false;
  double incoming = 0;
  for (int s = 0; s < 3; ++s) {
    double w = 0;
    int taps = 0;
    for (const auto& k : bank_list[static_cast<std::size_t>(s)]) {
      w = std::max(w, sum_abs(k));
      taps = std::max(taps, k.taps());
    }
    const double bound = w * incoming + (taps + 2) * u * w * max_abs(*in) + 1e-30;
    const double diff = max_diff(*stages_got[s], *stages_host[s]);
    c.worst_stage_ratio = std::max(c.worst_stage_ratio, diff / bound);
    if (!(diff <= bound)) c.ok = false;
    incoming = bound;
    in = stages_host[s];
  }
  std::uint64_t agree = 0, inside = 0;
  const vi::Mask& fov = f.fundus.field_of_view;
  for (std::size_t i = 0; i < fov.data().size(); ++i) {
    if (fov.data()[i] < 0.5f) continue;
    ++inside;
    if (got.stages.segmented.data()[i] == f.host.stages.segmented.data()[i]) ++agree;
  }
  c.mask_agreement = static_cast<double>(agree) / static_cast<double>(inside);
  c.dice = vi::evaluate_segmentation(got.stages.segmented, f.fundus.ground_truth, fov).dice();
  c.dice_floor =
      vi::evaluate_segmentation(f.host.stages.segmented, f.fundus.ground_truth, fov).dice() -
      kDiceSlack;
  if (c.mask_agreement < kMaskAgreementFloor || c.dice < c.dice_floor) c.ok = false;
  return c;
}

bool same_image(const vi::Image& a, const vi::Image& b) { return a.data() == b.data(); }

/// One bank as a kernel graph, built the way PipelineGraphRunner builds
/// its banks (tap groups of the DCS dot-tree kernel, chained
/// left-associative folds), for the direct layer measurements.
struct BankGraph {
  std::shared_ptr<const vcgra::runtime::KernelGraph> graph;
  struct Tap {
    std::string stage, input;
    int dx = 0, dy = 0;
  };
  std::vector<Tap> taps;
  std::vector<std::string> finals;
};

BankGraph admit_bank(vcgra::runtime::OverlayService& service,
                     const std::vector<vi::Kernel>& bank,
                     const vcgra::overlay::OverlayArch& arch) {
  BankGraph out;
  vcgra::runtime::GraphRequest request;
  request.arch = arch;
  const int half_pes = (arch.num_pes() + 1) / 2;
  for (std::size_t f = 0; f < bank.size(); ++f) {
    const vi::Kernel& kernel = bank[f];
    const int taps = kernel.taps();
    const int half = kernel.size / 2;
    const int group = std::min(taps, half_pes);
    std::vector<std::string> pending;
    for (int base = 0; base < taps; base += group) {
      const int width = std::min(group, taps - base);
      vcgra::runtime::GraphStage stage;
      stage.name = fmt("f%zu_g%d", f, base / group);
      stage.kernel_text = vi::dcs_tap_group_kernel(width);
      for (int j = 0; j < width; ++j) {
        const int tap = base + j;
        const int kx = tap % kernel.size, ky = tap / kernel.size;
        stage.params[fmt("c%d", j)] = kernel.at(kx, ky);
        out.taps.push_back({stage.name, fmt("x%d", j), kx - half, ky - half});
      }
      pending.push_back(stage.name);
      request.stages.push_back(std::move(stage));
    }
    const int fan_in = std::max(2, half_pes);
    int folds = 0;
    while (pending.size() > 1) {
      const int k = static_cast<int>(std::min<std::size_t>(pending.size(),
                                                           static_cast<std::size_t>(fan_in)));
      vcgra::runtime::GraphStage fold;
      fold.name = fmt("f%zu_fold%d", f, folds++);
      fold.kernel_text = vcgra::overlay::chain_add_text(k);
      for (int j = 0; j < k; ++j) {
        request.edges.push_back({pending[static_cast<std::size_t>(j)], "y", fold.name,
                                 fmt("x%d", j)});
      }
      pending.erase(pending.begin(), pending.begin() + k);
      pending.insert(pending.begin(), fold.name);
      request.stages.push_back(std::move(fold));
    }
    out.finals.push_back(pending.front());
  }
  for (auto& stage : request.stages) {
    if (std::find(out.finals.begin(), out.finals.end(), stage.name) != out.finals.end()) {
      stage.keep_output = true;
    }
  }
  out.graph = service.admit_graph(request);
  return out;
}

using Chunk = std::map<std::string, std::map<std::string, std::vector<double>>>;

Chunk tap_streams(const BankGraph& bank, const vi::Image& input) {
  Chunk chunk;
  for (const auto& tap : bank.taps) {
    auto& stream = chunk[tap.stage][tap.input];
    stream.reserve(static_cast<std::size_t>(input.width() * input.height()));
    for (int y = 0; y < input.height(); ++y) {
      for (int x = 0; x < input.width(); ++x) {
        stream.push_back(static_cast<double>(input.sample(x + tap.dx, y + tap.dy)));
      }
    }
  }
  return chunk;
}

/// Run the admitted graph's stage plans directly, in topological order,
/// handing edge outputs over by copy: the datapath the session feeds,
/// without the session. Returns the kept outputs keyed "stage:y".
std::map<std::string, std::vector<std::uint64_t>> run_direct(const BankGraph& bank,
                                                             const Chunk& chunk) {
  const auto& g = *bank.graph;
  std::vector<std::map<std::string, std::vector<std::uint64_t>>> outputs(g.stages().size());
  for (const int si : g.topo_order()) {
    const auto& stage = g.stages()[static_cast<std::size_t>(si)];
    vcgra::overlay::BatchInputs in;
    const auto ext = chunk.find(stage.spec.name);
    if (ext != chunk.end()) {
      for (const auto& [name, stream] : ext->second) {
        in[stage.parsed->canonical_name(name)] =
            vcgra::overlay::BatchStream{nullptr, stream.data(), stream.size()};
      }
    }
    for (const auto& edge : g.edges()) {
      if (edge.consumer != si) continue;
      const auto& bits = outputs[static_cast<std::size_t>(edge.producer)].at(edge.canonical_output);
      in[edge.canonical_input] = vcgra::overlay::BatchStream{bits.data(), nullptr, bits.size()};
    }
    const auto view = vcgra::overlay::PlanExecutor(stage.plan).run_views(in);
    for (const auto& [name, v] : view.outputs) {
      outputs[static_cast<std::size_t>(si)][name].assign(v.data, v.data + v.size);
    }
  }
  std::map<std::string, std::vector<std::uint64_t>> kept;
  for (std::size_t si = 0; si < g.stages().size(); ++si) {
    const auto& stage = g.stages()[si];
    for (const auto& [real, canonical] : stage.kept_outputs) {
      if (stage.spec.keep_output) {
        kept[stage.spec.name + ":" + real] = outputs[si].at(canonical);
      }
    }
  }
  return kept;
}

}  // namespace

Outcome run_vessel(const Options& options) {
  Outcome outcome;
  double excluded_s = 0;
  const vi::PipelineParams params;  // the paper's filter sizes
  vcgra::overlay::OverlayArch arch;   // 4x4, FloPoCo (6,26)

  // ---- Frame pool and the double host engine's results -------------------
  std::vector<Frame> frames(kFrames);
  {
    Span gen("bench.reference");
    vcgra::common::Rng rng(options.seed * 0x9fb21c651e98df25ULL + 5);
    vi::FundusParams fp;
    fp.width = fp.height = kSize;
    for (Frame& f : frames) {
      f.fundus = vi::generate_fundus(fp, rng);
      f.host = vi::run_pipeline(f.fundus.rgb, f.fundus.field_of_view, params);
    }
    excluded_s += gen.stop();
  }
  std::uint64_t expected_fp_ops = 0;  // per frame: pixels x sum over filters of (2T - 1)
  for (const auto& bank : banks(params)) {
    for (const auto& k : bank) {
      expected_fp_ops += static_cast<std::uint64_t>(kSize * kSize) *
                         static_cast<std::uint64_t>(2 * k.taps() - 1);
    }
  }

  // ---- Set-up: service, graph admission, one pass over the pool ----------
  vcgra::runtime::ServiceOptions service_options;
  service_options.threads = 1;  // sessions execute on the feeding thread
  auto service = std::make_unique<vcgra::runtime::OverlayService>(service_options);
  double admit_s = 0;
  std::unique_ptr<vi::PipelineGraphRunner> runner;
  {
    Span s("vision.PipelineGraphRunner");
    runner = std::make_unique<vi::PipelineGraphRunner>(params, arch, *service, options.seed);
    admit_s = s.stop();
  }
  outcome.report.push_back(fmt(
      "vessel: %d synthetic %dx%d fundus frames, filters %dx%d / %dx%d x%d / %dx%d x4 on "
      "a %s; threads: 1 client (sessions run inline) + 1 service worker",
      kFrames, kSize, kSize, params.denoise_size, params.denoise_size, params.matched_size,
      params.matched_size, params.orientations, params.texture_size, params.texture_size,
      arch.to_string().c_str()));

  std::uint64_t op_id = 0;
  FrameCheck worst;
  worst.mask_agreement = 1;
  worst.dice = 1;
  worst.dice_floor = -1;
  // Runs one frame and checks it: against the host engine always, and
  // bit for bit against the frame's first overlay result. Returns the
  // frame's wall time and modeled cycles.
  const auto run_frame = [&](std::size_t i) {
    Frame& f = frames[i];
    Span op("vessel.frame", ++op_id);
    vi::PipelineResult got = runner->run(f.fundus.rgb, f.fundus.field_of_view);
    const std::pair<double, std::uint64_t> timing{op.stop(), got.cost.cycles};
    ++outcome.attempted;
    const FrameCheck c = check_frame(f, got, params, arch.format);
    worst.worst_stage_ratio = std::max(worst.worst_stage_ratio, c.worst_stage_ratio);
    worst.mask_agreement = std::min(worst.mask_agreement, c.mask_agreement);
    if (c.dice - c.dice_floor < worst.dice - worst.dice_floor) {
      worst.dice = c.dice;
      worst.dice_floor = c.dice_floor;
    }
    bool ok = c.ok && got.cost.macs == expected_fp_ops;
    if (!f.have_golden) {
      f.golden = std::move(got);
      f.have_golden = true;
      if (options.inject_fault && i == 1) {
        // Self-test: flip one mask pixel of the golden result.
        float& px = f.golden.stages.segmented.data()[kSize * kSize / 2 + kSize / 2];
        px = px > 0.5f ? 0.0f : 1.0f;
      }
    } else {
      ok = ok && same_image(got.stages.segmented, f.golden.stages.segmented) &&
           same_image(got.stages.textured, f.golden.stages.textured) &&
           got.cost.cycles == f.golden.cost.cycles && got.cost.macs == f.golden.cost.macs;
    }
    if (!ok) ++outcome.failed;
    return timing;
  };
  for (std::size_t i = 0; i < frames.size(); ++i) run_frame(i);
  const double setup_s = seconds_since_start() - excluded_s;

  struct Phase {
    std::vector<double> walls;
    std::uint64_t cycles = 0;
    double wall_s = 0, cpu_s = 0, busy_s = 0;
  };
  const auto run_phase = [&](double seconds) {
    Phase p;
    const auto before = service->stats();
    const double cpu0 = process_cpu_seconds();
    const std::uint64_t t0 = now_ns();
    do {
      for (std::size_t i = 0; i < frames.size(); ++i) {
        const auto [wall, cycles] = run_frame(i);
        p.walls.push_back(wall);
        p.cycles += cycles;
        p.busy_s += wall;
      }
    } while (static_cast<double>(now_ns() - t0) * 1e-9 < seconds);
    p.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    p.cpu_s = process_cpu_seconds() - cpu0;
    const auto after = service->stats();
    // Three bank sessions per frame.
    if (after.sessions_opened - before.sessions_opened != 3 * p.walls.size() ||
        after.sessions_open != 0) {
      outcome.correct = false;
      outcome.report.push_back("ServiceStats session counts disagree with the frames run");
    }
    return p;
  };
  const Phase main_phase = run_phase(phase_seconds(options));
  const double frame_mcycles =
      static_cast<double>(main_phase.cycles) / static_cast<double>(main_phase.walls.size()) * 1e-6;
  outcome.report.push_back(fmt(
      "%zu frames: p50 %.2f ms; %.4f modeled Mcycle per frame; worst stage |overlay-host|/bound "
      "%.3g, worst mask agreement %.4f (floor %.2f), tightest Dice %.3f (floor %.3f)",
      main_phase.walls.size(), median(main_phase.walls) * 1e3, frame_mcycles,
      worst.worst_stage_ratio, worst.mask_agreement, kMaskAgreementFloor, worst.dice,
      worst.dice_floor));

  if (!options.trace) {
    Metrics& m = outcome.end_to_end;
    m.set("setup_s", setup_s, "s");
    m.set("peak_rss_mib", peak_rss_mib(), "MiB");
    m.set("sim_mcycles_per_s", static_cast<double>(main_phase.cycles) / main_phase.busy_s * 1e-6,
          "Mcycle/s");
    m.set("op_p50_us", median(main_phase.walls) * 1e6, "us");
    m.set("ops_per_s", static_cast<double>(main_phase.walls.size()) / main_phase.busy_s, "1/s");
  } else {
    Tracer::get().enable(true);
    const Phase traced = run_phase(phase_seconds(options));
    set_process_layer(outcome, "vessel",
                      main_phase.busy_s / static_cast<double>(main_phase.walls.size()),
                      traced.busy_s / static_cast<double>(traced.walls.size()),
                      main_phase.cpu_s / main_phase.wall_s);
    set_op_tails(outcome, main_phase.walls);
    Metrics& m = outcome.per_layer;
    m.set("vessel.frame_mcycles", frame_mcycles, "Mcycle");
    m.set("graph.admit_ms", admit_s * 1e3, "ms");

    // Host stages, called directly on the pool frames.
    std::vector<double> pre, thr, host, feed, direct, fused;
    for (const Frame& f : frames) {
      vi::Mask valid;
      vi::Image masked;
      pre.push_back(1e3 * time_median(5, [&] {
        Span s("vision.preprocess");
        const vi::Image green = f.fundus.rgb.channel(1);
        const vi::Image eq = vi::equalize_histogram(green, f.fundus.field_of_view);
        masked = vi::remove_optic_disc_and_border(eq, f.fundus.field_of_view, &valid);
      }));
      thr.push_back(1e3 * time_median(5, [&] {
        Span s("vision.threshold");
        const float level =
            vi::quantile_level(f.golden.stages.textured, valid, params.threshold_quantile);
        vi::Mask seg = vi::threshold(f.golden.stages.textured, level);
        for (std::size_t p = 0; p < seg.data().size(); ++p) {
          if (valid.data()[p] < 0.5f) seg.data()[p] = 0.0f;
        }
      }));
      host.push_back(1e3 * time_median(3, [&] {
        Span s("vision.run_pipeline");
        (void)vi::run_pipeline(f.fundus.rgb, f.fundus.field_of_view, params);
      }));
    }
    // Graph sessions against direct plan runs of the same stages on the
    // same chunks (the golden stage images are each bank's input).
    std::vector<BankGraph> graphs;
    for (const auto& bank : banks(params)) graphs.push_back(admit_bank(*service, bank, arch));
    for (const Frame& f : frames) {
      const vi::Image* inputs[] = {&f.golden.stages.masked, &f.golden.stages.denoised,
                                   &f.golden.stages.matched};
      double feed_ms = 0, direct_ms = 0, groups = 0;
      for (std::size_t b = 0; b < graphs.size(); ++b) {
        const Chunk chunk = tap_streams(graphs[b], *inputs[b]);
        vcgra::runtime::GraphResult fed;
        feed_ms += 1e3 * time_median(3, [&] {
          Span s("graph.session_feed");
          fed = service->open_graph_session(graphs[b].graph)->feed(chunk);
        });
        groups += fed.fused_groups;
        std::map<std::string, std::vector<std::uint64_t>> kept;
        direct_ms += 1e3 * time_median(3, [&] {
          Span s("exec_plan.direct_stages");
          kept = run_direct(graphs[b], chunk);
        });
        if (kept != fed.bit_outputs) outcome.correct = false;
      }
      feed.push_back(feed_ms);
      direct.push_back(direct_ms);
      fused.push_back(groups);
    }
    m.set("vision.preprocess_ms", median(pre), "ms");
    m.set("vision.threshold_ms", median(thr), "ms");
    m.set("vision.host_engine_ms", median(host), "ms");
    m.set("graph.feed_ms_per_frame", median(feed), "ms");
    m.set("graph.overhead_pct", (median(feed) - median(direct)) / median(feed) * 100, "%");
    m.set("graph.fused_groups_per_frame", median(fused), "count");
    const double frame_ms = median(main_phase.walls) * 1e3;
    outcome.report.push_back(fmt(
        "attribution vessel frame (ms, medians over the pool):\n"
        "  PipelineGraphRunner::run wall             %10.3f\n"
        "    host preprocessing                      %10.3f\n"
        "    bank graph sessions (3 feeds)           %10.3f\n"
        "      direct plan runs of the stages        %10.3f\n"
        "      graph/session overhead                %10.3f\n"
        "    threshold                               %10.3f\n"
        "    residual (tap streams, decode, max)     %10.3f\n"
        "  double host engine (reference only)       %10.3f",
        frame_ms, median(pre), median(feed), median(direct), median(feed) - median(direct),
        median(thr), frame_ms - median(pre) - median(feed) - median(thr), median(host)));
  }
  runner.reset();
  service.reset();
  return outcome;
}

}  // namespace perfbench
