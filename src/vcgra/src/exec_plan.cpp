#include "vcgra/vcgra/exec_plan.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "vcgra/common/strings.hpp"
#include "vcgra/softfloat/batch.hpp"
#include "vcgra/telemetry/metrics.hpp"
#include "vcgra/telemetry/trace.hpp"

namespace vcgra::overlay {

using softfloat::FpValue;

namespace {

constexpr std::size_t kAbsent = std::numeric_limits<std::size_t>::max();

/// Elements processed per tape sweep: large enough to amortize the
/// per-op dispatch, small enough that a handful of live stream blocks
/// stays cache-resident (1024 x 8 B = 8 KiB per buffer).
constexpr std::size_t kBlockElems = 1024;

}  // namespace

ExecPlan ExecPlan::lower(const Compiled& compiled, const SimOptions& options) {
  ExecPlan plan;
  plan.format = compiled.arch.format;
  plan.sim = options;

  // Reconstruct per-node execution exactly like the interpreter does —
  // settings by node, operand lists and hop latencies recovered from the
  // routed nets. Hops are keyed by (from, to, operand): two routed edges
  // between one node pair (e.g. x*x dual-operand reuse) carry their own
  // latencies instead of silently overwriting each other.
  //
  // This block deliberately duplicates Simulator::run's recovery rather
  // than sharing a helper: the recovery rules are part of what the
  // differential suite cross-checks, so a future recovery bug in one
  // engine fails the suite loudly instead of corrupting both silently.
  std::map<int, const PeSettings*> pe_settings_of_node;
  for (const auto& pe : compiled.settings.pes) {
    if (pe.used) pe_settings_of_node[pe.dfg_node] = &pe;
  }
  std::map<std::tuple<int, int, int>, int> hops_between;
  for (const auto& net : compiled.settings.routes) {
    const int hops = std::max<int>(0, static_cast<int>(net.hops.size()) - 1);
    hops_between[{net.from_node, net.to_node, net.to_operand}] = hops;
  }
  std::map<int, std::vector<std::pair<int, int>>> operands_of;  // node -> (idx, src)
  for (const auto& net : compiled.settings.routes) {
    if (net.to_node >= 0 && pe_settings_of_node.count(net.to_node)) {
      operands_of[net.to_node].emplace_back(net.to_operand, net.from_node);
    }
  }
  for (auto& [node, list] : operands_of) {
    std::sort(list.begin(), list.end());
  }

  const auto hop_of = [&](int from, int to, int operand) {
    const auto it = hops_between.find({from, to, operand});
    return it == hops_between.end() ? 0 : it->second;
  };

  // Dense buffers: declared inputs first, then each value-producing PE.
  std::map<int, std::int32_t> buffer_of;
  for (const auto& [name, node] : compiled.input_node_by_name) {
    buffer_of[node] = plan.num_buffers;
    plan.input_buffer_by_name[name] = plan.num_buffers++;
  }

  std::map<int, int> ready_at;  // inputs implicitly ready at cycle 0
  int deepest = 0;
  std::vector<int> order;
  for (const auto& [node, settings] : pe_settings_of_node) order.push_back(node);
  std::sort(order.begin(), order.end());  // DFG ids are topological

  for (const int node : order) {
    const PeSettings& pe = *pe_settings_of_node.at(node);
    const auto& operands = operands_of[node];
    int start = 0;
    std::vector<std::int32_t> arg_bufs;
    std::vector<std::int32_t> arg_srcs;
    for (const auto& [idx, src] : operands) {
      const auto it = buffer_of.find(src);
      if (it == buffer_of.end()) {
        throw std::invalid_argument(common::strprintf(
            "ExecPlan: operand stream for node %d missing (src %d)", node, src));
      }
      arg_bufs.push_back(it->second);
      arg_srcs.push_back(src);
      start = std::max(start,
                       ready_at[src] + hop_of(src, node, idx) * options.hop_latency);
    }

    Op op;
    op.node = node;
    int latency = 0;
    switch (pe.op) {
      case OpKind::kMul:
        latency = options.mul_latency;
        if (arg_bufs.size() == 1) {
          op.code = OpCode::kMulCoeff;
          op.a = arg_bufs[0];
          op.src_a = arg_srcs[0];
          op.coeff_bits = pe.coeff_bits;
        } else if (arg_bufs.size() == 2) {
          op.code = OpCode::kMulStream;
          op.a = arg_bufs[0];
          op.b = arg_bufs[1];
          op.src_a = arg_srcs[0];
          op.src_b = arg_srcs[1];
        } else {
          throw std::invalid_argument(
              "ExecPlan: mul needs one or two stream operands");
        }
        break;
      case OpKind::kAdd:
      case OpKind::kSub:
        latency = options.add_latency;
        if (arg_bufs.size() != 2) {
          throw std::invalid_argument("ExecPlan: add/sub needs two streams");
        }
        op.code = pe.op == OpKind::kAdd ? OpCode::kAdd : OpCode::kSub;
        op.a = arg_bufs[0];
        op.b = arg_bufs[1];
        op.src_a = arg_srcs[0];
        op.src_b = arg_srcs[1];
        if (pe.op == OpKind::kSub) {
          op.xor_mask = std::uint64_t{1}
                        << (compiled.arch.format.we + compiled.arch.format.wf);
        }
        break;
      case OpKind::kMac:
        latency = options.mul_latency + options.add_latency;
        if (arg_bufs.size() != 1) {
          throw std::invalid_argument("ExecPlan: mac needs one stream operand");
        }
        op.code = OpCode::kMac;
        op.a = arg_bufs[0];
        op.src_a = arg_srcs[0];
        op.coeff_bits = pe.coeff_bits;
        // count == 0 is kept as-is: the interpreter's counter never
        // matches, so such a PE consumes forever and emits nothing.
        op.count = pe.count;
        op.mac_slot = plan.num_mac_ops++;
        break;
      case OpKind::kPass:
        // Pure routing: the node's stream IS its operand's stream. The
        // PE still occupies a pipeline stage, so it keeps a schedule
        // entry but dissolves out of the tape entirely.
        if (arg_bufs.empty()) {
          throw std::invalid_argument("ExecPlan: pass needs a stream operand");
        }
        buffer_of[node] = arg_bufs[0];
        ready_at[node] = start + 1;
        deepest = std::max(deepest, ready_at[node]);
        continue;
      default:
        throw std::invalid_argument("ExecPlan: unexpected PE op");
    }
    op.dst = plan.num_buffers++;
    buffer_of[node] = op.dst;
    plan.tape.push_back(op);
    ready_at[node] = start + latency;
    deepest = std::max(deepest, ready_at[node]);
  }

  for (const auto& [name, node] : compiled.output_node_by_name) {
    const auto src_it = compiled.output_source.find(node);
    if (src_it == compiled.output_source.end()) {
      throw std::invalid_argument("ExecPlan: output without source");
    }
    const int src = src_it->second;
    const auto buf_it = buffer_of.find(src);
    if (buf_it == buffer_of.end()) {
      throw std::invalid_argument("ExecPlan: output stream missing");
    }
    deepest = std::max(deepest,
                       ready_at[src] + hop_of(src, node, 0) * options.hop_latency);
    plan.outputs.push_back({name, buf_it->second, src});
  }
  plan.pipeline_depth = deepest;

  // Fusion peephole: a coefficient-multiply whose stream is consumed by
  // exactly one add/sub (and nothing else — no other op, no output)
  // folds into that consumer as kAxpy/kXpay. The arithmetic is the
  // identical two-rounding sequence; only the intermediate buffer's
  // store/load round trip disappears. The schedule above was computed
  // before fusion, so cycles/depth accounting is untouched.
  {
    std::vector<std::int32_t> producer(
        static_cast<std::size_t>(plan.num_buffers), -1);
    for (std::size_t i = 0; i < plan.tape.size(); ++i) {
      if (plan.tape[i].code == OpCode::kMulCoeff) {
        producer[static_cast<std::size_t>(plan.tape[i].dst)] =
            static_cast<std::int32_t>(i);
      }
    }
    std::vector<int> uses(static_cast<std::size_t>(plan.num_buffers), 0);
    for (const Op& op : plan.tape) {
      ++uses[static_cast<std::size_t>(op.a)];
      if (op.b >= 0) ++uses[static_cast<std::size_t>(op.b)];
    }
    for (const OutputSlot& slot : plan.outputs) {
      ++uses[static_cast<std::size_t>(slot.buffer)];
    }
    std::vector<bool> erased(plan.tape.size(), false);
    const auto fusable = [&](std::int32_t buf) {
      return buf >= 0 && producer[static_cast<std::size_t>(buf)] >= 0 &&
             !erased[static_cast<std::size_t>(
                 producer[static_cast<std::size_t>(buf)])] &&
             uses[static_cast<std::size_t>(buf)] == 1;
    };
    for (Op& op : plan.tape) {
      if (op.code != OpCode::kAdd && op.code != OpCode::kSub) continue;
      if (fusable(op.b)) {
        const std::size_t mul_index =
            static_cast<std::size_t>(producer[static_cast<std::size_t>(op.b)]);
        const Op& mul = plan.tape[mul_index];
        erased[mul_index] = true;
        op.code = OpCode::kAxpy;  // xor_mask (sub's flip) hits the product
        op.b = mul.a;
        op.src_b = mul.src_a;
        op.coeff_bits = mul.coeff_bits;
      } else if (fusable(op.a)) {
        const std::size_t mul_index =
            static_cast<std::size_t>(producer[static_cast<std::size_t>(op.a)]);
        const Op& mul = plan.tape[mul_index];
        erased[mul_index] = true;
        op.code = OpCode::kXpay;  // xor_mask (sub's flip) hits operand b
        op.a = mul.a;
        op.src_a = mul.src_a;
        op.coeff_bits = mul.coeff_bits;
      }
    }
    std::vector<Op> fused_tape;
    fused_tape.reserve(plan.tape.size());
    for (std::size_t i = 0; i < plan.tape.size(); ++i) {
      if (!erased[i]) fused_tape.push_back(plan.tape[i]);
    }
    plan.tape = std::move(fused_tape);
  }
  return plan;
}

// --- ExecArena ---------------------------------------------------------------

ExecArena& ExecArena::this_thread() {
  thread_local ExecArena arena;
  return arena;
}

namespace {

/// Global mirrors of the per-thread arena stats. Steady state records
/// zero grows: a nonzero exec.arena_grows delta over a warm interval
/// means some job shape outgrew every arena it landed on.
struct ArenaMetrics {
  telemetry::Counter& grows = telemetry::metrics().counter("exec.arena_grows");
  telemetry::Gauge& capacity_words =
      telemetry::metrics().gauge("exec.arena_capacity_words");
  telemetry::Gauge& high_water_words =
      telemetry::metrics().gauge("exec.arena_high_water_words");
};

ArenaMetrics& arena_metrics() {
  static ArenaMetrics* m = new ArenaMetrics();  // registry refs never dangle
  return *m;
}

}  // namespace

template <typename T>
void ExecArena::ensure(std::vector<T>& vec, std::size_t n) {
  if (vec.capacity() < n) {
    ++stats_.grows;
    arena_metrics().grows.add();
    vec.reserve(std::max(n, vec.capacity() * 2));
  }
  vec.resize(n);
}

void ExecArena::begin_job(std::size_t buffers, std::size_t mac_ops) {
  ++stats_.jobs;
  used_ = 0;
  ensure(lengths_, buffers);
  ensure(offsets_, buffers);
  ensure(produced_, buffers);
  ensure(mac_states_, mac_ops);
  std::fill(lengths_.begin(), lengths_.end(), kAbsent);
  std::fill(offsets_.begin(), offsets_.end(), std::size_t{0});
  std::fill(produced_.begin(), produced_.end(), std::size_t{0});
  std::fill(mac_states_.begin(), mac_states_.end(), MacState{});
}

void ExecArena::reserve_words(std::size_t words) {
  stats_.high_water_words = std::max(stats_.high_water_words, words);
  if (pool_.size() < words) {
    ++stats_.grows;
    arena_metrics().grows.add();
    pool_.resize(std::max(words, pool_.size() * 2));
    // Largest arena wins: the gauges answer "how big did arenas get",
    // not "what does thread k hold" (that is thread_arena_stats()).
    arena_metrics().capacity_words.set(static_cast<std::int64_t>(pool_.size()));
  }
  if (static_cast<std::int64_t>(stats_.high_water_words) >
      arena_metrics().high_water_words.value()) {
    arena_metrics().high_water_words.set(
        static_cast<std::int64_t>(stats_.high_water_words));
  }
  stats_.capacity_words = pool_.size();
  used_ = 0;
}

std::uint64_t* ExecArena::take(std::size_t words) {
  if (used_ + words > pool_.size()) {
    throw std::logic_error("ExecArena: job reservation exceeded");
  }
  std::uint64_t* out = pool_.data() + used_;
  used_ += words;
  return out;
}

// --- PlanExecutor ------------------------------------------------------------

PlanExecutor::PlanExecutor(std::shared_ptr<const ExecPlan> plan)
    : plan_(std::move(plan)) {
  if (!plan_) {
    throw std::invalid_argument("PlanExecutor: null plan handle");
  }
}

namespace {

/// One job of a sweep: its acceptance verdict, input stream length and
/// closed-form op totals.
struct JobSlot {
  std::exception_ptr error;  // set = job excluded from the sweep
  std::size_t length = 0;
  std::uint64_t fp_ops = 0;
  std::uint64_t mac_ops = 0;
};

/// The calling thread's job table, reset to `njobs` clean slots. Like the
/// arena, its capacity only grows, so warm sweeps allocate nothing here.
std::vector<JobSlot>& job_table(std::size_t njobs) {
  thread_local std::vector<JobSlot> table;
  table.assign(njobs, JobSlot{});
  return table;
}

[[noreturn]] void throw_missing_operand(const ExecPlan::Op& op, int src) {
  throw std::runtime_error(common::strprintf(
      "PlanExecutor: operand stream for node %d missing (src %d)", op.node,
      src));
}

/// The length planner: one walk of the tape for job `j` of `njobs` that
/// sets every buffer's length (`lens` is indexed [buffer * njobs + j]),
/// adds the closed-form op totals to `slot` and enforces the
/// interpreter's operand rules. `carry` (session chunks only) holds the
/// MAC fill levels the chunk starts from.
void plan_lengths(const ExecPlan& plan, std::size_t njobs, std::size_t j,
                  const StreamCarry* carry, std::vector<std::size_t>& lens,
                  JobSlot& slot) {
  const auto len = [&](std::int32_t buffer) -> std::size_t& {
    return lens[static_cast<std::size_t>(buffer) * njobs + j];
  };
  for (const ExecPlan::Op& op : plan.tape) {
    const std::size_t la = len(op.a);
    if (la == kAbsent) throw_missing_operand(op, op.src_a);
    std::size_t lb = la;
    if (op.b >= 0) {
      lb = len(op.b);
      if (lb == kAbsent) throw_missing_operand(op, op.src_b);
    }
    std::size_t& ld = len(op.dst);
    ld = la;
    switch (op.code) {
      case ExecPlan::OpCode::kMulCoeff:
        slot.fp_ops += la;
        break;
      case ExecPlan::OpCode::kMulStream:
        // The interpreter streams args[0]'s length and indexes into
        // args[1]; a shorter second operand would read out of bounds
        // there, so reject it loudly here.
        if (lb < la) {
          throw std::runtime_error(
              "PlanExecutor: mul stream operands shorter than the first");
        }
        slot.fp_ops += la;
        break;
      case ExecPlan::OpCode::kAdd:
      case ExecPlan::OpCode::kSub:
      case ExecPlan::OpCode::kAxpy:
      case ExecPlan::OpCode::kXpay:
        // A fused multiply + add still demands equal streams and counts
        // both of its rounding steps.
        if (la != lb) {
          throw std::runtime_error(
              "PlanExecutor: add/sub needs two equal streams");
        }
        slot.fp_ops += (op.code == ExecPlan::OpCode::kAxpy ||
                        op.code == ExecPlan::OpCode::kXpay)
                           ? 2 * la
                           : la;
        break;
      case ExecPlan::OpCode::kMac: {
        // Every fold the carried fill level plus these samples complete
        // is emitted here: a chunk boundary mid-accumulation emits
        // nothing and the next chunk emits early.
        const std::size_t filled =
            carry ? carry->mac[static_cast<std::size_t>(op.mac_slot)].filled
                  : 0;
        ld = op.count ? (filled + la) / op.count : 0;
        slot.fp_ops += 2 * la;
        slot.mac_ops += la;
        break;
      }
    }
  }
}

/// The op dispatch: run `op` over `n` elements of its operands `pa`/`pb`
/// into `pd`; returns how many outputs it wrote (fewer than `n` only for
/// a decimating kMac, which folds into `mac`).
std::size_t dispatch(const ExecPlan::Op& op, softfloat::FpFormat format,
                     const std::uint64_t* pa, const std::uint64_t* pb,
                     std::uint64_t* pd, std::size_t n,
                     ExecArena::MacState* mac) {
  switch (op.code) {
    case ExecPlan::OpCode::kMulCoeff:
      softfloat::fp_mul_coeff_n(format, pa, op.coeff_bits, pd, n);
      break;
    case ExecPlan::OpCode::kMulStream:
      softfloat::fp_mul_n(format, pa, pb, pd, n);
      break;
    case ExecPlan::OpCode::kAdd:
      softfloat::fp_add_n(format, pa, pb, pd, n);
      break;
    case ExecPlan::OpCode::kSub:
      softfloat::fp_add_xor_n(format, pa, pb, op.xor_mask, pd, n);
      break;
    case ExecPlan::OpCode::kAxpy:
      softfloat::fp_axpy_n(format, pa, pb, op.coeff_bits, op.xor_mask, pd, n);
      break;
    case ExecPlan::OpCode::kXpay:
      softfloat::fp_xpay_n(format, pa, op.coeff_bits, pb, op.xor_mask, pd, n);
      break;
    case ExecPlan::OpCode::kMac:
      // count == 0 never emits; the accumulator is unobservable.
      return op.count ? softfloat::fp_mac_n(format, pa, op.coeff_bits,
                                            op.count, pd, n, &mac->acc,
                                            &mac->filled)
                      : 0;
  }
  return n;
}

/// The one plan sweep, shared by every entry point: a lone job is a
/// stripe of one, a session chunk a stripe of one whose MAC accumulators
/// start from (and return to) `carry`.
///
/// Each job of `table` that has no error yet is checked with the
/// single-job acceptance rules and planned; a rejected job fails alone.
/// Every buffer then becomes a stripe of the valid jobs' segments back
/// to back in job order, all inputs are seeded in one boundary pass, and
/// the tape sweeps the stripes in kBlockElems blocks. An elementwise op
/// runs as one kernel call per block, across job boundaries (its operand
/// and destination stripes align element for element). Only kMac (a
/// serial per-job accumulator) and a kMulStream whose second operand is
/// longer in some job walk per-job segments. The stripes stay in the
/// calling thread's arena, indexed [buffer * njobs + job], for the entry
/// points to materialize.
void sweep(const ExecPlan& plan, const ResolvedJob* jobs,
           std::vector<JobSlot>& table, StreamCarry* carry) {
  const std::size_t njobs = table.size();
  const std::size_t buffers = static_cast<std::size_t>(plan.num_buffers);
  ExecArena& arena = ExecArena::this_thread();
  arena.begin_job(buffers * njobs,
                  static_cast<std::size_t>(plan.num_mac_ops) * njobs);
  std::vector<std::size_t>& lens = arena.lengths();
  const std::size_t inputs = plan.input_buffer_by_name.size();

  for (std::size_t j = 0; j < njobs; ++j) {
    JobSlot& slot = table[j];
    if (slot.error) continue;
    try {
      for (const ResolvedStream& entry : jobs[j]) {
        if (slot.length == 0) slot.length = entry.stream.size;
        if (entry.stream.size != slot.length) {
          throw std::invalid_argument(
              "PlanExecutor: input stream lengths differ");
        }
      }
      for (const ResolvedStream& entry : jobs[j]) {
        if (entry.buffer < 0 ||
            static_cast<std::size_t>(entry.buffer) >= inputs) {
          throw std::invalid_argument(
              "PlanExecutor: resolved stream buffer index out of range");
        }
        std::size_t& len =
            lens[static_cast<std::size_t>(entry.buffer) * njobs + j];
        if (len != kAbsent) {
          throw std::invalid_argument(
              "PlanExecutor: duplicate resolved input stream");
        }
        len = entry.stream.size;
      }
      plan_lengths(plan, njobs, j, carry, lens, slot);
    } catch (...) {
      slot.error = std::current_exception();
      for (std::size_t b = 0; b < buffers; ++b) lens[b * njobs + j] = kAbsent;
    }
  }

  std::size_t total_words = 0;
  for (std::size_t i = 0; i < buffers * njobs; ++i) {
    if (lens[i] != kAbsent) total_words += lens[i];
  }
  arena.reserve_words(total_words);
  std::vector<std::size_t>& offsets = arena.offsets();
  for (std::size_t i = 0; i < buffers * njobs; ++i) {
    if (lens[i] == kAbsent) continue;
    offsets[i] = static_cast<std::size_t>(arena.take(lens[i]) - arena.words());
  }

  // Boundary pass: every provided stream of every valid job, bits copied
  // or doubles batch-encoded straight into its segment.
  const softfloat::FpFormat format = plan.format;
  std::uint64_t* const words = arena.words();
  std::uint64_t span_start = telemetry::child_span_start();
  std::size_t first = njobs;  // first valid job: its segments start stripes
  for (std::size_t j = 0; j < njobs; ++j) {
    if (table[j].error) continue;
    first = std::min(first, j);
    for (const ResolvedStream& entry : jobs[j]) {
      std::uint64_t* dst =
          words + offsets[static_cast<std::size_t>(entry.buffer) * njobs + j];
      if (entry.stream.bits) {
        std::copy(entry.stream.bits, entry.stream.bits + entry.stream.size,
                  dst);
      } else {
        softfloat::fp_from_double_n(format, entry.stream.doubles, dst,
                                    entry.stream.size);
      }
    }
  }
  telemetry::record_child_span("exec.encode", span_start);
  span_start = telemetry::child_span_start();

  std::vector<ExecArena::MacState>& mac = arena.mac_states();
  const bool carried = carry != nullptr && first < njobs;
  if (carried) {
    // `consumed` restarts at zero: it indexes this chunk's operand
    // segment, not the whole stream.
    for (std::size_t s = 0; s < mac.size(); ++s) {
      mac[s].acc = carry->mac[s].acc;
      mac[s].filled = carry->mac[s].filled;
    }
  }

  // Positions below are stripe-relative: produced[b] elements of buffer
  // b's stripe are final. Inputs are buffers [0, inputs) (lower() numbers
  // them first) and are released one block at a time; every op then
  // catches up as far as its operands allow, so MAC decimation can make
  // rates differ and an accumulation straddles blocks in its MacState.
  std::vector<std::size_t>& produced = arena.produced();
  const auto at = [&](std::int32_t buffer, std::size_t j) {
    return static_cast<std::size_t>(buffer) * njobs + j;
  };
  const auto start = [&](std::int32_t buffer, std::size_t j) {
    return offsets[at(buffer, j)] - offsets[at(buffer, first)];
  };
  // An input's stripe: the valid jobs' segments (a job may hold a
  // zero-length stream beside its real ones, and omit unconsumed ones).
  const auto input_stripe = [&](std::size_t b) {
    std::size_t n = 0;
    for (std::size_t j = first; j < njobs; ++j) {
      if (lens[b * njobs + j] != kAbsent) n += lens[b * njobs + j];
    }
    return n;
  };
  std::size_t stripe = 0;
  for (std::size_t b = 0; b < inputs; ++b) {
    stripe = std::max(stripe, input_stripe(b));
  }
  for (std::size_t pos = 0; pos < stripe;) {
    pos = std::min(stripe, pos + kBlockElems);
    for (std::size_t b = 0; b < inputs; ++b) {
      produced[b] = std::min(pos, input_stripe(b));
    }
    for (const ExecPlan::Op& op : plan.tape) {
      const std::size_t a = static_cast<std::size_t>(op.a);
      const std::size_t d = static_cast<std::size_t>(op.dst);
      bool aligned = op.code != ExecPlan::OpCode::kMac;
      if (op.code == ExecPlan::OpCode::kMulStream) {
        for (std::size_t j = first; j < njobs && aligned; ++j) {
          aligned = table[j].error || lens[at(op.a, j)] == lens[at(op.b, j)];
        }
      }
      if (aligned) {
        const std::size_t done = produced[d];
        std::size_t avail = produced[a];
        if (op.b >= 0) {
          avail = std::min(avail, produced[static_cast<std::size_t>(op.b)]);
        }
        if (avail <= done) continue;
        dispatch(op, format, words + offsets[at(op.a, first)] + done,
                 op.b >= 0 ? words + offsets[at(op.b, first)] + done : nullptr,
                 words + offsets[at(op.dst, first)] + done, avail - done,
                 nullptr);
        produced[d] = avail;
        continue;
      }
      // Per-job segments, in job order: the destination stripe grows as
      // a prefix, so every earlier job's segment is already complete.
      for (std::size_t j = first; j < njobs; ++j) {
        if (table[j].error) continue;
        const std::size_t ia = at(op.a, j);
        const std::size_t sa = start(op.a, j);
        if (produced[a] <= sa) break;
        const std::size_t upto = std::min(produced[a] - sa, lens[ia]);
        const std::size_t written = produced[d] - start(op.dst, j);
        if (op.code == ExecPlan::OpCode::kMac) {
          ExecArena::MacState& state =
              mac[static_cast<std::size_t>(op.mac_slot) * njobs + j];
          if (upto == state.consumed) continue;
          produced[d] += dispatch(
              op, format, words + offsets[ia] + state.consumed, nullptr,
              words + offsets[at(op.dst, j)] + written, upto - state.consumed,
              &state);
          state.consumed = upto;
          continue;
        }
        // kMulStream with a longer second operand: the destination
        // aligns with operand a, operand b only at each segment start.
        if (written >= lens[ia]) continue;
        const std::size_t sb = start(op.b, j);
        const std::size_t pb = produced[static_cast<std::size_t>(op.b)];
        const std::size_t avail = std::min(upto, pb > sb ? pb - sb : 0);
        if (avail > written) {
          dispatch(op, format, words + offsets[ia] + written,
                   words + offsets[at(op.b, j)] + written,
                   words + offsets[at(op.dst, j)] + written, avail - written,
                   nullptr);
          produced[d] += avail - written;
        }
        if (avail < lens[ia]) break;
      }
    }
  }
  telemetry::record_child_span("exec.tape", span_start);

  if (carried) {
    for (std::size_t s = 0; s < mac.size(); ++s) {
      carry->mac[s].acc = mac[s].acc;
      carry->mac[s].filled = mac[s].filled;
      carry->mac[s].consumed += mac[s].consumed;
    }
  }
}

std::uint64_t cycles_for(const ExecPlan& plan, std::uint64_t samples) {
  return static_cast<std::uint64_t>(plan.pipeline_depth) +
         (samples > 0 ? samples - 1 : 0);
}

/// Job `j`'s result from the arena stripes: its output streams (u64
/// encodings when `raw`, FpValue streams otherwise) and its closed-form
/// counters.
RunResult collect(const ExecPlan& plan, std::size_t njobs, std::size_t j,
                  const JobSlot& slot, bool raw) {
  ExecArena& arena = ExecArena::this_thread();
  RunResult run;
  for (const ExecPlan::OutputSlot& output : plan.outputs) {
    const std::size_t i = static_cast<std::size_t>(output.buffer) * njobs + j;
    const std::size_t len = arena.lengths()[i];
    if (len == kAbsent) {
      throw std::runtime_error("PlanExecutor: output stream missing");
    }
    const std::uint64_t* p = arena.words() + arena.offsets()[i];
    if (raw) {
      run.bit_outputs.emplace(output.name,
                              std::vector<std::uint64_t>(p, p + len));
    } else {
      std::vector<FpValue> stream(len);
      for (std::size_t k = 0; k < len; ++k) stream[k] = FpValue(plan.format, p[k]);
      run.outputs.emplace(output.name, std::move(stream));
    }
  }
  run.pipeline_depth = plan.pipeline_depth;
  run.cycles = cycles_for(plan, slot.length);
  run.fp_ops = slot.fp_ops;
  run.mac_ops = slot.mac_ops;
  return run;
}

/// Name-keyed streams in resolved form, with the single-job acceptance
/// rules in the single-job order (length mismatch before unknown name).
/// `view(stream)` borrows one stream as a BatchStream.
template <typename StreamMap, typename View>
ResolvedJob resolve_named(const ExecPlan& plan, const StreamMap& streams,
                          View&& view) {
  ResolvedJob job;
  job.reserve(streams.size());
  std::size_t length = 0;
  for (const auto& [name, stream] : streams) {
    const BatchStream borrowed = view(stream);
    if (length == 0) length = borrowed.size;
    if (borrowed.size != length) {
      throw std::invalid_argument("PlanExecutor: input stream lengths differ");
    }
    job.push_back(ResolvedStream{-1, borrowed});
  }
  std::size_t k = 0;
  for (const auto& [name, stream] : streams) {
    const auto it = plan.input_buffer_by_name.find(name);
    if (it == plan.input_buffer_by_name.end()) {
      throw std::invalid_argument("PlanExecutor: unknown input stream '" +
                                  name + "'");
    }
    job[k++].buffer = it->second;
  }
  return job;
}

ResolvedJob resolve_named(const ExecPlan& plan, const BatchInputs& streams) {
  return resolve_named(plan, streams,
                       [](const BatchStream& stream) { return stream; });
}

/// A lone job or session chunk: a stripe of one. Throws the job's
/// acceptance failure; the slot stays valid until the calling thread's
/// next sweep.
const JobSlot& sweep_one(const ExecPlan& plan, const ResolvedJob& job,
                         StreamCarry* carry) {
  std::vector<JobSlot>& table = job_table(1);
  sweep(plan, &job, table, carry);
  if (table[0].error) std::rethrow_exception(table[0].error);
  return table[0];
}

RunResult collect_one(const ExecPlan& plan, const JobSlot& slot, bool raw) {
  const std::uint64_t span_start = telemetry::child_span_start();
  RunResult run = collect(plan, 1, 0, slot, raw);
  telemetry::record_child_span("exec.decode", span_start);
  return run;
}

/// A fused batch: `pre_error` (empty = none) marks jobs that already
/// failed name resolution; they fail alone like any rejected job.
std::vector<PlanExecutor::BatchOutcome> run_jobs(
    const ExecPlan& plan, const std::vector<ResolvedJob>& jobs,
    const std::vector<std::exception_ptr>& pre_error,
    const std::vector<bool>& raw_outputs) {
  const std::size_t njobs = jobs.size();
  if (!raw_outputs.empty() && raw_outputs.size() != njobs) {
    throw std::invalid_argument(
        "PlanExecutor: raw_outputs must be empty or one flag per job");
  }
  std::vector<JobSlot>& table = job_table(njobs);
  for (std::size_t j = 0; j < pre_error.size(); ++j) {
    table[j].error = pre_error[j];
  }
  sweep(plan, jobs.data(), table, nullptr);

  const std::uint64_t span_start = telemetry::child_span_start();
  std::vector<PlanExecutor::BatchOutcome> out(njobs);
  for (std::size_t j = 0; j < njobs; ++j) {
    out[j].error = table[j].error;
    if (out[j].error) continue;
    try {
      out[j].run = collect(plan, njobs, j, table[j],
                           !raw_outputs.empty() && raw_outputs[j]);
    } catch (...) {
      out[j].error = std::current_exception();
    }
  }
  telemetry::record_child_span("exec.decode", span_start);
  return out;
}

}  // namespace

RunResult PlanExecutor::run(
    const std::map<std::string, std::vector<FpValue>>& inputs) const {
  std::map<std::string, std::vector<std::uint64_t>> bits;
  for (const auto& [name, stream] : inputs) {
    std::vector<std::uint64_t>& out = bits[name];
    out.reserve(stream.size());
    for (const FpValue& value : stream) out.push_back(value.bits());
  }
  const ResolvedJob job =
      resolve_named(*plan_, bits, [](const std::vector<std::uint64_t>& s) {
        return BatchStream{s.data(), nullptr, s.size()};
      });
  return collect_one(*plan_, sweep_one(*plan_, job, nullptr), false);
}

RunResult PlanExecutor::run_doubles(
    const std::map<std::string, std::vector<double>>& inputs) const {
  const ResolvedJob job =
      resolve_named(*plan_, inputs, [](const std::vector<double>& s) {
        return BatchStream{nullptr, s.data(), s.size()};
      });
  return collect_one(*plan_, sweep_one(*plan_, job, nullptr), false);
}

std::vector<PlanExecutor::BatchOutcome> PlanExecutor::run_batch(
    const std::vector<BatchInputs>& jobs,
    const std::vector<bool>& raw_outputs) const {
  std::vector<ResolvedJob> resolved(jobs.size());
  std::vector<std::exception_ptr> pre_error(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    try {
      resolved[j] = resolve_named(*plan_, jobs[j]);
    } catch (...) {
      pre_error[j] = std::current_exception();
    }
  }
  return run_jobs(*plan_, resolved, pre_error, raw_outputs);
}

std::int32_t PlanExecutor::resolve_input(const std::string& name) const {
  const auto it = plan_->input_buffer_by_name.find(name);
  if (it == plan_->input_buffer_by_name.end()) {
    throw std::invalid_argument("PlanExecutor: unknown input stream '" + name +
                                "'");
  }
  return it->second;
}

std::vector<PlanExecutor::BatchOutcome> PlanExecutor::run_batch_resolved(
    const std::vector<ResolvedJob>& jobs,
    const std::vector<bool>& raw_outputs) const {
  return run_jobs(*plan_, jobs, {}, raw_outputs);
}

RunResult PlanExecutor::run_chunk(const BatchInputs& chunk, StreamCarry* carry,
                                  bool raw_output) const {
  const ExecPlan& plan = *plan_;
  if (carry == nullptr) {
    throw std::invalid_argument("PlanExecutor: run_chunk needs a carry");
  }
  const std::size_t mac_ops = static_cast<std::size_t>(plan.num_mac_ops);
  if (carry->mac.empty()) {
    carry->mac.resize(mac_ops);
  } else if (carry->mac.size() != mac_ops) {
    throw std::invalid_argument(
        "PlanExecutor: carry was opened against a different plan shape");
  }
  const JobSlot& slot = sweep_one(plan, resolve_named(plan, chunk), carry);
  RunResult result = collect_one(plan, slot, raw_output);

  // Fold this chunk into the cumulative totals. cycles stays closed-form
  // over the whole stream: a session at initiation interval 1 fills its
  // pipeline once, not once per chunk.
  carry->total_samples += slot.length;
  carry->fp_ops += result.fp_ops;
  carry->mac_ops += result.mac_ops;
  result.cycles = cycles_for(plan, carry->total_samples);
  result.fp_ops = carry->fp_ops;
  result.mac_ops = carry->mac_ops;
  return result;
}

PlanExecutor::RunView PlanExecutor::run_views(const BatchInputs& inputs) const {
  const ExecPlan& plan = *plan_;
  const JobSlot& slot = sweep_one(plan, resolve_named(plan, inputs), nullptr);

  ExecArena& arena = ExecArena::this_thread();
  RunView view;
  view.outputs.reserve(plan.outputs.size());
  for (const ExecPlan::OutputSlot& slot : plan.outputs) {
    const std::size_t i = static_cast<std::size_t>(slot.buffer);
    if (arena.lengths()[i] == kAbsent) {
      throw std::runtime_error("PlanExecutor: output stream missing");
    }
    view.outputs.emplace_back(
        slot.name, BitStreamView{arena.words() + arena.offsets()[i],
                                 arena.lengths()[i]});
  }
  view.pipeline_depth = plan.pipeline_depth;
  view.cycles = cycles_for(plan, slot.length);
  view.fp_ops = slot.fp_ops;
  view.mac_ops = slot.mac_ops;
  return view;
}

}  // namespace vcgra::overlay
