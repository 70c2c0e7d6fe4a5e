#include "refeval.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

using vcgra::overlay::OpKind;
using vcgra::softfloat::FpFormat;
using vcgra::softfloat::FpValue;

RefKernel::RefKernel(const std::string& text,
                     const vcgra::overlay::ParamBinding& overrides,
                     FpFormat format)
    : format_(format) {
  const vcgra::overlay::ParsedKernel parsed =
      vcgra::overlay::parse_kernel_symbolic(text);
  const vcgra::overlay::Dfg& dfg = parsed.dfg;
  const auto& dnodes = dfg.nodes();
  for (const auto& [name, value] : overrides) {
    const int index = dfg.find(name);
    if (index < 0 || dnodes[static_cast<std::size_t>(index)].kind != OpKind::kParam) {
      throw std::invalid_argument("RefKernel: no param named " + name);
    }
  }
  const auto param_value = [&](int index) {
    const auto& node = dnodes[static_cast<std::size_t>(index)];
    const auto it = overrides.find(node.name);
    return it == overrides.end() ? node.value : it->second;
  };
  const auto is_param = [&](int index) {
    return dnodes[static_cast<std::size_t>(index)].kind == OpKind::kParam;
  };

  nodes_.resize(dnodes.size());
  std::vector<int> ready(dnodes.size(), 0);
  std::vector<bool> decimated(dnodes.size(), false);
  for (const int i : dfg.topo_order()) {
    const auto& dn = dnodes[static_cast<std::size_t>(i)];
    Node& n = nodes_[static_cast<std::size_t>(i)];
    n.kind = dn.kind;
    int start = 0;
    for (const int arg : dn.args) {
      if (decimated[static_cast<std::size_t>(arg)] && dn.kind != OpKind::kOutput) {
        throw std::invalid_argument("RefKernel: a MAC output feeds another op");
      }
      start = std::max(start, ready[static_cast<std::size_t>(arg)]);
    }
    int latency = 0;
    switch (dn.kind) {
      case OpKind::kInput:
        n.input_slot = static_cast<int>(input_names_.size());
        input_names_.push_back(dn.name);
        break;
      case OpKind::kParam:
      case OpKind::kOutput:
        break;
      case OpKind::kMul:
        latency = 3;
        if (is_param(dn.args[0]) && is_param(dn.args[1])) {
          throw std::invalid_argument("RefKernel: mul of two params");
        }
        if (is_param(dn.args[1])) {
          n.a = dn.args[0];
          n.coeff = param_value(dn.args[1]);
        } else if (is_param(dn.args[0])) {
          n.a = dn.args[1];
          n.coeff = param_value(dn.args[0]);
        } else {
          n.a = dn.args[0];
          n.b = dn.args[1];
        }
        fp_ops_per_sample_ += 1;
        break;
      case OpKind::kAdd:
      case OpKind::kSub:
        latency = 4;
        if (is_param(dn.args[0]) || is_param(dn.args[1])) {
          throw std::invalid_argument("RefKernel: add/sub of a param");
        }
        n.a = dn.args[0];
        n.b = dn.args[1];
        fp_ops_per_sample_ += 1;
        break;
      case OpKind::kMac:
        latency = 7;
        n.a = dn.args[0];
        n.coeff = param_value(dn.args[1]);
        n.count = static_cast<std::uint32_t>(std::max(dn.count, 1));
        fp_ops_per_sample_ += 2;
        mac_ops_per_sample_ += 1;
        decimated[static_cast<std::size_t>(i)] = true;
        break;
      case OpKind::kPass:
        latency = 1;
        n.a = dn.args[0];
        break;
    }
    if (dn.kind == OpKind::kOutput) {
      outputs_.emplace_back(dn.name, dn.args[0]);
    } else if (dn.kind != OpKind::kInput && dn.kind != OpKind::kParam) {
      ++compute_nodes_;
    }
    ready[static_cast<std::size_t>(i)] = start + latency;
    critical_path_ = std::max(critical_path_, ready[static_cast<std::size_t>(i)]);
  }
  std::sort(outputs_.begin(), outputs_.end());
}

RefKernel::Result RefKernel::run(
    const std::map<std::string, const std::vector<double>*>& inputs) const {
  std::vector<const std::vector<double>*> streams;
  std::size_t length = 0;
  for (const std::string& name : input_names_) {
    const auto it = inputs.find(name);
    if (it == inputs.end()) throw std::invalid_argument("RefKernel: missing input " + name);
    streams.push_back(it->second);
    length = it->second->size();
  }
  for (const auto* s : streams) {
    if (s->size() != length) throw std::invalid_argument("RefKernel: ragged inputs");
  }

  // Unit roundoff of the format plus that of the double evaluation, and
  // the flush-to-zero threshold (FloPoCo has no subnormals).
  const double u = std::ldexp(1.0, -(format_.wf + 1)) + std::ldexp(1.0, -52);
  const double tiny = std::ldexp(1.0, static_cast<int>(1 - format_.bias()));
  const std::uint64_t sign_bit = std::uint64_t{1} << (format_.we + format_.wf);

  struct Val {
    FpValue sf;
    double d = 0;    // double evaluation
    double err = 0;  // bound on |exact - sf| (and on |exact - d|)
  };
  const auto mul = [&](const Val& a, const Val& b) {
    Val r;
    r.sf = vcgra::softfloat::fp_mul(a.sf, b.sf);
    r.d = a.d * b.d;
    const double mag = (std::fabs(a.d) + a.err) * (std::fabs(b.d) + b.err);
    r.err = std::fabs(a.d) * b.err + std::fabs(b.d) * a.err + a.err * b.err +
            u * mag + tiny;
    return r;
  };
  const auto add = [&](const Val& a, const Val& b) {
    Val r;
    r.sf = vcgra::softfloat::fp_add(a.sf, b.sf);
    r.d = a.d + b.d;
    r.err = a.err + b.err +
            u * (std::fabs(a.d) + std::fabs(b.d) + a.err + b.err) + tiny;
    return r;
  };
  const auto quantize = [&](double v) {
    Val r;
    r.sf = FpValue::from_double(format_, v);
    r.d = v;
    r.err = u * std::fabs(v) + tiny;
    return r;
  };

  Result result;
  std::vector<Val> vals(nodes_.size());
  std::vector<Val> coeffs(nodes_.size());
  std::vector<Val> acc(nodes_.size());
  std::vector<std::uint32_t> filled(nodes_.size(), 0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    coeffs[i] = quantize(nodes_[i].coeff);
    acc[i] = quantize(0.0);
    acc[i].err = 0;
  }
  for (const auto& [name, src] : outputs_) {
    result.bits[name].reserve(nodes_[static_cast<std::size_t>(src)].kind == OpKind::kMac
                                  ? length / nodes_[static_cast<std::size_t>(src)].count
                                  : length);
  }

  const auto check = [&](const Val& v) {
    const double got = v.sf.to_double();
    const double diff = std::fabs(got - v.d);
    const double bound = 2.0 * v.err;  // the double's own error is in err too
    const double ratio = bound > 0 ? diff / bound : (diff > 0 ? 2.0 : 0.0);
    if (!(ratio <= 1.0)) ++result.bound_violations;
    if (ratio > result.worst_bound_ratio || std::isnan(ratio)) {
      result.worst_bound_ratio = std::isnan(ratio) ? 1e300 : ratio;
    }
  };

  for (std::size_t s = 0; s < length; ++s) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const Node& n = nodes_[i];
      switch (n.kind) {
        case OpKind::kInput:
          vals[i] = quantize((*streams[static_cast<std::size_t>(n.input_slot)])[s]);
          break;
        case OpKind::kParam:
        case OpKind::kOutput:
          break;
        case OpKind::kMul:
          vals[i] = mul(vals[static_cast<std::size_t>(n.a)],
                        n.b >= 0 ? vals[static_cast<std::size_t>(n.b)] : coeffs[i]);
          break;
        case OpKind::kAdd:
          vals[i] = add(vals[static_cast<std::size_t>(n.a)],
                        vals[static_cast<std::size_t>(n.b)]);
          break;
        case OpKind::kSub: {
          Val neg = vals[static_cast<std::size_t>(n.b)];
          neg.sf = FpValue(format_, neg.sf.bits() ^ sign_bit);
          neg.d = -neg.d;
          vals[i] = add(vals[static_cast<std::size_t>(n.a)], neg);
          break;
        }
        case OpKind::kMac: {
          // The PE's non-fused MAC: the product rounds, then the sum.
          const Val product = mul(vals[static_cast<std::size_t>(n.a)], coeffs[i]);
          Val next = add(acc[i], product);
          next.sf = vcgra::softfloat::fp_mac(acc[i].sf, vals[static_cast<std::size_t>(n.a)].sf,
                                             coeffs[i].sf);
          acc[i] = next;
          if (++filled[i] == n.count) {
            vals[i] = acc[i];
            acc[i] = quantize(0.0);
            acc[i].err = 0;
            filled[i] = 0;
          }
          break;
        }
        case OpKind::kPass:
          vals[i] = vals[static_cast<std::size_t>(n.a)];
          break;
      }
    }
    for (const auto& [name, src] : outputs_) {
      const Node& n = nodes_[static_cast<std::size_t>(src)];
      if (n.kind == OpKind::kMac && filled[static_cast<std::size_t>(src)] != 0) continue;
      const Val& v = vals[static_cast<std::size_t>(src)];
      result.bits[name].push_back(v.sf.bits());
      check(v);
    }
  }
  return result;
}

}  // namespace perfbench
